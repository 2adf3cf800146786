// Result<T>: a value-or-Status, the return type of fallible caldb
// operations that produce a value.
//
// The no-throw contract
// ---------------------
// caldb never throws across a public API.  Every fallible operation
// reachable from the facade (caldb.h) — parsing, evaluation, catalog and
// database calls, Engine/Session entry points — reports failure as a
// Status or Result<T>; exceptions are not part of the error surface:
//
//  - Library code does not `throw`, and avoids throwing std:: helpers on
//    user-controlled input (e.g. ParseDouble in common/strings.h instead
//    of std::stod, which raises out_of_range).
//  - The facade entry points (Engine::Execute, Session::Execute, the
//    typed Session surface) and the DBCRON daemon's advance step run their
//    implementations through NoThrow below, which converts any escaped
//    exception — out-of-memory aside, these would be defects — into
//    Status::Internal, so a bug below the facade degrades into an error
//    return instead of terminating a server worker thread.
//  - Accessing value() on an error Result is a programming error checked
//    by assert, not an exception.
//
// Callers may therefore invoke any public caldb function from
// exception-unaware code (worker threads, C callbacks) safely.

#ifndef CALDB_COMMON_RESULT_H_
#define CALDB_COMMON_RESULT_H_

#include <cassert>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"

namespace caldb {

/// Holds either a T (success) or a non-OK Status (failure).
///
/// Usage:
///   Result<int> r = ParseInt(s);
///   if (!r.ok()) return r.status();
///   Use(r.value());
///
/// The CALDB_ASSIGN_OR_RETURN macro in macros.h removes the boilerplate.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error Status keeps call sites
  // clean ("return 42;" / "return Status::NotFound(...)").
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  Result(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(const Result&) = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return value_.has_value(); }

  /// The status: OK when a value is present.
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ present.
};

/// The no-throw boundary: returns `fn()` (a Status or a Result<T>), or
/// Status::Internal("uncaught exception in <where>: <what>") when an
/// exception escapes it.  A plain template, so the guarded call inlines
/// and costs nothing unless something throws.
template <typename Fn>
auto NoThrow(const char* where, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("uncaught exception in ") + where +
                            ": " + e.what());
  } catch (...) {
    return Status::Internal(std::string("uncaught non-exception throw in ") +
                            where);
  }
}

}  // namespace caldb

#endif  // CALDB_COMMON_RESULT_H_
