#include "engine/lock_manager.h"

#include <algorithm>

#include "obs/obs.h"

namespace caldb {

namespace {

struct LockMetrics {
  obs::Counter* acquired =
      obs::Metrics().counter("caldb.engine.table_locks.acquired");
  obs::Counter* fallbacks =
      obs::Metrics().counter("caldb.engine.table_locks.fallbacks");
  obs::Histogram* wait_ns =
      obs::Metrics().histogram("caldb.engine.table_locks.wait_ns");
};

LockMetrics& Metrics() {
  static LockMetrics* m = new LockMetrics();
  return *m;
}

// Times one acquisition.  Every lock is tried first; a lock taken without
// blocking costs no clock read, and an acquisition that never blocked
// records a wait of 0 and leaves the caller's stamp as it was.  The first
// lock that blocks starts the wait (at the caller's stamp when it passed
// one, else at a read of its own), and the grant reads the clock once.
class WaitTimer {
 public:
  explicit WaitTimer(int64_t* clock_ns)
      : clock_ns_(clock_ns),
        timed_(clock_ns != nullptr ? *clock_ns != 0 : obs::Enabled()) {}

  // Takes `mu` (shared or exclusive), blocking only if it must.
  void Lock(std::shared_mutex* mu, bool exclusive) {
    if (exclusive ? mu->try_lock() : mu->try_lock_shared()) return;
    if (timed_ && start_ns_ == 0) start_ns_ = obs::PhaseStart(clock_ns_);
    if (exclusive) {
      mu->lock();
    } else {
      mu->lock_shared();
    }
  }

  void Granted() {
    if (!timed_) return;
    if (start_ns_ == 0) {
      Metrics().wait_ns->Record(0);
    } else {
      obs::PhaseEnd(start_ns_, Metrics().wait_ns, clock_ns_);
    }
  }

 private:
  int64_t* clock_ns_;
  bool timed_;
  int64_t start_ns_ = 0;
};

}  // namespace

LockManager::Guard& LockManager::Guard::operator=(Guard&& other) noexcept {
  if (this != &other) {
    Release();
    mgr_ = other.mgr_;
    mode_ = other.mode_;
    tables_exclusive_ = other.tables_exclusive_;
    table_locks_ = std::move(other.table_locks_);
    other.mgr_ = nullptr;
    other.mode_ = Mode::kNone;
    other.table_locks_.clear();
  }
  return *this;
}

void LockManager::Guard::Release() {
  if (mode_ == Mode::kNone) return;
  // Reverse acquisition order: tables (last to first), then the intent
  // layer.  Unlock order does not affect correctness for mutexes, but
  // keeping it LIFO makes the guard read like nested scopes.
  for (auto it = table_locks_.rbegin(); it != table_locks_.rend(); ++it) {
    if (tables_exclusive_) {
      (*it)->unlock();
    } else {
      (*it)->unlock_shared();
    }
  }
  table_locks_.clear();
  if (mode_ == Mode::kGlobalExclusive) {
    mgr_->global_mu_.unlock();
  } else {
    mgr_->global_mu_.unlock_shared();
  }
  mode_ = Mode::kNone;
  mgr_ = nullptr;
}

std::shared_mutex* LockManager::TableMutex(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = table_mu_.find(name);
    if (it != table_mu_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  std::unique_ptr<std::shared_mutex>& slot = table_mu_[name];
  if (slot == nullptr) slot = std::make_unique<std::shared_mutex>();
  return slot.get();
}

LockManager::Guard LockManager::AcquireTables(
    const std::vector<std::string>& tables, bool exclusive,
    int64_t* clock_ns) {
  Metrics().acquired->Increment();
  WaitTimer wait(clock_ns);
  Guard guard;
  guard.mgr_ = this;
  guard.tables_exclusive_ = exclusive;
  wait.Lock(&global_mu_, /*exclusive=*/false);
  guard.mode_ = Guard::Mode::kTables;
  auto lock_one = [&guard, &wait, exclusive](std::shared_mutex* mu) {
    // Resolution happened under the registry leaf lock; block on the
    // table lock with the registry released — a blocked acquisition must
    // never stall other statements' name resolution.
    wait.Lock(mu, exclusive);
    guard.table_locks_.push_back(mu);
  };
  if (tables.size() == 1) {
    // The dominant case (point retrieves, single-table DML): no copy, no
    // sort — a one-element set is trivially in sorted order.
    guard.table_locks_.reserve(1);
    lock_one(TableMutex(tables[0]));
  } else {
    // Sorted-name order keeps concurrent footprint statements acquiring
    // any overlapping table sets in one global order — the
    // deadlock-freedom invariant.  Compiled metadata deduplicates but
    // does not sort.
    std::vector<std::string> sorted(tables);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    guard.table_locks_.reserve(sorted.size());
    for (const std::string& name : sorted) lock_one(TableMutex(name));
  }
  wait.Granted();
  return guard;
}

LockManager::Guard LockManager::AcquireGlobalExclusive(int64_t* clock_ns) {
  Metrics().fallbacks->Increment();
  WaitTimer wait(clock_ns);
  Guard guard;
  guard.mgr_ = this;
  wait.Lock(&global_mu_, /*exclusive=*/true);
  guard.mode_ = Guard::Mode::kGlobalExclusive;
  wait.Granted();
  return guard;
}

LockManager::Guard LockManager::AcquireGlobalShared() {
  Guard guard;
  guard.mgr_ = this;
  global_mu_.lock_shared();
  guard.mode_ = Guard::Mode::kGlobalShared;
  return guard;
}

}  // namespace caldb
