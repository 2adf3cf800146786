// StatementCache — a bounded, thread-safe LRU of compiled statements,
// shared by every Session of an Engine.
//
// The system's hot loops are repetitive: DBCRON fires the same action
// text on every tick, event rules re-run one command per matching append,
// recovery replays thousands of identical statement shapes, and clients
// hammer the same retrieves.  The cache memoizes CompileStatement per
// statement shape (ShapeStatement's key: the whitespace-normalized text,
// with the literals of literal DML lifted into $n slots by
// Engine::Execute), so each distinct shape pays the parser exactly once
// and every later execution is a hash lookup returning a shared immutable
// handle.
//
// Invalidation: compiled ASTs resolve tables at execution time, so a
// cached handle can never dangle into a dropped schema — but its
// precomputed metadata (referenced tables, write classification) must not
// go stale either.  After any DDL (create/drop table, create index,
// define/drop rule, retrieve-into) the Engine calls InvalidateTables with
// the statement's table list; entries referencing any of those tables are
// dropped.  DDL with no statically known scope (drop rule) flushes
// everything.
//
// Thread safety: one mutex over the map+LRU list.  Compilation happens
// OUTSIDE the lock (a miss compiles, then inserts; a racing duplicate
// insert is coalesced), so a slow parse never blocks concurrent hits.
//
// Instruments: caldb.stmt_cache.{hits,misses,evictions,invalidations}
// counters and the caldb.stmt_cache.size gauge (docs/OBSERVABILITY.md).

#ifndef CALDB_ENGINE_STATEMENT_CACHE_H_
#define CALDB_ENGINE_STATEMENT_CACHE_H_

#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/compiled_statement.h"

namespace caldb {

class StatementCache {
 public:
  /// `max_entries` bounds the cache; 0 disables caching (every call
  /// compiles fresh — useful to isolate the cache in benches).
  explicit StatementCache(size_t max_entries = 512);

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// The pipeline entry point: returns the handle cached under `key`,
  /// compiling `source` (CompileStatement, lifting its literals when
  /// asked) and inserting it on a miss.  Parse errors are NOT cached — a
  /// later identical call re-parses, so a typo fixed by a schema change
  /// (or just retried) is not pinned.
  Result<CompiledStatementPtr> GetOrCompile(const std::string& key,
                                            std::string_view source,
                                            bool lift_literals = false);

  /// The same, keyed by NormalizeStatementText(text).  Normalization is
  /// idempotent, so a text already in normal form is its own key: it is
  /// probed first, which spares callers that resend one spelling (a
  /// prepare by text per execution) the normalizing scan.
  Result<CompiledStatementPtr> GetOrCompile(const std::string& text);

  /// Drops every entry whose referenced-table list intersects `tables`;
  /// an empty list means the scope is unknown and flushes everything.
  /// Counted once per call in caldb.stmt_cache.invalidations.
  void InvalidateTables(const std::vector<std::string>& tables);

  /// Drops everything (rule-state changes with no table scope).
  void InvalidateAll();

  /// Point-in-time accounting, for tests and the shell's \stmtcache.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;  // invalidation *calls*
    int64_t invalidated_entries = 0;
    size_t size = 0;
    size_t capacity = 0;
  };
  Stats stats() const;

  /// One row per cached entry, most recently used first.  `compiled` is
  /// the live shared handle — callers render param signatures etc. from
  /// it without re-locking the cache.  For the shell's \stmtcache.
  struct EntryInfo {
    std::string normalized_text;
    CompiledStatementPtr compiled;
  };
  std::vector<EntryInfo> Entries() const;

 private:
  struct Entry {
    CompiledStatementPtr compiled;
    std::list<std::string>::iterator lru_it;  // position in lru_ (MRU front)
  };

  // The entry under `key`, counted as a hit and moved to the MRU front;
  // null (and nothing counted) when absent.
  CompiledStatementPtr Find(const std::string& key);

  // Caller holds mu_.  Removes `it` from both structures.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it);

  const size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  Stats stats_;
};

}  // namespace caldb

#endif  // CALDB_ENGINE_STATEMENT_CACHE_H_
