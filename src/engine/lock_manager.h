// LockManager — per-table locking for the Engine's critical section.
//
// The paper's §4 architecture has DBCRON concurrent with user sessions;
// until PR 10 the Engine realized that with a single std::shared_mutex
// over the whole Database, so writes on unrelated tables serialized.
// The LockManager splits that lock in two layers:
//
//   - a global *intent* shared_mutex.  Statements whose footprint is
//     known (the compiled metadata's table list) hold it SHARED for the
//     duration; operations whose footprint is unknowable — DDL,
//     retrieve-into, rule definitions, rule firings, WAL
//     checkpoint/recovery — take it EXCLUSIVE, which by construction
//     excludes every footprint statement at once.  This is the "existing
//     global exclusive path": correctness never depends on footprint
//     precision.
//   - one shared_mutex per table, created on first reference and never
//     destroyed (a drop leaves the mutex behind; the registry is a map of
//     stable heap slots).  A footprint statement locks exactly its tables
//     — shared for retrieves, exclusive for DML — so writers on disjoint
//     tables proceed in parallel under the shared intent layer.
//
// Deadlock freedom: every footprint acquisition locks the intent layer
// first, then its tables in sorted-name order; global-exclusive holders
// take only the intent mutex.  The registry mutex is a leaf — held only
// to resolve names to mutex pointers, never while blocking on a table
// lock.
//
// Observability ("caldb.engine.table_locks.*", docs/OBSERVABILITY.md):
//   .acquired   footprint acquisitions (per-table path taken)
//   .fallbacks  global-exclusive acquisitions (fallback path taken)
//   .wait_ns    wall time spent blocked acquiring either path (0 when
//               every lock was free)
//
// Timing: every lock is tried first, and an acquisition that takes all
// of them without blocking records a wait of 0 and reads no clock.  A
// caller that keeps a statement timeline passes its clock stamp
// (`clock_ns`, the read it took just before asking): a blocked wait runs
// from that stamp to one read at the grant, which is handed back in
// `*clock_ns` as the start of the caller's next phase (unblocked, the
// stamp stays).  A stamp of 0 means the caller is untimed.  Without a
// stamp (checkpoints, DDL, DBCRON) a blocked acquisition reads its own
// pair.

#ifndef CALDB_ENGINE_LOCK_MANAGER_H_
#define CALDB_ENGINE_LOCK_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace caldb {

class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Move-only RAII over one acquisition.  Destruction (or explicit
  /// Release) unlocks everything in reverse acquisition order.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept { *this = std::move(other); }
    Guard& operator=(Guard&& other) noexcept;
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

    void Release();
    bool held() const { return mode_ != Mode::kNone; }

   private:
    friend class LockManager;
    enum class Mode {
      kNone,
      kGlobalShared,     // intent shared, no table locks
      kGlobalExclusive,  // intent exclusive (the fallback path)
      kTables,           // intent shared + per-table locks
    };
    LockManager* mgr_ = nullptr;
    Mode mode_ = Mode::kNone;
    bool tables_exclusive_ = false;
    // The table mutexes this guard holds, in acquisition (sorted-name)
    // order.  Pointers are stable: registry slots are never destroyed.
    std::vector<std::shared_mutex*> table_locks_;
  };

  /// Footprint acquisition: intent shared, then each named table (sorted,
  /// deduplicated) shared or exclusive.  An empty list degrades to the
  /// intent-shared layer alone — correct for statements that touch no
  /// table data.
  Guard AcquireTables(const std::vector<std::string>& tables, bool exclusive,
                      int64_t* clock_ns = nullptr);

  /// The fallback path: intent exclusive.  Excludes every footprint
  /// statement and every other global holder; used for operations whose
  /// footprint cannot be known from compiled metadata (DDL, rule firings,
  /// checkpoints) and for whole-database reads.
  Guard AcquireGlobalExclusive(int64_t* clock_ns = nullptr);

  /// Intent shared with no table locks.  This does NOT exclude per-table
  /// writers — safe only for state that is mutated exclusively under the
  /// global-exclusive path (rule-manager metadata, DBCRON counters),
  /// never for table data.
  Guard AcquireGlobalShared();

 private:
  std::shared_mutex* TableMutex(const std::string& name);

  std::shared_mutex global_mu_;
  // Leaf lock: guards the name -> mutex registry only; released before
  // blocking on any table lock.  Reader/writer because the steady state
  // is all lookups: a table's slot is created once (first statement to
  // touch it) and never removed, so after warm-up every statement takes
  // only the shared side.
  std::shared_mutex registry_mu_;
  std::map<std::string, std::unique_ptr<std::shared_mutex>> table_mu_;
};

}  // namespace caldb

#endif  // CALDB_ENGINE_LOCK_MANAGER_H_
