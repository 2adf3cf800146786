// Test helper: the DB substrate's scan and rule counters of the metric
// registry ("caldb.db.*", docs/OBSERVABILITY.md) as deltas from a starting
// point.  The registry is process-wide, and gtest runs a binary's tests
// one after another, so a delta counts exactly the statements in between.

#ifndef CALDB_TESTS_DB_DB_COUNTERS_H_
#define CALDB_TESTS_DB_DB_COUNTERS_H_

#include <cstdint>

#include "obs/obs.h"

namespace caldb {

class DbCounterDeltas {
 public:
  DbCounterDeltas() { Reset(); }

  /// Starts counting from now.
  void Reset() {
    rows_scanned_ = Read("caldb.db.rows_scanned");
    index_scans_ = Read("caldb.db.index_scans");
    full_scans_ = Read("caldb.db.full_scans");
    rules_fired_ = Read("caldb.db.rules_fired");
  }

  int64_t rows_scanned() const {
    return Read("caldb.db.rows_scanned") - rows_scanned_;
  }
  int64_t index_scans() const {
    return Read("caldb.db.index_scans") - index_scans_;
  }
  int64_t full_scans() const {
    return Read("caldb.db.full_scans") - full_scans_;
  }
  int64_t rules_fired() const {
    return Read("caldb.db.rules_fired") - rules_fired_;
  }

 private:
  static int64_t Read(const char* name) {
    return obs::Metrics().counter(name)->value();
  }

  int64_t rows_scanned_ = 0;
  int64_t index_scans_ = 0;
  int64_t full_scans_ = 0;
  int64_t rules_fired_ = 0;
};

}  // namespace caldb

#endif  // CALDB_TESTS_DB_DB_COUNTERS_H_
