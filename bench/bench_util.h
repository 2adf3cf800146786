// Shared benchmark harness.  Every bench binary links bench_main.cc, which
// runs Google Benchmark with the JsonLineReporter below: the usual console
// table, plus one machine-readable JSON line per benchmark run on stdout —
//
//   BENCH {"name":"BM_GenerateDays/365","iters":123,"ns_per_op":4567.8,
//          "nproc":4,"build_type":"Release","git_sha":"3bdc831e15c3-dirty",
//          "registry":{...MetricRegistry::ExportJson()...}}
//
// The registry is reset before each benchmark (rung), so its snapshot
// carries that rung's own caldb.* counter deltas — its set-up and every
// run Google Benchmark made of it — and scan/cache behaviour can be read
// off alongside the timings.  nproc, the CMake build type and the commit
// checked out in the source tree record where the line came from.  When
// the CALDB_BENCH_JSON environment variable names a file, the JSON lines
// are also appended there (the BENCH_*.json convention of the perf
// scripts).

#ifndef CALDB_BENCH_BENCH_UTIL_H_
#define CALDB_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace caldb::bench {

// The commit checked out in the source tree, suffixed "-dirty" when the
// tree has uncommitted changes (a row measured on them names no commit),
// or "unknown" when git cannot tell.
inline std::string SourceGitSha() {
  const std::string cmd = std::string("git -C '") + CALDB_SOURCE_DIR +
                          "' describe --always --dirty --abbrev=12"
                          " --exclude='*' 2>/dev/null";
  std::string sha;
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  JsonLineReporter() {
    const char* path = std::getenv("CALDB_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') json_path_ = path;
    char where[160];
    std::snprintf(where, sizeof(where),
                  "\"nproc\":%u,\"build_type\":\"%s\",\"git_sha\":\"%s\",",
                  std::thread::hardware_concurrency(), CALDB_BUILD_TYPE,
                  SourceGitSha().c_str());
    where_ = where;
  }

  bool ReportContext(const Context& context) override {
    // Static set-up before the first rung is nobody's delta.
    obs::MetricRegistry::Global().ResetAll();
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double ns_per_op =
          run.iterations == 0
              ? 0.0
              : run.real_accumulated_time * 1e9 /
                    static_cast<double>(run.iterations);
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"name\":\"%s\",\"iters\":%lld,\"ns_per_op\":%.1f,",
                    run.benchmark_name().c_str(),
                    static_cast<long long>(run.iterations), ns_per_op);
      std::string line = std::string(head) + where_ + "\"registry\":" +
                         obs::MetricRegistry::Global().ExportJson() + "}";
      std::printf("BENCH %s\n", line.c_str());
      if (!json_path_.empty()) {
        if (std::FILE* f = std::fopen(json_path_.c_str(), "a")) {
          std::fprintf(f, "%s\n", line.c_str());
          std::fclose(f);
        }
      }
    }
    // The next rung starts from zero.
    obs::MetricRegistry::Global().ResetAll();
  }

 private:
  std::string json_path_;
  std::string where_;  // the nproc/build_type/git_sha fields
};

}  // namespace caldb::bench

#endif  // CALDB_BENCH_BENCH_UTIL_H_
