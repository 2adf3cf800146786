// perfbench <workload> --seed N --seconds S --trace 0|1 [--smoke]
//           [--out-dir DIR]
//
// Runs one workload in this process and prints one JSON line: the
// contract's keys (correct, attempted, failed, metrics) plus "meta".
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result.  Exit code 0 only when every operation succeeded
// and every correctness check passed.

#include <malloc.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage() {
  std::cerr << "usage: perfbench <oltp_literal|ledger_durable|"
               "calendar_scripts|rule_firing> --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage();
  Options opts;
  opts.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else {
      Usage();
    }
  }
  if (opts.seconds <= 0) Usage();
  return opts;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts = ParseArgs(argc, argv);
  // One malloc arena for every thread.  With one client, the client and
  // DBCRON hand work to each other; whether a second arena appeared
  // depended on whether the two ever allocated at the same moment, and
  // moved rule_firing's peak RSS between 22.7 and 29 MB from run to run.
  mallopt(M_ARENA_MAX, 1);
  Report report;
  report.meta["workload"] = opts.workload;
  report.meta["seed"] = std::to_string(opts.seed);
  report.meta["seconds"] = std::to_string(opts.seconds);
  report.meta["trace"] = opts.trace ? "1" : "0";
  report.meta["smoke"] = opts.smoke ? "1" : "0";
  report.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  report.meta["compiler"] = PERFBENCH_COMPILER;
  report.meta["clients"] = "1";

  if (opts.workload == "oltp_literal") {
    RunOltpLiteral(opts, &report);
  } else if (opts.workload == "ledger_durable") {
    RunLedgerDurable(opts, &report);
  } else if (opts.workload == "calendar_scripts") {
    RunCalendarScripts(opts, &report);
  } else if (opts.workload == "rule_firing") {
    RunRuleFiring(opts, &report);
  } else {
    Usage();
  }

  std::cout << report.ToJson() << std::endl;
  return report.correct && report.failed == 0 ? 0 : 1;
}
