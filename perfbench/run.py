#!/usr/bin/env python3
"""Builds and runs the caldb benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the caldb library from src/) into
.bench_build/, runs one workload in its own process, and prints a metadata
line followed, as the last line, by one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics.  The exit code is 0 only
when every operation succeeded and every correctness check passed.

--smoke runs every workload in both modes on tiny inputs and checks that
every metric named in BENCHMARK.json is reported with its unit, that each
workload emits the per-layer metrics of the layers it exercises (OWNED)
with values above 0, and that the correctness checks ran.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ["oltp_literal", "ledger_durable", "calendar_scripts",
             "rule_firing"]
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload exercises: a trace-mode run must emit
# every one of them with a value above 0 (smoke checks it).  A workload may
# emit other per-layer metrics that legitimately read 0, such as the
# statement-cache evictions of ledger_durable; run_workload fills in 0 for
# the rest of BENCHMARK.json's per-layer names, which every trace-mode
# result carries.
OWNED = {
    "oltp_literal": [
        "engine.stmt_cache.evictions_per_op", "engine.prepare_us",
        "engine.execute_us", "db.parse_us", "db.rows_scanned_per_op",
        "db.btree_node_reads_per_op", "db.index_scans_per_op",
    ],
    "ledger_durable": [
        "engine.stmt_cache.hit_ratio", "engine.prepare_us",
        "engine.execute_us", "db.rows_scanned_per_op",
        "db.btree_node_reads_per_op", "db.index_scans_per_op",
        "storage.wal_bytes_per_op", "storage.wal_append_us_p50",
        "storage.checkpoints_per_round", "storage.checkpoint_ms",
        "storage.replayed_records", "storage.recovery_s", "storage.fsync_us",
    ],
    "calendar_scripts": [
        "lang.lex_us", "lang.parse_us", "lang.analyze_us",
        "lang.optimize_us", "lang.plan_us", "lang.eval_us", "lang.render_us",
        "lang.gen_cache.hit_ratio", "lang.generate_calls_per_op",
        "lang.intervals_generated_per_op", "core.sweep.comparisons_per_op",
        "core.sweep.emits_per_op", "core.cal.rep_copies_per_op",
        "catalog.eval_cache.hit_ratio",
    ],
    "rule_firing": [
        "rules.fires_per_op", "rules.probes_per_op", "rules.due_between_us",
        "rules.action_us", "rules.residual_us_per_fire",
        "catalog.next_fire_us", "lang.generate_calls_per_op",
        "db.rows_scanned_per_op",
    ],
}
# Emitted by every workload's trace-mode run, whatever its value (the
# overhead is a difference of two throughputs, and on smoke's tiny inputs
# it can fall either side of 0).
ALWAYS_EMITTED = ["obs.trace_overhead_pct"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark, logging to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "caldb.h")):
        log("no caldb sources under ./src; run from the root of a checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    """The checked-out commit, read from .git without running git (the
    benchmark may run from an export that is not a repository)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process; returns (exit code, parsed result or None).
    The result's "emitted" key lists the metrics the process itself
    reported; in trace mode the other per-layer metrics are added as 0."""
    out_dir = os.path.join(RUN_DIR, "%s-%s-%s" % (workload, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("%s timed out" % workload)
        return 1, None
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s printed no result" % workload)
        return proc.returncode or 1, None
    result["emitted"] = sorted(result["metrics"])
    if trace:
        for m in load_spec()["per_layer"]:
            result["metrics"].setdefault(
                m["name"], {"value": 0, "unit": m["unit"]})
    return proc.returncode, result


def smoke(binary):
    spec = load_spec()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(binary, workload, 1, 0.5, trace,
                                        smoke=True)
            problems = []
            if code != 0 or result is None:
                problems.append("exit code %s" % code)
            else:
                if not result["correct"] or result["failed"]:
                    problems.append("correctness checks failed")
                if result["attempted"] < 1:
                    problems.append("no operation attempted")
                metrics = result["metrics"]
                emitted = set(result["emitted"])
                if set(metrics) != set(wanted[trace]):
                    problems.append("metric names differ: %s" % sorted(
                        set(metrics) ^ set(wanted[trace])))
                if trace:
                    for name in OWNED[workload] + ALWAYS_EMITTED:
                        if name not in emitted:
                            problems.append("%s not emitted" % name)
                        elif (name in OWNED[workload]
                              and not metrics[name]["value"] > 0):
                            problems.append("%s is not positive" % name)
                for name, unit in wanted[trace].items():
                    m = metrics.get(name)
                    if m is None:
                        continue
                    if m["unit"] != unit:
                        problems.append(
                            "%s unit %s != %s" % (name, m["unit"], unit))
                    value = m["value"]
                    if (not isinstance(value, (int, float))
                            or not math.isfinite(value)):
                        problems.append("%s is not a number" % name)
                    elif trace == 0 and value <= 0:
                        problems.append("%s is not positive" % name)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-16s trace=%d %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 3
    if args.smoke:
        return smoke(binary)

    code, result = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace)
    if result is None:
        return code or 1
    result.pop("emitted")
    meta = result.pop("meta", {})
    meta["git_sha"] = git_sha()
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
