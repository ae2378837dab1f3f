#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py

Run from the repository root. Runs perfbench/run.py on every workload in
BENCHMARK.json for a few hundred milliseconds, untraced and traced, and
checks that each run
  * exits 0 and ends with the result line the benchmark contract names,
    with correct = true and no failed requests;
  * prints exactly the metrics BENCHMARK.json lists, each with its unit;
  * ran the output oracle (and, traced, the ledger and replay checks);
  * records the host fingerprint, the seam states, the seed and the
    open-loop rate that BENCHMARK.json states for the workload.
Exits 1 on the first failure.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "0.3"
SEED = 1

ORACLE_CHECKS = {True: ["sampled_searches"],
                 False: ["final_live_set", "final_searches"]}
TRACE_CHECKS = ["ledger", "replay_errors"]
TIE_CHECKS = ["replay_node_accesses", "replay_checksum"]


def check(cond, message):
    if not cond:
        print("selftest FAILED: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_dir = os.path.abspath(os.environ.get(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    for workload in bench["workloads"]:
        name = workload["name"]
        rate = re.search(r"at (\d+) ops/s", workload["why"])
        check(rate is not None, name + ": why names no open-loop rate")
        for trace in (0, 1):
            label = "%s trace=%d" % (name, trace)
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", name, "--seed", str(SEED),
                 "--seconds", SECONDS, "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            check(proc.returncode == 0, "%s exited %d: %s" % (
                label, proc.returncode, proc.stderr[-2000:]))
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(last) == ["attempted", "correct", "failed",
                                   "metrics"], label + ": result keys")
            check(last["correct"] is True, label + ": correct is not true")
            check(last["attempted"] >= 1 and last["failed"] == 0,
                  label + ": attempted/failed")
            wanted = bench["per_layer" if trace else "end_to_end"]
            check(sorted(last["metrics"]) == sorted(m["name"] for m in wanted),
                  label + ": metric names differ from BENCHMARK.json")
            for m in wanted:
                got = last["metrics"][m["name"]]
                check(got["unit"] == m["unit"],
                      "%s: %s unit %s" % (label, m["name"], got["unit"]))
                check(isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      "%s: %s value" % (label, m["name"]))
                line = r"^\s+%s\s+\S+ %s$" % (re.escape(m["name"]),
                                               re.escape(m["unit"]))
                check(re.search(line, proc.stdout, re.M) is not None,
                      "%s: %s not printed with its unit" % (label, m["name"]))
            with open(os.path.join(build_dir, "results", "%s-seed%d-trace%d"
                                   ".json" % (name, SEED, trace))) as f:
                full = json.load(f)
            read_only = "sampled_searches" in full["checks"]
            names = ORACLE_CHECKS[read_only]
            if trace:
                names = names + TRACE_CHECKS + (TIE_CHECKS if read_only else [])
            for c in names:
                check(full["checks"].get(c, {}).get("ok") is True,
                      "%s: check %s did not run or failed" % (label, c))
            meta = full["meta"]
            check(meta["seed"] == SEED and meta["why"],
                  label + ": seed or why missing")
            check(meta["load"]["open_rate_ops"] == float(rate.group(1)),
                  label + ": rate differs from BENCHMARK.json")
            for key in ("nproc", "cpu_model", "kernel", "build_type",
                        "compiler"):
                check(key in meta["host"], label + ": host lacks " + key)
            for key in ("scan_kernel", "vectored_io", "async_io", "wal",
                        "fsync"):
                check(key in meta["seams"], label + ": seams lack " + key)
            print("ok  " + label)
    print("selftest passed")


if __name__ == "__main__":
    main()
