#!/usr/bin/env python3
"""End-to-end benchmark of rtb_server: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds rtb_server and the load driver
(perfbench/src) from source with CMake into $CARGO_TARGET_DIR (default
.bench_build), then runs the driver, which starts rtb_server, loads it over
loopback from one process, checks every reply and prints its figures.

stdout: a readable report, then as the last line one JSON object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1), each as {"value": ..., "unit": ...}. The full result, with
host fingerprint, seam states and checks, is written to
<build dir>/results/. Exits 1 when the build, the run or any check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 175.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (first time) and builds the server and the driver."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 2),
                  "--target", "rtb_server", "rtb_perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")


def run_driver(cmd, deadline):
    """Runs the driver in its own process group and kills the whole group
    (server included) if it overruns the time limit."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded the time limit")
    lines = out.strip().splitlines()
    if not lines:
        fail("driver exited %d without a result" % proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def print_report(result, trace):
    meta = result["meta"]
    print("workload %s  seed %d  (%s)" % (meta["workload"], meta["seed"],
                                          meta["why"]))
    load = meta["load"]
    print("load: %d connections, %d thread; open loop %.0f ops/s for %.2f s "
          "(%d sent), closed loop %d in flight per connection for %.2f s "
          "(%d sent); WAL %.0f bytes at the end; set-up runs %s s"
          % (load["connections"], load["threads"], load["open_rate_ops"],
             load["open_s"], load["open_sent"],
             load["closed_window_per_connection"], load["closed_s"],
             load["closed_sent"], load["wal_bytes"], load["setup_runs_s"]))
    print("host: " + json.dumps(meta["host"]))
    print("seams: " + json.dumps(meta["seams"]))
    if trace:
        print("replay: " + json.dumps(meta["replay"]))
    for group in ("end_to_end", "per_layer"):
        for name, m in result[group].items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, c in result["checks"].items():
        print("  check %-28s %s  %s" % (name, "ok" if c["ok"] else "FAILED",
                                        c["detail"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.time() + TIME_LIMIT_S

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    # A fresh build may take most of the limit; the run itself gets its own.
    deadline = max(deadline, time.time() + 150.0)

    workdir = os.path.join(build_dir, "run", args.workload)
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "rtb_perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--server=" + os.path.join(build_dir, "rtb", "tools", "rtb_server"),
           "--workdir=" + workdir]
    code, result = run_driver(cmd, deadline)

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)
    print_report(result, args.trace)
    metrics = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    if code != 0 or not result["correct"]:
        fail("a check failed")


if __name__ == "__main__":
    main()
