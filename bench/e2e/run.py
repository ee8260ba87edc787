#!/usr/bin/env python3
"""End-to-end benchmark runner for bespoKV on the real TCP fabric.

Builds bench/e2e (a CMake project that pulls in ../../src) into build-e2e/,
then runs one workload as REPS repetitions, each in a fresh process with a
fresh cluster, and reports every metric over all of them.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Per workload it prints "workload metric value unit" lines, then, as the last
line of stdout, one JSON object:
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": float, "unit": str}}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). --all runs every workload and
writes build-e2e/results.json (see compare.py) in place of the JSON line.
Either way it exits non-zero on any correctness violation, failed operation
or invalid run, after printing the reasons on stderr.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "bench_e2e")

REPS = 5            # fresh processes per workload
REP_TIMEOUT_S = 60
# Cluster picks loopback ports before binding them, so two nodes occasionally
# draw the same port (README, "Findings"). bench_e2e then exits with this
# code before the workload starts, and the repetition is run again with the
# same seed. Any other failure ends the run.
EXIT_PORT_COLLISION = 75
REP_ATTEMPTS = 3

# End-to-end metrics: name -> unit, each the median of the repetitions.
# Latency and CPU per operation are per-layer metrics: on a shared host their
# ten-seed spread is wider than the 10% bound (README, "Metrics").
E2E = {"setup_s": "s", "rss_mb": "MB"}

# Per-layer metrics (--trace 1): name -> (unit, how, *args), where how is
#   "pct"      quantile args[1] of the samples named args[0], pooled over
#              every repetition
#   "scalar"   median of the repetitions' scalar of the same name
#   "diff"     metric args[0] minus metric args[1]
#   "ratio"    metric args[0] divided by metric args[1]
#   "overhead" traced vs untraced read p50, in percent
LAYER = {
    "workload.read_p50_us": ("us", "pct", "read", 0.50),
    "workload.read_p90_us": ("us", "pct", "read", 0.90),
    "workload.read_p99_us": ("us", "pct", "read", 0.99),
    "workload.write_p50_us": ("us", "pct", "write", 0.50),
    "workload.write_p90_us": ("us", "pct", "write", 0.90),
    "workload.write_p99_us": ("us", "pct", "write", 0.99),
    "workload.lag_p99_us": ("us", "pct", "lag", 0.99),
    "workload.failover_stall_ms": ("ms", "scalar"),
    "workload.cpu_us_per_op": ("us", "scalar"),
    "client.issue_p50_us": ("us", "pct", "client.issue", 0.50),
    "client.share_p50_us": ("us", "pct", "client.share", 0.50),
    "client.retries_per_kop": ("ratio", "scalar"),
    "client.map_refreshes": ("count", "scalar"),
    "net.rtt_p50_us": ("us", "pct", "net.rtt", 0.50),
    "net.rtt_p99_us": ("us", "pct", "net.rtt", 0.99),
    "net.msgs_per_op": ("ratio", "scalar"),
    "net.bytes_per_op": ("B", "scalar"),
    "net.wakeups_per_op": ("ratio", "scalar"),
    "net.msgs_per_flush": ("ratio", "scalar"),
    "net.dropped": ("count", "scalar"),
    "controlet.get_p50_us": ("us", "pct", "controlet.get", 0.50),
    "controlet.get_p99_us": ("us", "pct", "controlet.get", 0.99),
    "controlet.put_p50_us": ("us", "pct", "controlet.put", 0.50),
    "controlet.put_p99_us": ("us", "pct", "controlet.put", 0.99),
    "controlet.replication_p50_us": ("us", "diff", "controlet.put_p50_us",
                                     "controlet.get_p50_us"),
    "controlet.dedup_hits": ("count", "scalar"),
    "controlet.fenced": ("count", "scalar"),
    "sharedlog.append_p50_us": ("us", "pct", "sharedlog.append", 0.50),
    "sharedlog.append_p99_us": ("us", "pct", "sharedlog.append", 0.99),
    "sharedlog.appends_per_write": ("ratio", "scalar"),
    "coordinator.get_map_p50_us": ("us", "pct", "coordinator.get_map", 0.50),
    "coordinator.detect_ms": ("ms", "scalar"),
    "datalet.get_p50_us": ("us", "pct", "datalet.get", 0.50),
    "datalet.get_p99_us": ("us", "pct", "datalet.get", 0.99),
    "datalet.put_p50_us": ("us", "pct", "datalet.put", 0.50),
    "lsm.flushes": ("count", "scalar"),
    "lsm.compactions": ("count", "scalar"),
    "lsm.compaction_bytes_per_user_byte": ("ratio", "scalar"),
    "storage.fsync_p50_us": ("us", "pct", "storage.fsync", 0.50),
    "storage.fsync_p99_us": ("us", "pct", "storage.fsync", 0.99),
    "storage.fsyncs_per_write_est": ("ratio", "ratio", "workload.write_p50_us",
                                     "storage.fsync_p50_us"),
    "storage.write_amp": ("ratio", "scalar"),
    "storage.space_amp": ("ratio", "scalar"),
    "trace.overhead_pct": ("%", "overhead"),
}


def quantile(values, q):
    """Exact nearest-rank quantile; 0 for no samples."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values), max(1, math.ceil(q * len(values)))) - 1]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds bench_e2e; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no bespoKV sources next to bench/e2e (expected src/)")
        return False
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
        return subprocess.call(cmd, stdout=sys.stderr, env=env) == 0


def workloads():
    out = subprocess.run([BINARY, "--list"], capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def run_rep_once(workload, seed, window_ms, traced):
    """(exit code, record or None) of one bench_e2e process."""
    data = os.path.join(BUILD, "data", "%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--window-ms", str(window_ms), "--data-dir", data]
    if traced:
        cmd += ["--traced", "--trace-out",
                os.path.join(BUILD, "trace_%s.json" % workload)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s seed %d: repetition timed out" % (workload, seed))
        return None, None
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if out.returncode != 0:
        log(out.stderr.strip()[-2000:])
        log("%s seed %d: exit code %d" % (workload, seed, out.returncode))
        return out.returncode, None
    lines = out.stdout.strip().splitlines()
    return 0, json.loads(lines[-1]) if lines else None


def run_rep(workload, seed, window_ms, traced):
    """One repetition in a fresh process: (record or None, attempts made)."""
    for attempt in range(1, REP_ATTEMPTS + 1):
        code, rep = run_rep_once(workload, seed, window_ms, traced)
        if code != EXIT_PORT_COLLISION:
            return rep, attempt
    return None, REP_ATTEMPTS


def layer_metrics(scalar, pooled):
    metrics = {}
    for name, (_, how, *args) in LAYER.items():
        if how == "scalar":
            metrics[name] = scalar[name]
        elif how == "pct":
            metrics[name] = quantile(pooled[args[0]], args[1])
        elif how == "overhead":
            off = quantile(pooled["read_untraced"], 0.50)
            on = quantile(pooled["read_traced"], 0.50)
            metrics[name] = (on / off - 1) * 100 if off else 0.0
    for name, (_, how, *args) in LAYER.items():
        if how == "diff":
            metrics[name] = metrics[args[0]] - metrics[args[1]]
        elif how == "ratio":
            metrics[name] = metrics[args[0]] / max(metrics[args[1]], 1e-9)
    return metrics


def run_workload(workload, seed, seconds, traced):
    """Runs REPS repetitions; returns the aggregate record or None."""
    window_ms = max(1, int(seconds * 1000 / REPS))
    reps = []
    retries = 0
    for k in range(REPS):
        rep, attempts = run_rep(workload, seed * 8 + k, window_ms, traced)
        if rep is None:
            return None
        reps.append(rep)
        retries += attempts - 1

    pooled = {}
    for r in reps:
        for name, values in r.pop("samples").items():
            pooled.setdefault(name, []).extend(v / 1e3 for v in values)
    scalar = {name: statistics.median(r["scalars"][name] for r in reps)
              for name in reps[0]["scalars"]}
    if traced:
        metrics = layer_metrics(scalar, pooled)
    else:
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in reps),
                   "rss_mb": scalar["rss_mb"]}

    problems = []
    for r in reps:
        if r["violations"]:
            problems.append("seed %d: %d correctness violations %s" % (
                r["seed"], r["violations"], json.dumps(r["violation_kinds"])))
        if r["failed"]:
            problems.append("seed %d: %d of %d operations failed" % (
                r["seed"], r["failed"], r["attempted"]))
    lag = quantile(pooled["lag"], 0.99)
    if lag > 100:
        problems.append("generator lag p99 %.1f us > 100 us" % lag)
    for name in ("read", "write"):
        n = len(pooled[name])
        if n - math.ceil(0.99 * n) < 10:
            problems.append("fewer than 10 %s samples beyond p99" % name)
    return {
        "workload": workload,
        "traced": traced,
        "correct": all(r["violations"] == 0 for r in reps),
        "attempted": sum(int(r["attempted"]) for r in reps),
        "failed": sum(int(r["failed"]) for r in reps),
        "reactors": reps[0]["reactors"],
        "rep_retries": retries,
        "samples": {name: len(v) for name, v in pooled.items()},
        "problems": problems,
        "metrics": metrics,
        "reps": reps,
    }


def unit_of(name, traced):
    return LAYER[name][0] if traced else E2E[name]


def report(agg):
    for p in agg["problems"]:
        log("%s: %s" % (agg["workload"], p))
    for name, value in sorted(agg["metrics"].items()):
        print("%s %s %.6g %s" % (agg["workload"], name, value,
                                 unit_of(name, agg["traced"])))


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15,
                    help="measured seconds per workload, split over the reps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    traced = args.trace == 1
    if args.seed < 0 or args.seconds < 1 or args.all == bool(args.workload):
        ap.print_usage(sys.stderr)
        return 2
    if not build():
        log("run.py: build failed")
        return 1
    names = workloads()
    if args.workload and args.workload not in names:
        log("run.py: unknown workload %r (have %s)" % (args.workload, names))
        return 2

    started = time.time()
    results = []
    for name in names if args.all else [args.workload]:
        agg = run_workload(name, args.seed, args.seconds, traced)
        if agg is None:
            log("run.py: %s did not complete" % name)
            return 1
        report(agg)
        results.append(agg)

    if args.all:
        doc = {
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": traced,
            "git_sha": git_sha(),
            "host_cores": os.cpu_count(),
            "kernel": os.uname().release,
            "build_type": "Release",
            "elapsed_s": time.time() - started,
            "workloads": {a["workload"]: a for a in results},
        }
        with open(os.path.join(BUILD, "results.json"), "w") as f:
            json.dump(doc, f, indent=1)
    else:
        agg = results[0]
        print(json.dumps({
            "correct": agg["correct"],
            "attempted": agg["attempted"],
            "failed": agg["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k, traced)}
                        for k, v in agg["metrics"].items()},
        }))
    return 1 if any(a["problems"] for a in results) else 0


if __name__ == "__main__":
    sys.exit(main())
