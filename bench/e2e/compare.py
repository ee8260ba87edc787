#!/usr/bin/env python3
"""Compares two sets of bench/e2e results.

  python3 bench/e2e/compare.py A/ B/

A and B are directories holding one or more results files written by
`bench/e2e/run.sh` (build-e2e/results.json, copied once per run; any *.json
with a "workloads" key is read). A is the parent, B the change. Runs pair up
in the order their file names sort, so alternate the sides when collecting.

For every (workload, metric) it prints each side's median and quartiles,
the share of pairs B wins, and a verdict against the bound BENCHMARK.json
fixes for the metric:
  regression  B's median is worse than A's by more than the bound
  unresolved  A's own quartile spread is wider than the bound, and not every
              run of B reads better than every run of A
  gain        at least 10 pairs, B wins >= 90% of them, and the medians
              differ by more than A's quartile spread
  ok          none of the above
Per-layer metrics have no bound and are printed without a verdict. Exits 1
if any metric regressed.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_runs(directory):
    """[{workload: {metric: value}}] in file-name order."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        with open(path) as f:
            doc = json.load(f)
        if "workloads" not in doc:
            continue
        runs.append({w: agg["metrics"] for w, agg in doc["workloads"].items()})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    a_runs, b_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    if not a_runs or not b_runs:
        print("compare.py: no results files in one of the directories",
              file=sys.stderr)
        return 2

    regressed = False
    print("%-22s %-34s %-30s %-30s %7s %6s  %s" % (
        "workload", "metric", "A median [q1,q3]", "B median [q1,q3]",
        "change", "B wins", "verdict"))
    for workload in sorted(a_runs[0]):
        for metric in sorted(a_runs[0][workload]):
            a = [r[workload][metric] for r in a_runs
                 if metric in r.get(workload, {})]
            b = [r[workload][metric] for r in b_runs
                 if metric in r.get(workload, {})]
            if not a or not b:
                continue
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            m = spec.get(metric)
            lower = m is None or m["better"] == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if better(y, x))
            change = (bmed - amed) / amed if amed else 0.0
            verdict = ""
            if m is not None:
                worse = change if lower else -change
                spread = (aq3 - aq1) / amed if amed else 0.0
                all_better = all(better(y, x) for x in a for y in b)
                if spread > m["bound"] and not all_better:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict = "REGRESSION"
                    regressed = True
                elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
                      abs(bmed - amed) > aq3 - aq1):
                    verdict = "gain"
                else:
                    verdict = "ok"
            print("%-22s %-34s %-30s %-30s %+6.1f%% %3d/%-2d  %s" % (
                workload, metric,
                "%.4g [%.4g,%.4g]" % (amed, aq1, aq3),
                "%.4g [%.4g,%.4g]" % (bmed, bq1, bq3),
                100 * change, wins, len(pairs), verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
