#!/usr/bin/env python3
"""Compares two sets of ligra_suite result files by the review rule.

    python3 bench/suite/compare.py --parent P1.json P2.json ... \\
                                   --change C1.json C2.json ...

Each file is what `ligra_suite --out FILE` wrote (any number of runs of any
workloads). Runs pair up in the order given, so alternate parent and change
runs when making them. For every (workload, end-to-end metric):

  gain        at least 10 pairs, the change wins at least 9/10 of them (ties
              count for neither side), its median is better by more than
              the parent's interquartile range, and no more ops failed;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) exceeds the bound, so
              neither can be told, unless every change run beats every
              parent run;
  ok          anything else.

The failed-op share (failed / attempted) of each workload is compared too;
a higher share on the change side is a regression. Exits 1 if anything
regressed, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                             "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths):
    """{workload: [run, ...]} in file order."""
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for name, w in doc["workloads"].items():
            runs.setdefault(name, []).extend(w["runs"])
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = (q3 - q1) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(cm, pm) and abs(cm - pm) > q3 - q1):
        kind = "gain"
    elif spread > metric["bound"] and not all_better:
        kind = "unresolved"
    elif worse > metric["bound"]:
        kind = "regression"
    else:
        kind = "ok"
    return kind, pm, cm, worse, spread, wins, len(pairs)


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description="Parent vs change review rule.")
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--bench", default=DEFAULT_BENCH)
    args = ap.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)

    regressed = False
    print("%-15s %-11s %-11s %14s %14s %8s %7s %6s" %
          ("workload", "metric", "verdict", "parent med", "change med",
           "worse", "spread", "wins"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail, c_fail = failed_share(p_runs), failed_share(c_runs)
        more_failures = c_fail > p_fail
        for m in metrics:
            p = [r["metrics"][m["name"]] for r in p_runs]
            c = [r["metrics"][m["name"]] for r in c_runs]
            kind, pm, cm, worse, spread, wins, n = verdict(m, p, c)
            if kind == "gain" and more_failures:
                kind = "ok"  # a gain does not count with more failed ops
            regressed = regressed or kind == "regression"
            print("%-15s %-11s %-11s %14.6g %14.6g %+7.1f%% %6.1f%% %3d/%d"
                  % (workload, m["name"], kind, pm, cm, 100 * worse,
                     100 * spread, wins, n))
        print("%-15s %-11s %-11s %14.3g %14.3g" %
              (workload, "failed_ops", "regression" if more_failures else "ok",
               p_fail, c_fail))
        regressed = regressed or more_failures
    for w in sorted(set(parent) ^ set(change)):
        print("%-15s only on one side; not compared" % w)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
