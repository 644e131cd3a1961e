#!/usr/bin/env python3
"""Compares two sets of benchmark runs metric by metric.

    python3 benchmark/compare.py A.json B.json
    python3 benchmark/compare.py --paired PARENT.json CHANGE.json

Each file holds one run object per line, as `run.sh --json` writes them
(`cat` several runs into one file to make a set). For each (workload,
end-to-end metric) it prints each side's median and quartiles and a
verdict against the metric's bound in BENCHMARK.json:

  agree       the medians differ by no more than the bound
  better      B is better than A by more than the bound
  worse       B is worse than A by more than the bound
  unresolved  either side's quartile spread exceeds the bound (unless
              every B sample is better than every A sample: better)

setup_s also has an absolute floor of 1 ms: medians closer than that
agree, and a quartile spread narrower than that is not noise.

A side with one run uses that run's per-pass samples; a side with several
runs uses each run's median. `--paired` applies the rule for claiming a
gain: at least 10 alternating pairs (line i of A against line i of B),
B wins at least 9 of every 10 pairs (ties count for neither), and the
medians differ by more than A's quartile spread.

Exits 1 when any verdict is `worse`, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end metrics BENCHMARK.json leaves out, with the same 25 % bound
# as the host timings it lists: the per-cell percentiles, which on the
# 3-cell workloads are fixed cells and moved more than wall_s between sets
# of runs, and the sweep_faults throughputs, which no other workload has.
EXTRA_END_TO_END = {
    **{name: {"unit": "s", "better": "lower", "bound": 0.25}
       for name in ("cell_p50_s", "cell_p90_s")},
    **{name: {"unit": "cells/s", "better": "higher", "bound": 0.25}
       for name in ("cells_per_s", "journaled_cells_per_s",
                    "resumed_cells_per_s")},
}


# Absolute floors, in the metric's unit, below which a difference or a
# quartile spread is timer jitter and not a change. BENCHMARK.json admits
# only relative bounds, so they live here. setup_s is 0.03 to 0.2 ms on the
# 64-rank workloads, where a few microseconds are already several percent.
FLOORS = {"setup_s": 1e-3}


def end_to_end_metrics():
    """name -> {unit, better, bound, floor} for every bounded end-to-end
    metric."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
               for m in spec["end_to_end"]}
    metrics.update(EXTRA_END_TO_END)
    for name, m in metrics.items():
        m["floor"] = FLOORS.get(name, 0.0)
    return metrics


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def side_values(runs, workload, metric):
    """The samples one side contributes for (workload, metric)."""
    found = [r["workloads"][workload]["metrics"][metric] for r in runs
             if metric in r["workloads"].get(workload, {}).get("metrics", {})]
    if not found:
        return []
    if len(found) == 1:
        return list(found[0].get("samples") or [found[0]["value"]])
    return [m["value"] for m in found]


def worsening(a, b, better):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def noisy(values, bound, floor):
    """Whether the quartile spread of `values` exceeds both the relative
    bound and the absolute floor."""
    q1, med, q3 = quartiles(values)
    return q3 - q1 > floor and med and (q3 - q1) / abs(med) > bound


def verdict(a_values, b_values, better, bound, floor):
    if noisy(a_values, bound, floor) or noisy(b_values, bound, floor):
        # Too noisy to call, unless every B sample beats every A sample.
        if better == "lower" and max(b_values) < min(a_values) or \
                better == "higher" and min(b_values) > max(a_values):
            return "better"
        return "unresolved"
    a_med, b_med = quartiles(a_values)[1], quartiles(b_values)[1]
    if abs(b_med - a_med) <= floor:
        return "agree"
    change = worsening(a_med, b_med, better)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "agree"


def failed_frac(runs, workload):
    attempted = sum(r["workloads"][workload]["attempted"] for r in runs
                    if workload in r["workloads"])
    failed = sum(r["workloads"][workload]["failed"] for r in runs
                 if workload in r["workloads"])
    return failed / attempted if attempted else 0.0


def compare(a_runs, b_runs, metrics):
    """Rows of (workload, metric, unit, a stats, b stats, verdict)."""
    rows = []
    workloads = dict.fromkeys(w for r in a_runs for w in r["workloads"]
                              if any(w in b["workloads"] for b in b_runs))
    for workload in workloads:
        for name, m in metrics.items():
            a = side_values(a_runs, workload, name)
            b = side_values(b_runs, workload, name)
            if not a or not b:
                continue
            rows.append((workload, name, m["unit"], quartiles(a),
                         quartiles(b),
                         verdict(a, b, m["better"], m["bound"], m["floor"])))
        # Any failed cell is a regression: the bound is 0, absolute.
        a_fail, b_fail = failed_frac(a_runs, workload), failed_frac(
            b_runs, workload)
        rows.append((workload, "failed_frac", "ratio", (a_fail,) * 3,
                     (b_fail,) * 3, "worse" if b_fail > 0 else "agree"))
    return rows


def paired(a_runs, b_runs, metrics):
    """Rows of (workload, metric, wins, pairs, gap, a iqr, verdict)."""
    pairs = list(zip(a_runs, b_runs))
    rows = []
    for workload in a_runs[0]["workloads"]:
        for name, m in metrics.items():
            try:
                a = [p[0]["workloads"][workload]["metrics"][name]["value"]
                     for p in pairs]
                b = [p[1]["workloads"][workload]["metrics"][name]["value"]
                     for p in pairs]
            except KeyError:
                continue
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            a_q1, a_med, a_q3 = quartiles(a)
            gap = sign * (a_med - statistics.median(b))
            claim = (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and
                     gap > a_q3 - a_q1)
            rows.append((workload, name, wins, len(pairs), gap, a_q3 - a_q1,
                         "gain" if claim else "no claim"))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--paired", action="store_true")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    if args.paired:
        print(f"{'workload':14} {'metric':22} {'wins':7} {'gap':12} "
              f"{'A iqr':12} verdict")
        for w, name, wins, n, gap, iqr, v in paired(a_runs, b_runs, metrics):
            print(f"{w:14} {name:22} {f'{wins}/{n}':7} {gap:<12.5g} "
                  f"{iqr:<12.5g} {v}")
        return 0

    def stats(q):
        q1, med, q3 = q
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]".ljust(34)

    print(f"{'workload':14} {'metric':22} {'unit':8} "
          f"{'A median [q1, q3]':34} {'B median [q1, q3]':34} verdict")
    worse = False
    for w, name, unit, a, b, v in compare(a_runs, b_runs, metrics):
        print(f"{w:14} {name:22} {unit:8} {stats(a)} {stats(b)} {v}")
        worse = worse or v == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
