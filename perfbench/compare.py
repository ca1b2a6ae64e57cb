#!/usr/bin/env python3
"""Compare two sets of benchmark results, or summarise one.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RESULTS_DIR

Each directory holds result files written by perfbench/run.py (--out DIR),
typically one per seed. For every workload and metric the tool prints each
side's median and quartiles and the spread (quartile distance over the
median). With two sets it adds a verdict against the bounds in
BENCHMARK.json:

  regression   the new median is worse than the base median by more than
               the bound
  improved     the new median is better by more than the base's quartile
               distance, and new runs beat base runs in >= 90% of pairs
  within       neither of the above
  unresolved   a side's spread exceeds the bound, so no verdict is
               possible, unless every new run is better than every base run
  info         per-layer metric (no bound)

The exit status is 1 when any verdict is a regression. Standard library only.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(directory):
    """{(workload, traced): {metric: [values]}} over every result file."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            doc = json.load(f)
        if "metrics" not in doc or "workload" not in doc:
            continue
        series = out.setdefault((doc["workload"], doc["traced"]), {})
        for metric, m in doc["metrics"].items():
            series.setdefault(metric, []).append(m["value"])
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Verdict for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    if spread(base) > bound or spread(new) > bound:
        every_run_better = all(sign * n > sign * b for n in new for b in base)
        return "improved" if every_run_better else "unresolved"
    b1, bmed, b3 = quartiles(base)
    nmed = quartiles(new)[1]
    if -sign * (nmed - bmed) / abs(bmed) > bound:
        return "regression"
    wins = sum(sign * n > sign * b for n in new for b in base)
    if sign * (nmed - bmed) > b3 - b1 and wins >= 0.9 * len(new) * len(base):
        return "improved"
    return "within"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%12.6g [%10.6g, %10.6g] %6.1f%%" % (med, q1, q3, 100 * spread(values))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_results(d) for d in argv[1:]]
    regressions = 0
    for key in sorted(set().union(*sets)):
        workload, traced = key
        print("== %s (%s)" % (workload, "per-layer" if traced else "end-to-end"))
        header = "  %-38s %-46s" % ("metric", "median [q1, q3] spread")
        print(header + ("   %-46s %s" % ("new", "verdict") if len(sets) == 2 else ""))
        for metric, m in metric_spec.items():
            columns = [s.get(key, {}).get(metric) for s in sets]
            if any(c is None for c in columns):
                continue
            line = "  %-38s %s" % (metric, fmt(columns[0]))
            if len(sets) == 2:
                v = (verdict(columns[0], columns[1], m["better"], m["bound"])
                     if "bound" in m else "info")
                regressions += v == "regression"
                line += "   %s %s" % (fmt(columns[1]), v)
            print(line + "  (n=%s)" % "/".join(str(len(c)) for c in columns))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
