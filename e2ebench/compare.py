#!/usr/bin/env python3
"""Compare two e2ebench result sets.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines `run.py --record FILE` appends.  For every
workload and trace mode present in both, the script prints each metric's
median and quartiles on both sides.  An end-to-end metric whose median
got worse by more than its bound in BENCHMARK.json is flagged REGRESSED,
or UNRESOLVED where either side's spread (interquartile range over
median) is wider than the bound, unless every new run beats every base
run.  The exit code is 1 when anything regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} plus each metric's unit."""
    sets = defaultdict(lambda: defaultdict(list))
    units = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                sets[key][name].append(m["value"])
                units[name] = m["unit"]
    return sets, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    b_med, n_med = statistics.median(base), statistics.median(new)
    if not b_med:
        return "ok", 0.0
    worse = (n_med - b_med) / abs(b_med)
    if better == "higher":
        worse = -worse
    all_better = (min(new) > max(base) if better == "higher"
                  else max(new) < min(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return "UNRESOLVED", worse
    return ("REGRESSED" if worse > bound else "ok"), worse


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, units = load(sys.argv[1])
    new, _ = load(sys.argv[2])
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print("== {} (trace {}): {} base runs, {} new runs".format(
            workload, trace, len(next(iter(base[key].values()))),
            len(next(iter(new[key].values())))))
        print("{:30s} {:>8s} {:>34s} {:>34s} {:>8s}  {}".format(
            "metric", "unit", "base q1 / median / q3", "new q1 / median / q3",
            "worse", "verdict"))
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            row = "{:30s} {:>8s} {:>34s} {:>34s}".format(
                name, units[name],
                "{:.4g} / {:.4g} / {:.4g}".format(*quartiles(b)),
                "{:.4g} / {:.4g} / {:.4g}".format(*quartiles(n)))
            if name in e2e:
                m = e2e[name]
                v, worse = verdict(b, n, m["better"], m["bound"])
                regressed |= v == "REGRESSED"
                row += " {:>+7.1%}  {} (bound {:.0%})".format(worse, v,
                                                             m["bound"])
            print(row)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
