#!/usr/bin/env python3
"""Spread of every (metric, workload) pair over the sets of repeat.sh.

    spread.py DIR [DIR2]

For each pair: the median, the quartiles as statistics.quantiles(n=4)
gives them, and (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json (per-layer metrics have none). With DIR2, also whether the
second directory's median is worse than the first's by more than the
bound. Exits non-zero when a bounded pair is over its bound; pairs over a
third of the bound are marked "wide".
"""
import glob
import json
import os
import statistics
import sys


def load(directory):
    values = {}
    for path in sorted(glob.glob(os.path.join(directory, "set-*.jsonl"))):
        for line in open(path):
            run = json.loads(line)
            if not run["result"]["correct"]:
                print(f"INCORRECT run in {path}: {run['workload']} seed {run['seed']}")
            for name, m in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(m["value"])
    return values


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    bench = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    first = load(sys.argv[1])
    second = load(sys.argv[2]) if len(sys.argv) == 3 else {}
    failed = False
    print(f"{'workload':17s} {'metric':32s} {'n':>3s} {'median':>13s} {'q1':>13s} {'q3':>13s} "
          f"{'spread':>8s} {'bound':>6s}")
    for (workload, name), vals in sorted(first.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                note, failed = "OVER BOUND", True
            elif spread > bound / 3:
                note = "wide"
        if (workload, name) in second and bound is not None:
            med2 = statistics.median(second[(workload, name)])
            worse = (med - med2) / abs(med) if better[name] == "higher" else (med2 - med) / abs(med)
            note += f" second median {med2:.6g} ({worse:+.1%} worse)"
            if worse > bound:
                note, failed = note + " OVER BOUND", True
        print(f"{workload:17s} {name:32s} {len(vals):3d} {med:13.6g} {q1:13.6g} {q3:13.6g} "
              f"{spread:8.4f} {'' if bound is None else format(bound, '6.2f')} {note}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
