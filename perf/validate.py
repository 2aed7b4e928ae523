#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark contract, and a result line
against BENCHMARK.json.

    validate.py BENCHMARK.json                 # the file alone
    validate.py BENCHMARK.json <0|1> < output  # + the last line of a run's
                                               #   standard output (--trace 0|1)

Exits non-zero with one line per problem.
"""
import json
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check_benchmark(b, problems):
    def need(ok, what):
        if not ok:
            problems.append(what)

    need(set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"top-level keys are {sorted(b)}")
    cmd, paths = b.get("command", []), b.get("paths", [])
    need(1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command shape")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in cmd), "command leaves the checkout")
    need(1 <= len(paths) <= 16 and all(PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
                                         for p in paths), "paths shape")
    need(isinstance(b.get("run_seconds"), int) and 1 <= b["run_seconds"] <= 60, "run_seconds")
    names = []
    wl = b.get("workloads", [])
    need(2 <= len(wl) <= 8, "2 to 8 workloads")
    for w in wl:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w.get("why", "")) <= 200 and "\n" not in w.get("why", ""), f"why of {w.get('name')}")
        names.append(w.get("name", ""))
    e2e = b.get("end_to_end", [])
    need(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(m)}")
        need(isinstance(m.get("bound"), (int, float)) and 0 < m["bound"] <= 0.25, f"bound of {m.get('name')}")
        names.append(m.get("name", ""))
    layers = b.get("per_layer", [])
    need(1 <= len(layers) <= 128, "1 to 128 per-layer metrics")
    for m in layers:
        need(set(m) == {"name", "unit", "better"}, f"per_layer keys {sorted(m)}")
        names.append(m.get("name", ""))
    for m in e2e + layers:
        need(UNIT.match(m.get("unit", "")) is not None, f"unit of {m.get('name')}")
        need(m.get("better") in ("higher", "lower"), f"better of {m.get('name')}")
    for n in names:
        need(NAME.match(n) is not None, f"name {n!r}")
    need(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0].get("unit") == "s" and setup[0].get("better") == "lower",
         "setup_s in seconds, lower is better")
    runs = 4 + 22 * len(wl)
    need(runs * (b.get("run_seconds", 60) + 9) + 240 <= 3420, f"{runs} runs do not fit 3420 s")


def check_result(b, trace, line, problems):
    try:
        r = json.loads(line)
    except ValueError as e:
        problems.append(f"the last line is not JSON: {e}")
        return
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(r)}")
        return
    if r["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(r["attempted"], int) and r["attempted"] >= 1):
        problems.append(f"attempted is {r['attempted']!r}")
    if not (isinstance(r["failed"], int) and r["failed"] >= 0):
        problems.append(f"failed is {r['failed']!r}")
    want = {m["name"]: m["unit"] for m in b["per_layer" if trace else "end_to_end"]}
    got = r["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        return
    for name, unit in want.items():
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit or isinstance(m["value"], bool) \
                or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} is {m!r}, expected a number in {unit}")
        elif not trace and m["value"] == 0:
            problems.append(f"end-to-end metric {name} is 0")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    text = open(sys.argv[1]).read()
    problems = []
    if len(text.encode()) > 64 * 1024:
        problems.append("BENCHMARK.json is over 64 KiB")
    b = json.loads(text)
    check_benchmark(b, problems)
    if len(sys.argv) == 3 and not problems:
        lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
        if not lines:
            problems.append("the run printed nothing")
        else:
            check_result(b, sys.argv[2] == "1", lines[-1], problems)
    for p in problems:
        print(f"INVALID: {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
