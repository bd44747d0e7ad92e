#!/usr/bin/env python3
"""Compare sets of benchmark result files.

    run.sh compare BASE_FILE.. -- NEW_FILE..
    run.sh compare FILE..                      (one set: its own spread)

A result file is what `run.sh` printed on standard output (one run, one
or more workloads). For every (workload, metric) the table shows each
set's median and quartiles over its runs, the ratio new/base, and a
verdict against the metric's bound in BENCHMARK.json:

  within-bound  new median no worse than base median by more than the bound
  worse         it is worse by more than the bound
  unresolved    base's own run-to-run spread (IQR / median) exceeds the
                bound, so neither can be said - unless every run of one set
                reads better than every run of the other

Per-layer metrics have no bound; they are listed with their ratio only.
With one set, each metric's spread is shown against a third of its bound,
the steadiness the benchmark aims for. Exit status is 1 if any pair is
worse, else 0.
"""

import json
import os
import re
import statistics
import sys

HEADER = re.compile(r"^(\w+): seed \d+")


def load(paths):
    """{(workload, metric): [value per run]} from result files."""
    values = {}
    for path in paths:
        workload = None
        with open(path) as f:
            for line in f:
                m = HEADER.match(line)
                if m:
                    workload = m.group(1)
                elif line.startswith("{") and workload:
                    for name, mv in json.loads(line)["metrics"].items():
                        values.setdefault((workload, name), []).append(mv["value"])
    return values


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def describe(v):
    q1, q3 = quartiles(v)
    return f"{statistics.median(v):.6g} [{q1:.6g}, {q3:.6g}]"


def spread(v):
    q1, q3 = quartiles(v)
    med = statistics.median(v)
    return (q3 - q1) / med if med else 0.0


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    if "--" in argv:
        cut = argv.index("--")
        base, new = load(argv[:cut]), load(argv[cut + 1:])
    else:
        base, new = load(argv), None
    if not base:
        sys.exit(__doc__)

    worse = 0
    for (workload, metric), b in base.items():
        label = f"{workload:14s} {metric:34s}"
        m = gated.get(metric)
        if new is None:
            target = f"  (aim: under {m['bound'] / 3:.2%})" if m else ""
            print(f"{label} {describe(b)}  n={len(b)}  spread {spread(b):.2%}{target}")
            continue
        n = new.get((workload, metric))
        if not n:
            continue
        bm, nm = statistics.median(b), statistics.median(n)
        ratio = f"{nm / bm:.4f}" if bm else "-"
        line = f"{label} base {describe(b)}  new {describe(n)}  new/base {ratio}"
        if m:
            higher = m["better"] == "higher"
            loss = ((bm - nm) if higher else (nm - bm)) / bm if bm else 0.0
            all_better = min(n) > max(b) if higher else max(n) < min(b)
            all_worse = max(n) < min(b) if higher else min(n) > max(b)
            resolved = spread(b) <= m["bound"]
            if loss > m["bound"]:
                verdict = "worse" if resolved or all_worse else "unresolved"
            else:
                verdict = "within-bound" if resolved or all_better else "unresolved"
            worse += verdict == "worse"
            line += f"  bound {m['bound']:.2%}  {verdict}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
