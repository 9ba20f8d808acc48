#!/usr/bin/env python3
"""Compares benchmark result records of a parent and a change (stdlib only).

    python3 benchmark/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

PARENT and CHANGE are directories of records written by run.py (its
.bench_build/results/) or lists of record files separated by commas. For
every workload and end-to-end metric it prints both sides' medians and
quartiles and a verdict against the metric's bound from BENCHMARK.json:

  ok           the change's median is not worse than the parent's by more
               than the bound
  REGRESSED    it is worse by more than the bound
  unresolved   either side's spread (quartile distance / median) exceeds
               the bound, and not every change run beats every parent run
  better       every change run beats every parent run

Per-layer metrics (records of --trace 1 runs) are listed with their medians
and no verdict. For each --claim, runs are paired by seed and the win
fraction is reported (ties count for neither side); a gain holds when the
change wins at least 9 of 10 pairs and the medians differ by more than the
parent's quartile distance.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def load(source):
    """Returns {(workload, trace): {seed: {metric: value}}}."""
    paths = []
    for part in source.split(","):
        p = Path(part)
        paths.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    runs = defaultdict(dict)
    for path in paths:
        record = json.loads(path.read_text())
        trace = 1 if "traced" in record else 0
        workload = record["untraced"]["workload"]
        seed = record["provenance"]["seed"]
        summary = record["summary"]
        values = {name: m["value"] for name, m in summary["metrics"].items()}
        values["_correct"] = summary["correct"]
        runs[(workload, trace)][seed] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse(a, b, better):
    """True when value b is worse than value a."""
    return b > a if better == "lower" else b < a


def verdict(parent, change, metric):
    bound = metric["bound"]
    better = metric["better"]
    if all(worse(c, p, better) for p in parent for c in change):
        return "better"
    mp, mc = statistics.median(parent), statistics.median(change)
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    worse_by = (mc - mp) / abs(mp) if better == "lower" else (mp - mc) / abs(mp)
    return "REGRESSED" if worse_by > bound else "ok"


def fmt(v):
    return f"{v:.5g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)

    regressed = False
    print(f"{'workload':14} {'metric':28} {'n':>5} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8} verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        for name in sorted({n for r in p_runs.values() for n in r} - {"_correct"}):
            p = [r[name] for r in p_runs.values() if name in r]
            c = [r[name] for r in c_runs.values() if name in r]
            if not p or not c:
                continue
            mp, mc = statistics.median(p), statistics.median(c)
            delta = (mc - mp) / abs(mp) if mp else 0.0
            if name in END_TO_END and trace == 0:
                v = verdict(p, c, END_TO_END[name])
                regressed |= v == "REGRESSED"
            elif name in PER_LAYER and trace == 1:
                v = "-"
            else:
                continue
            qp, qc = quartiles(p), quartiles(c)
            print(f"{workload:14} {name:28} {len(p):>2}/{len(c):<2} "
                  f"{'/'.join(fmt(x) for x in qp):>30} {'/'.join(fmt(x) for x in qc):>30} "
                  f"{delta:+8.3f} {v}")
        bad = [s for side in (p_runs, c_runs) for s, r in side.items() if not r["_correct"]]
        if bad:
            print(f"{workload:14} failed output checks at seeds {sorted(bad)}")

    for claim in args.claim:
        workload, _, name = claim.partition(":")
        metric = END_TO_END.get(name) or PER_LAYER.get(name)
        trace = 0 if name in END_TO_END else 1
        p_runs = parent.get((workload, trace), {})
        c_runs = change.get((workload, trace), {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if metric is None or not seeds:
            print(f"claim {claim}: no paired runs")
            continue
        better = metric["better"]
        # A pair is a win when the parent's run is worse than the change's.
        wins = sum(worse(c_runs[s][name], p_runs[s][name], better) for s in seeds)
        p = [p_runs[s][name] for s in seeds]
        c = [c_runs[s][name] for s in seeds]
        q1, _, q3 = quartiles(p)
        gap = abs(statistics.median(c) - statistics.median(p))
        holds = wins >= 0.9 * len(seeds) and gap > q3 - q1
        print(f"claim {claim}: change wins {wins}/{len(seeds)} pairs "
              f"({wins / len(seeds):.2f}); median gap {fmt(gap)} vs parent quartile distance "
              f"{fmt(q3 - q1)} -> {'gain holds' if holds else 'gain not shown'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
