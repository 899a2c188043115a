#!/usr/bin/env python3
"""Compares two benchmark result sets, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result sets appended by `run.py --out FILE` (one JSON line
per run: the benchmark's provenance header and its result).  Untraced runs
only.  For every workload x end-to-end metric it prints each side's median
and quartiles, the fraction of pairs the change won (the i-th run of each
side form a pair; ties count for neither), and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the base's own
              quartile spread
  worse       the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the base's spread (quartile distance over median) is wider
              than the bound, and not every change run beats every base run
  no worse    otherwise

failed_frac (failed / attempted) is compared as measured: any increase is
worse.  A loud warning is printed when the two sides' headers name
different hosts or builds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu", "isa", "compiler", "build_type")


def load(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["header"].get("trace"):
                runs.append(record)
    if not runs:
        sys.exit(f"compare: no untraced result sets in {path}")
    return runs


def hosts(runs):
    return {tuple((k, r["header"].get(k)) for k in HOST_KEYS) for r in runs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    gain = sign * (c_med - b_med)
    if won >= 0.9 and gain > (b_q3 - b_q1):
        return won, "improved"
    if -gain > bound * abs(b_med):
        return won, "worse"
    if spread > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return won, "no worse"
        return won, "unresolved"
    return won, "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent /
                                "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    base, change = load(args.base), load(args.change)

    base_hosts, change_hosts = hosts(base), hosts(change)
    if len(base_hosts | change_hosts) > 1:
        print("!" * 72)
        print("WARNING: the result sets come from different hosts or builds;")
        print("their numbers are not comparable:")
        for h in sorted(base_hosts | change_hosts):
            side = ("base" if h in base_hosts else "") + (
                " change" if h in change_hosts else "")
            print(f"  [{side.strip()}] " + ", ".join(f"{k}={v}" for k, v in h))
        print("!" * 72)

    workloads = sorted({r["header"]["workload"] for r in base} |
                       {r["header"]["workload"] for r in change})
    print(f"{'workload':14s} {'metric':16s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'won':>5s}  verdict")
    for w in workloads:
        b_runs = [r["result"] for r in base if r["header"]["workload"] == w]
        c_runs = [r["result"] for r in change if r["header"]["workload"] == w]
        if not b_runs or not c_runs:
            print(f"{w:14s} (only one side ran this workload)")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            won, v = verdict(bv, cv, m["better"], m["bound"])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:14s} {name:16s} {fmt(quartiles(bv)):>32s} "
                  f"{fmt(quartiles(cv)):>32s} {won:5.2f}  {v}")
        bf = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        cf = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        print(f"{w:14s} {'failed_frac':16s} {bf:>32.4g} {cf:>32.4g} {'':5s}  "
              f"{'worse' if cf > bf else 'no worse'}")


if __name__ == "__main__":
    main()
