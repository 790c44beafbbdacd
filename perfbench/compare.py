"""Compare two result sets written by ``sweep.py``: parent against change.

    python3 perfbench/compare.py perfbench/out/base perfbench/out/new

One row per (workload, metric): each side's quartiles, the pairs the change
won (runs paired by seed; ties count for neither side), and a verdict:

* improved   -- the change wins at least 9 in 10 pairs and the medians differ
                by more than the parent's interquartile range, and the
                change's runs failed no more calls than the parent's;
* worse      -- the change's median is worse than the parent's by more than
                the metric's bound (per-layer metrics have no bound: the
                mirror image of "improved");
* unresolved -- a side's spread is wider than the bound, and not every run of
                the change beats every run of the parent; or it would be
                "improved", but more calls failed;
* unchanged  -- otherwise.

End-to-end metrics come from plain runs, per-layer metrics from traced runs.
Exit status 1 when any row is "worse" or when the change's runs of a
workload failed more calls than the parent's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from stats import quartiles
from sweep import load_set, load_spec, values


def verdict(base: dict, new: dict, better: str, bound: float | None):
    """(verdict, pairs won, pairs) for one metric; values keyed by seed."""
    sign = 1.0 if better == "lower" else -1.0     # >0: change is better
    seeds = sorted(set(base) & set(new))
    gains = [sign * (base[s] - new[s]) for s in seeds]
    won = sum(g > 0 for g in gains)
    lost = sum(g < 0 for g in gains)
    bq1, bmed, bq3 = quartiles(base.values())
    nq1, nmed, nq3 = quartiles(new.values())
    gain = sign * (bmed - nmed)
    iqr = bq3 - bq1
    if seeds and won >= 0.9 * len(seeds) and gain > iqr:
        return "improved", won, len(seeds)
    if bound is None:
        if seeds and lost >= 0.9 * len(seeds) and -gain > iqr:
            return "worse", won, len(seeds)
        return ("unchanged" if abs(gain) <= iqr else "unresolved"), won, \
            len(seeds)
    scale = abs(bmed) or 1.0
    if -gain / scale > bound:
        return "worse", won, len(seeds)
    wide = max(iqr / scale, (nq3 - nq1) / (abs(nmed) or 1.0)) > bound
    all_better = (max(new.values()) < min(base.values()) if better == "lower"
                  else min(new.values()) > max(base.values()))
    if wide and not all_better:
        return "unresolved", won, len(seeds)
    return "unchanged", won, len(seeds)


def failed_calls(docs: dict) -> int:
    return sum(d["result"]["failed"] for d in docs.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="parent's result set")
    ap.add_argument("change", type=Path, help="change's result set")
    args = ap.parse_args(argv)
    spec = load_spec()
    base, new = load_set(args.base), load_set(args.change)
    print(f"{'workload':12} {'metric':40} {'unit':6} {'parent Q1/med/Q3':>32} "
          f"{'change Q1/med/Q3':>32} {'won':>6}  verdict")
    any_worse = False
    for (workload, trace) in sorted(set(base) & set(new)):
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        bf = failed_calls(base[workload, trace])
        nf = failed_calls(new[workload, trace])
        if nf > bf:
            any_worse = True
            print(f"{workload:12} failed calls: parent {bf}, change {nf}")
        for m in metrics:
            b = values(base[workload, trace], m["name"])
            n = values(new[workload, trace], m["name"])
            if not b or not n:
                continue
            v, won, pairs = verdict(b, n, m["better"], m.get("bound"))
            if v == "improved" and nf > bf:
                v = "unresolved"
            any_worse |= v == "worse"
            fmt = "/".join(f"{x:.4g}" for x in quartiles(b.values()))
            fmt_n = "/".join(f"{x:.4g}" for x in quartiles(n.values()))
            print(f"{workload:12} {m['name']:40} {m['unit']:6} {fmt:>32} "
                  f"{fmt_n:>32} {won:>3}/{pairs:<2}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
