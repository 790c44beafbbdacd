"""Run the benchmark over several seeds and store the results as a set.

    python3 perfbench/sweep.py --out perfbench/out/base --seeds 10
    python3 perfbench/sweep.py --out perfbench/out/new --seeds 10 \\
        --against ../parent-checkout --against-out perfbench/out/base

Each run is a fresh process of ``run.py`` in this checkout, for the
``run_seconds`` of this checkout's ``BENCHMARK.json``.  With ``--against``
every seed is also run in a second checkout, for the same length, alternating
which of the two goes first, so that the two result sets form pairs for
``compare.py``.  A result set is a directory holding one JSON
file per (workload, seed, trace): the run's full report and its result line.
At the end the spread of every end-to-end metric is printed: the interquartile
range over seeds as a share of the median, next to a third of its bound,
which every metric (``setup_s`` too) should stay within.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(root: Path, workload: str, seed: int, seconds: float,
            trace: int, out: Path) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {root} printed no "
                           f"result (exit {proc.returncode}):\n{proc.stderr}")
    doc = {"report": json.loads(lines[-2])["report"],
           "result": json.loads(lines[-1]), "exit": proc.returncode}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload}.seed{seed}.trace{trace}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def load_set(path: Path) -> dict:
    """{(workload, trace): {seed: result document}} of one result set."""
    runs: dict = {}
    for f in sorted(Path(path).glob("*.json")):
        with open(f) as fh:
            doc = json.load(fh)
        rep = doc["report"]
        runs.setdefault((rep["workload"], rep["trace"]), {})[rep["seed"]] = doc
    return runs


def values(docs: dict, metric: str) -> dict:
    """{seed: value} of one metric over the runs that report it."""
    return {seed: d["result"]["metrics"][metric]["value"]
            for seed, d in docs.items() if metric in d["result"]["metrics"]}


def print_spreads(path: Path, spec: dict) -> bool:
    """Print each end-to-end metric's quartiles and spread; True if steady."""
    steady = True
    print(f"{'workload':12} {'metric':16} {'Q1':>12} {'median':>12} "
          f"{'Q3':>12} {'spread':>7} {'bound/3':>7}  n  failed")
    for (workload, trace), docs in sorted(load_set(path).items()):
        if trace:
            continue
        failed = sum(d["result"]["failed"] for d in docs.values())
        for m in spec["end_to_end"]:
            vals = list(values(docs, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"{workload:12} {m['name']:16} {q1:12.5g} {med:12.5g} "
                  f"{q3:12.5g} {s:7.3f} {m['bound'] / 3:7.3f} {len(vals):2d}"
                  f"  {failed}{'' if ok else '  WIDE'}")
    return steady


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path,
                    help="second checkout, run alternately with this one")
    ap.add_argument("--against-out", type=Path)
    args = ap.parse_args(argv)
    if args.against is not None and args.against_out is None:
        ap.error("--against needs --against-out")
    sides = [(HERE.parent, args.out)]
    if args.against is not None:
        sides.append((args.against, args.against_out))
    for k in range(args.seeds):
        seed = args.first_seed + k
        order = sides if k % 2 == 0 else sides[::-1]
        for workload in args.workloads.split(","):
            for root, out in order:
                doc = run_one(root.resolve(), workload, seed,
                              spec["run_seconds"], args.trace, out)
                res = doc["result"]
                print(f"{workload} seed {seed} {root}: correct="
                      f"{res['correct']} failed={res['failed']}/"
                      f"{res['attempted']}", file=sys.stderr)
    steady = True
    for _, out in sides:
        print(f"\n{out}")
        steady &= print_spreads(out, spec)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
