"""Fast self-test of the benchmark on tiny inputs (about ten seconds).

    python3 perfbench/selftest.py

Checks, for every workload, that a plain run emits exactly the end-to-end
metrics of BENCHMARK.json with their units, that a traced run emits exactly
the per-layer metrics, that every oracle gate passes, and that the exact
counts ``infostructure.token_trace.calls`` and ``core.seeded_stream.calls``
repeat from one traced run to the next and have their expected ratios: one
random stream per rollout, and T - k + 1 token traces per
``delayed_stat_gains`` call.  It also checks that the benchmark
fails without printing a result when the library's sources are absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from sweep import load_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("infostructure.token_trace.calls", "core.seeded_stream.calls")
# exact ratios on the tiny inputs (solve-large: T = 8, k = 2)
RATIOS = {"mc-rollouts": ("sim.streams_per_rollout", 1.0),
          "solve-large": ("estimator.token_traces_per_gains_call", 7.0)}


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError(f"{what}: gates failed: {res}")
    return res["metrics"]


def check_metrics(metrics: dict, wanted: list, what: str,
                  positive: bool) -> None:
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise AssertionError(f"{what}: missing {set(names) - set(metrics)}, "
                             f"unexpected {set(metrics) - set(names)}")
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise AssertionError(f"{what}: {m['name']} = {got}")
        if positive and not got["value"] > 0:
            raise AssertionError(f"{what}: {m['name']} = {got['value']}")


def main() -> int:
    spec = load_spec()
    for w in spec["workloads"]:
        name = w["name"]
        plain = result_of(run(ROOT, name, 1, 0), f"{name} plain")
        check_metrics(plain, spec["end_to_end"], f"{name} plain", True)
        counts = []
        for seed in (1, 2):
            traced = result_of(run(ROOT, name, seed, 1), f"{name} traced")
            check_metrics(traced, spec["per_layer"], f"{name} traced", False)
            counts.append({c: traced[c]["value"] for c in EXACT_COUNTS})
            if name in RATIOS:
                metric, want = RATIOS[name]
                if traced[metric]["value"] != want:
                    raise AssertionError(f"{name}: {metric} = "
                                         f"{traced[metric]['value']}, "
                                         f"wanted {want}")
        if counts[0] != counts[1]:
            raise AssertionError(f"{name}: exact counts differ: {counts}")
        print(f"{name}: ok {counts[0]}")
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the library's sources")
    print("without sources: fails with no result, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
