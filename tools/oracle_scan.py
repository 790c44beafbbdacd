"""Scan generated instances for solver breakdowns and oracle disagreements.

Checks instances 0..``--examples``-1 of the instance generator of
``tests/test_sim.py`` (``_oracle_cases``: n 1..3, T 1..5, every protocol
family, optionally singular observation noise), instance i drawn from
``np.random.default_rng([ORACLE_TAG, i])`` as in that file's
generated-instance gate, with the random local gains that test uses, and
prints:

* every case whose ``solve`` raises ``NumericalBreakdown`` (step and
  protocol kind);
* every case where a pseudo-inverted covariance has a singular value within
  a decade of the cutoff (``_rank_margin`` < 1), where the recursive filter
  and the conditioning oracle may legitimately keep different ranks;
* the cases, away from the cutoff, where the recursive filter and
  ``gaussian_conditioning`` differ by more than the test's 1e-8;
* the worst relative gap between J and ``closed_loop_cost_exact``;
* over the cases whose protocol has a ``window`` (the delay after which
  every controller's data is common), the worst relative gap between J and
  the exact cost of the paper's strategy on the delayed statistic S_t
  (``declqg.DelayedStatPolicy``, a ``sim.Policy``),
  and the count of delayed-sharing graphs skipped for having none (their
  k*_j differ);
* over the cases whose filter is the window form (the same ``window``), the
  cases where its kept rank differs from the square-root sweep's at some
  step, and those where a value either of them cuts on (the window's
  eigenvalues, the sweep's squared singular values) lies within a decade
  of the cutoff.

The instances depend only on the generator's code, so every checkout with
that generator scans the same ones; the first 300 are the test's:

    python3 tools/oracle_scan.py --examples 3000
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import declqg as dq  # noqa: E402
from declqg.sim import _moment_cost  # noqa: E402
from test_solver import _window_and_sweep  # noqa: E402
from test_sim import (ORACLE_TAG, _oracle_cases,  # noqa: E402
                      _rank_margin, run_filter_vs_oracle)


def describe(p, mp) -> str:
    return (f"{mp.kind} n={p.n} T={p.T} d_x={p.d_x} d_y={p.d_y} "
            f"d_u={p.d_u}")


def check(case, found: dict) -> None:
    p, mp, seed = case
    rng = np.random.default_rng([seed, 1])
    lg = dq.LocalGains.random(p, mp, rng, 0.3)
    found["cases"] += 1
    try:
        ss = dq.solve(p, mp, lg)
    except dq.NumericalBreakdown as e:
        found["breakdowns"].append(f"t={e.t} {describe(p, mp)} seed={seed}")
        return
    exact = dq.closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)
    gap = abs(ss.J - exact) / abs(exact)
    if gap > found["worst_gap"][0]:
        found["worst_gap"] = (gap, f"{describe(p, mp)} seed={seed}")
    stat_gap(ss, seed, found)
    window_ranks(ss, seed, found)
    thetas = dq.random_theta_maps(ss.cs, rng, 0.3)
    margin = _rank_margin(ss.cs, thetas)
    if margin < 1.0:
        found["near_cutoff"].append(f"margin={margin:.2f} "
                                    f"{describe(p, mp)} seed={seed}")
        return
    try:
        run_filter_vs_oracle(p, mp, lg, thetas, seed=seed, tol=1e-8,
                             relative=True)
    except AssertionError as e:
        found["filter_gaps"].append(f"gap={e.args[0]:.2e} "
                                    f"{describe(p, mp)} seed={seed}")


def stat_gap(ss, seed: int, found: dict) -> None:
    """Relative gap between J and the exact cost of Ut~_t = L_t S_t, for an
    ``ss`` whose protocol has a window."""
    p, mp = ss.cs.plant, ss.cs.protocol
    if mp.window is None:
        if mp.delay_graph is not None:
            found["stat_skipped"] += 1
        return
    policy = dq.DelayedStatPolicy(ss)
    found["stat_cases"] += 1
    exact = _moment_cost(p, mp, ss.cs.gains, policy)
    gap = abs(ss.J - exact) / abs(exact)
    if gap > found["worst_stat_gap"][0]:
        found["worst_stat_gap"] = (gap, f"{describe(p, mp)} seed={seed}")


def window_ranks(ss, seed: int, found: dict) -> None:
    """Compare the window form's kept ranks with the square-root sweep's,
    for an ``ss`` solved in the window form."""
    p, mp = ss.cs.plant, ss.cs.protocol
    if mp.window is None:
        return
    found["window_cases"] += 1
    _, _, rank_window, rank_sweep, margin = _window_and_sweep(ss)
    where = f"margin={margin:.2f} {describe(p, mp)} seed={seed}"
    if margin < 1.0:
        found["window_near"].append(where)
    if not np.array_equal(rank_window, rank_sweep):
        found["window_rank"].append(where)


def scan(examples: int) -> dict:
    found = {"cases": 0, "breakdowns": [], "near_cutoff": [],
             "filter_gaps": [], "worst_gap": (0.0, ""), "stat_cases": 0,
             "stat_skipped": 0, "worst_stat_gap": (0.0, ""),
             "window_cases": 0, "window_rank": [], "window_near": []}
    for i in range(examples):
        check(_oracle_cases(np.random.default_rng([ORACLE_TAG, i])), found)
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--examples", type=int, default=3000)
    args = ap.parse_args()
    found = scan(args.examples)
    print(f"cases: {found['cases']}")
    for key, title in (
            ("breakdowns", "numerical breakdowns"),
            ("near_cutoff", "rank margin < 1 decade"),
            ("filter_gaps", "filter vs oracle > 1e-8, margin >= 1")):
        print(f"{title}: {len(found[key])}")
        for line in found[key]:
            print(f"  {line}")
    gap, where = found["worst_gap"]
    print(f"worst |J - exact| / |exact|: {gap:.2e}  {where}")
    gap, where = found["worst_stat_gap"]
    print(f"delayed-sharing cases: {found['stat_cases']} "
          f"({found['stat_skipped']} skipped, UnsupportedProtocol)")
    print(f"worst |J - S_t-policy exact| / |exact|: {gap:.2e}  {where}")
    print(f"window-form cases: {found['window_cases']}")
    for key, title in (
            ("window_rank", "window kept rank differs from the sweep's"),
            ("window_near", "window or sweep value within a decade of "
                            "the cutoff")):
        print(f"{title}: {len(found[key])}")
        for line in found[key]:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
