"""Time each layer over a fixed grid of sizes and print the medians as JSON.

The grid is the north star's synthetic sweep over (n, d_x, k, T): random
stable plants like the solve-large workload's (d_y = 2 and d_u = 1 per
controller, local gains at scale 0.1) under symmetric k-step delayed
sharing.  At each point every layer is called once to warm up and then
``REPEATS`` times; the median wall time is printed in ms under the layer
names of ``BENCHMARK.json``.  The value sweep of ``backward_riccati`` is
kept per plant and protocol, so each of its calls gets a system built,
outside the timed call, on a fresh copy of the plant: it times the cold
sweep, as sizes grow.

    python3 tools/scale_grid.py > grid.json

The script imports the package from ``src/`` of the checkout it lives in and
uses only the public API and perfbench's ``random_plant``, so a copy of it
runs in an older checkout too, back to the first whose
``delayed_stat_map`` returns all T maps; BLAS is pinned to one thread.  It
picks and reports work; it is not a gate.  A speed-up is claimed only from
``perfbench/sweep.py --against``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import declqg as dq  # noqa: E402
from perfbench.envinfo import environment  # noqa: E402
from perfbench.workloads import random_plant  # noqa: E402

#: (n, d_x, k, T) of each grid point.
GRID = ((4, 8, 2, 50), (4, 8, 4, 50), (4, 8, 6, 50), (4, 16, 4, 50),
        (8, 8, 4, 50), (4, 8, 4, 200))
#: Timed calls per layer and point.
REPEATS = 7
#: Rollouts per timed ``simulate`` call.
ROLLOUTS = 1000


def median_ms(call, fresh=lambda: ()) -> float:
    """Median time of ``call(*fresh())``; ``fresh`` runs untimed."""
    call(*fresh())      # warm-up
    times = []
    for _ in range(REPEATS):
        args = fresh()
        start = perf_counter()
        call(*args)
        times.append(perf_counter() - start)
    return 1e3 * float(np.median(times))


def point(n: int, d_x: int, k: int, T: int) -> dict:
    rng = np.random.default_rng([n, d_x, k, T])
    plant = random_plant(rng, n=n, d_x=d_x, d_y=(2,) * n, d_u=(1,) * n, T=T)
    mp = dq.build_symmetric_delay(plant, k)
    gains = dq.LocalGains.random(plant, mp, rng, scale=0.1)
    ss = dq.solve(plant, mp, gains)
    cs = ss.cs
    seeds = itertools.count()     # a fresh simulate seed per call
    cold = {"solver.backward_riccati": (lambda: (dq.build(
        dataclasses.replace(plant), mp, gains),),)}
    layers = {
        "coordination.build": lambda: dq.build(plant, mp, gains),
        "solver.forward_riccati": lambda: dq.forward_riccati(cs),
        "solver.backward_riccati": dq.backward_riccati,
        "solver.performance": lambda: dq.solver.performance(
            cs, ss.Ptilde, ss.S, ss.filter_gain),
        "solver.solve": lambda: dq.solve(plant, mp, gains),
        "coordination.closed_loop_cost_exact":
            lambda: dq.closed_loop_cost_exact(cs, ss.Lgain, ss.filter_gain),
        "estimator.delayed_stat_gains": lambda: dq.delayed_stat_gains(ss, k),
        "estimator.delayed_stat_map": lambda: dq.delayed_stat_map(cs, k),
        "sim.simulate": lambda: dq.simulate(plant, mp, gains, ss,
                                            seed=next(seeds), count=ROLLOUTS),
    }
    return {"n": n, "d_x": d_x, "k": k, "T": T, "d_state": cs.d_state,
            "median_ms": {name: median_ms(call, *cold.get(name, ()))
                          for name, call in layers.items()}}


def main() -> int:
    env = environment(0)
    del env["seed"]
    doc = {"environment": env, "repeats": REPEATS,
           "simulate_rollouts": ROLLOUTS,
           "points": [point(*p) for p in GRID]}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
