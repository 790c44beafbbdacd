"""Print a JSON map from output name to the sha256 of its exact bits.

A change that promises bitwise-identical results is checked by running this
script on a checkout of the parent commit and on the change, then diffing
the two outputs:

    python3 tools/bitwise_digest.py > after.json
    (cd ../parent && python3 tools/bitwise_digest.py) > before.json
    diff before.json after.json

Arrays are hashed through ``tobytes()``, floats through ``float.hex``.  The
script imports the package from ``src/`` and the benchmark's workload set-up
from ``perfbench/`` of the checkout it lives in, and uses only the public
API; a checkout from before ``PolicyWalker`` runs its own copy.
BLAS is pinned to one thread.  It covers:

* ``tune`` on the five ``cli.DEMOS`` at their own budgets: log, J,
  evaluations and ``theta``;
* ``tune`` on ``scalar-2ctrl-k1`` at seed 3 with two seeded restarts and a
  budget that lets all three starts run out their steps, so every reset
  of the incumbent at a restart is covered: the same four outputs and the
  tuned strategy's ``Lgain``;
* per demo, at zero and at random gains: J, the four ``SolvedStrategy``
  sequences, the coordinated system's ``noise`` and ``noise_cost``,
  ``closed_loop_cost_exact`` and the ``strategy_to_doc(dump_matrices=True)``
  JSON;
* per demo, 1 000 rows of ``draw_primitives``, the scaled noise, and the
  plant predictor's covariances and gains, the ``PlantModel.predictor``
  property (as lists of per-step matrices, so a tuple and an array
  of the same matrices hash alike), under the key of the
  ``plant_kalman_covariances`` wrapper that once returned them;
* per demo, at random gains and under random observation-history maps
  (``ZHistoryPolicy``): 50 ``rollout_coordinated`` rollouts, the costs of
  50 ``rollout_plant`` rollouts and every field but ``stat`` of 5 of them
  kept (a history policy's ``stat`` was ``None`` before the policy's state
  held the whole history), and through ``declqg.oracles`` the
  ``closed_loop_maps`` to T and ``gaussian_conditioning`` at every t;
* per delayed-sharing demo, at random gains: ``act`` at every step along 3
  kept ``rollout_plant`` rollouts, with the statistic walked by a
  ``PolicyWalker`` of ``StatisticPolicy`` from each rollout's Y_t, U_t and
  Ut~_t, and, where the protocol has a ``window``, the delayed
  statistic's ``vector()`` at every step along the same rollouts, run by
  a ``DelayedStatTracker``;
* the solve-large workload at seeds 0 and 901: J, the sequences, every
  ``delayed_stat_gains`` matrix, ``delayed_stat_map`` at every t (as a
  list of per-step matrices, which versions before the stacked maps
  returned one call at a time),
  ``closed_loop_cost_exact`` and the delayed statistic along 3 rollouts;
* the mc-rollouts workload at seeds 0 and 901: the costs of a 20 000-rollout
  ``simulate`` and its kept samples;
* at mc-rollouts seed 0, a ``simulate`` whose count (2 blocks + 3) and kept
  samples (1 block + 2) straddle the edges of ``declqg.sim.BLOCK``, so a
  change of the per-block stream layout shows up, and one of the same count
  whose kept samples (1 chunk + 2) straddle the edge of the first
  ``declqg.sim.ROLL_ROWS`` chunk that a worker rolls out;
* the stdout of each ``demos/*.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")     # BLAS results depend on threads

import numpy as np  # noqa: E402

import declqg as dq  # noqa: E402
from declqg import cli  # noqa: E402
from perfbench.workloads import McRollouts, Recorder, SolveLarge  # noqa: E402

SEQUENCES = ("Lgain", "filter_gain", "Ptilde", "S")
RESTARTS_DEMO, RESTARTS_SEED, RESTARTS_BUDGET = "scalar-2ctrl-k1", 3, 3500


def digest(value) -> str:
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(f"[{len(v)}".encode())
            for item in v:
                feed(item)
        elif isinstance(v, float):
            h.update(v.hex().encode())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())
    feed(value)
    return h.hexdigest()


def strategy_digests(out: dict, key: str, ss) -> None:
    out[f"{key}.J"] = digest(ss.J)
    for name in SEQUENCES:
        out[f"{key}.{name}"] = digest(getattr(ss, name))


def batch_digests(out: dict, key: str, mc) -> None:
    out[f"{key}.costs"] = digest(mc.costs)
    out[f"{key}.samples"] = digest(
        [[getattr(ro, f) for f in sorted(vars(ro))] for ro in mc.samples])


def tune_digests(out: dict, key: str, res) -> None:
    out[f"{key}.log"] = digest(res.log)
    out[f"{key}.J"] = digest(res.J)
    out[f"{key}.evaluations"] = digest(res.evaluations)
    out[f"{key}.theta"] = digest(res.gains.theta)


def oracle_digests(out: dict, key: str, ss, rng) -> None:
    cs = ss.cs
    thetas = dq.random_theta_maps(cs, rng)
    prims = dq.draw_primitives(cs.plant, seed=9, count=50)
    ro = dq.rollout_coordinated(cs, dq.ZHistoryPolicy(thetas), prims)
    out[f"{key}.rollout_coordinated"] = digest(
        [getattr(ro, f) for f in sorted(vars(ro))])
    rb = dq.rollout_plant(cs.plant, cs.protocol, cs.gains,
                          dq.ZHistoryPolicy(thetas), prims, keep=5)
    out[f"{key}.rollout_plant.history.costs"] = digest(rb.costs)
    out[f"{key}.rollout_plant.history.samples"] = digest(
        [[getattr(ro, f) for f in sorted(vars(ro)) if f != "stat"]
         for ro in rb.samples])
    jg = dq.oracles.closed_loop_maps(cs, thetas, cs.T)
    out[f"{key}.closed_loop_maps"] = digest(
        [jg.xtilde, jg.ytilde, jg.utilde])
    out[f"{key}.gaussian_conditioning"] = digest(
        [dq.oracles.gaussian_conditioning(cs, thetas, t)
         for t in range(1, cs.T + 1)])


def stat_maps(cs, k) -> list:
    """``delayed_stat_map`` at every t, as a list of matrices."""
    try:
        return list(dq.delayed_stat_map(cs, k))
    except TypeError:     # versions that took t
        return [dq.delayed_stat_map(cs, k, t) for t in range(1, cs.T + 1)]


def kept_rollouts(ss):
    """3 ``rollout_plant`` rollouts of ``ss``, kept in full."""
    p = ss.cs.plant
    prims = dq.draw_primitives(p, seed=8, count=3)
    return dq.rollout_plant(p, ss.cs.protocol, ss.gains,
                            dq.StatisticPolicy(ss), prims, keep=3).samples


def act_digests(out: dict, key: str, ss) -> None:
    """``act`` along 3 kept rollouts, the statistic walked online."""
    p, mp = ss.cs.plant, ss.cs.protocol
    policy, actions = dq.StatisticPolicy(ss), []
    for ro in kept_rollouts(ss):
        walk = dq.PolicyWalker.start(mp, policy)
        for t in range(1, p.T + 1):
            actions.append(dq.act(
                walk, policy, ss.gains,
                [ro.y[t - 1][p.y_slice(i)] for i in range(p.n)],
                [ro.m[t - 1][mp.m_slice(i)] for i in range(p.n)]))
            if t < p.T:
                walk = walk.advance(ro.y[t - 1], ro.u[t - 1],
                                    ro.u_tilde[t - 1])
    out[f"{key}.act"] = digest(actions)


def tracker_digests(out: dict, key: str, ss) -> None:
    """The delayed statistic S_t at every t along 3 kept rollouts."""
    p, stats = ss.cs.plant, []
    start = dq.DelayedStatTracker.create(p, ss.cs.protocol)
    for ro in kept_rollouts(ss):
        tracker = start
        for t in range(1, p.T + 1):
            stats.append(tracker.stat().vector())
            if t < p.T:
                tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                          ro.u_tilde[t - 1])
    out[f"{key}.delayed_stat"] = digest(stats)


def main() -> int:
    out: dict[str, str] = {}
    for name, demo in cli.DEMOS.items():
        sc = cli.load_scenario(copy.deepcopy(demo["config"]))
        plant, mp = sc.plant, sc.protocol
        tune_digests(out, f"tune.{name}", dq.tune(
            plant, mp, budget=sc.tune_budget, seed=sc.tune_seed,
            restarts=sc.tune_restarts))
        if name == RESTARTS_DEMO:
            res = dq.tune(plant, mp, budget=RESTARTS_BUDGET,
                          seed=RESTARTS_SEED, restarts=2)
            key = f"tune.{name}.seed{RESTARTS_SEED}.restarts2"
            tune_digests(out, key, res)
            out[f"{key}.Lgain"] = digest(res.strategy.Lgain)
        gains = {"zero": dq.LocalGains.zeros(plant, mp),
                 "random": dq.LocalGains.random(
                     plant, mp, np.random.default_rng([len(name), 7]))}
        for label, g in gains.items():     # ``ss`` ends at random gains
            ss = dq.solve(plant, mp, g)
            strategy_digests(out, f"demo.{name}.{label}", ss)
            doc = cli.strategy_to_doc(ss, dump_matrices=True)
            out[f"demo.{name}.{label}.doc"] = digest(
                json.dumps(doc, sort_keys=True))
            out[f"demo.{name}.{label}.closed_loop_cost_exact"] = digest(
                dq.closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain))
            out[f"demo.{name}.{label}.noise"] = digest(ss.cs.noise)
            out[f"demo.{name}.{label}.noise_cost"] = digest(ss.cs.noise_cost)
        oracle_digests(out, f"demo.{name}.random", ss,
                       np.random.default_rng([len(name), 11]))
        if mp.window is not None or mp.delay_graph is not None:
            act_digests(out, f"demo.{name}.random", ss)
        if mp.window is not None:
            tracker_digests(out, f"demo.{name}.random", ss)
        prims = dq.draw_primitives(plant, seed=5, count=1000)
        out[f"demo.{name}.draw_primitives"] = digest(
            [prims.x1, prims.w0, prims.wy])
        out[f"demo.{name}.plant_kalman_covariances"] = digest(
            [list(seq) for seq in plant.predictor[:2]])
    for seed in (0, 901):
        wl = SolveLarge(seed, tiny=False)
        wl.setup(Recorder())
        ss = wl.ss
        strategy_digests(out, f"solve-large.{seed}", ss)
        out[f"solve-large.{seed}.delayed_stat_gains"] = digest(
            list(dq.delayed_stat_gains(ss, wl.k)))
        out[f"solve-large.{seed}.delayed_stat_map"] = digest(
            stat_maps(ss.cs, wl.k))
        out[f"solve-large.{seed}.closed_loop_cost_exact"] = digest(
            dq.closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain))
        tracker_digests(out, f"solve-large.{seed}", ss)
    for seed in (0, 901):
        wl = McRollouts(seed, tiny=False)
        wl.setup(Recorder())
        mc = dq.simulate(wl.plant, wl.mp, wl.gains, wl.ss,
                         seed=wl.call_seed(1, 0), count=20_000,
                         sample_count=wl.kept)
        batch_digests(out, f"mc-rollouts.{seed}", mc)
        if seed == 0:
            block = getattr(dq.sim, "BLOCK", 4096)   # versions before blocks
            mc = dq.simulate(wl.plant, wl.mp, wl.gains, wl.ss,
                             seed=wl.call_seed(1, 1), count=2 * block + 3,
                             sample_count=block + 2)
            batch_digests(out, "mc-rollouts.0.block-edges", mc)
            chunk = getattr(dq.sim, "ROLL_ROWS", block // 4)   # before chunks
            mc = dq.simulate(wl.plant, wl.mp, wl.gains, wl.ss,
                             seed=wl.call_seed(1, 2), count=2 * block + 3,
                             sample_count=chunk + 2)
            batch_digests(out, "mc-rollouts.0.chunk-edges", mc)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, check=True)
        out[f"demos/{script.name}.stdout"] = digest(proc.stdout)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
