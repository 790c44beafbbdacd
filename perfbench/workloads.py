"""The benchmark's three workloads: set-up, closed-loop steps, oracle gates.

Each workload is one caller in a closed loop: a step issues a call, waits for
it, checks the answer, and only then issues the next.  Timed calls are of two
kinds.  ``main`` is the call the workload is about (its throughput and
latency metrics); ``followup`` is the smaller call a user makes next:

=============  =========================  =================================
workload       main call                  followup call
=============  =========================  =================================
tune-demos     ``tune`` on one demo       ``solve`` of the tuned gains
mc-rollouts    ``simulate``, 100k rolls   ``simulate``, 1k rolls, new seed
solve-large    ``solve``, 8 per step      ``delayed_stat_gains``, 1 per step
=============  =========================  =================================

tune-demos and solve-large repeat the same inputs call after call (the tune
seed is the workload seed; the solves are of one fixed strategy), so a cache
kept across calls would pay off there.  mc-rollouts never repeats a timed
input: every ``simulate`` call draws from a seed of its own, derived from the
workload seed and the step, so it shows what a single call costs.

A step is one main call and its followups (solve-large: eight solves, then
one ``delayed_stat_gains``, so both sample the whole run).  A timed run ends
after a multiple of ``cycle`` steps; a traced run makes ``trace_steps``.
Gate calls are untimed oracle checks.  A check that fails, or a call that
raises, marks the call failed; the run then reports ``correct: false``.
The library is reached only through attributes looked up at call time
(``dq.solve``, ``cli.load_scenario``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import copy
import sys
from contextlib import nullcontext
from time import perf_counter
from typing import Callable

import numpy as np

import declqg as dq
from declqg import cli


class Recorder:
    """Timings, gate failures and trace-only counters of one run.

    ``raw[mode][kind]`` holds (seconds, calibration index) per timed call:
    ``at`` is the index of the host-speed calibration the runner made last
    (see ``reference.py``), by which :meth:`scaled` rescales the timing.
    The runner sets :attr:`calibrate`; a workload whose main call lasts
    seconds calls it before the followups, so that both kinds of call are
    scaled by calibrations taken right around them.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.at = 0
        self.raw = {m: {"main": [], "followup": []}
                    for m in ("plain", "traced")}
        self.units: list[tuple] = []     # (work units, input key) per main
        self.attempted = 0
        self.failed_calls: set[int] = set()
        self.failures: list[str] = []
        self.counters: dict[str, int] = {}
        self.setups: list[float] = []    # scaled cold set-up times
        self.calibrate: Callable[[], None] = lambda: None

    @property
    def mode(self) -> str:
        return "traced" if self.tracer is not None and self.tracer.active \
            else "plain"

    def call(self, kind: str, fn: Callable, units=None, key=None):
        """Run one call of ``kind`` (main, followup or gate) and time it.

        ``key`` names the input of a main call when a workload cycles over
        several inputs of different cost, so statistics can be taken per
        input before they are combined.
        """
        self.attempted += 1
        span = (self.tracer.span(f"bench.{kind}") if self.mode == "traced"
                else nullcontext())
        t0 = perf_counter()
        try:
            with span:
                out = fn()
        except Exception as exc:   # a raised call is a failed call
            self.fail(f"{kind} call raised {exc!r}")
            return None
        dt = perf_counter() - t0
        if kind != "gate":
            self.raw[self.mode][kind].append((dt, self.at))
        if kind == "main":
            self.units.append((units(out) if callable(units) else units, key))
        return out

    def scaled(self, mode: str, kind: str, scales: list) -> list[float]:
        return [dt * scales[at] for dt, at in self.raw[mode][kind]]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed_calls.add(self.attempted)
        if len(self.failures) < 50:
            self.failures.append(message)
        print(f"GATE FAILED: {message}", file=sys.stderr)

    def count(self, name: str, n: int) -> None:
        """Add to a per-layer counter; counts are taken in traced calls only."""
        if self.mode == "traced":
            self.counters[name] = self.counters.get(name, 0) + n


def random_plant(rng, n, d_x, d_y, d_u, T, rho=0.9):
    """Seeded synthetic plant: stable A (spectral radius ``rho``), PD noise."""
    du = sum(d_u)

    def psd(d, scale):
        f = rng.standard_normal((d, d))
        return scale * (f @ f.T) / d

    a = rng.standard_normal((d_x, d_x))
    A = a * (rho / max(np.abs(np.linalg.eigvals(a)).max(), 1e-6))
    B = 0.8 * rng.standard_normal((d_x, du))
    C = [0.9 * rng.standard_normal((d_y[i], d_x)) for i in range(n)]
    return dq.PlantModel.create(
        n=n, T=T, d_x=d_x, d_u=d_u, d_y=d_y, A=A, B=B, C=C,
        Q=psd(d_x, 1.0), R=psd(du, 0.5) + 0.5 * np.eye(du),
        sigma_x=psd(d_x, 1.0) + 0.1 * np.eye(d_x),
        sigma_w0=psd(d_x, 0.3) + 0.05 * np.eye(d_x),
        sigma_w=[psd(d_y[i], 0.2) + 0.05 * np.eye(d_y[i]) for i in range(n)])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


class TuneDemos:
    """``tune`` on each built-in demo config with its own ``tune`` block.

    Thousands of solves on tiny systems: Python overhead in
    ``coordination.build`` and the solver sweeps dominates.
    """

    name = "tune-demos"
    aliases = {"work_per_s": "tune_evals_per_s",
               "followup_ms_p50": "tuned_solve_ms_p50"}
    followups = 5           # timed re-solves of each tuned result
    warmup_budget = 30
    cycle = trace_steps = len(cli.DEMOS)   # one tune call per demo

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.J0: dict[str, float] = {}
        self.logs: dict[str, tuple] = {}

    def setup(self, rec: Recorder) -> None:
        self.demos = []
        for name, demo in cli.DEMOS.items():
            sc = cli.load_scenario(copy.deepcopy(demo["config"]))
            budget = 30 if self.tiny else sc.tune_budget
            self.demos.append((name, sc, budget))
        name, sc, budget = self.demos[0]
        self._tune(rec, sc, min(budget, self.warmup_budget))

    def _tune(self, rec, sc, budget):
        res = dq.tune(sc.plant, sc.protocol, budget=budget, seed=self.seed,
                      restarts=sc.tune_restarts)
        rec.count("tune.evaluations", res.evaluations)
        rec.count("tune.improvements",
                  sum(b[2] < a[2] for a, b in zip(res.log, res.log[1:])))
        return res

    def reference(self, rec: Recorder) -> None:
        for name, sc, _ in self.demos:
            zeros = dq.LocalGains.zeros(sc.plant, sc.protocol)
            self.J0[name] = rec.call(
                "gate", lambda: dq.solve(sc.plant, sc.protocol, zeros).J)

    def step(self, rec: Recorder, i: int) -> None:
        name, sc, budget = self.demos[i % len(self.demos)]
        res = rec.call("main", lambda: self._tune(rec, sc, budget),
                       units=lambda r: r.evaluations, key=name)
        if res is None:
            return
        rec.calibrate()
        rec.check(res.J <= self.J0[name],
                  f"{name}: tuned J {res.J!r} above zero-gain J "
                  f"{self.J0[name]!r}")
        rec.check(res.log == self.logs.setdefault(name, res.log),
                  f"{name}: tune log differs between repeats")
        for _ in range(self.followups):
            J = rec.call("followup",
                         lambda: dq.solve(sc.plant, sc.protocol, res.gains).J)
            rec.check(J == res.J,
                      f"{name}: tune J {res.J!r} != solve(gains).J {J!r}")


class McRollouts:
    """``simulate`` with 100 000 rollouts per call on a fixed strategy.

    One random stream per rollout in ``draw_primitives`` and the batched
    ``rollout_plant`` dominate; the solver runs once, in set-up.  Every
    simulate call has a seed of its own (:meth:`call_seed`).
    """

    name = "mc-rollouts"
    aliases = {"work_per_s": "rollouts_per_s",
               "followup_ms_p50": "small_simulate_ms_p50"}
    followups = 5           # timed small simulate calls per step
    kept = 3
    cycle, trace_steps = 1, 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.T = 6 if tiny else 20
        self.count = 2_000 if tiny else 100_000
        self.small = 100 if tiny else 1_000
        self.exact = None

    def call_seed(self, *key: int) -> int:
        """Simulate seed of one call, keyed by the workload seed and ``key``."""
        ss = np.random.SeedSequence([self.seed, *key])
        return int(ss.generate_state(1)[0])

    def setup(self, rec: Recorder) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.plant = random_plant(rng, n=2, d_x=2, d_y=(1, 1), d_u=(1, 1),
                                  T=self.T)
        self.mp = dq.build_symmetric_delay(self.plant, 2)
        self.gains = dq.LocalGains.zeros(self.plant, self.mp)
        self.ss = dq.solve(self.plant, self.mp, self.gains)
        self._simulate(rec, self.call_seed(0), self.small)    # warm-up

    def _simulate(self, rec, seed, count):
        p = self.plant
        rec.count("sim.rollouts", count)
        rec.count("sim.primitives_bytes",
                  8 * count * (p.d_x + p.T * (p.d_x + p.d_y_total)))
        return dq.simulate(p, self.mp, self.gains, self.ss, seed=seed,
                           count=count, sample_count=self.kept)

    def reference(self, rec: Recorder) -> None:
        self.exact = rec.call("gate", lambda: dq.exact_cost(
            self.plant, self.mp, self.gains, self.ss))
        rec.check(self.exact is not None and _close(self.ss.J, self.exact,
                                                    1e-9),
                  f"J {self.ss.J!r} vs exact_cost {self.exact!r}")

    def step(self, rec: Recorder, i: int) -> None:
        seed = self.call_seed(1, i)
        batch = rec.call("main", lambda: self._simulate(rec, seed, self.count),
                         units=self.count)
        rec.calibrate()
        for j in range(self.followups):
            small_seed = self.call_seed(2, i, j)
            rec.call("followup",
                     lambda: self._simulate(rec, small_seed, self.small))
        if batch is None:
            return
        if self.exact is not None:
            z = abs(batch.mean - self.exact) / batch.stderr
            rec.check(z <= 4.0, f"MC mean {batch.mean!r} is {z:.2f} stderr "
                                f"from exact {self.exact!r}")
        rec.check(len(batch.samples) == self.kept,
                  f"{len(batch.samples)} kept rollouts, wanted {self.kept}")
        # untimed repeats of a prefix of this step's input
        head = rec.call("gate", lambda: self._simulate(rec, seed, self.small))
        again = rec.call("gate", lambda: self._simulate(rec, seed, self.small))
        rec.check(head is not None
                  and np.array_equal(head.costs, batch.costs[:self.small]),
                  f"first {self.small} costs differ from a count="
                  f"{self.small} call (batch invariance)")
        rec.check(head is not None and again is not None
                  and np.array_equal(head.costs, again.costs),
                  "simulate is not bitwise reproducible across calls")


class SolveLarge:
    """``solve`` then ``delayed_stat_gains`` on a 52-state coordinator.

    Same solver and coordination layers as tune-demos, but BLAS/LAPACK
    bound; ``delayed_stat_gains`` retraces the protocol's tokens per step.
    """

    name = "solve-large"
    aliases = {"work_per_s": "solves_per_s", "call_ms_p50": "solve_ms_p50",
               "call_ms_p90": "solve_ms_p90",
               "followup_ms_p50": "delayed_gains_ms_p50"}
    kept = 3
    solves = 8              # solve calls per delayed_stat_gains call
    cycle, trace_steps = 1, 3

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        if tiny:
            self.dims = dict(n=2, d_x=3, d_y=(1, 1), d_u=(1, 1), T=8)
            self.k = 2
        else:
            self.dims = dict(n=4, d_x=8, d_y=(2,) * 4, d_u=(1,) * 4, T=50)
            self.k = 4

    def setup(self, rec: Recorder) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.plant = random_plant(rng, rho=0.9, **self.dims)
        self.mp = dq.build_symmetric_delay(self.plant, self.k)
        self.gains = dq.LocalGains.random(self.plant, self.mp, rng, scale=0.1)
        self.ss = self._solve()     # warm-up

    def _solve(self):
        return dq.solve(self.plant, self.mp, self.gains)

    def _gains(self):
        return dq.delayed_stat_gains(self.ss, self.k)

    def reference(self, rec: Recorder) -> None:
        ss = self.ss
        exact = rec.call("gate", lambda: dq.closed_loop_cost_exact(
            ss.cs, ss.Kgain, ss.filter_gain))
        rec.check(exact is not None and _close(ss.J, exact, 1e-9),
                  f"J {ss.J!r} vs closed_loop_cost_exact {exact!r}")
        self.L = rec.call("gate", self._gains)
        rec.count("sim.rollouts", self.kept)
        batch = rec.call("gate", lambda: dq.simulate(
            self.plant, self.mp, self.gains, ss, seed=self.seed,
            count=self.kept, sample_count=self.kept))
        if self.L is None or batch is None:
            return
        worst = 0.0
        for ro in batch.samples:
            tracker = dq.DelayedStatTracker.create(self.plant, self.mp)
            for t in range(1, self.plant.T + 1):
                lhs = self.L[t - 1] @ tracker.stat().vector()
                rhs = ss.Lgain[t - 1] @ ro.stat[t - 1]
                scale = max(1.0, float(np.abs(rhs).max()))
                worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
                tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                          ro.u_tilde[t - 1])
        rec.check(worst <= 1e-8, f"delayed-statistic gains disagree with "
                                 f"Lgain @ stat by {worst:.3e} (relative)")

    def step(self, rec: Recorder, i: int) -> None:
        for _ in range(self.solves):
            ss = rec.call("main", self._solve, units=1)
            rec.check(ss is not None and ss.J == self.ss.J,
                      "solve is not bitwise reproducible across calls")
        L = rec.call("followup", self._gains)
        rec.check(L is not None and len(L) == len(self.L)
                  and all(np.array_equal(a, b) for a, b in zip(L, self.L)),
                  "delayed_stat_gains is not bitwise reproducible")


WORKLOADS = {w.name: w for w in (TuneDemos, McRollouts, SolveLarge)}
