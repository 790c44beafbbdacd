"""Monte Carlo on the plant's own equations, and the exact expected cost by
second moments on the same step maps; the oracles that check the
coordinator are in :mod:`declqg.oracles`.

Rollout r reads row ``r % BLOCK`` of ``seeded_stream(seed, r // BLOCK)``'s
normals.  A coordinator policy is linear in its own state, four arrays
stacked over t (``Policy``), so the closed loop is linear: each step
is one map of (state, unit normals), written from blocks of known matrices
with the noise roots folded in, and applied to all rollouts at once, held
feature-major; a kept signal gets a map only if it is not already a row of
the state or of the step's output.  A row's bits depend neither on the rows
rolled out with it nor on how many are asked for.  The blocks are
independent, so ``simulate`` spreads them over ``WORKERS`` workers, each
rolling out ``ROLL_ROWS`` rollouts of its block at a time: its memory
beyond the costs is bounded by ``WORKERS`` chunks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (DimMismatch, NumericalBreakdown, as_index, as_matrix,
                   blkdiag, seeded_stream)
from .coordination import CoordinatedSystem, LocalGains
from .infostructure import MemoryProtocol
from .plant import PlantModel
from .solver import SolvedStrategy, _check_one_strategy


# --------------------------------------------------------------------------
# primitive randomness

#: Rollouts per random stream, and per block that a ``simulate`` worker owns.
BLOCK = 4096
#: ``rollout_plant`` pads its rollouts to a multiple of this many.
ROW_ALIGN = 8
#: Normals are drawn and transposed this many rollouts at a time.
DRAW_ROWS = BLOCK // 8
#: A ``simulate`` worker draws and rolls out this many rollouts at a time.
ROLL_ROWS = BLOCK // 4
#: Workers ``simulate`` spreads its blocks over: the CPUs it may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


@dataclass(frozen=True)
class Primitives:
    """Batched primitive draws: initial state and both noise processes.

    ``normals`` holds one column per rollout (feature-major): its unit
    normals in the order (X_1, then (W0_t, W_t) for t = 1..T).  ``x1``
    (count, d_x), ``w0[t-1]`` (count, d_x), the process noise applied at
    step t, and ``wy[t-1]`` (count, sum d_y), the stacked observation noise
    at step t, are those normals scaled by the plant's ``x1_root`` and
    ``noise_root``, formed on first use; ``rollout_plant`` folds the roots
    into its maps instead.
    """

    normals: np.ndarray    # (d_x + T (d_x + sum d_y), count)
    plant: PlantModel

    @property
    def count(self) -> int:
        return self.normals.shape[1]

    @cached_property
    def _scaled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p, d_x = self.plant, self.plant.d_x
        raw = np.ascontiguousarray(self.normals.T)     # one row per rollout
        steps = raw[:, d_x:].reshape(self.count, p.T, d_x + p.d_y_total
                                     ).swapaxes(0, 1)
        root = p.noise_root[0]
        return (raw[:, :d_x] @ p.x1_root.T,
                steps[..., :d_x] @ root[:d_x, :d_x].T,
                steps[..., d_x:] @ root[d_x:, d_x:].T)

    x1 = property(lambda self: self._scaled[0])     # (count, d_x)
    w0 = property(lambda self: self._scaled[1])     # (T, count, d_x)
    wy = property(lambda self: self._scaled[2])     # (T, count, sum d_y)


def draw_primitives(plant: PlantModel, seed: int, count: int) -> Primitives:
    """Draw primitives for rollouts [0, count).

    Each rollout's normals are one row of its block's stream (see the module
    docstring).
    """
    count = as_index(count, "count")
    if count < 0:
        raise ValueError("need count >= 0")
    normals = np.empty((_width(plant), count))
    drawn = np.empty((min(DRAW_ROWS, count), len(normals)))
    for b in range(-(-count // BLOCK)):
        _draw_rows(seeded_stream(seed, b),
                   normals[:, b * BLOCK:min(count, (b + 1) * BLOCK)], drawn)
    return Primitives(normals=normals, plant=plant)


def _width(plant: PlantModel) -> int:
    """Unit normals per rollout."""
    return plant.d_x + plant.T * (plant.d_x + plant.d_y_total)


def _draw_rows(stream: np.random.Generator, out: np.ndarray,
               drawn: np.ndarray) -> None:
    """Fill feature-major ``out`` with the next ``out.shape[1]`` rows of
    ``stream``'s normals, drawn ``DRAW_ROWS`` at a time into ``drawn``,
    which has that many rows or as many as ``out`` has columns."""
    for lo in range(0, out.shape[1], DRAW_ROWS):
        hi = min(lo + DRAW_ROWS, out.shape[1])
        out[:, lo:hi] = stream.standard_normal(out=drawn[:hi - lo]).T


# --------------------------------------------------------------------------
# coordinator policies (how Ut~ is produced from the shared data)


class Policy(NamedTuple):
    """A policy linear in its state: Ut~_t = L_t state_t and state_{t+1} =
    Ts_t state_t + Tu_t Ut~_t + Tz_t Z_t, with state_1 = 0.  L is stacked
    over t = 1..T, the transition over t = 1..T-1."""

    L: np.ndarray     # (T, sum d_u, width)
    Ts: np.ndarray    # (T - 1, width, width)
    Tu: np.ndarray    # (T - 1, width, sum d_u)
    Tz: np.ndarray    # (T - 1, width, d_z)


def StatisticPolicy(ss: SolvedStrategy) -> Policy:
    """Ut~ = L~_t stat_t, the statistic moved by the solved filter K:
    Ts = A~ - K C~, Tu = B~ - K zu, Tz = K; DimMismatch for a stack."""
    cs, K = ss.cs, ss.filter_gain
    _check_one_strategy(cs.gains)
    return Policy(ss.Lgain, cs.A[:-1] - K @ cs.C,
                  cs.B[:-1] - K @ cs.protocol.zu, K)


def _check_policy(policy: Policy, T: int, d_u: int, d_z: int) -> None:
    """Raise ``DimMismatch`` unless ``policy`` has T steps on sum d_u =
    ``d_u`` wide Ut~ and, if T > 1, transitions that read d_z wide Z."""
    w = policy.L.shape[-1]
    for name, m, shape in zip(Policy._fields, policy, [
            (T, d_u, w), (T - 1, w, w), (T - 1, w, d_u), (T - 1, w, d_z)]):
        if m.shape != shape and (T > 1 or name == "L"):
            raise DimMismatch(f"policy {name}: shape {m.shape}, need {shape}")


# --------------------------------------------------------------------------
# rollouts


@dataclass(frozen=True)
class Rollout:
    """One recorded trajectory; rows are t = 1..T."""

    x: np.ndarray
    y: np.ndarray
    m: np.ndarray
    carrier: np.ndarray
    z: np.ndarray
    u: np.ndarray
    u_tilde: np.ndarray
    stat: np.ndarray      # the policy's state
    step_costs: np.ndarray


@dataclass(frozen=True)
class RolloutBatch:
    costs: np.ndarray
    samples: tuple[Rollout, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.costs))

    @property
    def stderr(self) -> float:
        if len(self.costs) < 2:
            return float("inf")
        return float(np.std(self.costs, ddof=1) / np.sqrt(len(self.costs)))


_IDENTITY = object()     # an identity block of a _Map


class _Map(tuple):
    """A linear map of v_t as its blocks on (X_t, c_t, policy state, unit
    normals), each stacked over a run of steps; None is a zero block.
    ``M @ map`` and ``map + map`` act block by block, so the plant's
    equations read on maps as they do on signals."""

    __array_ufunc__ = None      # so that ndarray @ _Map calls __rmatmul__

    def __rmatmul__(self, m):
        return _Map(b if b is None else m if b is _IDENTITY else m @ b
                    for b in self)

    def __add__(self, other):
        return _Map(a if b is None else b if a is None else a + b
                    for a, b in zip(self, other))


def _stack(signals, cols, steps: int) -> np.ndarray:
    """(steps, rows, sum cols) array of the (map, rows) ``signals``."""
    ends = np.cumsum((0,) + cols)
    tops = np.cumsum([0] + [rows for _, rows in signals])
    out = np.zeros((steps, tops[-1], ends[-1]))
    for (sig, rows), top in zip(signals, tops):
        for b, lo, hi in zip(sig, ends, ends[1:]):
            if b is not None:
                out[:, top:top + rows, lo:hi] = \
                    np.eye(rows) if b is _IDENTITY else b
    return out


#: ``_step_maps`` builds its per-step maps stacked over runs of
#: ``RUN_STEPS`` steps, or of more while the run's maps hold at most
#: ``RUN_ENTRIES`` entries: small maps go in long runs, which saves numpy
#: calls, and large ones in short runs, which bounds their memory.
RUN_STEPS = 8
RUN_ENTRIES = 2 ** 16


def _step_maps(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
               policy: Policy, records: bool = True):
    """(step maps, record maps) of v_t = (X_t, c_t, policy state, unit
    normals of (W0_t, W_t)), or of the normals of (X_1, W0_1, W_1) at t = 1.
    Step map t gives (X_t, U_t), blkdiag(Q, R) (X_t, U_t) and, before T,
    v_{t+1} but its normals; record map t, if ``records``, (y, m, z, Ut~).
    Blocks are stacked over runs of steps that share v_t's layout: step 1,
    runs of steps 2..T-1, step T.  A step map is about as tall as v_t is
    wide, so it counts as width(v_t)^2 entries against ``RUN_ENTRIES``."""
    T, d_x, d_u, d_c = plant.T, plant.d_x, plant.d_u_total, mp.d_carrier
    _check_policy(policy, T, d_u, mp.d_z)
    width = d_x + d_c + policy.L.shape[-1] + d_x + plant.d_y_total
    run = max(RUN_STEPS, RUN_ENTRIES // (width * width))
    starts = sorted({1, T}.union(range(2, T, run)))
    steps, recs = [], []
    for t0, t1 in zip(starts, starts[1:] + [T + 1]):
        at = slice(t0 - 1, t1 - 1)
        L, Ts, Tu, Tz = (m[at] for m in policy)
        root = plant.noise_root[at]
        first = t0 == 1     # v_1 = normals of (X_1, W0_1, W_1): c_1 = 0 = s_1
        x = _Map((plant.x1_root if first else _IDENTITY, None, None, None))
        c, s = (_Map(_IDENTITY if j == i and not first else None
                     for j in range(4)) for i in (1, 2))
        cols = (d_x, 0 if first else d_c, 0 if first else L.shape[-1],
                len(root[0]))
        w0, w = (_Map((None, None, None, r))
                 for r in (root[:, :d_x], root[:, d_x:]))
        y = plant.C[at] @ x + w
        m = mp.m_sel @ c
        utilde = L @ s
        u = utilde + gains.G[at] @ y + gains.H[at] @ m
        z = mp.zc @ c + mp.zy @ y + mp.zu @ u
        step = [(x, d_x), (u, d_u), (plant.Q @ x, d_x), (plant.R @ u, d_u)]
        if len(Ts):
            step += [(plant.A[at] @ x + plant.B[at] @ u + w0, d_x),
                     (mp.cc @ c + mp.cy @ y + mp.cu @ u, d_c),
                     (Ts @ s + Tu @ utilde + Tz @ z, Ts.shape[1])]
        steps += list(_stack(step, cols, t1 - t0))
        if records:
            recs += list(_stack([(y, plant.d_y_total), (m, len(mp.m_sel)),
                                 (z, mp.d_z), (utilde, d_u)], cols, t1 - t0))
    return tuple(steps), tuple(recs)


def rollout_plant(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
                  policy: Policy, prims: Primitives, keep: int = 0, *,
                  maps: tuple | None = None,
                  work: np.ndarray | None = None) -> RolloutBatch:
    """Simulate the original decentralized equations: per step, one product
    of a step map with v_t, held feature-major as (dim, rows), and the cost
    from its (X_t, U_t) rows.  ``maps`` are ``_step_maps(..., keep > 0)``,
    which ``simulate`` composes once; ``work``, if given, takes the step
    products in place of fresh memory and must be at least (2, rows of the
    largest step map + d_w, count rounded up to ``ROW_ALIGN``).  The first
    ``keep`` rollouts are recorded in full; costs are kept for all."""
    if len(prims.normals) != _width(plant):
        raise DimMismatch("primitives were drawn for a plant of another size")
    keep = as_index(keep, "keep")
    if keep < 0:
        raise ValueError("need keep >= 0")
    count, keep = prims.count, min(keep, prims.count)
    steps, records = maps or _step_maps(plant, mp, gains, policy, keep > 0)
    d_x, d_w = plant.d_x, plant.d_x + plant.d_y_total
    d_xu, d_c = d_x + plant.d_u_total, mp.d_carrier
    d_stat = policy.L.shape[-1]
    # BLAS rounds the last columns of a product its own way unless their
    # number is a multiple of ROW_ALIGN: pad with zero rollouts
    cols, kept = (-(-n // ROW_ALIGN) * ROW_ALIGN for n in (count, keep))
    normals = prims.normals
    if cols > count:
        normals = np.zeros((len(normals), cols))
        normals[:, :count] = prims.normals
    rows = max(len(m) for m in steps) + d_w
    bufs = np.empty((2, rows, cols)) if work is None else work[:, :rows, :cols]
    v = normals[:d_x + d_w]
    costs = np.zeros(count)
    rec = []     # per step: the kept rows' signals and cost
    for t, step in enumerate(steps, 1):
        out = np.matmul(step, v, out=bufs[t % 2, :len(step)])
        sc = np.einsum("ir,ir->r", out[:d_xu, :count],
                       out[d_xu:2 * d_xu, :count])
        costs += sc
        if keep:     # x, u, then y, m, z, Ut~, then c and the statistic
            c_stat = (v[d_x:d_x + d_c + d_stat, :keep] if t > 1
                      else np.zeros((d_c + d_stat, keep)))
            rec.append(np.concatenate([
                out[:d_xu, :keep], (records[t - 1] @ v[:, :kept])[:, :keep],
                c_stat, sc[None, :keep]]))
        if t < plant.T:
            lo = d_x + t * d_w
            v = bufs[t % 2, 2 * d_xu:len(step) + d_w]
            v[len(step) - 2 * d_xu:] = normals[lo:lo + d_w]
    samples = []
    if keep:     # (keep, T, dim) per signal, contiguous; rollout r reads row r
        ends = np.cumsum([d_x, plant.d_u_total, plant.d_y_total,
                          len(mp.m_sel), mp.d_z, plant.d_u_total, d_c, d_stat])
        xs, us, ys, ms, zs, uts, carriers, stat, scs = map(
            np.ascontiguousarray,
            np.split(np.stack(rec).transpose(2, 0, 1), ends, axis=2))
        samples = [Rollout(x=xs[r], y=ys[r], m=ms[r], carrier=carriers[r],
                           z=zs[r], u=us[r], u_tilde=uts[r], stat=stat[r],
                           step_costs=scs[r, :, 0]) for r in range(keep)]
    return RolloutBatch(costs=costs, samples=tuple(samples))


def simulate(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
             ss: SolvedStrategy, seed: int, count: int,
             sample_count: int = 0) -> RolloutBatch:
    """Monte Carlo estimate of the strategy's expected total cost.

    Composes the step maps once, then hands the blocks of ``BLOCK``
    rollouts round robin to up to ``WORKERS`` workers: the caller and a
    thread per other worker, so a single block starts no thread.  Each
    worker owns one chunk's space, allocated up front: it draws and rolls
    out ``ROLL_ROWS`` rollouts of its block at a time there, so memory
    beyond the costs is at most ``WORKERS`` chunks however large ``count``
    is.  The first ``sample_count`` rollouts are kept.  ``ss`` must be
    solved for these ``plant``, ``mp`` and ``gains``.  A rollout's bits
    depend neither on ``count`` nor on the worker that ran it (see the
    module docstring).  If a cost is not finite, ``NumericalBreakdown``
    names the first such rollout and the first step where its signals or
    its running cost are not.
    """
    _check_solved_for(plant, mp, gains, ss)
    count = as_index(count, "count")
    sample_count = as_index(sample_count, "sample_count")
    if count < 1 or sample_count < 0:
        raise ValueError("need count >= 1 and sample_count >= 0")
    policy = StatisticPolicy(ss)
    maps = _step_maps(plant, mp, gains, policy, records=sample_count > 0)
    costs, blocks = np.empty(count), range(-(-count // BLOCK))
    workers = min(WORKERS, len(blocks))
    # per worker: a chunk's normals, its rows as drawn and its step
    # products, in one allocation, which malloc reuses from call to call
    # (three gave about 300 page faults per 1 000-rollout call)
    width, rows = _width(plant), max(map(len, maps[0])) + plant.d_x \
        + plant.d_y_total
    cols = min(ROLL_ROWS, -(-count // ROW_ALIGN) * ROW_ALIGN)
    shapes = ((width, cols), (min(DRAW_ROWS, cols), width), (2, rows, cols))
    ends = np.cumsum([0] + [np.prod(shape) for shape in shapes])
    spaces = [[flat[lo:hi].reshape(shape)
               for lo, hi, shape in zip(ends, ends[1:], shapes)]
              for flat in (np.empty(ends[-1]) for _ in range(workers))]
    kept, errors = [[] for _ in blocks], []

    def work(w: int) -> None:
        """Roll out blocks w, w + workers, ...; stop at any worker's
        failure."""
        normals, drawn, products = spaces[w]
        try:
            for b in blocks[w::workers]:
                if errors:
                    return
                stop = min(count, (b + 1) * BLOCK)
                stream = seeded_stream(seed, b)
                for lo in range(b * BLOCK, stop, ROLL_ROWS):
                    chunk = normals[:, :min(stop - lo, ROLL_ROWS)]
                    _draw_rows(stream, chunk, drawn)
                    batch = rollout_plant(
                        plant, mp, gains, policy,
                        Primitives(normals=chunk, plant=plant),
                        keep=max(0, sample_count - lo), maps=maps,
                        work=products)
                    costs[lo:lo + len(batch.costs)] = batch.costs
                    kept[b] += batch.samples
        except BaseException as e:      # raised again by the caller
            errors.append(e)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    if not np.isfinite(costs).all():
        raise _rollout_breakdown(plant, mp, gains, policy, seed,
                                 int(np.argmin(np.isfinite(costs))))
    return RolloutBatch(costs=costs,
                        samples=tuple(r for block in kept for r in block))


def _rollout_breakdown(plant: PlantModel, mp: MemoryProtocol,
                       gains: LocalGains, policy: Policy, seed: int,
                       r: int) -> NumericalBreakdown:
    """The breakdown of rollout ``r``, whose cost is not finite, at the
    first step t where one of its signals or its cost up to t is not: the
    rollout is drawn and rolled out again on its own, which gives it the
    same bits."""
    normals = np.empty((_width(plant), r % BLOCK + 1))
    _draw_rows(seeded_stream(seed, r // BLOCK), normals,
               np.empty((min(DRAW_ROWS, normals.shape[1]), len(normals))))
    with np.errstate(all="ignore"):
        ro = rollout_plant(plant, mp, gains, policy, Primitives(
            normals=normals[:, -1:], plant=plant), keep=1).samples[0]
    signals = np.concatenate([ro.x, ro.y, ro.m, ro.carrier, ro.z, ro.u,
                              ro.u_tilde, ro.stat,
                              np.cumsum(ro.step_costs)[:, None]],
                             axis=1)
    t = 1 + int(np.argmin(np.isfinite(signals).all(axis=1)))
    return NumericalBreakdown(f"rollout {r} is not finite", t)


def _check_solved_for(plant: PlantModel, mp: MemoryProtocol,
                      gains: LocalGains, ss: SolvedStrategy) -> None:
    """Raise unless ``ss`` was solved for these plant and protocol objects
    and for gains equal to ``gains``."""
    cs = ss.cs
    if (cs.plant is not plant or cs.protocol is not mp
            or not np.array_equal(cs.gains.theta, gains.theta)):
        raise ValueError("strategy was solved for another plant, protocol "
                         "or local gains")


def exact_cost(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
               ss: SolvedStrategy) -> float:
    """``closed_loop_cost_exact`` of ``ss``, which must be solved for these
    ``plant``, ``mp`` and ``gains``."""
    _check_solved_for(plant, mp, gains, ss)
    return closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)


def closed_loop_cost_exact(cs: CoordinatedSystem, l_seq,
                           filter_gains) -> float:
    """Exact expected cost of Ut~ = L~_t stat_t, the statistic advanced by
    the filter with ``filter_gains``, by ``_moment_cost``: no sampling."""
    stacks = []
    for seq, count, rows, cols, kind, name in (
            (l_seq, cs.T, cs.d_u, cs.d_state, "gain", "L"),
            (filter_gains, cs.T - 1, cs.d_state, cs.d_z, "filter gain", "K")):
        if len(seq) != count:
            raise DimMismatch(f"need {count} {kind} matrices, got {len(seq)}")
        stacks.append(np.array([as_matrix(m, rows, cols, f"{name}[t={t}]")
                                for t, m in enumerate(seq, 1)]
                               ).reshape(count, rows, cols))
    L, K = stacks
    return _moment_cost(cs.plant, cs.protocol, cs.gains, StatisticPolicy(
        SolvedStrategy(cs=cs, Lgain=L, filter_gain=K, J=float("nan"))))


def _moment_cost(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
                 policy: Policy) -> float:
    """Exact expected cost of a linear ``policy``: second moments on the
    plant's own step maps.  v_1 is unit normals, Sigma_1 = I, and
    Sigma_{t+1} = blkdiag(N Sigma_t N', I), N the rows of step map t that
    give v_{t+1} but its fresh normals; step t costs the entry sum of
    (X_t, U_t) rows times Sigma_t times the (Q X_t, R U_t) rows.  A
    non-finite Sigma_t makes step t's cost non-finite, which raises
    ``NumericalBreakdown`` at t."""
    d_xu, d_w = plant.d_x + plant.d_u_total, plant.d_x + plant.d_y_total
    steps, _ = _step_maps(plant, mp, gains, policy, records=False)
    cov, total = np.eye(steps[0].shape[1]), 0.0
    for t, M in enumerate(steps, 1):
        xu, weighted, nxt = M[:d_xu], M[d_xu:2 * d_xu], M[2 * d_xu:]
        total += float(np.sum((xu @ cov) * weighted))
        if not math.isfinite(total):
            raise NumericalBreakdown("expected cost of the closed loop is "
                                     "not finite", t)
        cov = blkdiag([nxt @ cov @ nxt.T, np.eye(d_w)])
    return total
