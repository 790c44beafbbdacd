"""Ground truth: paired-noise simulation, exact moment propagation, and the
brute-force joint-Gaussian conditioning oracle.

Rollouts share one random stream per block of ``BLOCK`` rollouts: rollout r
reads row ``r % BLOCK`` of ``seeded_stream(seed, r // BLOCK)``'s rollout-major
normals.  A row's draws do not depend on how many rows follow it, so results
are bitwise reproducible and, while BLAS rounds every block size alike (see
``simulate``), independent of how many rollouts are asked for; they differ
from versions that drew one stream per rollout.  ``simulate``
rolls out one block at a time, so its memory beyond the costs is bounded.
The plant-form and coordinated-form rollouts can be driven by the same
primitive draws to check that the coordinated system reproduces the original
equations state by state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, as_index, blkdiag, psd_sqrt,
                   seeded_stream)
from . import coordination
from .coordination import CoordinatedSystem, LocalGains
from .estimator import statistic_transition
from .infostructure import MemoryProtocol
from .plant import PlantModel
from .solver import SolvedStrategy


# --------------------------------------------------------------------------
# primitive randomness

#: Rollouts per random stream, and per block that ``simulate`` rolls out.
BLOCK = 4096
#: ``simulate`` rolls out a multiple of this many rows; it divides ``BLOCK``.
ROW_ALIGN = 8


@dataclass(frozen=True)
class Primitives:
    """Batched primitive draws: initial state and both noise processes.

    ``x1``: (count, d_x); ``w0[t-1]``: (count, d_x) process noise applied at
    step t; ``wy[t-1]``: (count, sum d_y) stacked observation noise at step t.
    """

    x1: np.ndarray
    w0: np.ndarray    # (T, count, d_x)
    wy: np.ndarray    # (T, count, sum d_y)

    @property
    def count(self) -> int:
        return self.x1.shape[0]


def draw_primitives(plant: PlantModel, seed: int, count: int, *,
                    start: int = 0) -> Primitives:
    """Draw primitives for rollouts [start, start + count).

    Each rollout's normals, in the order (X_1, then (W0_t, W_t) for
    t = 1..T), are one row of its block's stream; see the module docstring.
    """
    count, start = as_index(count, "count"), as_index(start, "start")
    if count < 0 or start < 0:
        raise ValueError("need count >= 0 and start >= 0")
    d_x, d_y, T = plant.d_x, plant.d_y_total, plant.T
    total = d_x + T * (d_x + d_y)
    raw = np.empty((count, total))
    stop = start + count
    for b in range(start // BLOCK, -(-stop // BLOCK)):
        lo, hi = max(start, b * BLOCK), min(stop, (b + 1) * BLOCK)
        stream = seeded_stream(seed, b)
        stream.standard_normal((lo - b * BLOCK, total))    # rows before start
        stream.standard_normal(out=raw[lo - start:hi - start])
    steps = raw[:, d_x:].reshape(count, T, d_x + d_y).swapaxes(0, 1)
    return Primitives(x1=raw[:, :d_x] @ psd_sqrt(plant.sigma_x).T,
                      w0=steps[..., :d_x] @ psd_sqrt(plant.sigma_w0).T,
                      wy=steps[..., d_x:] @ psd_sqrt(plant.sigma_w).T)


# --------------------------------------------------------------------------
# coordinator policies (how Ut~ is produced from the shared data)


class StatisticPolicy:
    """Ut~ = L~_t stat_t, with the statistic advanced by the solved filter."""

    def __init__(self, ss: SolvedStrategy):
        self.ss = ss
        self.transitions = [statistic_transition(ss, t)
                            for t in range(1, ss.cs.T)]

    def init(self, count: int) -> np.ndarray:
        cs = self.ss.cs
        return np.zeros((count, cs.d_x + cs.d_c))

    def utilde(self, state, t: int) -> np.ndarray:
        return state @ self.ss.Lgain[t - 1].T

    def update(self, state, t: int, z, utilde) -> np.ndarray:
        Ts, Tu, Tz = self.transitions[t - 1]
        return state @ Ts.T + utilde @ Tu.T + z @ Tz.T

    def statistic(self, state) -> np.ndarray:
        return state


class ZHistoryPolicy:
    """Ut~ = Theta_t @ stacked(Z_1..Z_{t-1}): arbitrary linear history maps.

    Used by the oracle tests to drive the closed loop with strategies that
    are independent of the recursive filter.  ``thetas[t-1]`` has shape
    (sum d_u, (t-1) d_z); the t = 1 map has zero columns.
    """

    def __init__(self, thetas):
        self.thetas = [np.asarray(th, dtype=float) for th in thetas]

    def init(self, count: int) -> np.ndarray:
        return np.zeros((count, 0))

    def utilde(self, state, t: int) -> np.ndarray:
        th = self.thetas[t - 1]
        if state.shape[1] != th.shape[1]:
            raise DimMismatch(
                f"theta[{t}] expects {th.shape[1]} history coords, "
                f"state has {state.shape[1]}")
        return state @ th.T

    def update(self, state, t: int, z, utilde) -> np.ndarray:
        return np.hstack([state, z])


def random_theta_maps(cs: CoordinatedSystem, rng, scale: float = 0.3):
    """Random linear history strategies for oracle cross-checks."""
    return [scale * rng.standard_normal((cs.d_u, (t - 1) * cs.d_z))
            for t in range(1, cs.T + 1)]


def strategy_theta_maps(ss: SolvedStrategy):
    """Unroll the solved strategy into explicit observation-history maps."""
    cs = ss.cs
    d = cs.d_state
    xmap = np.zeros((d, 0))      # estimate as a map of stacked Z_1..Z_{t-1}
    thetas = []
    for t in range(1, cs.T + 1):
        thetas.append(ss.Lgain[t - 1] @ xmap)
        if t == cs.T:
            break
        K = ss.Lgain[t - 1]
        gain = ss.filter_gain[t - 1]
        M = (cs.A[t - 1] + cs.B[t - 1] @ K
             - gain @ (cs.C[t - 1] + cs.protocol.zu @ K))
        xmap = np.hstack([M @ xmap, gain])
    return thetas


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
    stat: np.ndarray | None
    step_costs: np.ndarray

    @property
    def cost(self) -> float:
        return float(self.step_costs.sum())


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


def rollout_plant(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
                  policy, prims: Primitives, keep: int = 0) -> RolloutBatch:
    """Simulate the original decentralized equations.

    The first ``keep`` rollouts are recorded in full; costs are kept for all.
    """
    count = prims.count
    keep = min(keep, count)
    x = prims.x1
    c = np.zeros((count, mp.d_carrier))
    state = policy.init(count)
    has_stat = hasattr(policy, "statistic")
    costs = np.zeros(count)
    rec = []     # per step: kept rows of x, y, m, c, z, u, Ut~, cost[, stat]
    for t in range(1, plant.T + 1):
        y = x @ plant.C[t - 1].T + prims.wy[t - 1]
        m = c @ mp.m_sel.T
        utilde = policy.utilde(state, t)
        u = utilde + y @ gains.G[t - 1].T + m @ gains.H[t - 1].T
        z = c @ mp.zc.T + y @ mp.zy.T + u @ mp.zu.T
        sc = np.einsum("ri,ri->r", x @ plant.Q, x) \
            + np.einsum("ri,ri->r", u @ plant.R, u)
        costs += sc
        if keep:
            step = (x, y, m, c, z, u, utilde, sc)
            if has_stat:
                step += (policy.statistic(state),)
            rec.append([v[:keep].copy() for v in step])
        if t < plant.T:
            x = x @ plant.A[t - 1].T + u @ plant.B[t - 1].T + prims.w0[t - 1]
            c = c @ mp.cc.T + y @ mp.cy.T + u @ mp.cu.T
            state = policy.update(state, t, z, utilde)
    samples = []
    if keep:
        # (keep, T, dim) per signal; rollout r reads row r
        xs, ys, ms, carriers, zs, us, uts, scs, *stat = (
            np.stack(seq, axis=1) for seq in zip(*rec))
        samples = [Rollout(x=xs[r], y=ys[r], m=ms[r], carrier=carriers[r],
                           z=zs[r], u=us[r], u_tilde=uts[r],
                           stat=stat[0][r] if has_stat else None,
                           step_costs=scs[r]) for r in range(keep)]
    return RolloutBatch(costs=costs, samples=tuple(samples))


@dataclass(frozen=True)
class CoordinatedRollout:
    """Trajectories of the coordinated recursion under the same primitives."""

    xtilde: np.ndarray    # (keep, T, d_state): rows (X_t, c_t)
    ytilde: np.ndarray    # (keep, T, d_z); row t-1 holds Z_{t-1} (zero at t=1)
    u_tilde: np.ndarray
    step_costs: np.ndarray
    costs: np.ndarray


def rollout_coordinated(cs: CoordinatedSystem, policy, prims: Primitives
                        ) -> CoordinatedRollout:
    """Propagate the coordinated recursion with explicit primitive noise.

    Step costs are the realized ones: with v = Ut~ + G_t W_t, the plant's
    cost is xi' Q~ xi + 2 xi' N~ v + v' R v.
    """
    plant, d = cs.plant, cs.d_state
    count = prims.count
    xt = np.hstack([prims.x1, np.zeros((count, cs.d_c))])
    state = policy.init(count)
    xs, ys, us, scs = [], [np.zeros((count, cs.d_z))], [], []
    costs = np.zeros(count)
    for t in range(1, plant.T + 1):
        utilde = policy.utilde(state, t)
        v = utilde + prims.wy[t - 1] @ cs.gains.G[t - 1].T
        sc = np.einsum("ri,ij,rj->r", xt, cs.Q[t - 1], xt) \
            + 2 * np.einsum("ri,ij,rj->r", xt, cs.N[t - 1], v) \
            + np.einsum("ri,ij,rj->r", v, plant.R, v)
        costs += sc
        xs.append(xt.copy())
        us.append(utilde.copy())
        scs.append(sc.copy())
        if t < plant.T:
            noise = np.hstack([prims.w0[t - 1], prims.wy[t - 1]]) \
                @ cs.F[t - 1].T
            ynext = (xt @ cs.C[t - 1].T + utilde @ cs.protocol.zu.T
                     + noise[:, d:])
            xt = xt @ cs.A[t - 1].T + utilde @ cs.B[t - 1].T + noise[:, :d]
            ys.append(ynext.copy())
            state = policy.update(state, t, ynext, utilde)
    stack = lambda seq: np.stack(seq, axis=1)
    return CoordinatedRollout(xtilde=stack(xs), ytilde=stack(ys),
                              u_tilde=stack(us), step_costs=stack(scs),
                              costs=costs)


def simulate(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
             ss: SolvedStrategy, seed: int, count: int,
             sample_count: int = 0) -> RolloutBatch:
    """Monte Carlo estimate of the strategy's expected total cost.

    Rolls out ``BLOCK`` rollouts at a time and drops each block's primitives
    before drawing the next; the first ``sample_count`` rollouts are kept.
    A partial last block is rolled out with its block's next rows up to a
    multiple of ``ROW_ALIGN``: BLAS kernels (and numpy's one-row products)
    round a product's trailing rows differently from the rest, so a rollout's
    bits would otherwise depend on how many rollouts follow it.  OpenBLAS
    also rounds small products differently: at d_state = 44, ``count`` = 16
    or 256 differs in the last bits from the first rows of ``count`` = 8192.
    """
    count = as_index(count, "count")
    sample_count = as_index(sample_count, "sample_count")
    if count < 1 or sample_count < 0:
        raise ValueError("need count >= 1 and sample_count >= 0")
    policy = StatisticPolicy(ss)
    costs, samples = np.empty(count), []
    for start in range(0, count, BLOCK):
        rows = min(BLOCK, count - start)
        aligned = -(-rows // ROW_ALIGN) * ROW_ALIGN
        prims = draw_primitives(plant, seed, aligned, start=start)
        batch = rollout_plant(plant, mp, gains, policy, prims,
                              keep=min(rows, max(0, sample_count - start)))
        costs[start:start + rows] = batch.costs[:rows]
        samples += batch.samples
        del prims, batch
    return RolloutBatch(costs=costs, samples=tuple(samples))


def exact_cost(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
               ss: SolvedStrategy) -> float:
    """Exact expected cost via second-moment propagation (no sampling).

    Reads the coordinated system ``ss`` was solved on, which must be built
    from these very ``plant`` and ``mp`` objects and equal ``gains``.
    """
    cs = ss.cs
    if (cs.plant is not plant or cs.protocol is not mp
            or not np.array_equal(cs.gains.theta, gains.theta)):
        raise ValueError("strategy was solved for another plant, protocol "
                         "or local gains")
    return coordination.closed_loop_cost_exact(cs, ss.Lgain, ss.filter_gain)


# --------------------------------------------------------------------------
# brute-force joint-Gaussian oracle


@dataclass(frozen=True)
class JointGaussian:
    """Linear maps from the stacked primitives plus their covariance.

    The primitive vector stacks (X_1, W0_{1:T}, W^{1:n}_{1:T}); every induced
    signal is a linear image of it, so covariances of any pair of signals are
    ``La cov Lb'``.
    """

    cov_prim: np.ndarray
    xtilde: tuple[np.ndarray, ...]   # maps for (X_t, c_t), t = 1..t_max
    ytilde: tuple[np.ndarray, ...]   # maps for Z_t, t = 1..t_max-1
    utilde: tuple[np.ndarray, ...]

    def cov(self, La, Lb) -> np.ndarray:
        return La @ self.cov_prim @ Lb.T

    def innovations(self, count: int, rtol: float = DEFAULT_RTOL):
        """``(rs, q, c)``: rs[s-1] is Z_s's map times a root of cov_prim
        less (twice, for round-off) its projection on q's rows so far, so
        Cov(innovation) = r r'; q gathers r's right singular vectors above
        the ``rtol`` cutoff on r r'; c maps stacked Z_1..Z_count to the
        unit-variance coordinates along q."""
        root, ys = psd_sqrt(self.cov_prim), self.ytilde[:count]
        starts = np.cumsum([0] + [len(y) for y in ys])
        rs, q, c = [], np.zeros((0, len(root))), np.zeros((0, starts[-1]))
        for y, start in zip(ys, starts):
            r, rc = y @ root, np.eye(len(y), starts[-1], start)
            for _ in range(2):
                g = r @ q.T
                r, rc = r - g @ q, rc - g @ c
            u, sv, vt = np.linalg.svd(r, full_matrices=False)
            keep = sv * sv > rtol * sv[:1] ** 2
            rs.append(r)
            q = np.vstack([q, vt[keep]])
            c = np.vstack([c, u[:, keep].T @ rc / sv[keep, None]])
        return rs, q, c


def closed_loop_maps(cs: CoordinatedSystem, thetas, t_max: int
                     ) -> JointGaussian:
    """Compose the closed loop (under history maps ``thetas``) lazily to t_max."""
    plant, d = cs.plant, cs.d_state
    d_x, d_y, T = plant.d_x, plant.d_y_total, plant.T
    d_prim = d_x + T * (d_x + d_y)
    eye = np.eye(d_prim)

    def noise_sel(s):   # rows of (W0_s, W_s) in the primitive vector
        w0, wy = s * d_x, (T + 1) * d_x + (s - 1) * d_y
        return np.vstack([eye[w0:w0 + d_x], eye[wy:wy + d_y]])

    xmap = np.vstack([eye[:d_x], np.zeros((d - d_x, d_prim))])
    xmaps, ymaps, umaps = [xmap], [], []
    hist = np.zeros((0, d_prim))
    for s in range(1, t_max + 1):
        umap = np.asarray(thetas[s - 1], dtype=float) @ hist
        umaps.append(umap)
        if s == t_max:
            break
        noise = cs.F[s - 1] @ noise_sel(s)
        ymap = cs.C[s - 1] @ xmaps[-1] + cs.protocol.zu @ umap + noise[d:]
        ymaps.append(ymap)
        hist = np.vstack([hist, ymap])
        xmaps.append(cs.A[s - 1] @ xmaps[-1] + cs.B[s - 1] @ umap
                     + noise[:d])
    cov_prim = blkdiag([plant.sigma_x] + [plant.sigma_w0] * T
                       + [plant.sigma_w] * T)
    return JointGaussian(cov_prim=cov_prim, xtilde=tuple(xmaps),
                         ytilde=tuple(ymaps), utilde=tuple(umaps))


def gaussian_conditioning(cs: CoordinatedSystem, thetas, t: int,
                          rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Map from realized stacked (Z_1..Z_{t-1}) to E[(X_t, c_t) | them].

    Brute force: the closed loop's joint Gaussian conditioned on its whitened
    innovations, each cut at its own largest singular value as in the filter
    (square roots, so a nearly singular one keeps its condition number).
    """
    jg = closed_loop_maps(cs, thetas, t)
    _, q, c = jg.innovations(t - 1, rtol)
    return jg.xtilde[t - 1] @ psd_sqrt(jg.cov_prim) @ q.T @ c
