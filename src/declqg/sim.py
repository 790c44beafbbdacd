"""Ground truth: paired-noise simulation, exact moment propagation, and the
brute-force joint-Gaussian conditioning oracle.

Rollouts draw every primitive random variable for rollout r from
``seeded_stream(seed, r)`` in a fixed order, so results are bitwise
reproducible and independent of how rollouts are batched.  The plant-form and
coordinated-form rollouts can be driven by the same primitive draws to check
that the augmented system reproduces the original equations state by state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, blkdiag, pinv, psd_sqrt,
                   seeded_stream)
from .coordination import CoordinatedSystem, LocalGains
from .estimator import statistic_transition
from .infostructure import MemoryProtocol
from .plant import PlantModel
from .solver import SolvedStrategy


# --------------------------------------------------------------------------
# primitive randomness


@dataclass(frozen=True)
class Primitives:
    """Batched primitive draws: initial state and both noise processes.

    ``x1``: (count, d_x); ``w0[t-1]``: (count, d_x) process noise applied at
    step t; ``wy[t-1]``: (count, sum d_y) stacked observation noise at step t.
    """

    x1: np.ndarray
    w0: tuple[np.ndarray, ...]
    wy: tuple[np.ndarray, ...]

    @property
    def count(self) -> int:
        return self.x1.shape[0]


def draw_primitives(plant: PlantModel, seed: int, count: int) -> Primitives:
    """Draw primitives for ``count`` rollouts, one stream per rollout."""
    d_x, d_y, T = plant.d_x, plant.d_y_total, plant.T
    total = d_x + T * (d_x + d_y)
    raw = np.empty((count, total))
    for r in range(count):
        raw[r] = seeded_stream(seed, r).standard_normal(total)
    Lx = psd_sqrt(plant.sigma_x)
    L0 = psd_sqrt(plant.sigma_w0)
    Lw = psd_sqrt(plant.stacked_sigma_w())
    x1 = raw[:, :d_x] @ Lx.T
    w0, wy = [], []
    off = d_x
    for _ in range(T):
        w0.append(raw[:, off:off + d_x] @ L0.T)
        off += d_x
        wy.append(raw[:, off:off + d_y] @ Lw.T)
        off += d_y
    return Primitives(x1=x1, w0=tuple(w0), wy=tuple(wy))


# --------------------------------------------------------------------------
# coordinator policies (how Ut~ is produced from the shared data)


class StatisticPolicy:
    """Ut~ = L~_t stat_t, with the statistic advanced by the solved filter."""

    def __init__(self, ss: SolvedStrategy):
        self.ss = ss

    def init(self, count: int) -> np.ndarray:
        cs = self.ss.cs
        return np.zeros((count, cs.d_x + cs.d_c))

    def utilde(self, state, t: int) -> np.ndarray:
        return state @ self.ss.Lgain[t - 1].T

    def update(self, state, t: int, z, utilde) -> np.ndarray:
        Ts, Tu, Tz = statistic_transition(self.ss, t)
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
        thetas.append(ss.Kgain[t - 1] @ xmap)
        if t == cs.T:
            break
        K = ss.Kgain[t - 1]
        gain = ss.filter_gain[t - 1]
        M = (cs.A_at(t) + cs.B_at(t) @ K
             - gain @ (cs.C_at(t + 1) + cs.D_at(t + 1) @ K))
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
    rec: dict[str, list] = {k: [] for k in
                            ("x", "y", "m", "carrier", "z", "u", "ut", "sc", "bv")}
    for t in range(1, plant.T + 1):
        C_t = plant.stacked_c(t)
        y = x @ C_t.T + prims.wy[t - 1]
        m = c @ mp.m_sel.T
        utilde = policy.utilde(state, t)
        u = utilde + y @ gains.G_at(t).T + m @ gains.H_at(t).T
        z = c @ mp.zc.T + y @ mp.zy.T + u @ mp.zu.T
        sc = np.einsum("ri,ij,rj->r", x, plant.Q, x) \
            + np.einsum("ri,ij,rj->r", u, plant.R, u)
        costs += sc
        if keep:
            rec["x"].append(x[:keep].copy())
            rec["y"].append(y[:keep].copy())
            rec["m"].append(m[:keep].copy())
            rec["carrier"].append(c[:keep].copy())
            rec["z"].append(z[:keep].copy())
            rec["u"].append(u[:keep].copy())
            rec["ut"].append(utilde[:keep].copy())
            rec["sc"].append(sc[:keep].copy())
            if has_stat:
                rec["bv"].append(policy.statistic(state)[:keep].copy())
        if t < plant.T:
            x = x @ plant.A_at(t).T + u @ plant.B_at(t).T + prims.w0[t - 1]
            c = c @ mp.cc.T + y @ mp.cy.T + u @ mp.cu.T
            state = policy.update(state, t, z, utilde)
    samples = []
    for r in range(keep):
        samples.append(Rollout(
            x=np.array([rec["x"][t][r] for t in range(plant.T)]),
            y=np.array([rec["y"][t][r] for t in range(plant.T)]),
            m=np.array([rec["m"][t][r] for t in range(plant.T)]),
            carrier=np.array([rec["carrier"][t][r] for t in range(plant.T)]),
            z=np.array([rec["z"][t][r] for t in range(plant.T)]),
            u=np.array([rec["u"][t][r] for t in range(plant.T)]),
            u_tilde=np.array([rec["ut"][t][r] for t in range(plant.T)]),
            stat=(np.array([rec["bv"][t][r] for t in range(plant.T)])
                     if has_stat else None),
            step_costs=np.array([rec["sc"][t][r] for t in range(plant.T)])))
    return RolloutBatch(costs=costs, samples=tuple(samples))


@dataclass(frozen=True)
class CoordinatedRollout:
    """Trajectories of the augmented recursion under the same primitives."""

    xtilde: np.ndarray    # (keep, T, d_state)
    ytilde: np.ndarray    # (keep, T, d_z); row t-1 holds Yt~_{t} (zero at t=1)
    u_tilde: np.ndarray
    step_costs: np.ndarray
    costs: np.ndarray


def rollout_coordinated(cs: CoordinatedSystem, policy, prims: Primitives
                        ) -> CoordinatedRollout:
    """Propagate the coordinated recursion with explicit primitive noise."""
    plant = cs.plant
    count = prims.count
    y1 = prims.x1 @ plant.stacked_c(1).T + prims.wy[0]
    xt = np.hstack([prims.x1, y1, np.zeros((count, cs.d_c))])
    state = policy.init(count)
    xs, ys, us, scs = [], [np.zeros((count, cs.d_z))], [], []
    costs = np.zeros(count)
    for t in range(1, plant.T + 1):
        utilde = policy.utilde(state, t)
        sc = np.einsum("ri,ij,rj->r", xt, cs.Q_at(t), xt) \
            + 2 * np.einsum("ri,ij,rj->r", xt, cs.N_at(t), utilde) \
            + np.einsum("ri,ij,rj->r", utilde, cs.R_at(t), utilde)
        costs += sc
        xs.append(xt.copy())
        us.append(utilde.copy())
        scs.append(sc.copy())
        if t < plant.T:
            ynext = xt @ cs.C_at(t + 1).T + utilde @ cs.D_at(t + 1).T
            noise = np.hstack([
                prims.w0[t - 1],
                prims.w0[t - 1] @ plant.stacked_c(t + 1).T + prims.wy[t],
                np.zeros((count, cs.d_c))])
            xt = xt @ cs.A_at(t).T + utilde @ cs.B_at(t).T + noise
            ys.append(ynext.copy())
            state = policy.update(state, t, ynext, utilde)
    stack = lambda seq: np.stack(seq, axis=1)
    return CoordinatedRollout(xtilde=stack(xs), ytilde=stack(ys),
                              u_tilde=stack(us), step_costs=stack(scs),
                              costs=costs)


def simulate(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
             ss: SolvedStrategy, seed: int, count: int,
             sample_count: int = 0) -> RolloutBatch:
    """Monte Carlo estimate of the strategy's expected total cost."""
    prims = draw_primitives(plant, seed, count)
    return rollout_plant(plant, mp, gains, StatisticPolicy(ss), prims,
                         keep=sample_count)


def exact_cost(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
               ss: SolvedStrategy) -> float:
    """Exact expected cost via second-moment propagation (no sampling).

    Reads the coordinated system ``ss`` was solved on, which must be built
    from these very ``plant`` and ``mp`` objects and equal ``gains``.
    """
    from .coordination import closed_loop_cost_exact
    cs = ss.cs
    if (cs.plant is not plant or cs.protocol is not mp
            or not np.array_equal(cs.gains.theta, gains.theta)):
        raise ValueError("strategy was solved for another plant, protocol "
                         "or local gains")
    return closed_loop_cost_exact(cs, ss.Kgain, ss.filter_gain)


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
    xtilde: tuple[np.ndarray, ...]   # maps for Xt~, t = 1..t_max
    ytilde: tuple[np.ndarray, ...]   # maps for Yt~, t = 2..t_max
    utilde: tuple[np.ndarray, ...]

    def cov(self, La, Lb) -> np.ndarray:
        return La @ self.cov_prim @ Lb.T


def closed_loop_maps(cs: CoordinatedSystem, thetas, t_max: int
                     ) -> JointGaussian:
    """Compose the closed loop (under history maps ``thetas``) lazily to t_max."""
    plant = cs.plant
    d_x, d_y, T = plant.d_x, plant.d_y_total, plant.T
    d_prim = d_x + T * (d_x + d_y)

    def w0_sel(s):
        out = np.zeros((d_x, d_prim))
        off = d_x + (s - 1) * d_x
        out[:, off:off + d_x] = np.eye(d_x)
        return out

    def wy_sel(s):
        out = np.zeros((d_y, d_prim))
        off = d_x + T * d_x + (s - 1) * d_y
        out[:, off:off + d_y] = np.eye(d_y)
        return out

    x1_sel = np.zeros((d_x, d_prim))
    x1_sel[:, :d_x] = np.eye(d_x)
    xmap = np.vstack([x1_sel,
                      plant.stacked_c(1) @ x1_sel + wy_sel(1),
                      np.zeros((cs.d_c, d_prim))])
    xmaps, ymaps, umaps = [xmap], [], []
    hist = np.zeros((0, d_prim))
    for s in range(1, t_max + 1):
        umap = np.asarray(thetas[s - 1], dtype=float) @ hist
        umaps.append(umap)
        if s == t_max:
            break
        ymap = cs.C_at(s + 1) @ xmaps[-1] + cs.D_at(s + 1) @ umap
        ymaps.append(ymap)
        hist = np.vstack([hist, ymap])
        noise = np.vstack([w0_sel(s),
                           plant.stacked_c(s + 1) @ w0_sel(s) + wy_sel(s + 1),
                           np.zeros((cs.d_c, d_prim))])
        xmaps.append(cs.A_at(s) @ xmaps[-1] + cs.B_at(s) @ umap + noise)
    cov_prim = blkdiag([plant.sigma_x]
                       + [plant.sigma_w0] * T
                       + [plant.stacked_sigma_w()] * T)
    return JointGaussian(cov_prim=cov_prim, xtilde=tuple(xmaps),
                         ytilde=tuple(ymaps), utilde=tuple(umaps))


def gaussian_conditioning(cs: CoordinatedSystem, thetas, t: int,
                          rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Map from realized stacked (Yt~_2..Yt~_t) to E[Xt~_t | observations].

    Brute force: build the joint Gaussian of the closed loop under the fixed
    linear strategy and apply the conditioning formula with a pseudoinverse
    (the observation covariance is typically singular).  At t = 1 there are
    no observations and the map has zero columns.
    """
    jg = closed_loop_maps(cs, thetas, t)
    if t == 1:
        return np.zeros((cs.d_state, 0))
    ystack = np.vstack(jg.ytilde[:t - 1])
    cross = jg.cov(jg.xtilde[t - 1], ystack)
    yy = jg.cov(ystack, ystack)
    return cross @ pinv(yy, rtol)
