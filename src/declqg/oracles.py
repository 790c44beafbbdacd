"""Brute-force oracles for the coordinator's reformulation: the coordinated
recursion under the draws ``rollout_plant`` reads (paired noise) and the
closed loop's joint Gaussian conditioned on the shared history, both under
explicit observation-history strategies.  The third oracle, exact moment
propagation on the plant's own step maps, is ``sim.closed_loop_cost_exact``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_RTOL, DimMismatch, _check_finite, as_matrix
from .coordination import CoordinatedSystem
from .sim import Policy, Primitives, StatisticPolicy, _check_policy
from .solver import SolvedStrategy


def ZHistoryPolicy(thetas) -> Policy:
    """Ut~ = Theta_t @ stacked(Z_1..Z_{t-1}): arbitrary linear history maps.

    Used by the oracle tests to drive the closed loop with strategies that
    are independent of the recursive filter.  ``thetas[t-1]`` has shape
    (sum d_u, (t-1) d_z).  The state is the whole history Z_1..Z_{T-1},
    zero where not yet seen: L_t = [Theta_t, 0], Ts = I, Tu = 0, and Tz_t
    writes Z_t into slot t.
    """
    T, d_u = len(thetas), np.shape(thetas[0])[0]
    d_z = np.shape(thetas[1])[1] if T > 1 else 0
    w, L = (T - 1) * d_z, np.zeros((T, d_u, (T - 1) * d_z))
    for t, th in enumerate(thetas, 1):
        L[t - 1, :, :(t - 1) * d_z] = as_matrix(th, d_u, (t - 1) * d_z,
                                                f"thetas[t={t}]")
    return Policy(L, np.broadcast_to(np.eye(w), (T - 1, w, w)),
                  np.zeros((T - 1, w, d_u)),
                  np.eye(w).reshape(w, T - 1, d_z).swapaxes(0, 1))


def random_theta_maps(cs: CoordinatedSystem, rng, scale: float = 0.3):
    """Random linear history strategies for oracle cross-checks."""
    return [scale * rng.standard_normal((cs.d_u, (t - 1) * cs.d_z))
            for t in range(1, cs.T + 1)]


def strategy_theta_maps(ss: SolvedStrategy):
    """Unroll the solved strategy into explicit observation-history maps."""
    L, Ts, Tu, Tz = StatisticPolicy(ss)
    xmaps = [np.zeros((ss.cs.d_state, 0))]    # stat's map of Z_1..Z_{t-1}
    for t in range(ss.cs.T - 1):
        xmaps.append(np.hstack([(Ts[t] + Tu[t] @ L[t]) @ xmaps[-1], Tz[t]]))
    return [lt @ xmap for lt, xmap in zip(L, xmaps)]


# --------------------------------------------------------------------------
# paired-noise coordinated recursion


@dataclass(frozen=True)
class CoordinatedRollout:
    """Trajectories of the coordinated recursion under the same primitives."""

    xtilde: np.ndarray    # (keep, T, d_state): rows (X_t, c_t)
    ytilde: np.ndarray    # (keep, T, d_z); row t-1 holds Z_{t-1} (zero at t=1)
    u_tilde: np.ndarray
    step_costs: np.ndarray
    costs: np.ndarray


def rollout_coordinated(cs: CoordinatedSystem, policy: Policy,
                        prims: Primitives) -> CoordinatedRollout:
    """Propagate the coordinated recursion with explicit primitive noise:
    step t's unit normals of (W0_t, W_t) times ``cs.noise[t-1]'``.

    Step costs are the realized ones: with v = Ut~ + G_t W_t, the plant's
    cost is xi' Q~ xi + 2 xi' N~ v + v' R v.
    """
    plant, d = cs.plant, cs.d_state
    if prims.plant is not cs.plant:
        raise DimMismatch("primitives were drawn for another plant")
    _check_policy(policy, cs.T, cs.d_u, cs.d_z)
    count, d_w = prims.count, plant.d_x + plant.d_y_total
    xt = np.hstack([prims.x1, np.zeros((count, cs.d_c))])
    L, Ts, Tu, Tz = (m.swapaxes(1, 2) for m in policy)     # transposed
    state = np.zeros((count, L.shape[1]))
    xs, ys, us, scs = [], [np.zeros((count, cs.d_z))], [], []
    costs = np.zeros(count)
    for t in range(1, plant.T + 1):
        utilde = state @ L[t - 1]
        v = utilde + prims.wy[t - 1] @ cs.gains.G[t - 1].T
        sc = np.einsum("ri,ij,rj->r", xt, cs.Q[t - 1], xt) \
            + 2 * np.einsum("ri,ij,rj->r", xt, cs.N[t - 1], v) \
            + np.einsum("ri,ij,rj->r", v, plant.R, v)
        costs += sc
        xs.append(xt)
        us.append(utilde)
        scs.append(sc)
        if t < plant.T:
            lo = plant.d_x + (t - 1) * d_w      # (W0_t, W_t)'s unit normals
            noise = prims.normals[lo:lo + d_w].T @ cs.noise[t - 1].T
            ynext = (xt @ cs.C[t - 1].T + utilde @ cs.protocol.zu.T
                     + noise[:, d:])
            xt = xt @ cs.A[t - 1].T + utilde @ cs.B[t - 1].T + noise[:, :d]
            ys.append(ynext)
            state = state @ Ts[t - 1] + utilde @ Tu[t - 1] + ynext @ Tz[t - 1]
    stack = lambda seq: np.stack(seq, axis=1)
    return CoordinatedRollout(xtilde=stack(xs), ytilde=stack(ys),
                              u_tilde=stack(us), step_costs=stack(scs),
                              costs=costs)


# --------------------------------------------------------------------------
# brute-force joint-Gaussian oracle


@dataclass(frozen=True)
class JointGaussian:
    """Linear maps from the stacked unit-variance primitives.

    The primitive vector stacks the normals ``draw_primitives`` scales, in
    its order (X_1, then (W0_t, W_t) for t = 1..T); every induced signal is
    a linear image of it, so the covariance of any pair is ``La Lb'``.
    """

    xtilde: tuple[np.ndarray, ...]   # maps for (X_t, c_t), t = 1..t_max
    ytilde: tuple[np.ndarray, ...]   # maps for Z_t, t = 1..t_max-1
    utilde: tuple[np.ndarray, ...]

    def cov(self, La, Lb) -> np.ndarray:
        return La @ Lb.T

    def innovations(self, count: int, rtol: float = DEFAULT_RTOL):
        """``(rs, q, c)``: rs[s-1] is Z_s's map less (twice, for round-off)
        its projection on q's rows so far, so Cov(innovation) = r r'; q
        gathers r's right singular vectors above the ``rtol`` cutoff on
        r r'; c maps stacked Z_1..Z_count to the unit-variance coordinates
        along q.  A non-finite r raises ``NumericalBreakdown`` at its s."""
        ys = self.ytilde[:count]
        starts = np.cumsum([0] + [len(y) for y in ys])
        rs, c = [], np.zeros((0, starts[-1]))
        q = np.zeros((0, self.xtilde[0].shape[1]))
        for s, (y, start) in enumerate(zip(ys, starts), 1):
            r, rc = y, np.eye(len(y), starts[-1], start)
            for _ in range(2):
                g = r @ q.T
                r, rc = r - g @ q, rc - g @ c
            _check_finite(r, "innovation map", s)     # before LAPACK sees it
            u, sv, vt = np.linalg.svd(r, full_matrices=False)
            keep = sv * sv > rtol * sv[:1] ** 2
            rs.append(r)
            q = np.vstack([q, vt[keep]])
            c = np.vstack([c, u[:, keep].T @ rc / sv[keep, None]])
        return rs, q, c


def closed_loop_maps(cs: CoordinatedSystem, thetas, t_max: int
                     ) -> JointGaussian:
    """Compose the closed loop (under history maps ``thetas``) lazily to
    t_max; the roots ``cs.init_root`` and ``cs.noise`` are folded in."""
    plant, d = cs.plant, cs.d_state
    d_x, d_w = plant.d_x, plant.d_x + plant.d_y_total
    d_prim = d_x + plant.T * d_w
    xmap = np.zeros((d, d_prim))
    xmap[:, :d_x] = cs.init_root[:, :d_x]
    xmaps, ymaps, umaps = [xmap], [], []
    hist = np.zeros((0, d_prim))
    for s in range(1, t_max + 1):
        umap = np.asarray(thetas[s - 1], dtype=float) @ hist
        umaps.append(umap)
        if s == t_max:
            break
        noise = np.zeros((d + cs.d_z, d_prim))   # on (W0_s, W_s)'s normals
        noise[:, d_x + (s - 1) * d_w:d_x + s * d_w] = cs.noise[s - 1]
        ymap = cs.C[s - 1] @ xmaps[-1] + cs.protocol.zu @ umap + noise[d:]
        ymaps.append(ymap)
        hist = np.vstack([hist, ymap])
        xmaps.append(cs.A[s - 1] @ xmaps[-1] + cs.B[s - 1] @ umap
                     + noise[:d])
    return JointGaussian(xtilde=tuple(xmaps), ytilde=tuple(ymaps),
                         utilde=tuple(umaps))


def gaussian_conditioning(cs: CoordinatedSystem, thetas, t: int,
                          rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Map from realized stacked (Z_1..Z_{t-1}) to E[(X_t, c_t) | them].

    Brute force: the closed loop's joint Gaussian conditioned on its whitened
    innovations, each cut at its own largest singular value as in the filter
    (square roots, so a nearly singular one keeps its condition number).
    """
    jg = closed_loop_maps(cs, thetas, t)
    _, q, c = jg.innovations(t - 1, rtol)
    return jg.xtilde[t - 1] @ q.T @ c
