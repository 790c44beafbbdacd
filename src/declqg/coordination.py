"""Coordinator's augmented centralized LQG system.

Fixing the local-gain matrices (G, H) turns the decentralized problem into a
centralized partially observed LQG problem for a coordinator that sees only
the shared-memory increments.  Its state stacks the plant state, the current
observations, and the memory carrier:

    Xt~ = (X_t, Y_t, c_t)          Yt~ = Z_{t-1}   (empty at t = 1)

with linear dynamics, linear observations, and a quadratic cost carrying a
state/control cross term.  The observation map entering the row of Xt~_{t+1}
that generates Y_{t+1} is the *next* step's C (identical to using C_t when C
is time invariant); the noise feeding that row is C_{t+1} W0_t + W_{t+1}, so
the process-noise covariance is not block diagonal.  Both choices are
certified by the paired-noise equivalence oracle in :mod:`declqg.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (DimMismatch, as_matrix, as_vector, blkdiag, read_only,
                   sym)
from .infostructure import MemoryProtocol
from .plant import PlantModel


@lru_cache(maxsize=16)
def _gain_layout(T, d_u, d_y, d_m):
    """Masks that scatter ``theta`` into the stacked G and H, once per dims.

    ``in_g`` marks theta's G entries.  Read row-major, a block-diagonal mask
    visits each step's blocks in controller order, each block row-major,
    which is the ``theta`` order, so ``G[g_mask] = theta[in_g]``.
    """
    sizes = [s for u, y, m in zip(d_u, d_y, d_m) for s in (u * y, u * m)]
    in_g = np.tile(np.repeat([True, False] * len(d_u), sizes), T)
    g_mask, h_mask = (np.broadcast_to(
        blkdiag([np.ones((u, c)) for u, c in zip(d_u, cols)]) > 0,
        (T, sum(d_u), sum(cols))) for cols in (d_y, d_m))
    return read_only(in_g), g_mask, h_mask


@dataclass(frozen=True)
class LocalGains:
    """Per-controller local gains G^i_t (on Y^i_t) and H^i_t (on M^i_t).

    The search vector is the read-only flat ``theta``: for each t, for each
    controller i, G^i_t row-major and then H^i_t.  ``G[t-1]`` and ``H[t-1]``
    are the stacked, block-diagonal G_t and H_t, filled from ``theta`` once;
    controller i's blocks are ``G[t-1][u_slice(i), y_slice(i)]`` and
    ``H[t-1][u_slice(i), m_slice(i)]``, and off-diagonal blocks are exactly
    zero.  A stack of gains has leading axes on ``theta``, ``G`` and ``H``.
    """

    theta: np.ndarray
    G: np.ndarray   # (…, T, sum d_u, sum d_y), read only
    H: np.ndarray   # (…, T, sum d_u, sum d_m), read only

    @staticmethod
    def from_vector(plant: PlantModel, mp: MemoryProtocol, theta
                    ) -> "LocalGains":
        """Gains from a copy of a ``theta`` vector or stack (…, |theta|)."""
        in_g, g_mask, h_mask = _gain_layout(plant.T, plant.d_u, plant.d_y,
                                            mp.d_m)
        batch = np.shape(theta)[:-1]
        theta = read_only(as_vector(theta, in_g.size * int(np.prod(batch)),
                                    "theta").reshape(batch + (-1,)).copy())
        G, H = np.zeros(batch + g_mask.shape), np.zeros(batch + h_mask.shape)
        G[..., g_mask] = theta[..., in_g]
        H[..., h_mask] = theta[..., ~in_g]
        return LocalGains(theta, read_only(G), read_only(H))

    @staticmethod
    def create(plant: PlantModel, mp: MemoryProtocol, G, H) -> "LocalGains":
        """Validate per-step, per-controller blocks (broadcast a single set)."""
        def norm(seq, dims_cols, name):
            if not isinstance(seq, (list, tuple)) or len(seq) != plant.T or \
                    not isinstance(seq[0], (list, tuple)):
                seq = [seq] * plant.T
            rows = []
            for t, per_ctrl in enumerate(seq):
                if len(per_ctrl) != plant.n:
                    raise DimMismatch(f"{name}[t={t + 1}]: need {plant.n} blocks")
                rows.append(tuple(
                    as_matrix(per_ctrl[i], plant.d_u[i], dims_cols[i],
                              f"{name}[t={t + 1}][{i}]")
                    for i in range(plant.n)))
            return tuple(rows)
        G, H = norm(G, plant.d_y, "G"), norm(H, mp.d_m, "H")
        return LocalGains.from_vector(plant, mp, np.concatenate([
            blk.ravel() for g_row, h_row in zip(G, H)
            for g, h in zip(g_row, h_row) for blk in (g, h)]))

    @staticmethod
    def zeros(plant: PlantModel, mp: MemoryProtocol) -> "LocalGains":
        in_g = _gain_layout(plant.T, plant.d_u, plant.d_y, mp.d_m)[0]
        return LocalGains.from_vector(plant, mp, np.zeros(in_g.size))

    @staticmethod
    def random(plant: PlantModel, mp: MemoryProtocol, rng, scale=1.0
               ) -> "LocalGains":
        """Entries ``scale * N(0, 1)``, drawn for all G blocks, then all H."""
        G = [[scale * rng.standard_normal((plant.d_u[i], plant.d_y[i]))
              for i in range(plant.n)] for _ in range(plant.T)]
        H = [[scale * rng.standard_normal((plant.d_u[i], mp.d_m[i]))
              for i in range(plant.n)] for _ in range(plant.T)]
        return LocalGains.create(plant, mp, G, H)


@dataclass(frozen=True)
class CoordinatedSystem:
    """Augmented system matrices; every sequence is one read-only
    (T, ·, ·) array indexed at offset ``t-1``.

    ``A[t-1]``/``B[t-1]``/``SigW[t-1]`` propagate Xt~ into step t+1; the
    t = T entries use a zero next-step observation map and are only ever
    multiplied into the zero terminal value matrix.  ``Q[t-1]``/``N[t-1]``
    weight step t.  ``C[t-1]`` (t = 1..T-1) maps Xt~_t to Z_t, the
    observation received at t+1.  ``proj`` selects (X, carrier) out of the
    augmented state, and ``lift[t-1]`` rebuilds the augmented state from
    (X, carrier) through Y-hat = C_t X-hat.  The step-invariant maps are
    read where they are stored: Ut~'s share of Z_t is ``protocol.zu`` and
    the control weight is ``plant.R``.  For a stack of gains, A, Q, N and C
    carry its leading axes; the gain-free rest is shared by the stack.
    """

    plant: PlantModel
    protocol: MemoryProtocol
    gains: LocalGains
    d_x: int
    d_y: int
    d_c: int
    d_u: int
    d_z: int
    A: np.ndarray      # (T, d_state, d_state)
    B: np.ndarray      # (T, d_state, d_u)
    SigW: np.ndarray   # (T, d_state, d_state)
    C: np.ndarray      # (T-1, d_z, d_state)
    Q: np.ndarray      # (T, d_state, d_state)
    N: np.ndarray      # (T, d_state, d_u)
    lift: np.ndarray   # (T, d_state, d_x + d_c)
    proj: np.ndarray   # (d_x + d_c, d_state)
    init_cov: np.ndarray

    @property
    def d_state(self) -> int:
        return self.d_x + self.d_y + self.d_c

    @property
    def T(self) -> int:
        return self.plant.T


def build(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains
          ) -> CoordinatedSystem:
    """Assemble the coordinated system for fixed local gains, all t at once."""
    if mp.n != plant.n or mp.T != plant.T:
        raise DimMismatch("protocol and plant disagree on n or T")
    if tuple(mp.d_y) != tuple(plant.d_y) or tuple(mp.d_u) != tuple(plant.d_u):
        raise DimMismatch("protocol and plant disagree on signal dims")
    T, d_x, d_y, d_u = plant.T, plant.d_x, plant.d_y_total, plant.d_u_total
    d_c, d_z = mp.d_carrier, mp.d_z
    d = d_x + d_y + d_c
    X, Y, M = slice(0, d_x), slice(d_x, d_x + d_y), slice(d_x + d_y, d)
    G, Hc, batch = gains.G, gains.H @ mp.m_sel, gains.theta.shape[:-1]
    # C_{t+1}; the step after the horizon has a zero map
    C_next = np.concatenate([plant.C[1:], np.zeros((1, d_y, d_x))])
    BG, BH = plant.B @ G, plant.B @ Hc
    A = np.zeros(batch + (T, d, d))
    A[..., X, X] = plant.A
    A[..., X, Y] = BG
    A[..., X, M] = BH
    A[..., Y, X] = C_next @ plant.A
    A[..., Y, Y] = C_next @ BG
    A[..., Y, M] = C_next @ BH
    A[..., M, Y] = mp.cy + mp.cu @ G
    A[..., M, M] = mp.cc + mp.cu @ Hc
    B = np.concatenate([plant.B, C_next @ plant.B,
                        np.broadcast_to(mp.cu, (T, d_c, d_u))], axis=1)
    # noise into (X_{t+1}, Y_{t+1}, carrier): (W0_t, C_{t+1} W0_t + W_{t+1}, 0)
    F = np.zeros((T, d, d_x + d_y))
    F[:, X, :d_x] = np.eye(d_x)
    F[:, Y, :d_x] = C_next
    F[:, Y, d_x:] = np.eye(d_y)
    sigma_noise = blkdiag([plant.sigma_w0, plant.sigma_w])
    SigW = sym(F @ sigma_noise @ F.swapaxes(1, 2))
    loc = np.concatenate([G, Hc], axis=-1)   # U_t = Ut~ + loc_t @ (Y_t, c_t)
    locR = loc.swapaxes(-1, -2) @ plant.R
    Q = np.zeros(batch + (T, d, d))
    Q[..., X, X] = plant.Q
    Q[..., d_x:, d_x:] = locR @ loc
    N = np.concatenate([np.zeros(batch + (T, d_x, d_u)), locR], axis=-2)
    # observation received at t+1 (t < T): Z_t, generated by this step's maps
    C = np.zeros(batch + (T - 1, d_z, d))
    C[..., Y] = mp.zy + mp.zu @ G[..., :-1, :, :]
    C[..., M] = mp.zc + mp.zu @ Hc[..., :-1, :, :]
    lift = np.zeros((T, d, d_x + d_c))
    lift[:, X, :d_x] = np.eye(d_x)
    lift[:, Y, :d_x] = plant.C
    lift[:, M, d_x:] = np.eye(d_c)
    proj = np.zeros((d_x + d_c, d))
    proj[:d_x, X] = np.eye(d_x)
    proj[d_x:, M] = np.eye(d_c)
    C1 = plant.C[0]
    init = np.zeros((d, d))
    init[X, X] = plant.sigma_x
    init[X, Y] = plant.sigma_x @ C1.T
    init[Y, X] = C1 @ plant.sigma_x
    init[Y, Y] = C1 @ plant.sigma_x @ C1.T + plant.sigma_w
    return CoordinatedSystem(
        plant=plant, protocol=mp, gains=gains, d_x=d_x, d_y=d_y, d_c=d_c,
        d_u=d_u, d_z=d_z, A=read_only(A), B=read_only(B),
        SigW=read_only(SigW), C=read_only(C), Q=read_only(sym(Q)),
        N=read_only(N), lift=read_only(lift), proj=read_only(proj),
        init_cov=read_only(sym(init)))


def closed_loop_cost_exact(cs: CoordinatedSystem, k_seq,
                           filter_gains) -> float:
    """Exact expected total cost of Ut~ = Kt~ (state estimate) under the filter.

    Propagates the joint second moment of (state, estimate) through the linear
    closed loop; no sampling error.  ``filter_gains`` are the forward Riccati
    gains of the estimator the strategy runs.
    """
    T, d = cs.T, cs.d_state
    if len(k_seq) != T:
        raise DimMismatch(f"need {T} gain matrices, got {len(k_seq)}")
    for t in range(1, T + 1):
        as_matrix(k_seq[t - 1], cs.d_u, d, f"K[t={t}]")
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = cs.init_cov
    total = 0.0
    for t in range(1, T + 1):
        K = np.asarray(k_seq[t - 1], dtype=float)
        W = np.zeros((2 * d, 2 * d))
        W[:d, :d] = cs.Q[t - 1]
        W[:d, d:] = cs.N[t - 1] @ K
        W[d:, :d] = W[:d, d:].T
        W[d:, d:] = K.T @ cs.plant.R @ K
        total += float(np.sum(W * cov))
        if t == T:
            break
        gain = filter_gains[t - 1]
        A, B = cs.A[t - 1], cs.B[t - 1]
        GC = gain @ cs.C[t - 1]
        M = np.zeros((2 * d, 2 * d))
        M[:d, :d] = A
        M[:d, d:] = B @ K
        M[d:, :d] = GC
        M[d:, d:] = A + B @ K - GC
        cov = M @ cov @ M.T
        cov[:d, :d] += cs.SigW[t - 1]
        cov = sym(cov)
    return total
