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

import numpy as np

from .core import DimMismatch, as_matrix, as_vector, blkdiag, sym
from .infostructure import MemoryProtocol
from .plant import PlantModel


@dataclass(frozen=True)
class LocalGains:
    """Per-controller local gains G^i_t (on Y^i_t) and H^i_t (on M^i_t).

    Stored once, as the read-only flat vector ``theta``: for each t, for each
    controller i, G^i_t row-major and then H^i_t.  ``G[t-1][i]`` and
    ``H[t-1][i]`` are reshaped views of it.  The stacked G_t, H_t are block
    diagonal by construction: only the per-controller blocks are stored, so
    off-diagonal blocks are exactly zero.
    """

    theta: np.ndarray
    G: tuple[tuple[np.ndarray, ...], ...]   # G[t-1][i]: d_u[i] x d_y[i]
    H: tuple[tuple[np.ndarray, ...], ...]   # H[t-1][i]: d_u[i] x d_m[i]

    @staticmethod
    def from_vector(plant: PlantModel, mp: MemoryProtocol, theta
                    ) -> "LocalGains":
        """Gains from a copy of a flat vector in the ``theta`` layout."""
        shapes = [(plant.d_u[i], cols) for i in range(plant.n)
                  for cols in (plant.d_y[i], mp.d_m[i])] * plant.T
        ends = np.cumsum([r * c for r, c in shapes])
        theta = as_vector(theta, int(ends[-1]), "theta").copy()
        theta.flags.writeable = False
        blocks = [theta[e - r * c:e].reshape(r, c)
                  for (r, c), e in zip(shapes, ends)]
        steps = [blocks[k:k + 2 * plant.n]
                 for k in range(0, len(blocks), 2 * plant.n)]
        return LocalGains(theta, tuple(tuple(s[0::2]) for s in steps),
                          tuple(tuple(s[1::2]) for s in steps))

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
        G = [[np.zeros((plant.d_u[i], plant.d_y[i])) for i in range(plant.n)]]
        H = [[np.zeros((plant.d_u[i], mp.d_m[i])) for i in range(plant.n)]]
        return LocalGains.create(plant, mp, G * plant.T, H * plant.T)

    @staticmethod
    def random(plant: PlantModel, mp: MemoryProtocol, rng, scale=1.0
               ) -> "LocalGains":
        """Entries ``scale * N(0, 1)``, drawn for all G blocks, then all H."""
        G = [[scale * rng.standard_normal((plant.d_u[i], plant.d_y[i]))
              for i in range(plant.n)] for _ in range(plant.T)]
        H = [[scale * rng.standard_normal((plant.d_u[i], mp.d_m[i]))
              for i in range(plant.n)] for _ in range(plant.T)]
        return LocalGains.create(plant, mp, G, H)

    def G_at(self, t: int) -> np.ndarray:
        return blkdiag(self.G[t - 1])

    def H_at(self, t: int) -> np.ndarray:
        return blkdiag(self.H[t - 1])


@dataclass(frozen=True)
class CoordinatedSystem:
    """Augmented system matrices, one entry per step (1-based accessors).

    ``A[t-1]``/``Bm[t-1]``/``SigW[t-1]`` propagate Xt~ into step t+1; the
    t = T entries use a zero next-step observation map and are only ever
    multiplied into the zero terminal value matrix.  ``Cobs[t-2]``/
    ``Dobs[t-2]`` produce the observation received at time t (t = 2..T).
    The control weight is the plant's R at every step, so ``R_at`` reads it
    from ``plant``.
    """

    plant: PlantModel
    protocol: MemoryProtocol
    gains: LocalGains
    d_x: int
    d_y: int
    d_c: int
    d_u: int
    d_z: int
    A: tuple[np.ndarray, ...]
    Bm: tuple[np.ndarray, ...]
    SigW: tuple[np.ndarray, ...]
    Cobs: tuple[np.ndarray, ...]
    Dobs: tuple[np.ndarray, ...]
    Qm: tuple[np.ndarray, ...]
    Nm: tuple[np.ndarray, ...]
    init_cov: np.ndarray

    @property
    def d_state(self) -> int:
        return self.d_x + self.d_y + self.d_c

    @property
    def T(self) -> int:
        return self.plant.T

    def A_at(self, t):
        return self.A[t - 1]

    def B_at(self, t):
        return self.Bm[t - 1]

    def SigW_at(self, t):
        return self.SigW[t - 1]

    def C_at(self, t):
        """Observation map producing Yt~ (= Z_{t-1}), t = 2..T."""
        return self.Cobs[t - 2]

    def D_at(self, t):
        return self.Dobs[t - 2]

    def Q_at(self, t):
        return self.Qm[t - 1]

    def N_at(self, t):
        return self.Nm[t - 1]

    def R_at(self, t):
        return self.plant.R

    def proj(self) -> np.ndarray:
        """Selects (X, carrier) out of the augmented state."""
        out = np.zeros((self.d_x + self.d_c, self.d_state))
        out[:self.d_x, :self.d_x] = np.eye(self.d_x)
        out[self.d_x:, self.d_x + self.d_y:] = np.eye(self.d_c)
        return out

    def lift(self, t: int) -> np.ndarray:
        """Rebuilds the augmented state from (X, carrier) via Y-hat = C_t X-hat."""
        out = np.zeros((self.d_state, self.d_x + self.d_c))
        out[:self.d_x, :self.d_x] = np.eye(self.d_x)
        out[self.d_x:self.d_x + self.d_y, :self.d_x] = self.plant.stacked_c(t)
        out[self.d_x + self.d_y:, self.d_x:] = np.eye(self.d_c)
        return out


def build(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains
          ) -> CoordinatedSystem:
    """Assemble the coordinated system for fixed local gains."""
    if mp.n != plant.n or mp.T != plant.T:
        raise DimMismatch("protocol and plant disagree on n or T")
    if tuple(mp.d_y) != tuple(plant.d_y) or tuple(mp.d_u) != tuple(plant.d_u):
        raise DimMismatch("protocol and plant disagree on signal dims")
    d_x, d_y, d_u = plant.d_x, plant.d_y_total, plant.d_u_total
    d_c, d_z = mp.d_carrier, mp.d_z
    sigma_w = plant.stacked_sigma_w()
    sigma_noise = blkdiag([plant.sigma_w0, sigma_w])
    A_seq, B_seq, W_seq, Q_seq, N_seq = [], [], [], [], []
    C_seq, D_seq = [], []
    for t in range(1, plant.T + 1):
        A_t, B_t = plant.A_at(t), plant.B_at(t)
        G_t = gains.G_at(t)
        Hc_t = gains.H_at(t) @ mp.m_sel
        C_next = plant.stacked_c(t + 1) if t < plant.T else np.zeros((d_y, d_x))
        BG, BH = B_t @ G_t, B_t @ Hc_t
        At = np.zeros((d_x + d_y + d_c,) * 2)
        At[:d_x, :d_x] = A_t
        At[:d_x, d_x:d_x + d_y] = BG
        At[:d_x, d_x + d_y:] = BH
        At[d_x:d_x + d_y, :d_x] = C_next @ A_t
        At[d_x:d_x + d_y, d_x:d_x + d_y] = C_next @ BG
        At[d_x:d_x + d_y, d_x + d_y:] = C_next @ BH
        At[d_x + d_y:, d_x:d_x + d_y] = mp.cy + mp.cu @ G_t
        At[d_x + d_y:, d_x + d_y:] = mp.cc + mp.cu @ Hc_t
        Bt = np.vstack([B_t, C_next @ B_t, mp.cu])
        # noise into (X_{t+1}, Y_{t+1}, carrier): (W0_t, C_{t+1} W0_t + W_{t+1}, 0)
        F = np.zeros((d_x + d_y + d_c, d_x + d_y))
        F[:d_x, :d_x] = np.eye(d_x)
        F[d_x:d_x + d_y, :d_x] = C_next
        F[d_x:d_x + d_y, d_x:] = np.eye(d_y)
        Wt = sym(F @ sigma_noise @ F.T)
        Qt = np.zeros((d_x + d_y + d_c,) * 2)
        Qt[:d_x, :d_x] = plant.Q
        loc = np.hstack([G_t, Hc_t])           # U_t = Ut~ + loc @ (Y_t, c_t)
        Qt[d_x:, d_x:] = loc.T @ plant.R @ loc
        Nt = np.vstack([np.zeros((d_x, d_u)), loc.T @ plant.R])
        A_seq.append(At)
        B_seq.append(Bt)
        W_seq.append(Wt)
        Q_seq.append(sym(Qt))
        N_seq.append(Nt)
        if t < plant.T:
            # observation received at t+1: Z_t, generated by this step's maps
            Ct = np.zeros((d_z, d_x + d_y + d_c))
            Ct[:, d_x:d_x + d_y] = mp.zy + mp.zu @ G_t
            Ct[:, d_x + d_y:] = mp.zc + mp.zu @ Hc_t
            C_seq.append(Ct)
            D_seq.append(mp.zu)
    C1 = plant.stacked_c(1)
    init = np.zeros((d_x + d_y + d_c,) * 2)
    init[:d_x, :d_x] = plant.sigma_x
    init[:d_x, d_x:d_x + d_y] = plant.sigma_x @ C1.T
    init[d_x:d_x + d_y, :d_x] = C1 @ plant.sigma_x
    init[d_x:d_x + d_y, d_x:d_x + d_y] = C1 @ plant.sigma_x @ C1.T + sigma_w
    return CoordinatedSystem(
        plant=plant, protocol=mp, gains=gains, d_x=d_x, d_y=d_y, d_c=d_c,
        d_u=d_u, d_z=d_z, A=tuple(A_seq), Bm=tuple(B_seq), SigW=tuple(W_seq),
        Cobs=tuple(C_seq), Dobs=tuple(D_seq), Qm=tuple(Q_seq),
        Nm=tuple(N_seq), init_cov=sym(init))


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
        W[:d, :d] = cs.Q_at(t)
        W[:d, d:] = cs.N_at(t) @ K
        W[d:, :d] = W[:d, d:].T
        W[d:, d:] = K.T @ cs.R_at(t) @ K
        total += float(np.sum(W * cov))
        if t == T:
            break
        gain = filter_gains[t - 1]
        GC = gain @ cs.C_at(t + 1)
        M = np.zeros((2 * d, 2 * d))
        M[:d, :d] = cs.A_at(t)
        M[:d, d:] = cs.B_at(t) @ K
        M[d:, :d] = GC
        M[d:, d:] = cs.A_at(t) + cs.B_at(t) @ K - GC
        cov = M @ cov @ M.T
        cov[:d, :d] += cs.SigW_at(t)
        cov = sym(cov)
    return total
