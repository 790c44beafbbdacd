"""Riccati solutions of the coordinator's partially observed LQG problem.

The forward recursion propagates the estimation-error covariance of the
augmented state; its innovation covariance is generically singular (shared
increments are noiseless functions of the state) so updates use the tolerant
pseudoinverse.  The backward recursion handles the state/control cross term
with the convention S_{T+1} = 0: no terminal state cost, and the final-step
gain reduces to -R~^{-1} N~^T.  Covariances and value matrices are
symmetrized after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, check_psd, pinv, read_only,
                   solve_pd, sym)
from .coordination import CoordinatedSystem, LocalGains, build
from .infostructure import MemoryProtocol
from .plant import PlantModel


@dataclass(frozen=True)
class SolvedStrategy:
    """Gains, covariances, value matrices, and predicted cost.

    Every sequence is one read-only (T, ·, ·) array indexed at offset
    ``t - 1`` for step t, except ``filter_gain``, which has T - 1 entries
    (the update into step t + 1 uses ``filter_gain[t - 1]``).  Strategies
    reloaded from disk carry only the gains; the covariance/value sequences
    are then ``None``.
    """

    cs: CoordinatedSystem
    Kgain: np.ndarray         # (T, d_u, d_state)
    Lgain: np.ndarray         # (T, d_u, d_x + d_c)
    filter_gain: np.ndarray   # (T-1, d_state, d_z)
    J: float
    Ptilde: np.ndarray | None = None   # (T, d_state, d_state)
    S: np.ndarray | None = None        # (T, d_state, d_state)
    Lambda: np.ndarray | None = None   # (T, d_u, d_state)

    @property
    def gains(self) -> LocalGains:
        return self.cs.gains

    def local_action(self, i: int, t: int, stat, y_i, m_i) -> np.ndarray:
        """Controller i's action U^i_t = L~^i_t stat + G^i_t Y^i_t + H^i_t M^i_t."""
        p, mp = self.cs.plant, self.cs.protocol
        sl = p.u_slice(i)
        out = self.Lgain[t - 1][sl, :] @ stat
        out = out + self.gains.G[t - 1][sl, p.y_slice(i)] @ y_i
        if mp.d_m[i]:
            out = out + self.gains.H[t - 1][sl, mp.m_slice(i)] @ m_i
        return out


def forward_riccati(cs: CoordinatedSystem, rtol: float = DEFAULT_RTOL):
    """Error covariances P~_1..P~_T and filter gains for t = 1..T-1.

    P~_1 is the exact covariance of (X_1, Y_1, carrier_1); the update into
    t + 1 conditions on the new observation Z_t through its (possibly
    singular) innovation covariance.
    """
    P = np.empty((cs.T, cs.d_state, cs.d_state))
    gains = np.empty((cs.T - 1, cs.d_state, cs.d_z))
    P[0] = sym(cs.init_cov)
    for t in range(1, cs.T):
        A, C, Pt = cs.A[t - 1], cs.C[t - 1], P[t - 1]
        innov = sym(C @ Pt @ C.T)
        gains[t - 1] = A @ Pt @ C.T @ pinv(innov, rtol)
        P[t] = sym(A @ Pt @ A.T + cs.SigW[t - 1]
                   - gains[t - 1] @ (C @ Pt @ A.T))
        check_psd(P[t], rel=1e-8, name="filter covariance", t=t + 1)
    return read_only(P), read_only(gains)


def backward_riccati(cs: CoordinatedSystem):
    """Value matrices S_1..S_T, cross terms Lambda_t, and gains K~_t.

    Runs from S_{T+1} = 0; the control bracket R~ + B~' S B~ is positive
    definite (R is PD) so a true solve is used.
    """
    T, d = cs.T, cs.d_state
    S = np.empty((T, d, d))
    lam, K = np.empty((T, cs.d_u, d)), np.empty((T, cs.d_u, d))
    S_next = np.zeros((d, d))
    for t in range(T, 0, -1):
        A, B = cs.A[t - 1], cs.B[t - 1]
        bracket = sym(cs.plant.R + B.T @ S_next @ B)
        lam[t - 1] = cs.N[t - 1].T + B.T @ S_next @ A
        K[t - 1] = -solve_pd(bracket, lam[t - 1], t=t)
        S[t - 1] = sym(A.T @ S_next @ A + cs.Q[t - 1]
                       + lam[t - 1].T @ K[t - 1])
        S_next = S[t - 1]
    return read_only(S), read_only(lam), read_only(K)


def performance(cs: CoordinatedSystem, ptilde, s_seq) -> float:
    """Predicted expected total cost of the optimal coordinator strategy.

    J = sum_t tr[P~_t Q~_t + (SigW_t + A~_t P~_t A~_t' - P~_{t+1}) S_{t+1}]
    with S_{T+1} = 0, so the final noise term vanishes.
    """
    total = 0.0
    for t in range(1, cs.T + 1):
        total += float(np.trace(ptilde[t - 1] @ cs.Q[t - 1]))
        if t < cs.T:
            A = cs.A[t - 1]
            gamma = cs.SigW[t - 1] + A @ ptilde[t - 1] @ A.T - ptilde[t]
            total += float(np.sum(gamma * s_seq[t]))
    return total


def reduce_gains(cs: CoordinatedSystem, k_seq):
    """Lower-dimensional gains L~_t = K~_t [[I,0],[C_t,0],[0,I]].

    Valid because the Y-block of the estimate is C_t times its X-block
    (primitive random variables are mutually independent).
    """
    if len(k_seq) != cs.T:
        raise DimMismatch(f"need {cs.T} gain matrices, got {len(k_seq)}")
    return read_only(np.asarray(k_seq, dtype=float) @ cs.lift)


def solve(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
          rtol: float = DEFAULT_RTOL) -> SolvedStrategy:
    """Best coordinator response to the given local gains."""
    cs = build(plant, mp, gains)
    ptilde, fgains = forward_riccati(cs, rtol)
    s_seq, lam_seq, k_seq = backward_riccati(cs)
    J = performance(cs, ptilde, s_seq)
    l_seq = reduce_gains(cs, k_seq)
    return SolvedStrategy(cs=cs, Kgain=k_seq, Lgain=l_seq, filter_gain=fgains,
                          J=J, Ptilde=ptilde, S=s_seq, Lambda=lam_seq)
