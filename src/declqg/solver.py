"""Riccati solutions of the coordinator's partially observed LQG problem.

The forward recursion propagates the estimation-error covariance of the
coordinator's state (X_t, c_t) under process noise correlated with the
measurement noise; its innovation covariance is generically singular (shared
increments are often noiseless functions of the state) so updates use the
tolerant pseudoinverse.  The backward recursion handles the state/control
cross term with the convention S_{T+1} = 0: no terminal state cost, and the
final-step gain reduces to -R~^{-1} N~^T.  Covariances and value matrices are
symmetrized after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DEFAULT_RTOL, check_psd, pinv, read_only, solve_pd, sym
from .coordination import CoordinatedSystem, LocalGains, build
from .infostructure import MemoryProtocol
from .plant import PlantModel


_STACKED = ("A", "C", "F", "SigW", "SigWV", "SigV", "Q", "N", "noise_cost")
_SEQUENCES = ("Lgain", "filter_gain", "Ptilde", "S", "Lambda")


@dataclass(frozen=True)
class SolvedStrategy:
    """Gains, covariances, value matrices, and predicted cost.

    Every sequence is one read-only (T, ·, ·) array indexed at offset
    ``t - 1`` for step t, except ``filter_gain``, which has T - 1 entries
    (the update into step t + 1 uses ``filter_gain[t - 1]``).  ``Lgain``
    acts on the coordinator's whole state (X_t, c_t), which is also the
    statistic.  Strategies reloaded from disk carry only the gains; the
    covariance/value sequences and ``rtol`` are then ``None``.  A stack of
    gains gives arrays and J its leading axes.
    """

    cs: CoordinatedSystem
    Lgain: np.ndarray         # (T, d_u, d_state)
    filter_gain: np.ndarray   # (T-1, d_state, d_z)
    J: float
    Ptilde: np.ndarray | None = None   # (T, d_state, d_state)
    S: np.ndarray | None = None        # (T, d_state, d_state)
    Lambda: np.ndarray | None = None   # (T, d_u, d_state)
    rtol: float | None = None          # the filter's pseudoinverse cutoff

    @property
    def Kgain(self) -> np.ndarray:
        """Read-only alias of ``Lgain``: the coordinator's state is the
        statistic, so its gain and the statistic's gain are one array."""
        return self.Lgain

    @property
    def gains(self) -> LocalGains:
        return self.cs.gains

    def candidate(self, i: int) -> "SolvedStrategy":
        """Candidate ``i`` of a stacked solve as a strategy of its own; its
        arrays are copies, so it does not keep the stack alive."""
        def row(a):
            return read_only(a[i].copy())
        cs, g = self.cs, self.gains
        cs = replace(cs, gains=LocalGains(row(g.theta), row(g.G), row(g.H)),
                     **{f: row(getattr(cs, f)) for f in _STACKED})
        return replace(self, cs=cs, J=float(self.J[i]),
                       **{f: row(getattr(self, f)) for f in _SEQUENCES})

    def local_action(self, i: int, t: int, stat, y_i, m_i) -> np.ndarray:
        """Controller i's action U^i_t = L~^i_t stat + G^i_t Y^i_t + H^i_t M^i_t."""
        p, mp = self.cs.plant, self.cs.protocol
        sl = p.u_slice(i)
        out = self.Lgain[t - 1][sl, :] @ stat
        out = out + self.gains.G[t - 1][sl, p.y_slice(i)] @ y_i
        if mp.d_m[i]:
            out = out + self.gains.H[t - 1][sl, mp.m_slice(i)] @ m_i
        return out


def forward_riccati(cs: CoordinatedSystem, rtol: float = DEFAULT_RTOL,
                    start: int = 1, incumbent: SolvedStrategy | None = None):
    """Error covariances P~_1..P~_T and filter gains for t = 1..T-1.

    P~_1 is the exact covariance of (X_1, carrier_1); the update into t + 1
    conditions on the new observation Z_t through its (possibly singular)
    innovation covariance C P~ C' + V, with the process/measurement cross
    covariance in the gain.  The Joseph-form update is the error covariance
    of the gain actually computed, so round-off in the gain moves P~ only to
    second order.  Every sweep runs over (…, T, ·, ·).

    The sweep runs from step ``start``.  For ``start`` = t_a > 1,
    P~_1..P~_{t_a} and the gains before t_a are copied from ``incumbent``,
    one strategy solved at this ``rtol`` whose steps before t_a are those
    of ``cs``: they depend on nothing later, so the copies are the numbers
    the sweep itself would compute.
    """
    P = np.empty(cs.A.shape[:-3] + (cs.T, cs.d_state, cs.d_state))
    gains = np.empty(P.shape[:-3] + (cs.T - 1, cs.d_state, cs.d_z))
    if start == 1:
        P[..., 0, :, :] = sym(cs.init_cov)
    else:
        P[..., :start, :, :] = incumbent.Ptilde[:start]
        gains[..., :start - 1, :, :] = incumbent.filter_gain[:start - 1]
    for t in range(start, cs.T):
        A, C, Pt, K, SWV, V = (a[..., t - 1, :, :] for a in (
            cs.A, cs.C, P, gains, cs.SigWV, cs.SigV))
        CT = C.swapaxes(-1, -2)
        K[...] = (A @ Pt @ CT + SWV) @ pinv(sym(C @ Pt @ CT + V), rtol)
        Acl, KS = A - K @ C, K @ SWV.swapaxes(-1, -2)
        P[..., t, :, :] = sym(Acl @ Pt @ Acl.swapaxes(-1, -2)
                              + cs.SigW[..., t - 1, :, :] - KS
                              - KS.swapaxes(-1, -2)
                              + K @ V @ K.swapaxes(-1, -2))
        check_psd(P[..., t, :, :], 1e-8, "filter covariance", t + 1)
    return read_only(P), read_only(gains)


def backward_riccati(cs: CoordinatedSystem, start: int | None = None,
                     incumbent: SolvedStrategy | None = None):
    """Value matrices S_1..S_T, cross terms Lambda_t, and gains L~_t.

    Runs from S_{T+1} = 0; the control bracket R~ + B~' S B~ is positive
    definite (R is PD) so a true solve is used.  The sweep runs down from
    step ``start`` (default T).  For ``start`` = t_b < T, S, Lambda and L~
    of the steps after t_b are copied from ``incumbent``, one solved
    strategy whose steps after t_b are those of ``cs``.
    """
    T, d, batch = cs.T, cs.d_state, cs.A.shape[:-3]
    start = T if start is None else start
    S = np.empty(batch + (T, d, d))
    lam, K = (np.empty(batch + (T, cs.d_u, d)) for _ in range(2))
    S_next = np.zeros((d, d))
    if start < T:
        for seq, known in zip((S, lam, K), (incumbent.S, incumbent.Lambda,
                                            incumbent.Lgain)):
            seq[..., start:, :, :] = known[start:]
        S_next = S[..., start, :, :]
    for t in range(start, 0, -1):
        A, B, N, Q, S_t, lam_t, K_t = (a[..., t - 1, :, :] for a in (
            cs.A, cs.B, cs.N, cs.Q, S, lam, K))
        bracket = sym(cs.plant.R + B.T @ S_next @ B)
        lam_t[...] = N.swapaxes(-1, -2) + B.T @ S_next @ A
        K_t[...] = 0.0 - solve_pd(bracket, lam_t, t=t)   # no -0 entries
        S_t[...] = sym(A.swapaxes(-1, -2) @ S_next @ A + Q
                       + lam_t.swapaxes(-1, -2) @ K_t)
        S_next = S_t
    return read_only(S), read_only(lam), read_only(K)


def performance(cs: CoordinatedSystem, ptilde, s_seq):
    """Predicted expected total cost of the optimal coordinator strategy.

    J = sum_t tr[P~_t Q~_t] + c_t + tr[(SigW_t + A~_t P~_t A~_t' - P~_{t+1})
    S_{t+1}], with c_t the step's ``noise_cost`` and S_{T+1} = 0, so the
    final noise term vanishes; one J per system.
    """
    terms = np.zeros(ptilde.shape[:-3] + (2 * cs.T,))   # 0, tr_1, noise_1, ..
    for s in range(0, cs.T, 8):     # 8 steps at a time keep temporaries small
        e, m = min(s + 8, cs.T), min(s + 8, cs.T - 1)
        P, A = ptilde[..., s:e, :, :], cs.A[..., s:m, :, :]
        terms[..., 2 * s + 1:2 * e:2] = np.trace(
            P @ cs.Q[..., s:e, :, :], axis1=-2, axis2=-1) \
            + cs.noise_cost[..., s:e]
        gamma = (cs.SigW[..., s:m, :, :]
                 + A @ P[..., :m - s, :, :] @ A.swapaxes(-1, -2)
                 - ptilde[..., s + 1:m + 1, :, :])
        terms[..., 2 * s + 2:2 * m + 1:2] = np.sum(
            gamma * s_seq[..., s + 1:m + 1, :, :], axis=(-2, -1))
    total = np.add.accumulate(terms, axis=-1)[..., -1]   # in that order
    return total if total.ndim else float(total)


def _changed_steps(cs: CoordinatedSystem, rtol: float,
                   incumbent: SolvedStrategy | None) -> tuple[int, int]:
    """First and last step t whose G_t or H_t differ, in any bit of any
    candidate, from ``incumbent``'s; (T, 0) if none does.  (1, T), a full
    solve, unless ``incumbent`` is one strategy solved for the same plant
    and protocol at this ``rtol``."""
    inc = incumbent
    if (inc is None or inc.Ptilde is None or inc.rtol != rtol
            or inc.gains.theta.ndim != 1 or inc.cs.plant is not cs.plant
            or inc.cs.protocol is not cs.protocol):
        return 1, cs.T
    moved = np.zeros(cs.T, dtype=bool)
    for new, old in ((cs.gains.G, inc.gains.G), (cs.gains.H, inc.gains.H)):
        diff = new.view(np.uint64) != old.view(np.uint64)
        moved |= diff.any(axis=(-2, -1)).reshape(-1, cs.T).any(axis=0)
    steps = np.flatnonzero(moved) + 1
    return (int(steps[0]), int(steps[-1])) if steps.size else (cs.T, 0)


def solve(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
          rtol: float = DEFAULT_RTOL,
          incumbent: SolvedStrategy | None = None) -> SolvedStrategy:
    """Best coordinator response to the given local gains (or stack).

    Step t of the coordinated system depends on the gains of step t only,
    so P~_1..P~_t depend only on the steps before t and S_{t+1}..S_T only
    on the steps after t.  Given ``incumbent``, a single strategy this
    function returned for the same plant, protocol and ``rtol``, the
    forward sweep therefore runs from the first step t_a whose gains differ
    from the incumbent's and the backward sweep down from the last, t_b,
    each copying the rest from the incumbent.  The result is bitwise that
    of a solve without it.
    """
    cs = build(plant, mp, gains)
    first, last = _changed_steps(cs, rtol, incumbent)
    ptilde, fgains = forward_riccati(cs, rtol, first, incumbent)
    s_seq, lam_seq, l_seq = backward_riccati(cs, last, incumbent)
    J = performance(cs, ptilde, s_seq)
    return SolvedStrategy(cs=cs, Lgain=l_seq, filter_gain=fgains, J=J,
                          Ptilde=ptilde, S=s_seq, Lambda=lam_seq, rtol=rtol)
