"""Riccati solutions of the coordinator's partially observed LQG problem.

The forward recursion propagates a root of the (so PSD) estimation-error
covariance of the coordinator's state (X_t, c_t) under process noise
correlated with the measurement noise; its innovation covariance is
generically singular (shared increments are often noiseless functions of
the state) so each step cuts it at a relative rank.  The backward recursion
handles the state/control cross term with the convention S_{T+1} = 0: no
terminal state cost, and the final-step gain reduces to -R~^{-1} N~^T.
Value matrices are symmetrized after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_RTOL, NumericalBreakdown, psd_sqrt, read_only,
                   solve_pd, sym)
from .coordination import CoordinatedSystem, LocalGains, build
from .infostructure import MemoryProtocol
from .plant import PlantModel


_STACKED = ("A", "C", "F", "SigW", "SigWV", "SigV", "Q", "N", "noise_cost")
_SEQUENCES = ("Lgain", "filter_gain", "Ptilde", "root", "S", "Lambda")


@dataclass(frozen=True)
class SolvedStrategy:
    """Gains, covariances, value matrices, and predicted cost.

    Every sequence is one read-only (T, ·, ·) array indexed at offset
    ``t - 1`` for step t, except ``filter_gain``, which has T - 1 entries
    (the update into step t + 1 uses ``filter_gain[t - 1]``).  ``Lgain``
    acts on the coordinator's whole state (X_t, c_t), which is also the
    statistic; ``Ptilde`` is ``root @ root'``.  Strategies reloaded from
    disk carry only the gains; the covariance/value sequences and ``rtol``
    are then ``None``.  A stack of gains gives arrays and J its leading axes.
    """

    cs: CoordinatedSystem
    Lgain: np.ndarray         # (T, d_u, d_state)
    filter_gain: np.ndarray   # (T-1, d_state, d_z)
    J: float
    Ptilde: np.ndarray | None = None   # (T, d_state, d_state)
    root: np.ndarray | None = None     # (T, d_state, d_state)
    S: np.ndarray | None = None        # (T, d_state, d_state)
    Lambda: np.ndarray | None = None   # (T, d_u, d_state)
    rtol: float | None = None          # the filter's relative rank cutoff

    @property
    def Kgain(self) -> np.ndarray:
        """Read-only alias of ``Lgain`` (the state is the statistic)."""
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


def _check_finite(m: np.ndarray, name: str, t: int) -> None:
    """Raise NumericalBreakdown at step ``t`` unless ``m`` is finite."""
    if not np.isfinite(m).all():
        raise NumericalBreakdown(f"{name} is not finite", t)


def _filter_sweep(A, C, noise, P1, rtol: float, start: int = 1, lent=None):
    """Square-root Kalman sweep over the n steps of C: P = R R', gains
    K_1..K_n, roots R_1..R_{n+1} (of ``P1``, or ``lent``'s up to R_start).
    ``noise[t-1]`` = (N_w; N_v) is a root of step t's (process, measurement)
    noise; a = [C R_t, N_v], b = [A R_t, N_w] give a a' = C P C' + V, cut
    as ``pinv`` cuts it (s^2 > rtol s_max^2 kept), K_t = b V_r S_r^-1 U_r',
    and a QR gives R_{t+1}, a PSD root of b (I - V_r V_r') b'."""
    if not rtol > 0:
        raise ValueError("rtol must be positive")
    n, d = C.shape[-3], A.shape[-1]
    roots = np.empty(A.shape[:-3] + (n + 1, d, d))
    gains = np.empty(roots.shape[:-3] + (n, d, C.shape[-2]))
    roots[..., :start, :, :] = lent[0][:start] if start > 1 else psd_sqrt(P1)
    gains[..., :start - 1, :, :] = lent[1][:start - 1] if start > 1 else 0.0
    AC = np.concatenate([A[..., :n, :, :], C], axis=-2)
    for t in range(start, n + 1):
        pre = np.concatenate([AC[..., t - 1, :, :] @ roots[..., t - 1, :, :],
                              noise[..., t - 1, :, :]], axis=-1)
        b, a = pre[..., :d, :], pre[..., d:, :]
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        keep = s * s > rtol * s[..., :1] ** 2
        bv = b @ vh.swapaxes(-1, -2) * keep[..., None, :]
        gains[..., t - 1, :, :] = (bv / np.where(keep, s, 1.0)[..., None, :]
                                   @ u.swapaxes(-1, -2))
        roots[..., t, :, :] = np.linalg.qr(
            (b - bv @ vh).swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
        _check_finite(roots[..., t, :, :], "filter covariance root", t + 1)
    return roots @ roots.swapaxes(-1, -2), gains, roots


def forward_riccati(cs: CoordinatedSystem, rtol: float = DEFAULT_RTOL,
                    start: int = 1, incumbent: SolvedStrategy | None = None):
    """P~_1..P~_T = root root' (P~_1 the covariance of (X_1, carrier_1)),
    filter gains for t = 1..T-1 and the roots, over (…, T, ·, ·), swept
    from step ``start``: the roots to P~_start and the gains before it are
    copied from ``incumbent`` (see :func:`solve`)."""
    return tuple(map(read_only, _filter_sweep(
        cs.A, cs.C, cs.F @ cs.plant.noise_root, cs.init_cov, rtol, start,
        incumbent and (incumbent.root, incumbent.filter_gain))))


def backward_riccati(cs: CoordinatedSystem, start: int | None = None,
                     incumbent: SolvedStrategy | None = None):
    """Value matrices S_1..S_T, cross terms Lambda_t, and gains L~_t.

    Runs from S_{T+1} = 0; the control bracket R~ + B~' S B~ is positive
    definite (R is PD) so a true solve is used.  The sweep runs down from
    step ``start`` (default T); S, Lambda and L~ of the steps after it are
    copied from ``incumbent`` (see :func:`solve`)."""
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
        _check_finite(S_t, "value matrix", t)   # non-finite if L~_t is
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
    if (inc is None or inc.root is None or inc.rtol != rtol
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
    P, K, R = forward_riccati(cs, rtol, first, incumbent)
    S, lam, L = backward_riccati(cs, last, incumbent)
    return SolvedStrategy(cs=cs, Lgain=L, filter_gain=K, Ptilde=P, root=R,
                          S=S, Lambda=lam, J=performance(cs, P, S), rtol=rtol)
