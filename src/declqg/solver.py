"""Riccati solutions of the coordinator's partially observed LQG problem.

The forward pass gives a root of the (so PSD) estimation-error covariance
P~_t of the coordinator's state (X_t, c_t) under process noise correlated
with the measurement noise, and the filter gains; innovation covariances are
generically singular (shared increments are often noiseless functions of
the state) so each gain cuts its own at a relative rank.  Under delayed
sharing with one delay k for every controller (``MemoryProtocol.window``)
the data of every step before t - k + 1 is common at t, so P~_t is the
plant predictor's error there carried open loop through the last k - 1
steps: the paper's window, formed for all t at once.  Every other protocol
takes a T-step square-root Kalman sweep.  The backward recursion does not
read the local gains: in V_t = Ut~_t + loc_t xi_t the coordinator's cost has
no cross term, so its value matrices S_t and gains K_t (V_t = K_t xi_t) are
one LQR sweep per plant and protocol, kept with the gain-free frame, and
L~_t = K_t - loc_t.  The convention S_{T+1} = 0 means no terminal state
cost, so L~_T = -loc_T.  Value matrices are symmetrized after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, NumericalBreakdown,
                   _check_finite, _filter_sweep, check_rtol, read_only, sym)
from .coordination import CoordinatedSystem, LocalGains, _kept, build
from .infostructure import MemoryProtocol
from .plant import PlantModel


_STACKED = ("A", "C", "noise", "Q", "N", "noise_cost", "loc")
_SEQUENCES = ("Lgain", "filter_gain", "Ptilde", "root")
_DOT = "...ij,...ij->..."      # the entry sum of a * b, matrix by matrix


@dataclass(frozen=True)
class SolvedStrategy:
    """Gains, covariances, value matrices, and predicted cost.

    Every sequence is one read-only (T, ·, ·) array indexed at offset
    ``t - 1`` for step t, except ``filter_gain``, which has T - 1 entries
    (the update into step t + 1 uses ``filter_gain[t - 1]``).  ``Lgain``
    acts on the coordinator's whole state (X_t, c_t), which is also the
    statistic; ``Ptilde`` is ``root @ root'``, and ``root`` is d_state
    wide from the square-root sweep and d_x + (k-1)(d_x + sum d_y) wide in
    the window form (see :func:`forward_riccati`).  Strategies reloaded from
    disk carry only the gains; the covariance/value sequences and ``rtol``
    are then ``None``.  A stack of gains gives arrays and J its leading axes,
    except ``S``: it does not depend on the gains, so it has no candidate
    axis.  It is one read-only (T, d_state, d_state) array shared by every
    candidate of a stack and by every solve on the same plant and protocol
    object; :meth:`candidate` keeps it as it is and :func:`performance`
    broadcasts it.
    """

    cs: CoordinatedSystem
    Lgain: np.ndarray         # (T, d_u, d_state)
    filter_gain: np.ndarray   # (T-1, d_state, d_z)
    J: float
    Ptilde: np.ndarray | None = None   # (T, d_state, d_state)
    root: np.ndarray | None = None     # (T, d_state, root width)
    S: np.ndarray | None = None        # (T, d_state, d_state), shared
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


def _check_one_strategy(cs: CoordinatedSystem) -> None:
    """Raise DimMismatch if ``cs`` holds a stack of gains."""
    if cs.gains.theta.ndim != 1:
        raise DimMismatch(f"a stack of {cs.gains.theta.shape[:-1]} strategies"
                          "; take one with SolvedStrategy.candidate(i)")


def _window_roots(cs: CoordinatedSystem, k: int, rtol: float, start: int,
                  lent):
    """Roots of P~_1..P~_T, d_x + (k-1)(d_x + sum d_y) wide, under a
    protocol whose data is all common k steps on (its ``window``): at t
    everything before tau = t - k + 1 is common, so the error on xi_t is
    the plant predictor's at tau carried open loop through steps tau..t-1,
    R <- [A~_s R, N_w,s] from [R_tau; 0], R_tau the predictor's root.  A
    row t < k starts from R_1 at s = 1 and waits out the steps s < 1.
    Each step is one stacked product over rows t = ``start``..T into the
    other of two buffers; rows before ``start`` are ``lent``'s."""
    T, d, d_x, wn = cs.T, cs.d_state, cs.d_x, cs.noise.shape[-1]
    shape = cs.A.shape[:-3] + (T, d, d_x + (k - 1) * wn)
    bufs = [np.zeros(shape) for _ in range(min(k, 2))]
    R = bufs[0]
    R[..., :d_x, :d_x] = cs.plant.predictor(rtol)[2][
        np.maximum(np.arange(1 - k, T - k + 1), 0)]
    for j in range(k - 1):          # row t takes step s = t - k + 1 + j
        old, R, c = R, bufs[(j + 1) % 2], d_x + j * wn
        r = max(start - 1, k - 1 - j)   # rows from t = r + 1 have s >= 1
        s = slice(r - k + 1 + j, T - k + 1 + j)
        np.matmul(cs.A[..., s, :, :], old[..., r:, :, :c],
                  out=R[..., r:, :, :c])
        R[..., r:, :, c:c + wn] = cs.noise[..., s, :d, :]
        R[..., start - 1:r, :, :c] = old[..., start - 1:r, :, :c]
    R[..., :start - 1, :, :] = lent[:start - 1] if start > 1 else 0.0
    return R


def _window_sweep(cs: CoordinatedSystem, k: int, rtol: float, start: int,
                  lent):
    """P~_1..P~_T, gains K_1..K_{T-1} and roots of P~ in the window form
    (:func:`_window_roots`), P~ = R R'; rows before ``start`` are
    ``lent``'s (root, gain) rows.  K_t = (A~ P~ C' + N_w N_v') M^+ with
    M = C P~ C' + N_v N_v', cut at the relative rank ``rtol``
    (eigenvalues w > rtol w_max kept), which is the sweep's cut on the
    singular values of its pre-array in exact arithmetic."""
    T, d = cs.T, cs.d_state
    R = _window_roots(cs, k, rtol, start, lent and lent[0])
    P = R @ R.swapaxes(-1, -2)
    for t in range(start, T + 1):
        _check_finite(P[..., t - 1, :, :], "filter covariance", t)
    gains = np.empty(P.shape[:-3] + (T - 1, d, cs.d_z))
    gains[..., :start - 1, :, :] = lent[1][:start - 1] if start > 1 else 0.0
    C = cs.C[..., start - 1:, :, :]
    nw, nv = (cs.noise[..., start - 1:T - 1, rows, :]
              for rows in (slice(0, d), slice(d, None)))
    CP = C @ P[..., start - 1:T - 1, :, :]
    M = CP @ C.swapaxes(-1, -2) + nv @ nv.swapaxes(-1, -2)
    if not np.isfinite(M).all():                  # before LAPACK sees it
        for t in range(start, T):
            _check_finite(M[..., t - start, :, :], "innovation covariance", t)
    w, V = np.linalg.eigh(M)
    keep = w > rtol * w[..., -1:]
    cross = (cs.A[..., start - 1:T - 1, :, :] @ CP.swapaxes(-1, -2)
             + nw @ nv.swapaxes(-1, -2))
    gains[..., start - 1:, :, :] = (
        cross @ V * (keep / np.where(keep, w, 1.0))[..., None, :]
        @ V.swapaxes(-1, -2))
    return P, gains, R


def forward_riccati(cs: CoordinatedSystem, rtol: float = DEFAULT_RTOL,
                    start: int = 1, incumbent: SolvedStrategy | None = None):
    """P~_1..P~_T = root root', filter gains for t = 1..T-1 and the roots,
    over (…, T, ·, ·), from step ``start`` on: the roots to P~_start and
    the gains before it are copied from ``incumbent`` (see :func:`solve`).
    Under a protocol with a ``window`` k this is the window form
    (:func:`_window_sweep`, roots d_x + (k-1)(d_x + sum d_y) wide); under
    every other the square-root sweep from root_1 = ``cs.init_root``
    (d_state wide)."""
    lent = incumbent and (incumbent.root, incumbent.filter_gain)
    k = cs.protocol.window
    return tuple(map(read_only, _filter_sweep(
        cs.A, cs.C, cs.noise, cs.init_root, rtol, start, lent)
        if k is None else _window_sweep(cs, k, rtol, start, lent)))


def _value_sweep(plant: PlantModel, mp: MemoryProtocol):
    """Value matrices S_1..S_T and gains K_1..K_T of the coordinator's
    control problem, which never reads the local gains: with V_t = Ut~_t +
    loc_t xi_t its step is xi_{t+1} = F_t xi_t + B~_t V_t + noise (F_t the
    frame's gain-free block) and its cost X'QX + V'RV.  So this is the LQR
    K_t = -(R + B~'S B~)^-1 B~'S F_t, S_t = F_t'S (F_t + B~ K_t) +
    blkdiag(Q, 0), S = S_{t+1}, S_{T+1} = 0, run once per (plant, protocol
    object) and kept with its frame (``coordination._kept``).  Each step
    solves the bracket by LU; one stacked Cholesky checks every bracket
    once the sweep ends or raises, and names the largest failing step,
    where a per-step check would stop."""
    kept = _kept(plant, mp)
    if kept.value is not None:
        return kept.value
    free, _, B, _ = kept.frame
    T, d, d_x = plant.T, B.shape[-2], plant.d_x
    F = free[:, :d, :d]
    Q = np.broadcast_to(plant.Q, (T, d_x, d_x))   # as build adds it to Q~
    S, K = np.empty((T, d, d)), np.empty((T, B.shape[-1], d))
    brackets = np.ones((T, 1, 1)) * np.eye(B.shape[-1])
    S_next = np.zeros((d, d))
    try:
        for t in range(T, 0, -1):
            F_t, B_t, K_t = F[t - 1], B[t - 1], K[t - 1]
            BS = B_t.T @ S_next
            brackets[t - 1] = sym(plant.R + BS @ B_t)
            # 0.0 - x: no -0 entries
            K_t[...] = 0.0 - np.linalg.solve(brackets[t - 1], BS @ F_t)
            S_t = F_t.T @ S_next @ (F_t + B_t @ K_t)
            S_t[:d_x, :d_x] += Q[t - 1]
            S_next = S[t - 1] = sym(S_t)
            _check_finite(S_next, "value matrix", t)   # non-finite if K_t is
    except (ArithmeticError, np.linalg.LinAlgError):
        _check_brackets(brackets)   # those of steps not reached are still I
        raise
    _check_brackets(brackets)
    kept.value = read_only(S), read_only(K)
    return kept.value


def backward_riccati(cs: CoordinatedSystem):
    """Value matrices S_1..S_T, one shared array with no candidate axis,
    and the coordinator's gains L~_t = K_t - loc_t, from the value sweep
    (:func:`_value_sweep`) of ``cs``'s plant and protocol: V_t = K_t xi_t
    is Ut~_t = L~_t xi_t.  Raises ``NumericalBreakdown`` at the largest
    step t whose L~_t or cost terms (Q~_t, ``noise_cost``) are not finite
    in any candidate, the first that a value recursion on the candidate's
    own cost, run down from T, would meet."""
    S, K = _value_sweep(cs.plant, cs.protocol)
    L = K - cs.loc
    _check_steps(cs, L)
    return S, read_only(L)


def _check_steps(cs: CoordinatedSystem, L) -> None:
    """Raise NumericalBreakdown at the largest step t where L~_t, Q~_t or
    the noise cost of step t is not finite, in any candidate."""
    finite = (np.isfinite(L).all(axis=(-2, -1))
              & np.isfinite(cs.Q).all(axis=(-2, -1))
              & np.isfinite(cs.noise_cost))
    if not finite.all():
        t = np.flatnonzero(~finite.reshape(-1, cs.T).all(axis=0))[-1] + 1
        raise NumericalBreakdown("coordinator gain or cost is not finite",
                                 int(t))


def _check_brackets(brackets, t0: int = 1) -> None:
    """Raise NumericalBreakdown at the largest step t whose control bracket
    ``brackets[..., t-t0, :, :]`` has no Cholesky factor (bisecting)."""
    try:
        np.linalg.cholesky(brackets)
    except np.linalg.LinAlgError:
        if (n := brackets.shape[-3]) == 1:
            raise NumericalBreakdown(
                "control bracket is not positive definite", t0) from None
        _check_brackets(brackets[..., n // 2:, :, :], t0 + n // 2)
        _check_brackets(brackets[..., :n // 2, :, :], t0)


def performance(cs: CoordinatedSystem, ptilde, s_seq, k_seq):
    """Predicted expected total cost of the optimal coordinator strategy.

    J = sum_t tr[P~_t Q~_t] + c_t + tr[S_{t+1} K_t M_t K_t'], with c_t the
    step's ``noise_cost``, K_t = ``k_seq[t-1]``, M_t = C P~_t C' + N_v N_v'
    (N_v: ``noise``'s rows after d_state) and S_{T+1} = 0; one J per system.
    K M K' is N_w N_w' + A~ P~_t A~' - P~_{t+1} without the cancellation.
    Each trace is an entry sum, of P~ * Q~ or (S K) * (K M), by ``einsum``.
    """
    T, C, nv = cs.T, cs.C, cs.noise[..., :cs.T - 1, cs.d_state:, :]
    terms = np.zeros(ptilde.shape[:-3] + (2 * T,))   # 0, tr_1, noise_1, ..
    terms[..., 1::2] = np.einsum(_DOT, ptilde, cs.Q) + cs.noise_cost
    M = (C @ ptilde[..., :-1, :, :] @ C.swapaxes(-1, -2)
         + nv @ nv.swapaxes(-1, -2))
    terms[..., 2::2] = np.einsum(_DOT, s_seq[..., 1:, :, :] @ k_seq, k_seq @ M)
    total = np.add.accumulate(terms, axis=-1)[..., -1]   # in that order
    return total if total.ndim else float(total)


def _first_changed_step(cs: CoordinatedSystem, rtol: float,
                        incumbent: SolvedStrategy | None) -> int:
    """First step t whose G_t or H_t differ, in any bit of any candidate,
    from ``incumbent``'s, read off ``theta``; T if none does.  1, a full
    solve, unless ``incumbent`` is one strategy solved for the same plant
    and protocol at this ``rtol``."""
    inc = incumbent
    if (inc is None or inc.root is None or inc.rtol != rtol
            or inc.gains.theta.ndim != 1 or inc.cs.plant is not cs.plant
            or inc.cs.protocol is not cs.protocol):
        return 1
    # theta is ordered by step, |theta| / T entries per step, and G and H
    # are exact scatters of it: a step moved iff one of its theta bits did
    new, old = cs.gains.theta, inc.gains.theta
    diff = new.view(np.uint64) != old.view(np.uint64)
    moved = diff.reshape(new.shape[:-1] + (cs.T, old.size // cs.T)).any(
        axis=-1).reshape(-1, cs.T).any(axis=0)
    steps = np.flatnonzero(moved)
    return int(steps[0]) + 1 if steps.size else cs.T


def solve(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains,
          rtol: float = DEFAULT_RTOL,
          incumbent: SolvedStrategy | None = None) -> SolvedStrategy:
    """Best coordinator response to the given local gains (or stack).

    Step t of the coordinated system depends on the gains of step t only,
    so P~_1..P~_t depend only on the steps before t.  Given ``incumbent``,
    a single strategy this function returned for the same plant, protocol
    and ``rtol``, the forward sweep therefore runs from the first step t_a
    whose gains differ from the incumbent's, copying the rest from the
    incumbent.  The value sweep does not read the gains at all: it runs
    once per plant and protocol (:func:`backward_riccati`).  The result is
    bitwise that of a solve without ``incumbent``.
    """
    check_rtol(rtol)
    cs = build(plant, mp, gains)
    first = _first_changed_step(cs, rtol, incumbent)
    P, K, R = forward_riccati(cs, rtol, first, incumbent)
    S, L = backward_riccati(cs)
    return SolvedStrategy(cs=cs, Lgain=L, filter_gain=K, Ptilde=P, root=R,
                          S=S, J=performance(cs, P, S, K), rtol=rtol)
