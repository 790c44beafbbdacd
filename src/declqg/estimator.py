"""Online execution of the sufficient statistics.

Three statistics appear here:

* ``stat``: the conditional mean of (X_t, carrier_t) given the shared data
  and the coordinator's past actions, which is the coordinator's whole
  state estimate.
* the plant-level one-step-ahead Kalman predictor, whose covariance and
  gains never read the local gains (strategy independent): it runs once
  per plant and rtol and is kept on the plant (``PlantModel.predictor``);
* the delayed-sharing statistic S_t = (the coordinator's state estimate
  at tau = t - k + 1, recent coordinator actions), for a protocol whose
  data is all common after one delay k (``MemoryProtocol.window``): the
  predictor xhat_{tau|tau-1}, the protocol's carrier c_tau (all of its
  pairs are common at t) and the Ut~ window, one vector, zero before
  tau = 1.  It moves by one gain-independent linear map per step, and
  ``stat`` is an explicit linear function of it, one map per t, all
  returned at once by ``delayed_stat_map``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, TimeOutOfRange,
                   UnsupportedProtocol, as_index, as_vector, read_only)
from .coordination import CoordinatedSystem, _check_fits
from .plant import PlantModel
from .solver import SolvedStrategy, _check_one_strategy


# --------------------------------------------------------------------------
# shared-information statistic


@dataclass(frozen=True)
class EstimatorState:
    """Value of the reduced statistic at time t (dim d_x + d_carrier)."""

    t: int
    stat: np.ndarray


def initial_state(cs: CoordinatedSystem) -> EstimatorState:
    return EstimatorState(1, np.zeros(cs.d_x + cs.d_c))


def _transition(ss: SolvedStrategy, steps):
    """(Ts, Tu, Tz) of the steps ``steps`` (an offset t - 1 or a slice)."""
    cs = ss.cs
    _check_one_strategy(cs)
    gain = ss.filter_gain[steps]
    return (cs.A[steps] - gain @ cs.C[steps],
            cs.B[steps] - gain @ cs.protocol.zu, gain)


def statistic_transition(ss: SolvedStrategy):
    """Matrices (Ts, Tu, Tz), each stacked over t = 1..T-1, with stat_{t+1}
    = Ts stat_t + Tu Ut~ + Tz Z_t."""
    return _transition(ss, slice(0, ss.cs.T - 1))


def step_statistic(st: EstimatorState, ss: SolvedStrategy, z_new,
                   u_tilde_prev) -> EstimatorState:
    """Advance the statistic with the newly shared increment Z_t (one
    step of the coordinator's filter); forms step t's maps only."""
    cs, t = ss.cs, as_index(st.t, "t")
    if not 1 <= t < cs.T:
        raise TimeOutOfRange(f"no transition out of t={t} (T={cs.T})")
    z = as_vector(z_new, cs.d_z, "z_new")
    u = as_vector(u_tilde_prev, cs.d_u, "u_tilde_prev")
    Ts, Tu, Tz = _transition(ss, t - 1)
    return EstimatorState(t + 1, Ts @ st.stat + Tu @ u + Tz @ z)


def act(st: EstimatorState, ss: SolvedStrategy, y_local, m_local):
    """Per-controller actions U^i_t = L~^i_t stat + G^i_t Y^i_t + H^i_t M^i_t."""
    p, mp, t = ss.cs.plant, ss.cs.protocol, st.t
    _check_one_strategy(ss.cs)
    if not 1 <= t <= p.T:
        raise TimeOutOfRange(f"t={t} outside 1..{p.T}")
    if len(y_local) != p.n or len(m_local) != p.n:
        raise DimMismatch("need one local observation and memory per controller")
    actions = []
    for i in range(p.n):
        y = as_vector(y_local[i], p.d_y[i], f"y[{i}]")
        m = as_vector(m_local[i], mp.d_m[i], f"m[{i}]")
        sl = p.u_slice(i)
        u = ss.Lgain[t - 1][sl, :] @ st.stat
        u = u + ss.gains.G[t - 1][sl, p.y_slice(i)] @ y
        if mp.d_m[i]:
            u = u + ss.gains.H[t - 1][sl, mp.m_slice(i)] @ m
        actions.append(u)
    return actions


# --------------------------------------------------------------------------
# delayed-sharing reduced statistic


@dataclass(frozen=True)
class ReducedDelayStat:
    """S_t = (xhat_{tau|tau-1}, c_tau, Ut~_tau..Ut~_{t-1}), tau = t - k + 1,
    as one vector: the coordinator's state estimate at tau, whose carrier
    holds only pairs common at t, and the k - 1 coordinator actions since,
    oldest first; zero for steps before 1 (empty window for k = 1)."""

    value: np.ndarray

    def vector(self) -> np.ndarray:
        return self.value


def _delay_transition(plant: PlantModel, mp, rtol: float):
    """Read-only (Ts, Tu, Tp), each stacked over t = 1..T, with S_{t+1} =
    Ts S_t + Tu Ut~_t + Tp (Y_tau, U_tau), tau = t - k + 1, k the
    protocol's ``window`` (UnsupportedProtocol if it has none).  The
    (xhat, c) rows move by blkdiag(A_tau - K_tau C_tau, cc) and take
    [[K_tau, B_tau], [cy, cu]] of the pair, K the gains of
    ``plant.predictor`` (strategy independent); they stay zero for t < k,
    before tau = 1.  The Ut~ window drops its oldest entry for the newest."""
    k = mp.window
    if k is None:
        raise UnsupportedProtocol(
            "delayed-sharing statistic needs one delay after which every "
            f"controller's data is common; protocol {mp.kind!r} has none")
    T, d_x, d_u = plant.T, plant.d_x, plant.d_u_total
    d = d_x + mp.d_carrier
    dim, tau = d + (k - 1) * d_u, slice(0, max(0, T - k + 1))
    Ts, Tu, Tp = (np.zeros((T, dim, w))
                  for w in (dim, d_u, plant.d_y_total + d_u))
    K = plant.predictor(rtol)[1][tau]
    Ts[k - 1:, :d_x, :d_x] = plant.A[tau] - K @ plant.C[tau]
    Ts[k - 1:, d_x:d, d_x:d] = mp.cc
    Tp[k - 1:, :d_x] = np.concatenate([K, plant.B[tau]], axis=2)
    Tp[k - 1:, d_x:d] = np.concatenate([mp.cy, mp.cu], axis=1)
    if k > 1:
        Ts[:, d:dim - d_u, d + d_u:] = np.eye(dim - d - d_u)
        Tu[:, dim - d_u:] = np.eye(d_u)
    return read_only(Ts), read_only(Tu), read_only(Tp)


@dataclass(frozen=True)
class DelayedStatTracker:
    """Pure-value runtime for S_t; ``advance`` returns the next tracker and
    leaves this one as it was, so one tracker made by ``create`` (which
    reads the plant's predictor, :meth:`PlantModel.predictor`) can start
    any number of walks.

    ``state`` is S_t and ``pending`` the k - 1 shared (Y_s, U_s) pairs not
    yet common, s = t-k+1..t-1, oldest first, zero for s < 1, k the
    protocol's ``window`` (``create`` raises UnsupportedProtocol for a
    protocol without one).  Each step is one set of products with
    ``_delay_transition``'s maps.
    """

    plant: PlantModel
    t: int
    transition: tuple       # (Ts, Tu, Tp), stacked over t = 1..T, read only
    state: np.ndarray       # S_t, read only
    pending: np.ndarray     # (k - 1, sum d_y + sum d_u)

    @staticmethod
    def create(plant: PlantModel, mp, rtol: float = DEFAULT_RTOL
               ) -> "DelayedStatTracker":
        _check_fits(plant, mp)
        transition = _delay_transition(plant, mp, rtol)
        return DelayedStatTracker(
            plant=plant, t=1, transition=transition,
            state=read_only(np.zeros(transition[0].shape[1])),
            pending=np.zeros((mp.window - 1,
                              plant.d_y_total + plant.d_u_total)))

    def stat(self) -> ReducedDelayStat:
        return ReducedDelayStat(self.state)

    def advance(self, y_t, u_t, u_tilde_t) -> "DelayedStatTracker":
        """Move from time t to t+1 after acting (Y_t, U_t, Ut~ realized)."""
        p, t = self.plant, self.t
        if t > p.T:
            raise TimeOutOfRange(f"t={t} outside 1..{p.T}")
        pair = np.concatenate([as_vector(y_t, p.d_y_total, "y_t"),
                               as_vector(u_t, p.d_u_total, "u_t")])
        u_tilde_t = as_vector(u_tilde_t, p.d_u_total, "u_tilde_t")
        line = np.vstack([self.pending, pair])      # pairs t-k+1..t
        Ts, Tu, Tp = (m[t - 1] for m in self.transition)
        state = Ts @ self.state + Tu @ u_tilde_t + Tp @ line[0]
        return replace(self, t=t + 1, state=read_only(state),
                       pending=line[1:])


def _check_stat_delay(cs: CoordinatedSystem, k: int) -> None:
    """Raise unless ``cs`` is one strategy's and ``k`` is its protocol's
    ``window`` (UnsupportedProtocol if the protocol has none)."""
    _check_one_strategy(cs)
    if as_index(k, "k") != cs.protocol.window:
        raise UnsupportedProtocol(f"window delay {k} does not match the "
                                  f"protocol's window {cs.protocol.window}")


def _pullback(cs: CoordinatedSystem, G: np.ndarray) -> np.ndarray:
    """Rows G[t-1] @ M(t), t = 1..T, of the maps taking S_t to stat at t,
    k the protocol's (checked) ``window``, without forming the maps; one
    (T, rows, dim S_t) array.

    M(t) starts from [I, 0] at tau = t - k + 1 (S_t's first d_state
    entries are the coordinator's estimate at tau), or for t < k from zero
    at s = 1; each step s = max(tau, 1)..t-1 maps it through A~_s and adds
    B~_s into the columns of S_t's Ut~_s entry.  In reverse, step s writes
    G B~_s into that entry and sets G = G A~_s; what is left of G is the
    (xhat, c) block of rows t >= k.  Pullback step j reads step t-1-j of
    every t >= j + 2, so it is one stacked product over those rows; a
    stacked matmul runs the 2-d product on each, which keeps each row's
    bits.  One ``+= 0.0`` at the end makes every zero +0.0.
    """
    d, d_u, k = cs.d_state, cs.d_u, cs.protocol.window
    out = np.zeros(G.shape[:2] + (d + (k - 1) * d_u,))
    for j in range(k - 1):
        G, w = G[1:], d + (k - 2 - j) * d_u     # row t = j + 1 drops out
        out[j + 1:, :, w:w + d_u] = G @ cs.B[:len(G)]
        G = G @ cs.A[:len(G)]
    out[k - 1:, :, :d] = G                      # rows t >= k
    out += 0.0
    return out


def delayed_stat_map(cs: CoordinatedSystem, k: int) -> np.ndarray:
    """Read-only (T, d_state, dim S_t) array: entry t-1 takes the delayed
    statistic S_t to stat at time t.

    Built constructively: read the coordinator's estimate at time
    t - k + 1 off S_t (its first d_state entries), then propagate the
    coordinated dynamics with the windowed coordinator actions and zero-mean
    noise.  Computed as the pullback of the identity through those steps.
    """
    _check_stat_delay(cs, k)
    return read_only(_pullback(cs, np.broadcast_to(
        np.eye(cs.d_state), (cs.T, cs.d_state, cs.d_state))))


def delayed_stat_gains(ss: SolvedStrategy, k: int):
    """Gains acting directly on S_t, one read-only (T, d_u, dim S_t) array:
    L_t = L~_t M(t), to rounding, with M(t) the ``delayed_stat_map``; each
    L~_t is pulled back through M(t)'s steps without forming the map."""
    _check_stat_delay(ss.cs, k)
    return read_only(_pullback(ss.cs, ss.Lgain))
