"""Online execution of the sufficient statistics.

Three statistics appear here:

* ``stat``: the conditional mean of (X_t, carrier_t) given the shared data
  and the coordinator's past actions, which is the coordinator's whole
  state estimate.
* the plant-level one-step-ahead Kalman predictor, whose covariance and
  gains never read the local gains (strategy independent, precomputable);
* the delayed-sharing statistic S_t = (the predictor delayed to
  t - k + 1, recent coordinator actions, recent shared observation/action
  pairs), one vector with windows padded by zeros before the pipeline
  fills.  It moves by one gain-independent linear map per step, and
  ``stat`` is an explicit linear function of it, one map per t, all
  returned at once by ``delayed_stat_map``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, TimeOutOfRange,
                   UnsupportedProtocol, as_index, as_vector, read_only)
from .coordination import CoordinatedSystem
from .plant import PlantModel
from .solver import SolvedStrategy, _check_one_strategy, _filter_sweep


# --------------------------------------------------------------------------
# shared-information statistic


@dataclass(frozen=True)
class EstimatorState:
    """Value of the reduced statistic at time t (dim d_x + d_carrier)."""

    t: int
    stat: np.ndarray


def initial_state(cs: CoordinatedSystem) -> EstimatorState:
    return EstimatorState(1, np.zeros(cs.d_x + cs.d_c))


def statistic_transition(ss: SolvedStrategy, t: int | None = None):
    """Matrices (Ts, Tu, Tz) with stat_{t+1} = Ts stat_t + Tu Ut~ + Tz Z_t;
    without ``t``, each stacked over t = 1..T-1."""
    cs = ss.cs
    _check_one_strategy(cs)
    if t is None:
        at = slice(0, cs.T - 1)
    else:
        t = as_index(t, "t")
        if not 1 <= t < cs.T:
            raise TimeOutOfRange(f"no transition out of t={t} (T={cs.T})")
        at = t - 1
    gain = ss.filter_gain[at]
    return (cs.A[at] - gain @ cs.C[at], cs.B[at] - gain @ cs.protocol.zu,
            gain)


def step_statistic(st: EstimatorState, ss: SolvedStrategy, z_new,
                   u_tilde_prev) -> EstimatorState:
    """Advance the statistic with the newly shared increment Z_t (one
    step of the coordinator's filter)."""
    cs = ss.cs
    z = as_vector(z_new, cs.d_z, "z_new")
    u = as_vector(u_tilde_prev, cs.d_u, "u_tilde_prev")
    Ts, Tu, Tz = statistic_transition(ss, st.t)
    return EstimatorState(st.t + 1, Ts @ st.stat + Tu @ u + Tz @ z)


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
# plant-level Kalman predictor (strategy independent)


def plant_kalman_covariances(plant: PlantModel, rtol: float = DEFAULT_RTOL):
    """Read-only predictor covariances P_1..P_{T+1} (P_1 = sigma_x), shape
    (T+1, d_x, d_x), and gains for t = 1..T, shape (T, d_x, sum d_y): the
    coordinator's square-root sweep, run on the plant."""
    P, gains, _ = _filter_sweep(plant.A, plant.C, plant.noise_root,
                                plant.x1_root, rtol)
    return read_only(P), read_only(gains)


# --------------------------------------------------------------------------
# delayed-sharing reduced statistic


def effective_delay(mp) -> int:
    """Window length parameter: k for symmetric sharing, k* for asymmetric."""
    if mp.kind == "symmetric_delay":
        return int(mp.delay)
    if mp.kind == "asymmetric_delay":
        return mp.delay_graph.k_star_max
    raise UnsupportedProtocol(
        f"delayed-sharing statistic needs a delayed-sharing protocol, "
        f"got kind={mp.kind!r}")


@dataclass(frozen=True)
class ReducedDelayStat:
    """S_t = (xhat_{t-k+1|t-k}, Ut~ window, Y window, U window) as one
    vector.  Windows hold k - 1 entries each, oldest first, zero padded
    before the pipeline fills (empty for k = 1)."""

    k: int
    value: np.ndarray

    def vector(self) -> np.ndarray:
        return self.value


def delay_stat_dim(plant: PlantModel, k: int) -> int:
    return plant.d_x + (k - 1) * (2 * plant.d_u_total + plant.d_y_total)


def _delay_transition(plant: PlantModel, k: int, rtol: float):
    """Read-only (Ts, Tu, Tp), each stacked over t = 1..T, with S_{t+1} =
    Ts S_t + Tu Ut~_t + Tp (Y_tau, U_tau), tau = t - k + 1.  The predictor
    block is A_tau - K_tau C_tau, K the gains of ``plant_kalman_covariances``
    (strategy independent), and each window drops its oldest entry for the
    newest.  For t < k the predictor rows stay zero: xhat and the pad pair
    are still zero there."""
    T, d_x, d_u, d_y = plant.T, plant.d_x, plant.d_u_total, plant.d_y_total
    dim, tau = delay_stat_dim(plant, k), slice(0, max(0, T - k + 1))
    Ts, Tu, Tp = (np.zeros((T, dim, w)) for w in (dim, d_u, d_y + d_u))
    K = plant_kalman_covariances(plant, rtol)[1][tau]
    Ts[k - 1:, :d_x, :d_x] = plant.A[tau] - K @ plant.C[tau]
    Tp[k - 1:, :d_x] = np.concatenate([K, plant.B[tau]], axis=2)
    y0 = d_x + (k - 1) * d_u
    windows = ((d_x, d_u, Tu), (y0, d_y, Tp[..., :d_y]),
               (y0 + (k - 1) * d_y, d_u, Tp[..., d_y:]))
    for lo, w, new in windows if k > 1 else ():
        top = lo + (k - 2) * w          # the newest entry's first row
        Ts[:, lo:top, lo + w:top + w] = np.eye(top - lo)
        new[:, top:top + w] = np.eye(w)
    return read_only(Ts), read_only(Tu), read_only(Tp)


@dataclass(frozen=True)
class DelayedStatTracker:
    """Pure-value runtime for S_t; ``advance`` returns the next tracker.

    ``state`` is S_t and ``pending`` the k - 1 shared (Y_s, U_s) pairs not
    yet common, s = t-k+1..t-1, oldest first, zero for s < 1.  Each step is
    one set of products with ``_delay_transition``'s maps.
    """

    plant: PlantModel
    k: int
    t: int
    transition: tuple       # (Ts, Tu, Tp), stacked over t = 1..T, read only
    state: np.ndarray       # S_t, read only
    pending: np.ndarray     # (k - 1, sum d_y + sum d_u)

    @staticmethod
    def create(plant: PlantModel, mp, rtol: float = DEFAULT_RTOL
               ) -> "DelayedStatTracker":
        k = effective_delay(mp)
        return DelayedStatTracker(
            plant=plant, k=k, t=1, transition=_delay_transition(plant, k, rtol),
            state=read_only(np.zeros(delay_stat_dim(plant, k))),
            pending=np.zeros((k - 1, plant.d_y_total + plant.d_u_total)))

    def stat(self) -> ReducedDelayStat:
        return ReducedDelayStat(self.k, self.state)

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


def _check_stat_delay(cs: CoordinatedSystem, k: int) -> int:
    """``k`` as an int; raise unless ``cs`` is one strategy's and the
    delayed statistic with window delay k fits its protocol."""
    _check_one_strategy(cs)
    mp, k = cs.protocol, as_index(k, "k")
    if mp.kind == "asymmetric_delay":
        # the construction conditions the delayed state estimate on data up
        # to t - k*; if some controller's data becomes common sooner, the
        # shared history holds fresher information than the statistic's
        # windows and the exact statistic is not a function of them
        kstars = {mp.delay_graph.k_star(j) for j in range(mp.n)}
        if len(kstars) > 1:
            raise UnsupportedProtocol(
                "delayed-statistic map needs equal worst-case delays; "
                f"graph has k*_j in {sorted(kstars)}")
    if k != effective_delay(mp):
        raise UnsupportedProtocol(
            f"window delay {k} does not match the protocol's {effective_delay(mp)}")
    return k


def _window_map(cs: CoordinatedSystem, k: int) -> np.ndarray:
    """Map from S_t to (xhat, carrier) at t - k + 1, every window pair live.

    The carrier at tau = t - k + 1 is sum_j cc^j (cy Y + cu U) over the pairs
    shared at tau - 1 - j, j = 0..k-2, which are S_t's window entries
    k - 2 - j (oldest first); cc^(k-1) = 0 for delayed sharing.  The map
    does not depend on t.
    """
    plant, mp = cs.plant, cs.protocol
    d_x, d_u, d_y = plant.d_x, plant.d_u_total, plant.d_y_total
    y0 = d_x + (k - 1) * d_u
    u0 = y0 + (k - 1) * d_y
    base = np.zeros((d_x + cs.d_c, delay_stat_dim(plant, k)))
    base[:d_x, :d_x] = np.eye(d_x)
    power = np.eye(cs.d_c)      # cc^j
    for w in range(k - 2, -1, -1):
        base[d_x:, y0 + w * d_y:y0 + (w + 1) * d_y] = power @ mp.cy
        base[d_x:, u0 + w * d_u:u0 + (w + 1) * d_u] = power @ mp.cu
        power = power @ mp.cc
    return base


def _pullback(cs: CoordinatedSystem, k: int, G: np.ndarray) -> np.ndarray:
    """Rows G[t-1] @ M(t), t = 1..T, of the maps taking S_t to stat at t,
    for a checked k, without forming the maps; one (T, rows, dim S_t) array.

    M(t) for t >= k starts at tau = t - k + 1 from ``_window_map`` with the
    window entries of pairs from before t = 1 zeroed (tau < k); for t < k it
    starts from zero at s = 1, before the pipeline fills.  Each step
    s = max(tau, 1)..t-1 maps the estimate through A~_s and adds B~_s into
    the columns of S_t's Ut~_s entry.  G is pulled back through the steps
    in reverse: step s writes G B~_s into that entry and sets G = G A~_s;
    for t >= k, G W is then added and the early columns zeroed, which no
    step writes.  Pullback step j reads step t-1-j and writes Ut~ entry
    k-2-j for every t >= j + 2, so it is one stacked product over those
    rows; a stacked matmul runs the 2-d product on each, which keeps each
    row's bits.  One ``+= 0.0`` at the end makes every zero +0.0.
    """
    d_x, d_u, window = cs.plant.d_x, cs.d_u, _window_map(cs, k)
    out = np.zeros(G.shape[:2] + window.shape[1:])
    for j in range(k - 1):
        G, w = G[1:], d_x + (k - 2 - j) * d_u   # row t = j + 1 drops out
        out[j + 1:, :, w:w + d_u] = G @ cs.B[:len(G)]
        G = G @ cs.A[:len(G)]
    out[k - 1:] += G @ window                   # rows t >= k
    y0, d_y = d_x + (k - 1) * d_u, cs.plant.d_y_total   # Y, then U window
    u0 = y0 + (k - 1) * d_y
    for t in range(k, min(len(out), 2 * k - 2) + 1):
        early = 2 * k - 1 - t       # entries of pairs from before t = 1
        out[t - 1, :, y0:y0 + early * d_y] = 0.0
        out[t - 1, :, u0:u0 + early * d_u] = 0.0
    out += 0.0
    return out


def delayed_stat_map(cs: CoordinatedSystem, k: int) -> np.ndarray:
    """Read-only (T, d_state, dim S_t) array: entry t-1 takes the delayed
    statistic S_t to stat at time t.

    Built constructively: rebuild the coordinator's estimate at time
    t - k + 1 out of S_t (the X part from xhat, the carrier as the
    protocol's linear image of the shared window pairs), then propagate the
    coordinated dynamics with the windowed coordinator actions and zero-mean
    noise.  Computed as the pullback of the identity through those steps.
    """
    return read_only(_pullback(cs, _check_stat_delay(cs, k), np.broadcast_to(
        np.eye(cs.d_state), (cs.T, cs.d_state, cs.d_state))))


def delayed_stat_gains(ss: SolvedStrategy, k: int):
    """Gains acting directly on S_t, one read-only (T, d_u, dim S_t) array:
    L_t = L~_t M(t), to rounding, with M(t) the ``delayed_stat_map``; each
    L~_t is pulled back through M(t)'s steps without forming the map."""
    cs, k = ss.cs, _check_stat_delay(ss.cs, k)
    return read_only(_pullback(cs, k, ss.Lgain))
