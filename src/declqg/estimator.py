"""Online execution of the sufficient statistics.

Three statistics appear here:

* ``stat``: the conditional mean of (X_t, carrier_t) given the shared data
  and the coordinator's past actions, which is the coordinator's whole
  state estimate.
* the plant-level one-step-ahead Kalman predictor, whose covariance never
  reads the local gains (strategy independent, precomputable);
* the delayed-sharing statistic S_t = (xhat, recent coordinator actions,
  recent shared observation/action pairs), with windows padded by zeros
  before the pipeline fills; ``stat`` is an explicit linear function of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, TimeOutOfRange,
                   UnsupportedProtocol, as_vector)
from .coordination import CoordinatedSystem
from .plant import PlantModel
from .solver import SolvedStrategy, _filter_sweep


# --------------------------------------------------------------------------
# shared-information statistic


@dataclass(frozen=True)
class EstimatorState:
    """Value of the reduced statistic at time t (dim d_x + d_carrier)."""

    t: int
    stat: np.ndarray


def initial_state(cs: CoordinatedSystem) -> EstimatorState:
    return EstimatorState(1, np.zeros(cs.d_x + cs.d_c))


def statistic_transition(ss: SolvedStrategy, t: int):
    """Matrices (Ts, Tu, Tz) with stat_{t+1} = Ts stat_t + Tu Ut~ + Tz Z_t."""
    cs = ss.cs
    if not 1 <= t < cs.T:
        raise TimeOutOfRange(f"no transition out of t={t} (T={cs.T})")
    gain = ss.filter_gain[t - 1]
    return (cs.A[t - 1] - gain @ cs.C[t - 1],
            cs.B[t - 1] - gain @ cs.protocol.zu, gain)


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
    p = ss.cs.plant
    if len(y_local) != p.n or len(m_local) != p.n:
        raise DimMismatch("need one local observation and memory per controller")
    return [ss.local_action(i, st.t, st.stat,
                            as_vector(y_local[i], p.d_y[i], f"y[{i}]"),
                            as_vector(m_local[i], None, f"m[{i}]"))
            for i in range(p.n)]


# --------------------------------------------------------------------------
# plant-level Kalman predictor (strategy independent)


def plant_kalman_covariances(plant: PlantModel, rtol: float = DEFAULT_RTOL):
    """Predictor covariances P_1..P_{T+1} (P_1 = sigma_x) and gains for
    t = 1..T: the coordinator's square-root sweep, run on the plant."""
    P, gains, _ = _filter_sweep(plant.A, plant.C, plant.noise_root,
                                plant.sigma_x, rtol)
    return tuple(P), tuple(gains)


@dataclass(frozen=True)
class PlantKalmanState:
    """One-step-ahead predictor xhat_{t|t-1}."""

    t: int
    xhat: np.ndarray


def plant_kalman_init(plant: PlantModel) -> PlantKalmanState:
    return PlantKalmanState(1, np.zeros(plant.d_x))


def plant_kalman_step(plant: PlantModel, state: PlantKalmanState, y, u,
                      gains) -> PlantKalmanState:
    """Consume (Y_t, U_t) and predict xhat_{t+1|t}."""
    t = state.t
    if not 1 <= t <= plant.T:
        raise TimeOutOfRange(f"t={t} outside 1..{plant.T}")
    y = as_vector(y, plant.d_y_total, "y")
    u = as_vector(u, plant.d_u_total, "u")
    A, B, C = plant.A[t - 1], plant.B[t - 1], plant.C[t - 1]
    xhat = A @ state.xhat + B @ u + gains[t - 1] @ (y - C @ state.xhat)
    return PlantKalmanState(t + 1, xhat)


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
    """S_t = (xhat_{t-k+1|t-k}, Ut~ window, Y window, U window).

    Windows hold k - 1 entries each, oldest first, zero padded before the
    pipeline fills (empty for k = 1).
    """

    k: int
    xhat: np.ndarray
    u_tilde_window: tuple[np.ndarray, ...]
    y_window: tuple[np.ndarray, ...]
    u_window: tuple[np.ndarray, ...]

    def vector(self) -> np.ndarray:
        parts = ([self.xhat] + list(self.u_tilde_window)
                 + list(self.y_window) + list(self.u_window))
        return np.concatenate(parts) if parts else np.zeros(0)


def delay_stat_dim(plant: PlantModel, k: int) -> int:
    return plant.d_x + (k - 1) * (2 * plant.d_u_total + plant.d_y_total)


@dataclass(frozen=True)
class DelayedStatTracker:
    """Pure-value runtime for S_t; ``advance`` returns the next tracker.

    The k-1 newest shared pairs ride in a delay line until they become
    common knowledge, at which point they enter the plant predictor and the
    windows.  The predictor covariance is precomputed and never touches the
    local gains.
    """

    plant: PlantModel
    k: int
    t: int
    kalman: PlantKalmanState
    kalman_gains: tuple[np.ndarray, ...]
    pending: tuple          # (y_s, u_s) pairs for s = t-k+1..t-1; None = pad
    u_tilde_window: tuple[np.ndarray, ...]
    y_window: tuple[np.ndarray, ...]
    u_window: tuple[np.ndarray, ...]

    @staticmethod
    def create(plant: PlantModel, mp, rtol: float = DEFAULT_RTOL
               ) -> "DelayedStatTracker":
        k = effective_delay(mp)
        _, gains = plant_kalman_covariances(plant, rtol)
        pad_u = np.zeros(plant.d_u_total)
        pad_y = np.zeros(plant.d_y_total)
        return DelayedStatTracker(
            plant=plant, k=k, t=1, kalman=plant_kalman_init(plant),
            kalman_gains=gains, pending=(None,) * (k - 1),
            u_tilde_window=(pad_u,) * (k - 1),
            y_window=(pad_y,) * (k - 1), u_window=(pad_u,) * (k - 1))

    def stat(self) -> ReducedDelayStat:
        return ReducedDelayStat(self.k, self.kalman.xhat,
                                self.u_tilde_window, self.y_window,
                                self.u_window)

    def advance(self, y_t, u_t, u_tilde_t) -> "DelayedStatTracker":
        """Move from time t to t+1 after acting (Y_t, U_t, Ut~ realized)."""
        y_t = as_vector(y_t, self.plant.d_y_total, "y_t")
        u_t = as_vector(u_t, self.plant.d_u_total, "u_t")
        u_tilde_t = as_vector(u_tilde_t, self.plant.d_u_total, "u_tilde_t")
        queue = self.pending + ((y_t, u_t),)
        ripe, queue = queue[0], queue[1:]
        kal = self.kalman
        y_win, u_win = self.y_window, self.u_window
        if ripe is None:
            y_win = y_win[1:] + (np.zeros(self.plant.d_y_total),) if y_win else y_win
            u_win = u_win[1:] + (np.zeros(self.plant.d_u_total),) if u_win else u_win
        else:
            kal = plant_kalman_step(self.plant, kal, ripe[0], ripe[1],
                                    self.kalman_gains)
            if y_win:
                y_win = y_win[1:] + (ripe[0],)
                u_win = u_win[1:] + (ripe[1],)
        ut_win = self.u_tilde_window
        if ut_win:
            ut_win = ut_win[1:] + (u_tilde_t,)
        return DelayedStatTracker(
            plant=self.plant, k=self.k, t=self.t + 1, kalman=kal,
            kalman_gains=self.kalman_gains, pending=queue,
            u_tilde_window=ut_win, y_window=y_win, u_window=u_win)


def _check_stat_delay(mp, k: int) -> None:
    """Raise unless the delayed statistic with window delay k fits ``mp``."""
    if mp.kind not in ("symmetric_delay", "asymmetric_delay"):
        raise UnsupportedProtocol(
            f"delayed-statistic map needs a delayed-sharing protocol, got {mp.kind!r}")
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


def _stat_map(cs: CoordinatedSystem, k: int, t: int,
              window: np.ndarray) -> np.ndarray:
    """``delayed_stat_map`` for a checked (k, t), from ``_window_map``."""
    plant = cs.plant
    d_x, d_u, d_y = plant.d_x, plant.d_u_total, plant.d_y_total
    dim_s = window.shape[1]
    tau = t - k + 1

    def ut_col(s):        # coordinator action at time s, s = tau..t-1
        return d_x + (s - tau) * d_u

    if tau >= 1:
        if tau < k:
            # window entries w < k - tau hold pairs from before t = 1
            y0 = d_x + (k - 1) * d_u
            u0 = y0 + (k - 1) * d_y
            window = window.copy()
            window[d_x:, y0:y0 + (k - tau) * d_y] = 0.0
            window[d_x:, u0:u0 + (k - tau) * d_u] = 0.0
        emap = window
        start = tau
    else:
        # before the pipeline fills the delayed estimate is zero
        emap = np.zeros((cs.d_state, dim_s))
        start = 1
    for s in range(start, t):
        sel = np.zeros((d_u, dim_s))
        sel[:, ut_col(s):ut_col(s) + d_u] = np.eye(d_u)
        emap = cs.A[s - 1] @ emap + cs.B[s - 1] @ sel
    return emap


def delayed_stat_map(cs: CoordinatedSystem, k: int, t: int) -> np.ndarray:
    """Matrix taking the delayed statistic S_t to stat at time t.

    Built constructively: rebuild the coordinator's estimate at time
    t - k + 1 out of S_t (the X part from xhat, the carrier as the
    protocol's linear image of the shared window pairs), then propagate the
    coordinated dynamics with the windowed coordinator actions and zero-mean
    noise.
    """
    _check_stat_delay(cs.protocol, k)
    if not 1 <= t <= cs.T:
        raise TimeOutOfRange(f"t={t} outside 1..{cs.T}")
    return _stat_map(cs, k, t, _window_map(cs, k))


def delayed_stat_gains(ss: SolvedStrategy, k: int):
    """Gains acting directly on S_t: L_t = L~_t M_map(t).

    The protocol is checked and the window map built once for all T maps.
    """
    cs = ss.cs
    _check_stat_delay(cs.protocol, k)
    window = _window_map(cs, k)
    return tuple(ss.Lgain[t - 1] @ _stat_map(cs, k, t, window)
                 for t in range(1, cs.T + 1))
