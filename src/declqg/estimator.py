"""Online execution: one walker for every linear policy, and the
delayed-sharing statistic.

``PolicyWalker`` runs any ``sim.Policy`` online on the realized signals;
``act`` gives each controller's action.  ``sim.StatisticPolicy``'s state is
the coordinator's state estimate ``stat``.  ``DelayedStatPolicy`` is the
paper's Ut~_t = L_t S_t for a protocol whose data is all common after one
delay k (``MemoryProtocol.window``): S_t = (xhat_{tau|tau-1}, c_tau,
Ut~_tau..Ut~_{t-1}), tau = t - k + 1, is the plant predictor
(``PlantModel.predictor``, strategy independent), the carrier at tau and
the coordinator's actions since, zero before tau = 1.  It moves by one
gain-independent linear map, and ``stat`` is a linear function of it, one
map per t (``delayed_stat_map``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (DimMismatch, TimeOutOfRange, UnsupportedProtocol,
                   as_index, as_vector, read_only)
from .coordination import CoordinatedSystem, LocalGains, _check_fits
from .infostructure import MemoryProtocol, _signal_tokens, token_trace
from .plant import PlantModel
from .sim import Policy, _check_policy
from .solver import SolvedStrategy, _check_one_strategy


# --------------------------------------------------------------------------
# the online walk of a linear policy


@dataclass(frozen=True)
class PolicyWalker:
    """Pure-value online runtime of a linear policy under protocol ``mp``:
    at time t the carrier c_t and the policy's state s_t, both zero at
    t = 1, and the policy's transition, not its gains.  ``advance`` returns
    the next walker, so one made by :meth:`start` can start many walks."""

    mp: MemoryProtocol
    transition: tuple       # (Ts, Tu, Tz), stacked over t = 1..rows
    t: int
    carrier: np.ndarray     # c_t, read only
    state: np.ndarray       # s_t, read only

    @classmethod
    def start(cls, mp: MemoryProtocol, policy: Policy) -> "PolicyWalker":
        """The walk of ``policy`` at t = 1; ``DimMismatch`` unless it has
        ``mp``'s T steps, sum d_u and d_z."""
        _check_policy(policy, mp.T, sum(mp.d_u), mp.d_z)
        return cls._at_one(mp, tuple(policy[1:]))

    @classmethod
    def _at_one(cls, mp: MemoryProtocol, transition: tuple):
        return cls(mp, transition, 1, read_only(np.zeros(mp.d_carrier)),
                   read_only(np.zeros(transition[0].shape[-1])))

    def advance(self, y_t, u_t, u_tilde_t) -> "PolicyWalker":
        """Move from t to t+1 after acting: Z_t = zc c_t + zy Y_t + zu U_t,
        c_{t+1} = cc c_t + cy Y_t + cu U_t, then s_{t+1};
        ``TimeOutOfRange`` when the transition has no row t."""
        mp, t = self.mp, as_index(self.t, "t")
        Ts, Tu, Tz = self.transition
        if not 1 <= t <= len(Ts):
            raise TimeOutOfRange(f"t={t} outside 1..{len(Ts)}")
        y = as_vector(y_t, sum(mp.d_y), "y_t")
        u = as_vector(u_t, sum(mp.d_u), "u_t")
        u_tilde = as_vector(u_tilde_t, sum(mp.d_u), "u_tilde_t")
        c, s = self.carrier, self.state
        z = mp.zc @ c + mp.zy @ y + mp.zu @ u
        return replace(self, t=t + 1,
                       carrier=read_only(mp.cc @ c + mp.cy @ y + mp.cu @ u),
                       state=read_only(Ts[t - 1] @ s + Tu[t - 1] @ u_tilde
                                       + Tz[t - 1] @ z))


def act(walk: PolicyWalker, policy: Policy, gains: LocalGains, y_local,
        m_local):
    """Per-controller actions U^i_t = L^i_t s_t + G^i_t Y^i_t + H^i_t M^i_t
    at the walk's t and state s_t, L the ``policy``'s (the one walked)."""
    mp, t, L = walk.mp, walk.t, policy.L
    _check_one_strategy(gains)
    if not 1 <= t <= len(L):
        raise TimeOutOfRange(f"t={t} outside 1..{len(L)}")
    if (L.shape[-1] != len(walk.state) or gains.H.shape[-1] != mp.d_m_total
            or gains.G.shape != (len(L), sum(mp.d_u), sum(mp.d_y))):
        raise DimMismatch("the policy or the local gains do not fit the walk")
    if len(y_local) != mp.n or len(m_local) != mp.n:
        raise DimMismatch("need one local observation and memory per controller")
    actions = []
    for i in range(mp.n):
        su = slice(sum(mp.d_u[:i]), sum(mp.d_u[:i + 1]))
        sy = slice(sum(mp.d_y[:i]), sum(mp.d_y[:i + 1]))
        y = as_vector(y_local[i], mp.d_y[i], f"y[{i}]")
        m = as_vector(m_local[i], mp.d_m[i], f"m[{i}]")
        u = L[t - 1][su, :] @ walk.state + gains.G[t - 1][su, sy] @ y
        if mp.d_m[i]:
            u = u + gains.H[t - 1][su, mp.m_slice(i)] @ m
        actions.append(u)
    return actions


# --------------------------------------------------------------------------
# delayed-sharing reduced statistic


def _pair_columns(mp: MemoryProtocol, k: int) -> np.ndarray:
    """The column of each row of Z_t, t >= k, in the pair (Y_tau, U_tau),
    tau = t - k + 1, read off Z_k's tokens, traced to step k alone (the
    protocol is time invariant); ``UnsupportedProtocol`` unless each is of
    step 1."""
    pair = _signal_tokens("y", mp.d_y, 1) + _signal_tokens("u", mp.d_u, 1)
    col = {tok: j for j, tok in enumerate(pair)}
    tokens = token_trace(replace(mp, T=k)).z[k]
    if any(tok not in col for tok in tokens):
        raise UnsupportedProtocol(f"Z_{k} holds more than the pair of step 1")
    return np.array([col[tok] for tok in tokens], dtype=int)


def _delay_transition(plant: PlantModel, mp):
    """Read-only (Ts, Tu, Tz), each stacked over t = 1..T, with S_{t+1} =
    Ts S_t + Tu Ut~_t + Tz Z_t; k is the protocol's ``window``
    (UnsupportedProtocol if it has none).  From t = k on, Z_t is the pair
    (Y_tau, U_tau), tau = t - k + 1, its rows in the protocol's order
    (``_pair_columns``), and the (xhat, c) rows move by
    blkdiag(A_tau - K_tau C_tau, cc) and take [[K_tau, B_tau], [cy, cu]]
    of the pair, K the gains of ``plant.predictor`` (strategy independent);
    they stay zero for t < k, before tau = 1.  The Ut~ window drops its
    oldest entry for the newest."""
    k = mp.window
    if k is None:
        raise UnsupportedProtocol(
            "delayed-sharing statistic needs one delay after which every "
            f"controller's data is common; protocol {mp.kind!r} has none")
    T, d_x, d_u = plant.T, plant.d_x, plant.d_u_total
    d = d_x + mp.d_carrier
    dim, tau = d + (k - 1) * d_u, slice(0, max(0, T - k + 1))
    Ts, Tu, Tz = (np.zeros((T, dim, w)) for w in (dim, d_u, mp.d_z))
    K, cols = plant.predictor[1][tau], _pair_columns(mp, k)
    Ts[k - 1:, :d_x, :d_x] = plant.A[tau] - K @ plant.C[tau]
    Ts[k - 1:, d_x:d, d_x:d] = mp.cc
    Tz[k - 1:, :d_x] = np.concatenate([K, plant.B[tau]], axis=2)[..., cols]
    Tz[k - 1:, d_x:d] = np.concatenate([mp.cy, mp.cu], axis=1)[:, cols]
    if k > 1:
        Ts[:, d:dim - d_u, d + d_u:] = np.eye(dim - d - d_u)
        Tu[:, dim - d_u:] = np.eye(d_u)
    return read_only(Ts), read_only(Tu), read_only(Tz)


def DelayedStatPolicy(ss: SolvedStrategy) -> Policy:
    """The paper's strategy Ut~_t = L_t S_t, L = ``delayed_stat_gains(ss,
    k)``, k the protocol's ``window`` (UnsupportedProtocol if none), S_t
    moved by ``_delay_transition``."""
    cs = ss.cs
    Ts, Tu, Tz = _delay_transition(cs.plant, cs.protocol)
    return Policy(delayed_stat_gains(ss, cs.protocol.window), Ts[:-1],
                  Tu[:-1], Tz[:-1])


class ReducedDelayStat(NamedTuple):
    """S_t as one vector (see the module docstring)."""
    value: np.ndarray

    def vector(self) -> np.ndarray:
        return self.value


class DelayedStatTracker(PolicyWalker):
    """The walker of S_t's transition over t = 1..T, made by ``create``
    without a strategy.  Only the benchmark's reference gate uses it,
    through ``create``, ``advance`` and ``stat().vector()``."""

    @staticmethod
    def create(plant: PlantModel, mp) -> "DelayedStatTracker":
        _check_fits(plant, mp)
        return DelayedStatTracker._at_one(mp, _delay_transition(plant, mp))

    def stat(self) -> ReducedDelayStat:
        return ReducedDelayStat(self.state)


def _check_stat_delay(cs: CoordinatedSystem, k: int) -> None:
    """Raise unless ``cs`` is one strategy's and ``k`` is its protocol's
    ``window`` (UnsupportedProtocol if the protocol has none)."""
    _check_one_strategy(cs.gains)
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
    """Read-only (T, d_state, dim S_t) array: entry t-1, M(t), takes the
    delayed statistic S_t to stat at time t; the pullback of the identity
    through M(t)'s steps (``_pullback``)."""
    _check_stat_delay(cs, k)
    return read_only(_pullback(cs, np.broadcast_to(
        np.eye(cs.d_state), (cs.T, cs.d_state, cs.d_state))))


def delayed_stat_gains(ss: SolvedStrategy, k: int):
    """Gains acting directly on S_t, one read-only (T, d_u, dim S_t) array:
    L_t = L~_t M(t), to rounding, with M(t) the ``delayed_stat_map``; each
    L~_t is pulled back through M(t)'s steps without forming the map."""
    _check_stat_delay(ss.cs, k)
    return read_only(_pullback(ss.cs, ss.Lgain))
