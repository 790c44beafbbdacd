"""Coordinator's centralized LQG system.

Fixing the local-gain matrices (G, H) turns the decentralized problem into a
centralized partially observed LQG problem for a coordinator that sees only
the shared-memory increments.  Its state is the plant state and the memory
carrier, xi_t = (X_t, c_t), and it observes Z_t at t + 1.  The control law
U_t = Ut~ + G_t C_t X_t + H_t M_t + G_t W_t carries the observation noise
W_t into the next state and into Z_t, so W_t is process noise correlated
with the measurement noise; it is independent of everything the coordinator
knows at t, so Y_t need not be part of the state.  G_t W_t also adds the
constant E[W_t' G_t' R G_t W_t] to each step's expected cost.  The
paired-noise equivalence oracle in :mod:`declqg.oracles` certifies the
reformulation state by state.
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
        """Validate T per-step lists of per-controller blocks."""
        def listed(seq, n, name, what):
            if not isinstance(seq, (list, tuple)) or len(seq) != n:
                raise DimMismatch(f"{name}: need {n} {what}")
            return seq

        def norm(seq, dims_cols, name):
            rows = []
            for t, per_ctrl in enumerate(
                    listed(seq, plant.T, name, "per-step lists"), 1):
                per_ctrl = listed(per_ctrl, plant.n, f"{name}[t={t}]", "blocks")
                rows.append([as_matrix(blk, plant.d_u[i], dims_cols[i],
                                       f"{name}[t={t}][{i}]")
                             for i, blk in enumerate(per_ctrl)])
            return rows

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
    """The coordinator's system on xi_t = (X_t, c_t); every sequence is one
    read-only array over t (T entries, or T-1), indexed at offset ``t-1``.

    ``A[t-1]``/``B[t-1]`` propagate xi into step t+1; the t = T entries are
    only ever multiplied into the zero terminal value matrix.  ``C[t-1]``
    (t = 1..T-1) maps xi_t to Z_t, the observation received at t+1.
    ``loc[t-1]`` = [G_t C_t, H_t m_sel] maps xi_t to U_t - Ut~ - G_t W_t.
    ``noise[t-1]`` maps the unit normals of (W0_t, W_t) to (process noise,
    measurement noise), so it is a root (N_w; N_v) of their covariance,
    and ``init_root`` is one of xi_1's, blkdiag(x1_root, 0).
    ``Q[t-1]``/``N[t-1]`` weight step t and ``noise_cost[t-1]`` =
    tr(Gw' R Gw), Gw = G_t times W_t's root, is its constant.  The
    step-invariant maps are read where they are stored: Ut~'s share of Z_t
    is ``protocol.zu`` and the control weight is ``plant.R``.  For a stack of gains every
    gain-dependent array carries its leading axes; ``B`` and ``init_root``
    do not depend on the gains, and every system of one plant and protocol
    object shares the same two arrays.
    """

    plant: PlantModel
    protocol: MemoryProtocol
    gains: LocalGains
    d_x: int
    d_c: int
    d_u: int
    d_z: int
    A: np.ndarray           # (T, d_state, d_state)
    B: np.ndarray           # (T, d_state, d_u)
    C: np.ndarray           # (T-1, d_z, d_state)
    noise: np.ndarray       # (T, d_state + d_z, d_x + sum d_y)
    Q: np.ndarray           # (T, d_state, d_state)
    N: np.ndarray           # (T, d_state, d_u)
    noise_cost: np.ndarray  # (T,)
    init_root: np.ndarray   # (d_state, d_state)
    loc: np.ndarray         # (T, d_u, d_state)

    @property
    def d_state(self) -> int:
        return self.d_x + self.d_c

    @property
    def T(self) -> int:
        return self.plant.T


def _check_fits(plant: PlantModel, mp: MemoryProtocol) -> None:
    """Raise ``DimMismatch`` unless ``mp`` fits ``plant``'s n, T, d_y, d_u."""
    if mp.n != plant.n or mp.T != plant.T:
        raise DimMismatch("protocol and plant disagree on n or T")
    if tuple(mp.d_y) != tuple(plant.d_y) or tuple(mp.d_u) != tuple(plant.d_u):
        raise DimMismatch("protocol and plant disagree on signal dims")


@dataclass(eq=False)
class _Kept:
    """What a plant keeps per protocol object, in ``plant._frames``: the
    gain-free frame (:func:`_frame`) and the coordinator's value sweep,
    which ``solver`` forms on first use and stores in ``value``."""

    frame: tuple
    value: tuple | None = None


def _kept(plant: PlantModel, mp: MemoryProtocol) -> _Kept:
    """``plant``'s entry for the protocol object ``mp``, made on first use."""
    held = plant._frames.get(mp)
    if held is None:
        _check_fits(plant, mp)
        held = plant._frames[mp] = _Kept(_frame(plant, mp))
    return held


def _frame(plant: PlantModel, mp: MemoryProtocol):
    """What ``build`` forms without reading the gains, fixed by the plant
    and the protocol alone, as read-only arrays over t: the rows
    (X_{t+1}, c_{t+1}, Z_t) from the columns (xi_t, W_t) that do not pass
    through U_t (A, (cy; zy) C, (cc; zc) and (cy; zy)), U_t's rows
    (B; cu; zu), their share B of xi_{t+1}, and xi_1's root
    blkdiag(x1_root, 0).  Kept on the plant per protocol object
    (:func:`_kept`); the first is stored once over t when the plant's A
    and C do not change over t."""
    T, d_x, d_y, d_u = plant.T, plant.d_x, plant.d_y_total, plant.d_u_total
    d_c, d_z = mp.d_carrier, mp.d_z
    d = d_x + d_c
    cz_y, cz_c = np.concatenate([mp.cy, mp.zy]), np.concatenate([mp.cc, mp.zc])
    steps = 1 if all((a.view(np.uint64) == a[:1].view(np.uint64)).all()
                     for a in (plant.A, plant.C)) else T
    free = np.zeros((steps, d + d_z, d + d_y))
    free[:, :d_x, :d_x] = plant.A[:steps]
    free[:, d_x:, :d_x] = cz_y @ plant.C[:steps]
    free[:, d_x:, d_x:d] = cz_c
    free[:, d_x:, d:] = cz_y
    to_u = read_only(np.concatenate([plant.B, np.broadcast_to(
        np.concatenate([mp.cu, mp.zu]), (T, d_c + d_z, d_u))], axis=1))
    return (np.broadcast_to(free, (T,) + free.shape[1:]), to_u, to_u[:, :d],
            read_only(blkdiag([plant.x1_root, np.zeros((d_c, d_c))])))


def build(plant: PlantModel, mp: MemoryProtocol, gains: LocalGains
          ) -> CoordinatedSystem:
    """Assemble the coordinated system for fixed local gains, all t at once,
    on the gain-free frame of ``plant`` and ``mp`` (:func:`_frame`)."""
    free, to_u, B, init_root = _kept(plant, mp).frame
    T, d_x, d_y, d_u = plant.T, plant.d_x, plant.d_y_total, plant.d_u_total
    d = B.shape[-2]
    if gains.G.shape[-3:] != (T, d_u, d_y) or \
            gains.H.shape[-3:] != (T, d_u, mp.d_m_total):
        raise DimMismatch("local gains were made for another plant or protocol")
    G, Hc, root = gains.G, gains.H @ mp.m_sel, plant.noise_root
    # U_t = Ut~ + loc_t xi_t + G_t W_t
    loc = np.concatenate([G @ plant.C, Hc], axis=-1)
    # rows (X_{t+1}, c_{t+1}, Z_t) from columns (xi_t, W_t): the frame's
    # share that does not pass through U_t, plus U_t's through (B, cu, zu)
    step = free + to_u @ np.concatenate([loc, G], axis=-1)
    # W0_t enters X_{t+1} alone, W_t every row through step's W_t columns
    noise = np.zeros(step.shape[:-1] + (d_x + d_y,))
    noise[..., :d_x, :d_x] = root[:, :d_x, :d_x]
    noise[..., d_x:] = step[..., d:] @ root[:, d_x:, d_x:]
    N = loc.swapaxes(-1, -2) @ plant.R
    Q = N @ loc
    Q[..., :d_x, :d_x] += plant.Q
    Gw = G @ root[:, d_x:, d_x:]
    noise_cost = np.sum(Gw * (plant.R @ Gw), axis=(-2, -1))
    return CoordinatedSystem(
        plant=plant, protocol=mp, gains=gains, d_x=d_x, d_c=mp.d_carrier,
        d_u=d_u, d_z=mp.d_z, A=read_only(step[..., :d, :d]), B=B,
        C=read_only(step[..., :-1, d:, :d]), noise=read_only(noise),
        Q=read_only(sym(Q)), N=read_only(N), noise_cost=read_only(noise_cost),
        init_root=init_root, loc=read_only(loc))
