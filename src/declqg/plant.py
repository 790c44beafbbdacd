"""Decentralized plant: dynamics, per-controller observations, quadratic cost.

The system runs over t = 1..T (1-based, matching the usual control-theory
indexing; stored sequences use python index ``t - 1``):

    X_{t+1} = A_t X_t + B_t U_t + W0_t        X_1 ~ N(0, sigma_x)
    Y^i_t   = C^i_t X_t + W^i_t               W^i_t ~ N(0, sigma_w^i)
    l(X, U) = X' Q X + U' R U
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DEFAULT_RTOL, DimMismatch, InvalidMatrix, _filter_sweep,
                   as_covariance, as_index, as_matrix, as_vector, blkdiag,
                   eig_bounds, psd_sqrt, read_only)


def _per_step(value, T, rows, cols, name):
    """One read-only (T, rows, cols) array: a single matrix is validated and
    stored once (stride 0 over t), a length-T sequence is stacked."""
    if isinstance(value, np.ndarray):
        nested = value.ndim == 3
    else:
        try:
            nested = isinstance(value, (list, tuple)) and len(value) and \
                np.asarray(value[0], dtype=float).ndim >= 2
        except (TypeError, ValueError) as e:
            raise InvalidMatrix(f"{name}: not a numeric matrix ({e})") from None
    if not nested:
        return np.broadcast_to(as_matrix(value, rows, cols, f"{name}[t=1]"),
                               (T, rows, cols))
    if len(value) != T:
        raise DimMismatch(f"{name}: expected {T} per-step matrices, got {len(value)}")
    return read_only(np.stack([as_matrix(m, rows, cols, f"{name}[t={t + 1}]")
                               for t, m in enumerate(value)]))


def _lists(value, n):
    """True when ``value`` is a list, tuple or array of ``n`` entries."""
    return isinstance(value, (list, tuple, np.ndarray)) and \
        getattr(value, "ndim", 1) > 0 and len(value) == n


@dataclass(frozen=True)
class PlantModel:
    """Immutable container for the plant data; see module docstring.

    Every array is read only.  ``A``, ``B`` and ``C`` are (T, rows, cols)
    arrays read at offset ``t-1``; a constant map is stored once, with
    stride 0 over t.  ``C[t-1]`` stacks all controllers' observation maps
    (controller i owns rows ``y_slice(i)``) and ``sigma_w`` is the
    block-diagonal covariance of the stacked observation noise.
    """

    n: int
    T: int
    d_x: int
    d_u: tuple[int, ...]
    d_y: tuple[int, ...]
    A: np.ndarray   # (T, d_x, d_x)
    B: np.ndarray   # (T, d_x, sum d_u)
    C: np.ndarray   # (T, sum d_y, d_x)
    Q: np.ndarray
    R: np.ndarray
    sigma_x: np.ndarray
    sigma_w0: np.ndarray
    sigma_w: np.ndarray

    @staticmethod
    def create(n, T, d_x, d_u, d_y, A, B, C, Q, R,
               sigma_x, sigma_w0, sigma_w) -> "PlantModel":
        """Build and validate a plant from per-controller ``C`` and
        ``sigma_w``; integer dims, constant matrices broadcast over t."""
        n, T, d_x = as_index(n, "n"), as_index(T, "T"), as_index(d_x, "d_x")
        if n < 1 or T < 1:
            raise DimMismatch("need n >= 1 controllers and horizon T >= 1")
        if d_x < 1:
            raise DimMismatch(f"d_x must be >= 1, got {d_x}")
        d_u = tuple(as_index(d, "d_u") for d in d_u)
        d_y = tuple(as_index(d, "d_y") for d in d_y)
        if len(d_u) != n or len(d_y) != n:
            raise DimMismatch("d_u and d_y must list one dim per controller")
        du = sum(d_u)
        A_seq = _per_step(A, T, d_x, d_x, "A")
        B_seq = _per_step(B, T, d_x, du, "B")
        if not _lists(C, n):
            raise DimMismatch("C must list one observation map per controller")
        C_seq = read_only(np.concatenate(
            [_per_step(C[i], T, d_y[i], d_x, f"C[{i}]") for i in range(n)],
            axis=1))
        Q = as_matrix(Q, d_x, d_x, "Q")
        R = as_matrix(R, du, du, "R")
        q_lo, _ = eig_bounds(Q)
        if q_lo < -1e-10 * max(abs(Q).max(), 1.0):
            raise DimMismatch("Q must be positive semi-definite")
        r_lo, _ = eig_bounds(R)
        if r_lo <= 0:
            raise DimMismatch("R must be positive definite")
        sigma_x = as_covariance(sigma_x, d_x, "sigma_x")
        sigma_w0 = as_covariance(sigma_w0, d_x, "sigma_w0")
        if not _lists(sigma_w, n):
            raise DimMismatch("sigma_w must list one covariance per controller")
        sigma_w = read_only(blkdiag([
            as_covariance(sigma_w[i], d_y[i], f"sigma_w[{i}]")
            for i in range(n)]))
        return PlantModel(n, T, d_x, d_u, d_y, A_seq, B_seq, C_seq,
                          Q, R, sigma_x, sigma_w0, sigma_w)

    @cached_property
    def x1_root(self) -> np.ndarray:
        """Root of ``sigma_x``, the covariance of X_1."""
        return read_only(psd_sqrt(self.sigma_x))

    @cached_property
    def noise_root(self) -> np.ndarray:
        """Root of the covariance of (W0_t, W_t), stored once over t."""
        root = blkdiag([psd_sqrt(self.sigma_w0), psd_sqrt(self.sigma_w)])
        return np.broadcast_to(root, (self.T,) + root.shape)

    @cached_property
    def _predictors(self) -> dict:
        return {}

    @cached_property
    def _frames(self) -> dict:
        """The coordinator's gain-free frame per protocol object, kept by
        ``coordination._frame``: id(protocol) -> (protocol, frame).  Like
        the predictors it lives in this object's ``__dict__``, so a plant
        made by ``dataclasses.replace`` starts with none."""
        return {}

    def predictor(self, rtol: float = DEFAULT_RTOL):
        """The plant-level one-step-ahead Kalman predictor, which never
        reads the local gains: read-only covariances P_1..P_{T+1}
        (P_1 = sigma_x), shape (T+1, d_x, d_x), gains K_1..K_T, shape
        (T, d_x, sum d_y), and roots R_1..R_{T+1} (P = R R') of the
        square-root sweep at relative rank cutoff ``rtol``, run once per
        ``rtol`` and kept on the plant, so every call at one ``rtol``
        returns the same arrays.  The window form of the coordinator's
        filter and the delayed statistic both read it."""
        if rtol not in self._predictors:
            self._predictors[rtol] = tuple(map(read_only, _filter_sweep(
                self.A, self.C, self.noise_root, self.x1_root, rtol)))
        return self._predictors[rtol]

    # -- dimension helpers -------------------------------------------------
    @property
    def d_u_total(self) -> int:
        return sum(self.d_u)

    @property
    def d_y_total(self) -> int:
        return sum(self.d_y)

    def u_slice(self, i: int) -> slice:
        off = sum(self.d_u[:i])
        return slice(off, off + self.d_u[i])

    def y_slice(self, i: int) -> slice:
        off = sum(self.d_y[:i])
        return slice(off, off + self.d_y[i])

    def step_cost(self, x, u) -> float:
        """x' Q x + u' R u."""
        x = as_vector(x, self.d_x, "x")
        u = as_vector(u, self.d_u_total, "u")
        return float(x @ self.Q @ x + u @ self.R @ u)
