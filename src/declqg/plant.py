"""Decentralized plant: dynamics, per-controller observations, quadratic cost.

The system runs over t = 1..T (1-based, matching the usual control-theory
indexing; stored sequences use python index ``t - 1``):

    X_{t+1} = A_t X_t + B_t U_t + W0_t        X_1 ~ N(0, sigma_x)
    Y^i_t   = C^i_t X_t + W^i_t               W^i_t ~ N(0, sigma_w[i])
    l(X, U) = X' Q X + U' R U
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DimMismatch, GaussianSpec, TimeOutOfRange, as_matrix,
                   as_vector, blkdiag, eig_bounds)


def _per_step(value, T, rows, cols, name):
    """Broadcast a single matrix over t or validate a length-T sequence."""
    if isinstance(value, np.ndarray):
        seq = list(value) if value.ndim == 3 else [value] * T
    elif isinstance(value, (list, tuple)) and len(value) and \
            np.asarray(value[0], dtype=float).ndim >= 2:
        seq = list(value)
    else:
        seq = [value] * T
    if len(seq) != T:
        raise DimMismatch(f"{name}: expected {T} per-step matrices, got {len(seq)}")
    return tuple(as_matrix(m, rows, cols, f"{name}[t={t + 1}]")
                 for t, m in enumerate(seq))


@dataclass(frozen=True)
class PlantModel:
    """Immutable container for the plant data; see module docstring."""

    n: int
    T: int
    d_x: int
    d_u: tuple[int, ...]
    d_y: tuple[int, ...]
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[tuple[np.ndarray, ...], ...]   # C[i][t-1]
    Q: np.ndarray
    R: np.ndarray
    sigma_x: np.ndarray
    sigma_w0: np.ndarray
    sigma_w: tuple[np.ndarray, ...]

    @staticmethod
    def create(n, T, d_x, d_u, d_y, A, B, C, Q, R,
               sigma_x, sigma_w0, sigma_w) -> "PlantModel":
        """Build and validate a plant.  Constant matrices broadcast over t."""
        n = int(n)
        T = int(T)
        if n < 1 or T < 1:
            raise DimMismatch("need n >= 1 controllers and horizon T >= 1")
        d_u = tuple(int(d) for d in d_u)
        d_y = tuple(int(d) for d in d_y)
        if len(d_u) != n or len(d_y) != n:
            raise DimMismatch("d_u and d_y must list one dim per controller")
        du = sum(d_u)
        A_seq = _per_step(A, T, d_x, d_x, "A")
        B_seq = _per_step(B, T, d_x, du, "B")
        if len(C) != n:
            raise DimMismatch("C must list one observation map per controller")
        C_seq = tuple(_per_step(C[i], T, d_y[i], d_x, f"C[{i}]")
                      for i in range(n))
        Q = as_matrix(Q, d_x, d_x, "Q")
        R = as_matrix(R, du, du, "R")
        q_lo, _ = eig_bounds(Q)
        if q_lo < -1e-10 * max(abs(Q).max(), 1.0):
            raise DimMismatch("Q must be positive semi-definite")
        r_lo, _ = eig_bounds(R)
        if r_lo <= 0:
            raise DimMismatch("R must be positive definite")
        sigma_x = GaussianSpec(np.zeros(d_x), sigma_x, "sigma_x").covariance
        sigma_w0 = GaussianSpec(np.zeros(d_x), sigma_w0, "sigma_w0").covariance
        if len(sigma_w) != n:
            raise DimMismatch("sigma_w must list one covariance per controller")
        sigma_w = tuple(
            GaussianSpec(np.zeros(d_y[i]), sigma_w[i], f"sigma_w[{i}]").covariance
            for i in range(n))
        return PlantModel(n, T, int(d_x), d_u, d_y, A_seq, B_seq, C_seq,
                          Q, R, sigma_x, sigma_w0, sigma_w)

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

    def _check_t(self, t: int) -> int:
        if not 1 <= t <= self.T:
            raise TimeOutOfRange(f"t={t} outside 1..{self.T}")
        return t

    # -- per-step accessors (1-based t) ------------------------------------
    def A_at(self, t: int) -> np.ndarray:
        return self.A[self._check_t(t) - 1]

    def B_at(self, t: int) -> np.ndarray:
        return self.B[self._check_t(t) - 1]

    def C_at(self, i: int, t: int) -> np.ndarray:
        return self.C[i][self._check_t(t) - 1]

    def stacked_c(self, t: int) -> np.ndarray:
        """Vertical stack of all controllers' observation maps at time t."""
        self._check_t(t)
        return np.vstack([self.C[i][t - 1] for i in range(self.n)])

    def stacked_sigma_w(self) -> np.ndarray:
        return blkdiag(self.sigma_w)

    def step_cost(self, x, u) -> float:
        """x' Q x + u' R u."""
        x = as_vector(x, self.d_x, "x")
        u = as_vector(u, self.d_u_total, "u")
        return float(x @ self.Q @ x + u @ self.R @ u)
