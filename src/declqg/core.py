"""Shared numeric foundations.

Dense matrices are plain ``numpy.ndarray`` objects (float64, 2-d); this module
adds the validation, block assembly, PSD roots, the square-root Kalman sweep
and deterministic random streams that the rest of the package builds on.
Everything here is a pure function or an immutable value, safe to share
across threads.
"""

from __future__ import annotations

import operator

import numpy as np

#: Relative rank cutoff of the filter's innovation covariances: an eigenvalue
#: at most ``DEFAULT_RTOL`` times the largest counts as zero.  Shared-memory
#: increments are noiseless functions of the state, so innovation covariances
#: are exactly rank deficient and a hard relative threshold is required; the
#: method fixes it, so every filter, predictor and oracle reads this one value.
DEFAULT_RTOL = 1e-9


class InvalidMatrix(ValueError):
    """Raised when a matrix argument is non-finite or badly shaped."""


class DimMismatch(ValueError):
    """Raised when operand dimensions are inconsistent."""


class TimeOutOfRange(IndexError):
    """Raised when a time index falls outside 1..T."""


class InvalidDelay(ValueError):
    """Raised for non-integer delays, delays < 1 or beyond the horizon."""


class WrongControllerCount(ValueError):
    """Raised when a builder requires a specific number of controllers."""


class UnsupportedProtocol(ValueError):
    """Raised when an operation needs a protocol family it was not given."""


class NumericalBreakdown(ArithmeticError):
    """Raised when a recursion produces a non-finite or indefinite matrix.

    Carries the 1-based step index ``t`` at which the breakdown occurred.
    """

    def __init__(self, message: str, t: int | None = None):
        super().__init__(message if t is None else f"{message} (t={t})")
        self.t = t


def as_matrix(value, rows: int | None = None, cols: int | None = None,
              name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite, read-only float64 2-d array.

    Scalars become 1x1.  If ``rows``/``cols`` are given, the shape is checked
    and a :class:`DimMismatch` raised on disagreement.  Booleans are not
    numbers here: an entry ``True`` raises :class:`InvalidMatrix`.
    """
    if _holds_bool(value):
        raise InvalidMatrix(f"{name}: entries must be numbers, not booleans")
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidMatrix(f"{name}: not a numeric matrix ({e})") from None
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim == 1:
        m = m.reshape(-1, 1) if cols == 1 else m.reshape(1, -1)
    if m.ndim != 2:
        raise InvalidMatrix(f"{name}: expected 2-d data, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise InvalidMatrix(f"{name}: contains non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise DimMismatch(f"{name}: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimMismatch(f"{name}: expected {cols} cols, got {m.shape[1]}")
    return read_only(m.copy())


def _holds_bool(value) -> bool:
    """True if ``value``, a scalar, array or nested list, holds a boolean."""
    if isinstance(value, np.ndarray):
        return value.dtype == bool or (value.dtype == object
                                       and any(map(_holds_bool, value.flat)))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_))


def read_only(m: np.ndarray) -> np.ndarray:
    """Mark ``m`` read only and return it."""
    m.flags.writeable = False
    return m


def as_vector(value, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """``value`` as a finite float64 vector, of ``dim`` entries if given;
    booleans and non-numbers raise :class:`InvalidMatrix`."""
    if _holds_bool(value):
        raise InvalidMatrix(f"{name}: entries must be numbers, not booleans")
    try:
        v = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError) as e:
        raise InvalidMatrix(f"{name}: not a numeric vector ({e})") from None
    if v.size and not np.isfinite(v).all():
        raise InvalidMatrix(f"{name}: contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimMismatch(f"{name}: expected dim {dim}, got {v.shape[0]}")
    return v


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix, or each matrix of a stack, suppressing round-off
    drift after Riccati steps."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def blkdiag(blocks) -> np.ndarray:
    """Block-diagonal assembly; zero-dimension blocks are first class."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _check_finite(m: np.ndarray, name: str, t: int) -> None:
    """Raise NumericalBreakdown at step ``t`` unless ``m`` is finite."""
    if not np.isfinite(m).all():
        raise NumericalBreakdown(f"{name} is not finite", t)


def _filter_sweep(A, C, noise, R1, start: int = 1, lent=None):
    """Square-root Kalman sweep over the n steps of C: P = R R', gains
    K_1..K_n, roots R_1..R_{n+1} (``R1``, or ``lent``'s up to R_start).
    ``noise[t-1]`` = (N_w; N_v) is a root of step t's (process, measurement)
    noise; a = [C R_t, N_v], b = [A R_t, N_w] give a a' = C P C' + V, cut
    at the relative rank ``DEFAULT_RTOL`` (s^2 > DEFAULT_RTOL s_max^2
    kept), K_t = b V_r S_r^-1 U_r', and a QR gives R_{t+1}, a PSD root of
    b (I - V_r V_r') b'."""
    n, d = C.shape[-3], A.shape[-1]
    roots = np.zeros(A.shape[:-3] + (n + 1, d, d))
    gains = np.empty(roots.shape[:-3] + (n, d, C.shape[-2]))
    roots[..., :start, :, :] = lent[0][:start] if start > 1 else R1
    gains[..., :start - 1, :, :] = lent[1][:start - 1] if start > 1 else 0.0
    AC = np.concatenate([A[..., :n, :, :], C], axis=-2)
    lower = np.tri(d, dtype=bool)
    for t in range(start, n + 1):
        pre = np.concatenate([AC[..., t - 1, :, :] @ roots[..., t - 1, :, :],
                              noise[..., t - 1, :, :]], axis=-1)
        _check_finite(pre, "filter pre-array", t)     # before LAPACK sees it
        b, a = pre[..., :d, :], pre[..., d:, :]
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        keep = s * s > DEFAULT_RTOL * s[..., :1] ** 2
        bv = b @ vh.swapaxes(-1, -2) * keep[..., None, :]
        gains[..., t - 1, :, :] = (bv / np.where(keep, s, 1.0)[..., None, :]
                                   @ u.swapaxes(-1, -2))
        h, _ = np.linalg.qr((b - bv @ vh).swapaxes(-1, -2), mode="raw")
        np.copyto(roots[..., t, :, :], h[..., :d], where=lower)  # R' of QR
        _check_finite(roots[..., t, :, :], "filter covariance root", t + 1)
    return roots @ roots.swapaxes(-1, -2), gains, roots


def eig_bounds(m: np.ndarray):
    """Min and max eigenvalue of a symmetric matrix or stack; 0, 0 if empty."""
    if m.size == 0:
        return 0.0, 0.0
    w = np.linalg.eigvalsh(sym(m))
    return w[..., 0][()], w[..., -1][()]     # scalars for one matrix


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Factor ``F`` with ``F F^T = m`` for PSD ``m`` (eigen based).  Round-off
    eigenvalues, at most ``matrix_rank``'s ``max eig * dim * eps``, count as
    zero, so ``F`` adds no noise along the null directions of ``m``."""
    if m.size == 0:
        return np.zeros_like(m)
    w, v = np.linalg.eigh(sym(m))
    w = np.where(w > w.max() * len(w) * np.finfo(float).eps, w, 0.0)
    return v * np.sqrt(w)


def as_index(value, name: str) -> int:
    """``value`` as an int; floats, bools and other non-integers raise.

    Integer-valued numpy scalars pass, through ``operator.index``.
    """
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def seeded_stream(seed: int, stream_index: int) -> np.random.Generator:
    """Deterministic random stream keyed by ``(seed, stream_index)``.

    Distinct pairs yield statistically independent streams; the same pair
    yields the identical sequence on every call and platform.
    """
    seed = as_index(seed, "seed")
    stream_index = as_index(stream_index, "stream_index")
    if seed < 0 or stream_index < 0:
        raise ValueError("seed and stream_index must be non-negative")
    return np.random.default_rng([seed, stream_index])


def as_covariance(value, dim: int, name: str = "covariance") -> np.ndarray:
    """Coerce ``value`` to a read-only ``dim`` x ``dim`` covariance.

    The matrix must be square, of the given size, symmetric and PSD.
    """
    cov = as_matrix(value, name=name)
    if cov.shape[0] != cov.shape[1]:
        raise InvalidMatrix(f"{name}: covariance must be square")
    if cov.shape[0] != dim:
        raise DimMismatch(f"{name}: expected dim {dim}, got {cov.shape[0]}")
    scale = np.abs(cov).max() if cov.size else 0.0
    if scale > np.finfo(float).max / 2:     # cov +- cov.T would overflow
        raise InvalidMatrix(f"{name}: covariance entries reach {scale:.3e}, "
                            "over half the largest float")
    if cov.size and np.abs(cov - cov.T).max() > 1e-12 * max(scale, 1.0):
        raise InvalidMatrix(f"{name}: covariance is not symmetric")
    lo, hi = eig_bounds(cov)
    if lo < -1e-10 * max(hi, 0.0) - 1e-300:
        raise InvalidMatrix(f"{name}: covariance is not PSD (min eig {lo:.3e})")
    return cov
