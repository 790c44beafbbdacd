import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg.core import (InvalidMatrix, as_covariance, as_matrix, blkdiag,
                         eig_bounds, pinv, psd_sqrt, seeded_stream, sym)


def penrose_residual(m, mi):
    smax = max(np.linalg.svd(m, compute_uv=False).max(), 1e-300) if m.size else 1.0
    return max(
        np.abs(m @ mi @ m - m).max(initial=0.0),
        np.abs(mi @ m @ mi - mi).max(initial=0.0),
        np.abs((m @ mi).T - m @ mi).max(initial=0.0),
        np.abs((mi @ m).T - mi @ m).max(initial=0.0),
    ) / smax


def test_pinv_identity():
    assert_allclose(pinv(np.eye(3), 1e-9), np.eye(3))


def test_pinv_zero_matrix():
    assert_allclose(pinv(np.zeros((2, 2)), 1e-9), np.zeros((2, 2)))


def test_pinv_rank_deficient_diagonal():
    m = np.diag([2.0, 0.0])
    mi = pinv(m, 1e-9)
    assert_allclose(mi, np.diag([0.5, 0.0]))
    assert penrose_residual(m, mi) < 1e-9


@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 5)])
def test_pinv_penrose_identities_random(shape):
    rng = np.random.default_rng(1)
    for k in range(5):
        m = rng.standard_normal(shape)
        if k % 2:  # force rank deficiency
            m[:, -1] = m[:, 0]
        assert penrose_residual(m, pinv(m)) < 1e-9


def test_pinv_involution():
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = rng.standard_normal((4, 3))
        smax = np.linalg.svd(m, compute_uv=False).max()
        assert np.abs(pinv(pinv(m)) - m).max() < 1e-8 * smax


def test_pinv_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pinv_rejects_bad_rtol():
    with pytest.raises(ValueError):
        pinv(np.eye(2), rtol=0.0)


def test_pinv_cutoff_drops_small_singular_values():
    m = np.diag([1.0, 1e-12])
    assert_allclose(pinv(m, rtol=1e-9), np.diag([1.0, 0.0]))
    assert_allclose(pinv(m, rtol=1e-15), np.diag([1.0, 1e12]), rtol=1e-6)


def test_seeded_stream_deterministic():
    a = seeded_stream(7, 0).standard_normal(32)
    b = seeded_stream(7, 0).standard_normal(32)
    assert np.array_equal(a, b)


def test_seeded_stream_separation():
    a = seeded_stream(7, 0).standard_normal(32)
    b = seeded_stream(7, 1).standard_normal(32)
    assert not np.array_equal(a, b)


def test_seeded_stream_law_of_large_numbers():
    x = seeded_stream(1, 0).standard_normal(100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


def test_seeded_stream_rejects_negative():
    with pytest.raises(ValueError):
        seeded_stream(-1, 0)


def test_gaussian_spec_accepts_psd():
    cov = as_covariance([[2.0, 1.0], [1.0, 2.0]], 2)
    assert cov.shape == (2, 2)


def test_gaussian_spec_rejects_asymmetric():
    with pytest.raises(InvalidMatrix):
        as_covariance([[1.0, 0.5], [0.0, 1.0]], 2)


def test_gaussian_spec_rejects_indefinite():
    with pytest.raises(InvalidMatrix):
        as_covariance([[1.0, 2.0], [2.0, 1.0]], 2)


def test_gaussian_spec_accepts_zero_covariance():
    as_covariance(np.zeros((2, 2)), 2)


def test_blkdiag_handles_zero_dims():
    out = blkdiag([np.zeros((0, 0)), np.eye(2), np.zeros((1, 0))])
    assert out.shape == (3, 2)
    assert_allclose(out[:2], np.eye(2))


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 2))
    m = f @ f.T
    root = psd_sqrt(m)
    assert_allclose(root @ root.T, m, atol=1e-12)


def test_sym_and_eig_bounds():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = sym(m)
    assert np.array_equal(s, s.T)
    lo, hi = eig_bounds(np.diag([1.0, 3.0]))
    assert lo == 1.0 and hi == 3.0


def test_as_matrix_is_readonly():
    m = as_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
