import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg.core import (InvalidMatrix, NumericalBreakdown, as_covariance,
                         as_matrix, blkdiag, eig_bounds, pinv,
                         psd_sqrt, seeded_stream, solve_pd, sym)


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


@pytest.mark.parametrize("seed, index, name", [
    (1.5, 0, "seed"), (1.0, 0, "seed"), (True, 0, "seed"), ("1", 0, "seed"),
    (0, 2.5, "stream_index"), (0, False, "stream_index")])
def test_seeded_stream_rejects_non_integers(seed, index, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        seeded_stream(seed, index)


def test_seeded_stream_accepts_numpy_integers():
    a = seeded_stream(np.int64(7), np.uint8(3)).standard_normal(8)
    assert np.array_equal(a, seeded_stream(7, 3).standard_normal(8))


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


def test_psd_sqrt_has_no_component_along_null_space():
    # eigh returns round-off eigenvalues (about 1e-16 here) for the null
    # directions of a rank-1 matrix; they must not become noise
    f = np.array([[1.0], [-2.0], [0.5]])
    null = np.linalg.svd(f.T)[2][1:]
    root = psd_sqrt(f @ f.T)
    assert np.abs(null @ root).max() <= 1e-15


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


def test_pinv_of_a_stack_cuts_each_matrix_at_its_own_scale():
    # 1e-12 is dropped beside 1 but kept when it is the largest value
    stack = np.array([np.diag([1.0, 1e-12]), np.diag([1e-12, 1e-12])])
    out = pinv(stack, rtol=1e-9)
    assert out.shape == (2, 2, 2)
    assert_allclose(out[0], np.diag([1.0, 0.0]))
    assert_allclose(out[1], np.diag([1e12, 1e12]))


def test_pinv_of_a_stack_is_bitwise_each_matrix():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 2, 4, 3))
    out = pinv(stack)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(out[idx], pinv(stack[idx]))
    assert pinv(np.zeros((5, 0, 2))).shape == (5, 2, 0)
    with pytest.raises(InvalidMatrix):
        pinv(np.where(np.arange(24).reshape(2, 3, 4) == 7, np.nan, 1.0))


def test_solve_pd_on_stacks():
    rng = np.random.default_rng(5)
    f = rng.standard_normal((4, 3, 3))
    m = f @ f.swapaxes(-1, -2) + np.eye(3)
    rhs = rng.standard_normal((4, 3, 2))
    x = solve_pd(m, rhs)
    for i in range(4):
        assert np.array_equal(x[i], solve_pd(m[i], rhs[i]))
    bad = m.copy()
    bad[2] = -np.eye(3)
    with pytest.raises(NumericalBreakdown) as err:
        solve_pd(bad, rhs, t=7)
    assert err.value.t == 7
    lo, hi = eig_bounds(m)
    assert lo.shape == hi.shape == (4,)
    assert isinstance(eig_bounds(m[0])[0], float)
