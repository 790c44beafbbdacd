import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import LocalGains, PlantModel, build_symmetric_delay
from declqg.core import (InvalidMatrix, as_covariance,
                         as_matrix, as_vector, blkdiag, eig_bounds, psd_sqrt,
                         seeded_stream, sym)

from conftest import scalar_two_controller


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


def test_eig_bounds_on_stacks():
    rng = np.random.default_rng(5)
    f = rng.standard_normal((4, 3, 3))
    m = f @ f.swapaxes(-1, -2) + np.eye(3)
    lo, hi = eig_bounds(m)
    assert lo.shape == hi.shape == (4,)
    assert isinstance(eig_bounds(m[0])[0], float)


@pytest.mark.parametrize("value", [
    [[True, False]], True, np.bool_(False), [[1.0, np.True_]],
    np.array([[1, 0]], dtype=bool), np.array([[0.5, True]], dtype=object),
    ([0.5], (1.0, False))])
def test_as_matrix_rejects_booleans(value):
    with pytest.raises(InvalidMatrix, match="not booleans"):
        as_matrix(value, name="M")


def test_booleans_are_rejected_by_the_python_api():
    p = scalar_two_controller(T=2)
    with pytest.raises(InvalidMatrix):
        as_covariance([[True]], 1)
    with pytest.raises(InvalidMatrix):
        PlantModel.create(
            n=2, T=2, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[True]],
            B=[[1.0, 0.5]], C=[[[1.0]], [[0.7]]], Q=[[1.0]], R=np.eye(2),
            sigma_x=[[1.0]], sigma_w0=[[0.4]], sigma_w=[[[0.2]], [[0.3]]])
    mp = build_symmetric_delay(p, 1)
    zero_h = [np.zeros((1, d)) for d in mp.d_m]
    with pytest.raises(InvalidMatrix):
        LocalGains.create(p, mp, [[[[True]], [[0.5]]]] * 2, [zero_h] * 2)


@pytest.mark.parametrize("value, message", [
    (True, "entries must be numbers"), ("x", "not a numeric vector"),
    (np.array([1, 0], dtype=bool), "entries must be numbers")],
    ids=["bool", "string", "bool-array"])
def test_as_vector_rejects_booleans_and_strings(value, message):
    with pytest.raises(InvalidMatrix, match=f"^v: {message}"):
        as_vector(value, name="v")


def test_as_vector_callers_reject_booleans():
    # theta and the plant's step cost read their input through as_vector,
    # which once took True as 1.0
    p = scalar_two_controller(T=2)
    mp = build_symmetric_delay(p, 1)
    with pytest.raises(InvalidMatrix, match="theta"):
        LocalGains.from_vector(p, mp, [True] * 4)
    with pytest.raises(InvalidMatrix, match="theta"):
        LocalGains.from_vector(p, mp, "abcd")
    with pytest.raises(InvalidMatrix, match="^x: "):
        p.step_cost([True], [True, False])
