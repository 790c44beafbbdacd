import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import PlantModel
from declqg.core import DimMismatch

from conftest import random_plant, random_psd


def small_plant(**over):
    kw = dict(n=2, T=3, d_x=2, d_u=(1, 1), d_y=(1, 1),
              A=np.eye(2), B=np.ones((2, 2)),
              C=[[[1.0, 0.0]], [[0.0, 1.0]]],
              Q=np.eye(2), R=np.eye(2), sigma_x=np.eye(2),
              sigma_w0=np.eye(2), sigma_w=[[[1.0]], [[1.0]]])
    kw.update(over)
    return PlantModel.create(**kw)


def test_stacked_c_stacks_rows():
    p = PlantModel.create(
        n=2, T=2, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[1.0]], B=[[1.0, 1.0]],
        C=[[[1.0]], [[1.0]]], Q=[[1.0]], R=np.eye(2), sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]], [[1.0]]])
    assert_allclose(p.C[0], [[1.0], [1.0]])


def test_stacked_c_single_controller_unchanged():
    p = PlantModel.create(
        n=1, T=2, d_x=2, d_u=(1,), d_y=(2,), A=np.eye(2), B=[[1.0], [0.0]],
        C=[np.array([[1.0, 2.0], [3.0, 4.0]])], Q=np.eye(2), R=[[1.0]],
        sigma_x=np.eye(2), sigma_w0=np.eye(2), sigma_w=[np.eye(2)])
    assert_allclose(p.C[0], [[1.0, 2.0], [3.0, 4.0]])


def test_stacked_c_complementary_rows_identity():
    p = small_plant()
    assert_allclose(p.C[1], np.eye(2))


def test_stacked_c_blocks_reconstruct():
    rng = np.random.default_rng(0)
    d_y, T = (2, 1, 3), 4
    C = [[rng.standard_normal((d, 2)) for _ in range(T)] for d in d_y]
    S = [random_psd(rng, d) for d in d_y]
    p = small_plant(n=3, T=T, d_u=(1, 1, 1), d_y=d_y, B=np.ones((2, 3)),
                    R=np.eye(3), C=C, sigma_w=S)
    assert len(p.C) == T
    for i in range(p.n):
        ys = p.y_slice(i)
        for t in range(1, T + 1):
            assert p.C[t - 1].shape == (sum(d_y), 2)
            assert np.array_equal(p.C[t - 1][ys], C[i][t - 1])
        assert np.array_equal(p.sigma_w[ys, ys], S[i])
        off = np.ones(sum(d_y), dtype=bool)
        off[ys] = False
        assert np.all(p.sigma_w[ys][:, off] == 0.0)


def test_step_cost_zero():
    assert small_plant().step_cost([0, 0], [0, 0]) == 0.0


def test_step_cost_direct_values():
    p = PlantModel.create(
        n=2, T=1, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[1.0]], B=[[1.0, 1.0]],
        C=[[[1.0]], [[1.0]]], Q=[[1.0]], R=np.eye(2), sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]], [[1.0]]])
    assert p.step_cost([2.0], [1.0, 1.0]) == pytest.approx(6.0)

    p2 = PlantModel.create(
        n=1, T=1, d_x=2, d_u=(1,), d_y=(1,), A=np.eye(2), B=[[1.0], [0.0]],
        C=[[[1.0, 0.0]]], Q=np.diag([1.0, 0.0]), R=[[2.0]],
        sigma_x=np.eye(2), sigma_w0=np.eye(2), sigma_w=[[[1.0]]])
    assert p2.step_cost([0.0, 5.0], [3.0]) == pytest.approx(18.0)


def test_step_cost_lower_bound():
    rng = np.random.default_rng(5)
    p = random_plant(rng, n=2, d_u=(2, 1))
    lam = np.linalg.eigvalsh(p.R).min()
    for _ in range(20):
        x = rng.standard_normal(p.d_x)
        u = rng.standard_normal(p.d_u_total)
        assert p.step_cost(x, u) >= lam * (u @ u) - 1e-12


def test_step_cost_dim_mismatch():
    with pytest.raises(DimMismatch):
        small_plant().step_cost([1.0], [0.0, 0.0])


def test_rejects_non_pd_R():
    with pytest.raises(DimMismatch):
        small_plant(R=np.diag([1.0, 0.0]))


def test_rejects_indefinite_Q():
    with pytest.raises(DimMismatch):
        small_plant(Q=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_time_varying_sequences():
    A = [np.eye(2) * (1 + 0.1 * t) for t in range(3)]
    p = small_plant(A=A)
    assert_allclose(p.A[2], np.eye(2) * 1.2)
    with pytest.raises(DimMismatch):
        small_plant(A=A[:2])


def test_constant_broadcast():
    p = small_plant()
    for t in range(1, p.T + 1):
        assert_allclose(p.A[t - 1], np.eye(2))
    # a constant map is stored once; a time-varying one is stacked
    assert p.A.shape == (p.T, 2, 2) and p.A.strides[0] == 0
    assert small_plant(A=[np.eye(2)] * 3).A.strides[0] > 0


@pytest.mark.parametrize("field, message", [("C", "C must list"),
                                            ("sigma_w", "sigma_w must list")])
def test_zero_d_array_rejected(field, message):
    with pytest.raises(DimMismatch, match=message):
        small_plant(**{field: np.array(5.0)})
