import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (LocalGains, NumericalBreakdown, PlantModel,
                    build, build_symmetric_delay, closed_loop_cost_exact,
                    explicit_protocol, exact_cost, forward_riccati,
                    backward_riccati, performance, reduce_gains, solve)

from conftest import random_plant, scalar_two_controller


def noiseless_plant(T=4):
    return PlantModel.create(
        n=2, T=T, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[0.9]], B=[[1.0, 0.5]],
        C=[[[1.0]], [[0.7]]], Q=[[1.0]], R=np.eye(2), sigma_x=[[0.0]],
        sigma_w0=[[0.0]], sigma_w=[[[0.0]], [[0.0]]])


def nothing_shared_protocol(plant):
    blocks = []
    for i in range(plant.n):
        d_y, d_u = plant.d_y[i], plant.d_u[i]
        blocks.append({
            "mm": np.zeros((0, 0)), "my": np.zeros((0, d_y)),
            "mu": np.zeros((0, d_u)), "zm": np.zeros((0, 0)),
            "zy": np.zeros((0, d_y)), "zu": np.zeros((0, d_u))})
    return explicit_protocol(plant, blocks, kind="nothing_shared")


def test_forward_riccati_deterministic_system_is_zero():
    p = noiseless_plant()
    mp = build_symmetric_delay(p, 1)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    P, gains = forward_riccati(cs)
    for Pt in P:
        assert_allclose(Pt, 0.0, atol=1e-15)


def test_forward_riccati_open_loop_when_nothing_shared():
    rng = np.random.default_rng(13)
    p = random_plant(rng, n=2, d_x=2, T=5)
    mp = nothing_shared_protocol(p)
    assert mp.d_z == 0
    cs = build(p, mp, LocalGains.zeros(p, mp))
    P, _ = forward_riccati(cs)
    expect = cs.init_cov
    for t in range(1, p.T):
        assert_allclose(P[t - 1], expect, atol=1e-12)
        expect = cs.A[t - 1] @ expect @ cs.A[t - 1].T + cs.SigW[t - 1]
    assert_allclose(P[p.T - 1], expect, atol=1e-12)


def test_initial_covariance_is_exact_augmented_covariance(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    C1 = scalar2.C[0]
    sw = scalar2.sigma_w
    assert_allclose(cs.init_cov[:1, :1], scalar2.sigma_x)
    assert_allclose(cs.init_cov[:1, 1:], scalar2.sigma_x @ C1.T)
    assert_allclose(cs.init_cov[1:, 1:], C1 @ scalar2.sigma_x @ C1.T + sw)


def test_backward_riccati_zero_state_cost():
    p = dataclasses.replace(scalar_two_controller(), Q=np.zeros((1, 1)))
    mp = build_symmetric_delay(p, 1)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    S, lam, K = backward_riccati(cs)
    for t in range(p.T):
        assert_allclose(S[t], 0.0, atol=1e-14)
        assert_allclose(K[t], 0.0, atol=1e-14)


def test_terminal_step_gain_is_static_cross_term():
    # T = 1 with nonzero G: K~_1 = -R~^{-1} N~' via the S_{T+1} = 0 convention
    p = scalar_two_controller(T=1)
    mp = build_symmetric_delay(p, 1)
    rng = np.random.default_rng(14)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    _, _, K = backward_riccati(cs)
    assert_allclose(K[0], -np.linalg.solve(cs.plant.R, cs.N[0].T))


def test_performance_zero_cases():
    p = noiseless_plant()
    mp = build_symmetric_delay(p, 1)
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    assert ss.J == pytest.approx(0.0, abs=1e-14)

    p2 = dataclasses.replace(scalar_two_controller(), Q=np.zeros((1, 1)))
    mp2 = build_symmetric_delay(p2, 1)
    ss2 = solve(p2, mp2, LocalGains.zeros(p2, mp2))
    assert ss2.J == pytest.approx(0.0, abs=1e-14)


def test_uncontrollable_input_gives_zero_gain_and_open_loop_cost():
    p = scalar_two_controller()
    p = dataclasses.replace(p, B=np.zeros((p.T, 1, 2)))
    mp = build_symmetric_delay(p, 2)
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    for K in ss.Kgain:
        assert_allclose(K, 0.0, atol=1e-12)
    # open-loop cost: E[sum x_t Q x_t] with x_{t+1} = A x_t + w0
    cov = p.sigma_x
    expect = 0.0
    for t in range(1, p.T + 1):
        expect += float(np.trace(p.Q @ cov))
        cov = p.A[t - 1] @ cov @ p.A[t - 1].T + p.sigma_w0
    assert ss.J == pytest.approx(expect, abs=1e-10)


def test_reduce_gains_block_formula():
    rng = np.random.default_rng(15)
    p = random_plant(rng, n=2, d_x=2, T=4)
    mp = build_symmetric_delay(p, 2)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    k_seq = [rng.standard_normal((cs.d_u, cs.d_state)) for _ in range(p.T)]
    L = reduce_gains(cs, k_seq)
    d_x, d_y = cs.d_x, cs.d_y
    for t in range(1, p.T + 1):
        K = k_seq[t - 1]
        kx, ky, km = K[:, :d_x], K[:, d_x:d_x + d_y], K[:, d_x + d_y:]
        assert_allclose(L[t - 1], np.hstack([kx + ky @ p.C[t - 1], km]))


def test_reduce_gains_zero_observation_map_drops_y_block():
    p = PlantModel.create(
        n=1, T=2, d_x=2, d_u=(1,), d_y=(1,), A=np.eye(2), B=[[1.0], [0.0]],
        C=[np.zeros((1, 2))], Q=np.eye(2), R=[[1.0]], sigma_x=np.eye(2),
        sigma_w0=np.eye(2), sigma_w=[[[1.0]]])
    mp = build_symmetric_delay(p, 2)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    K = np.arange(1.0 * cs.d_state).reshape(1, cs.d_state)
    L = reduce_gains(cs, [K] * 2)
    assert_allclose(L[0], np.hstack([K[:, :2], K[:, 3:]]))


def test_filter_covariance_matches_bruteforce_error_covariance(scalar2):
    from declqg.sim import closed_loop_maps, random_theta_maps
    mp = build_symmetric_delay(scalar2, 1)
    rng = np.random.default_rng(16)
    lg = LocalGains.random(scalar2, mp, rng, 0.3)
    cs = build(scalar2, mp, lg)
    P, _ = forward_riccati(cs)
    thetas = random_theta_maps(cs, rng, 0.2)
    for t in range(1, scalar2.T + 1):
        jg = closed_loop_maps(cs, thetas, t)
        xmap = jg.xtilde[t - 1]
        if t == 1:
            err = jg.cov(xmap, xmap)
        else:
            ystack = np.vstack(jg.ytilde[:t - 1])
            yy = jg.cov(ystack, ystack)
            cross = jg.cov(xmap, ystack)
            err = jg.cov(xmap, xmap) - cross @ np.linalg.pinv(yy) @ cross.T
        assert np.abs(P[t - 1] - err).max() < 1e-8


def test_gain_stationarity_spot_check(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(17), 0.3)
    ss = solve(scalar2, mp, lg)
    base = closed_loop_cost_exact(ss.cs, ss.Kgain, ss.filter_gain)
    rng = np.random.default_rng(18)
    for _ in range(10):
        t = rng.integers(0, scalar2.T)
        r = rng.integers(0, ss.Kgain[t].shape[0])
        c = rng.integers(0, ss.Kgain[t].shape[1])
        for delta in (1e-3, -1e-3):
            k_mod = [k.copy() for k in ss.Kgain]
            k_mod[t][r, c] += delta
            perturbed = closed_loop_cost_exact(ss.cs, k_mod, ss.filter_gain)
            assert perturbed >= base - 1e-9


def test_information_monotonicity_single_instance(scalar2):
    costs = []
    for k in (1, 2, 3):
        mp = build_symmetric_delay(scalar2, k)
        costs.append(solve(scalar2, mp, LocalGains.zeros(scalar2, mp)).J)
    assert costs[0] <= costs[1] + 1e-9
    assert costs[1] <= costs[2] + 1e-9


def test_backward_riccati_raises_on_non_pd_bracket(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    bad = dataclasses.replace(
        cs, plant=dataclasses.replace(cs.plant, R=-np.eye(2)))
    with pytest.raises(NumericalBreakdown) as exc:
        backward_riccati(bad)
    assert exc.value.t == cs.T


def test_solved_strategy_fields_consistent(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    assert len(ss.Ptilde) == scalar2.T
    assert len(ss.filter_gain) == scalar2.T - 1
    assert len(ss.Kgain) == len(ss.Lgain) == len(ss.S) == scalar2.T
    assert ss.J >= 0.0
    for t in range(1, scalar2.T + 1):
        lo = np.linalg.eigvalsh(ss.Ptilde[t - 1]).min()
        assert lo > -1e-10
        lo_s = np.linalg.eigvalsh(ss.S[t - 1]).min()
        assert lo_s > -1e-10
