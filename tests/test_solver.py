import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, seed, settings

from declqg import (LocalGains, NumericalBreakdown, PlantModel,
                    UnsupportedProtocol, build, build_symmetric_delay,
                    closed_loop_cost_exact, delayed_stat_gains,
                    explicit_protocol, forward_riccati, backward_riccati, tune,
                    solve)
import declqg.solver as solver_mod
from declqg.cli import DEMOS, load_scenario, strategy_from_doc, strategy_to_doc
from declqg.core import DEFAULT_RTOL, blkdiag, pinv, sym
from declqg.estimator import (_window_map, effective_delay,
                              statistic_transition)

from conftest import random_plant, scalar_two_controller
from test_sim import _oracle_cases


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
    P, gains, _ = forward_riccati(cs)
    for Pt in P:
        assert_allclose(Pt, 0.0, atol=1e-15)


def test_forward_riccati_open_loop_when_nothing_shared():
    rng = np.random.default_rng(13)
    p = random_plant(rng, n=2, d_x=2, T=5)
    mp = nothing_shared_protocol(p)
    assert mp.d_z == 0
    cs = build(p, mp, LocalGains.zeros(p, mp))
    P, _, _ = forward_riccati(cs)
    expect = cs.init_cov
    for t in range(1, p.T):
        assert_allclose(P[t - 1], expect, atol=1e-12)
        expect = cs.A[t - 1] @ expect @ cs.A[t - 1].T + cs.SigW[t - 1]
    assert_allclose(P[p.T - 1], expect, atol=1e-12)


def test_initial_covariance_is_exact_augmented_covariance(scalar2):
    # (X_1, carrier_1): the carrier starts at zero, deterministically
    mp = build_symmetric_delay(scalar2, 2)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    assert cs.init_cov.shape == (1 + mp.d_carrier,) * 2
    assert_allclose(cs.init_cov[:1, :1], scalar2.sigma_x)
    assert_allclose(cs.init_cov[:1, 1:], 0.0)
    assert_allclose(cs.init_cov[1:, 1:], 0.0)


def test_backward_riccati_zero_state_cost():
    p = dataclasses.replace(scalar_two_controller(), Q=np.zeros((1, 1)))
    mp = build_symmetric_delay(p, 1)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    S, lam, K = backward_riccati(cs)
    for t in range(p.T):
        assert_allclose(S[t], 0.0, atol=1e-14)
        assert_allclose(K[t], 0.0, atol=1e-14)


def test_terminal_step_gain_is_static_cross_term():
    # T = 1 with nonzero G: L~_1 = -R~^{-1} N~' via the S_{T+1} = 0 convention
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
    for L in ss.Lgain:
        assert_allclose(L, 0.0, atol=1e-12)
    # open-loop cost: E[sum x_t Q x_t] with x_{t+1} = A x_t + w0
    cov = p.sigma_x
    expect = 0.0
    for t in range(1, p.T + 1):
        expect += float(np.trace(p.Q @ cov))
        cov = p.A[t - 1] @ cov @ p.A[t - 1].T + p.sigma_w0
    assert ss.J == pytest.approx(expect, abs=1e-10)


def test_filter_covariance_matches_bruteforce_error_covariance(scalar2):
    from declqg.sim import closed_loop_maps, random_theta_maps
    mp = build_symmetric_delay(scalar2, 1)
    rng = np.random.default_rng(16)
    lg = LocalGains.random(scalar2, mp, rng, 0.3)
    cs = build(scalar2, mp, lg)
    P, _, _ = forward_riccati(cs)
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
    base = closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)
    rng = np.random.default_rng(18)
    for _ in range(10):
        t = rng.integers(0, scalar2.T)
        r = rng.integers(0, ss.Lgain[t].shape[0])
        c = rng.integers(0, ss.Lgain[t].shape[1])
        for delta in (1e-3, -1e-3):
            k_mod = [k.copy() for k in ss.Lgain]
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
    assert len(ss.Lgain) == len(ss.S) == scalar2.T
    assert ss.Kgain is ss.Lgain     # one gain array, two names
    assert ss.J >= 0.0
    for t in range(1, scalar2.T + 1):
        lo = np.linalg.eigvalsh(ss.Ptilde[t - 1]).min()
        assert lo > -1e-10
        lo_s = np.linalg.eigvalsh(ss.S[t - 1]).min()
        assert lo_s > -1e-10


def _batch_cases():
    for name in sorted(DEMOS):
        sc = load_scenario(DEMOS[name]["config"])
        yield name, sc.plant, sc.protocol
    # the solve-large benchmark's shape at its tiny size
    p = random_plant(np.random.default_rng(2), n=2, d_x=3, d_y=(1, 1),
                     d_u=(1, 1), T=8)
    yield "solve-large-tiny", p, build_symmetric_delay(p, 2)


BATCH_CASES = list(_batch_cases())


@pytest.mark.parametrize("name, p, mp", BATCH_CASES,
                         ids=[case[0] for case in BATCH_CASES])
def test_stacked_solve_gives_each_candidates_J_bitwise(name, p, mp):
    size = LocalGains.zeros(p, mp).theta.size
    thetas = 0.3 * np.random.default_rng(len(name)).standard_normal(
        (2, 5, size))
    thetas[0, 0] = 0.0
    stacked = solve(p, mp, LocalGains.from_vector(p, mp, thetas))
    assert stacked.J.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        one = solve(p, mp, LocalGains.from_vector(p, mp, thetas[idx]))
        assert stacked.J[idx] == one.J
        for seq in ("Lgain", "filter_gain", "Ptilde", "S", "Lambda"):
            assert np.array_equal(getattr(stacked, seq)[idx],
                                  getattr(one, seq))
        alone = stacked.candidate(idx)
        assert alone.J == one.J and alone.rtol == one.rtol
        for seq in ("Lgain", "filter_gain", "Ptilde", "S", "Lambda"):
            assert np.array_equal(getattr(alone, seq), getattr(one, seq))
        for arr in ("A", "B", "C", "F", "SigW", "SigWV", "SigV", "Q", "N",
                    "noise_cost", "init_cov"):
            assert np.array_equal(getattr(alone.cs, arr),
                                  getattr(one.cs, arr))
        assert alone.gains.theta.tobytes() == one.gains.theta.tobytes()
        assert np.array_equal(alone.gains.G, one.gains.G)
        assert np.array_equal(alone.gains.H, one.gains.H)


def test_solve_is_the_batch_of_one(rng):
    p = random_plant(rng, n=2, d_x=2, T=5)
    mp = build_symmetric_delay(p, 2)
    gains = LocalGains.random(p, mp, rng, scale=0.3)
    ss = solve(p, mp, gains)
    one = solve(p, mp, LocalGains.from_vector(p, mp, gains.theta[None]))
    assert isinstance(ss.J, float) and one.J.shape == (1,)
    assert one.J[0] == ss.J
    for seq in ("Lgain", "filter_gain", "Ptilde", "S", "Lambda"):
        assert getattr(one, seq).shape[0] == 1
        assert np.array_equal(getattr(one, seq)[0], getattr(ss, seq))
    cs = build(p, mp, LocalGains.from_vector(p, mp, gains.theta[None]))
    for shared in ("B", "init_cov"):
        assert np.array_equal(getattr(cs, shared), getattr(ss.cs, shared))
    for stacked in ("A", "C", "F", "SigW", "SigWV", "SigV", "Q", "N",
                    "noise_cost"):
        assert np.array_equal(getattr(cs, stacked)[0],
                              getattr(ss.cs, stacked))


REUSED = ("J", "Ptilde", "filter_gain", "S", "Lambda", "Lgain")


def _sweep_starts(run):
    """``run()`` and the start steps of every forward and backward sweep."""
    starts, forward, backward = [], solver_mod.forward_riccati, \
        solver_mod.backward_riccati

    def fwd(cs, rtol, start=1, incumbent=None):
        starts.append(start)
        return forward(cs, rtol, start, incumbent)

    def bwd(cs, start=None, incumbent=None):
        starts.append(start)
        return backward(cs, start, incumbent)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "forward_riccati", fwd)
        patch.setattr(solver_mod, "backward_riccati", bwd)
        out = run()
    return out, starts


def _assert_same_solve(got, ref):
    for name in REUSED:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def _assert_reuse_is_bitwise(p, mp, theta):
    """Every window of polls, changing steps t_a..t_b of the incumbent at
    ``theta``, solved from the incumbent: the forward sweep starts at t_a,
    the backward one at t_b, and every output is bitwise that of a full
    solve of the same stack.  Single candidates (the one-at-a-time
    fallback) and an unchanged one (nothing swept) too."""
    def gains(th):
        return LocalGains.from_vector(p, mp, th)

    inc = solve(p, mp, gains(theta))
    T, per = p.T, theta.size // p.T
    for t_a in range(1, T + 1):
        for t_b in range(t_a, T + 1):
            stack = np.repeat(theta[None], 2, axis=0)
            stack[0, (t_a - 1) * per] += 0.25
            stack[1, t_b * per - 1] -= 0.25
            got, starts = _sweep_starts(
                lambda: solve(p, mp, gains(stack), incumbent=inc))
            assert starts == [t_a, t_b]
            _assert_same_solve(got, solve(p, mp, gains(stack)))
        one = theta.copy()
        one[t_a * per - 1] += 0.25
        got, starts = _sweep_starts(
            lambda: solve(p, mp, gains(one), incumbent=inc))
        assert starts == [t_a, t_a]
        _assert_same_solve(got, solve(p, mp, gains(one)))
    got, starts = _sweep_starts(
        lambda: solve(p, mp, gains(theta), incumbent=inc))
    assert starts == [T, 0]
    _assert_same_solve(got, inc)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_solve_from_an_incumbent_is_bitwise_the_full_solve(name):
    sc = load_scenario(DEMOS[name]["config"])
    p, mp = sc.plant, sc.protocol
    theta = LocalGains.random(p, mp, np.random.default_rng(len(name)),
                              0.3).theta
    _assert_reuse_is_bitwise(p, mp, theta)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@seed(1103)
@given(_oracle_cases())
def test_solve_from_an_incumbent_is_bitwise_on_generated_instances(case):
    p, mp, seed = case
    theta = LocalGains.random(p, mp, np.random.default_rng([seed, 1]),
                              0.3).theta
    _assert_reuse_is_bitwise(p, mp, theta)


def test_an_incumbent_that_cannot_lend_gives_the_full_solve():
    """A strategy reloaded from disk (no P~ or S), one solved at another
    rtol and a stack lend nothing: both sweeps run over every step."""
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    p, mp = sc.plant, sc.protocol
    theta = LocalGains.random(p, mp, np.random.default_rng(5), 0.3).theta
    cand = theta.copy()
    cand[-1] += 0.25                    # changes step T only
    full = solve(p, mp, LocalGains.from_vector(p, mp, cand))
    inc = solve(p, mp, LocalGains.from_vector(p, mp, theta))
    reloaded = strategy_from_doc(strategy_to_doc(inc), p, mp)
    assert reloaded.Ptilde is None and reloaded.S is None
    stack = solve(p, mp, LocalGains.from_vector(p, mp, theta[None]))
    other_rtol = solve(p, mp, LocalGains.from_vector(p, mp, theta), 1e-8)
    for lender in (reloaded, other_rtol, stack):
        got, starts = _sweep_starts(lambda: solve(
            p, mp, LocalGains.from_vector(p, mp, cand), incumbent=lender))
        assert starts == [1, p.T]
        _assert_same_solve(got, full)
    _, starts = _sweep_starts(lambda: solve(
        p, mp, LocalGains.from_vector(p, mp, cand), incumbent=inc))
    assert starts == [p.T, p.T]


def _performance_per_step(cs, ptilde, s_seq):
    """The predicted-cost sum one step at a time, in t order (reference)."""
    total = 0.0
    for t in range(1, cs.T + 1):
        total += float(np.trace(ptilde[t - 1] @ cs.Q[t - 1])
                       + cs.noise_cost[t - 1])
        if t < cs.T:
            A = cs.A[t - 1]
            gamma = cs.SigW[t - 1] + A @ ptilde[t - 1] @ A.T - ptilde[t]
            total += float(np.sum(gamma * s_seq[t]))
    return total


@pytest.mark.parametrize("T", [1, 2, 8, 9, 19])
def test_performance_equals_the_per_step_sum_bitwise(T):
    rng = np.random.default_rng(T)
    p = random_plant(rng, n=2, d_x=2, T=T, time_varying=True)
    mp = build_symmetric_delay(p, 1)
    thetas = 0.3 * rng.standard_normal((3, LocalGains.zeros(p, mp).theta.size))
    stacked = solve(p, mp, LocalGains.from_vector(p, mp, thetas))
    for i, theta in enumerate(thetas):
        ss = solve(p, mp, LocalGains.from_vector(p, mp, theta))
        ref = _performance_per_step(ss.cs, ss.Ptilde, ss.S)
        assert ss.J.hex() == ref.hex()
        assert stacked.J[i].hex() == ref.hex()


# --------------------------------------------------------------------------
# reference: the coordinator's problem on the augmented state (X_t, Y_t, c_t)


def _augmented_system(p, mp, lg):
    """The coordinated system on (X_t, Y_t, c_t), one step at a time: the
    row generating Y_{t+1} uses C_{t+1}, and (X, carrier) is recovered
    through ``lift`` (Y-hat = C_t X-hat) and ``proj``."""
    d_x, d_y, d_c = p.d_x, p.d_y_total, mp.d_carrier
    d, X, Y = d_x + d_y + d_c, slice(0, d_x), slice(d_x, d_x + d_y)
    M = slice(d_x + d_y, d)
    noise = blkdiag([p.sigma_w0, p.sigma_w])
    out = {k: [] for k in ("A", "B", "SigW", "Q", "N", "C", "lift")}
    for t in range(1, p.T + 1):
        A_t, B_t, G = p.A[t - 1], p.B[t - 1], lg.G[t - 1]
        Hc = lg.H[t - 1] @ mp.m_sel
        C_next = p.C[t] if t < p.T else np.zeros((d_y, d_x))
        A = np.zeros((d, d))
        A[X, X], A[X, Y], A[X, M] = A_t, B_t @ G, B_t @ Hc
        A[Y] = C_next @ A[X]
        A[M, Y], A[M, M] = mp.cy + mp.cu @ G, mp.cc + mp.cu @ Hc
        F = np.zeros((d, d_x + d_y))
        F[X, :d_x], F[Y, :d_x], F[Y, d_x:] = np.eye(d_x), C_next, np.eye(d_y)
        loc = np.hstack([G, Hc])
        Q = np.zeros((d, d))
        Q[X, X], Q[d_x:, d_x:] = p.Q, loc.T @ p.R @ loc
        out["A"].append(A)
        out["B"].append(np.vstack([B_t, C_next @ B_t, mp.cu]))
        out["SigW"].append(sym(F @ noise @ F.T))
        out["Q"].append(sym(Q))
        out["N"].append(np.vstack([np.zeros((d_x, p.d_u_total)),
                                   loc.T @ p.R]))
        lift = np.zeros((d, d_x + d_c))
        lift[X, :d_x], lift[Y, :d_x] = np.eye(d_x), p.C[t - 1]
        lift[M, d_x:] = np.eye(d_c)
        out["lift"].append(lift)
        if t < p.T:
            C = np.zeros((mp.d_z, d))
            C[:, Y], C[:, M] = mp.zy + mp.zu @ G, mp.zc + mp.zu @ Hc
            out["C"].append(C)
    proj = np.zeros((d_x + d_c, d))
    proj[:d_x, X], proj[d_x:, M] = np.eye(d_x), np.eye(d_c)
    init = np.zeros((d, d))
    C1 = p.C[0]
    init[X, X], init[X, Y] = p.sigma_x, p.sigma_x @ C1.T
    init[Y, X], init[Y, Y] = C1 @ p.sigma_x, C1 @ p.sigma_x @ C1.T + p.sigma_w
    return out, proj, init


def _augmented_solve(p, mp, lg):
    """J, the gains L~_t = K~_t lift_t, the statistic transitions and a
    function of k giving the delayed-statistic gains, all computed on the
    augmented state and mapped back to (X, carrier)."""
    sys, proj, P = _augmented_system(p, mp, lg)
    T = p.T
    Ps, fgains = [P], []
    for t in range(1, T):
        A, C = sys["A"][t - 1], sys["C"][t - 1]
        fgains.append(A @ P @ C.T @ pinv(sym(C @ P @ C.T)))
        Acl = A - fgains[-1] @ C      # Joseph form; no measurement noise
        P = sym(Acl @ P @ Acl.T + sys["SigW"][t - 1])
        Ps.append(P)
    S_next, S, K = np.zeros_like(P), [None] * T, [None] * T
    for t in range(T, 0, -1):
        A, B = sys["A"][t - 1], sys["B"][t - 1]
        lam = sys["N"][t - 1].T + B.T @ S_next @ A
        K[t - 1] = -np.linalg.solve(sym(p.R + B.T @ S_next @ B), lam)
        S[t - 1] = S_next = sym(A.T @ S_next @ A + sys["Q"][t - 1]
                                + lam.T @ K[t - 1])
    J = 0.0
    for t in range(1, T + 1):
        J += float(np.trace(Ps[t - 1] @ sys["Q"][t - 1]))
        if t < T:
            A = sys["A"][t - 1]
            J += float(np.sum((sys["SigW"][t - 1] + A @ Ps[t - 1] @ A.T
                               - Ps[t]) * S[t]))
    L = [K_t @ lift for K_t, lift in zip(K, sys["lift"])]
    trans = [(proj @ (sys["A"][t - 1] - F @ sys["C"][t - 1])
              @ sys["lift"][t - 1], proj @ (sys["B"][t - 1] - F @ mp.zu),
              proj @ F) for t, F in enumerate(fgains, 1)]

    def stat_gains(cs, k):
        window, d_x = _window_map(cs, k), p.d_x
        y0 = d_x + (k - 1) * p.d_u_total
        u0 = y0 + (k - 1) * p.d_y_total
        out = []
        for t in range(1, T + 1):
            tau = t - k + 1
            if tau >= 1:
                base = window.copy()
                if tau < k:     # window pairs from before t = 1
                    base[d_x:, y0:y0 + (k - tau) * p.d_y_total] = 0.0
                    base[d_x:, u0:u0 + (k - tau) * p.d_u_total] = 0.0
                emap, start = sys["lift"][tau - 1] @ base, tau
            else:
                emap, start = np.zeros((proj.shape[1], window.shape[1])), 1
            for s in range(start, t):
                sel = np.zeros((p.d_u_total, window.shape[1]))
                col = d_x + (s - tau) * p.d_u_total
                sel[:, col:col + p.d_u_total] = np.eye(p.d_u_total)
                emap = sys["A"][s - 1] @ emap + sys["B"][s - 1] @ sel
            out.append(L[t - 1] @ proj @ emap)
        return out

    return J, L, trans, stat_gains


def _filter_atol(ss, ref):
    """Absolute tolerance on a filter-derived matrix of entries ``ref``.

    A pseudoinverse cut at ``DEFAULT_RTOL`` carries relative round-off of
    about kappa * eps, with kappa the ratio of the largest to the smallest
    kept singular value of the innovation covariance C P~ C' + V; the
    worst kappa over t, times eps and the size of ``ref``, floored at 1e-10.
    """
    kappa = 1.0
    for C, Pt, V in zip(ss.cs.C, ss.Ptilde, ss.cs.SigV):
        sv = np.linalg.svd(C @ Pt @ C.T + V, compute_uv=False)
        if sv.size and sv[0] > 0:
            kappa = max(kappa, sv[0] / sv[sv > DEFAULT_RTOL * sv[0]][-1])
    scale = max(1.0, np.abs(ref).max(initial=0.0))
    return max(1e-10, kappa * np.finfo(float).eps * scale)


def _assert_matches_augmented(p, mp, lg):
    ss = solve(p, mp, lg)
    J, L, trans, stat_gains = _augmented_solve(p, mp, lg)
    assert abs(ss.J - J) <= 1e-12 * abs(J)
    for t in range(1, p.T + 1):
        ref = L[t - 1]
        scale = max(1.0, np.abs(ref).max(initial=0.0))
        assert np.abs(ss.Lgain[t - 1] - ref).max(initial=0.0) <= 1e-12 * scale
    for t in range(1, p.T):
        for got, ref in zip(statistic_transition(ss, t), trans[t - 1]):
            assert_allclose(got, ref, rtol=0, atol=_filter_atol(ss, ref))
    try:
        k = effective_delay(mp)
        got = delayed_stat_gains(ss, k)
    except UnsupportedProtocol:
        return
    for g, ref in zip(got, stat_gains(ss.cs, k)):
        assert_allclose(g, ref, rtol=0, atol=_filter_atol(ss, ref))


@pytest.mark.parametrize("name, p, mp", BATCH_CASES,
                         ids=[case[0] for case in BATCH_CASES])
def test_solve_matches_augmented_reference(name, p, mp):
    rng = np.random.default_rng(len(name))
    sets = [LocalGains.zeros(p, mp), LocalGains.random(p, mp, rng, 0.3)]
    if name in DEMOS:
        sc = load_scenario(DEMOS[name]["config"])
        sets.append(tune(p, mp, budget=sc.tune_budget, seed=sc.tune_seed,
                         restarts=sc.tune_restarts).gains)
    for lg in sets:
        _assert_matches_augmented(p, mp, lg)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@seed(1102)
@given(_oracle_cases())
def test_solve_matches_augmented_reference_on_generated_instances(case):
    p, mp, seed = case
    _assert_matches_augmented(
        p, mp, LocalGains.random(p, mp, np.random.default_rng([seed, 1]), 0.3))
