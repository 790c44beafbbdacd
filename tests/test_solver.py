import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (LocalGains, NumericalBreakdown, PlantModel,
                    StatisticPolicy, build,
                    build_symmetric_delay,
                    closed_loop_cost_exact, delayed_stat_gains,
                    explicit_protocol, forward_riccati, backward_riccati, tune,
                    solve)
import declqg.solver as solver_mod
from declqg.cli import DEMOS, load_scenario, strategy_from_doc, strategy_to_doc
from declqg.core import DEFAULT_RTOL, blkdiag, sym
from declqg.tune import _RAISE as _TUNE_ERRSTATE   # tune's solve errstate
from declqg.oracles import closed_loop_maps, random_theta_maps

from conftest import check_generated, random_plant, scalar_two_controller
from test_estimator import _delayed_protocol
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
    expect = cs.init_root @ cs.init_root.T
    for t in range(1, p.T):
        assert_allclose(P[t - 1], expect, atol=1e-12)
        noise_w = cs.noise[t - 1, :cs.d_state]
        expect = cs.A[t - 1] @ expect @ cs.A[t - 1].T + noise_w @ noise_w.T
    assert_allclose(P[p.T - 1], expect, atol=1e-12)


def test_initial_covariance_is_exact_augmented_covariance(scalar2):
    # (X_1, carrier_1): the carrier starts at zero, deterministically
    mp = build_symmetric_delay(scalar2, 2)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    init = cs.init_root @ cs.init_root.T
    assert init.shape == (1 + mp.d_carrier,) * 2
    assert_allclose(init[:1, :1], scalar2.sigma_x)
    assert_allclose(init[:1, 1:], 0.0)
    assert_allclose(init[1:, 1:], 0.0)


def test_backward_riccati_zero_state_cost():
    p = dataclasses.replace(scalar_two_controller(), Q=np.zeros((1, 1)))
    mp = build_symmetric_delay(p, 1)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    S, K = backward_riccati(cs)
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
    _, K = backward_riccati(cs)
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


@pytest.mark.parametrize("rtol", [0.0, -1.0, 1.0, 2.0, np.inf, np.nan])
def test_rtol_outside_the_open_unit_interval_rejected(scalar2, rtol):
    mp = build_symmetric_delay(scalar2, 1)
    gains = LocalGains.zeros(scalar2, mp)
    cs = build(scalar2, mp, gains)
    for call in (lambda: solve(scalar2, mp, gains, rtol),
                 lambda: tune(scalar2, mp, budget=3, rtol=rtol),
                 lambda: solver_mod._filter_sweep(cs.A, cs.C, cs.noise,
                                                  cs.init_root, rtol)):
        with pytest.raises(ValueError, match="rtol must be in"):
            call()


def test_backward_riccati_raises_on_non_pd_bracket(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    bad = dataclasses.replace(
        cs, plant=dataclasses.replace(cs.plant, R=-np.eye(2)))
    with pytest.raises(NumericalBreakdown) as exc:
        backward_riccati(bad)
    assert exc.value.t == cs.T


def _shifted_bracket_case(shifts, stack=False):
    """The symmetric-k2 demo at random gains (3 candidates if ``stack``) on
    a fresh copy of its plant whose state weight is c I higher at each
    step t of ``shifts`` {t: c}: Q is given per step, (T, d_x, d_x).  The
    value sweep never reads the gains, so the shift reaches every
    candidate."""
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    p, mp = sc.plant, sc.protocol
    Q = np.repeat(p.Q[None], p.T, axis=0)
    for t, c in shifts.items():
        Q[t - 1] += c * np.eye(p.d_x)
    p = dataclasses.replace(p, Q=Q)
    rng = np.random.default_rng(4)
    thetas = 0.3 * rng.standard_normal((3, LocalGains.zeros(p, mp).theta.size))
    with np.errstate(over="ignore"):    # Q~_t + 1e308 I overflows in build
        return build(p, mp, LocalGains.from_vector(p, mp, thetas if stack
                                                   else thetas[0]))


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("errstate", [{"over": "ignore"}, _TUNE_ERRSTATE],
                         ids=["quiet", "tune"])
@pytest.mark.parametrize("shifts", [{4: -1e3}, {4: -1e3, 3: 1e308}],
                         ids=["mid_sweep", "then_overflow"])
def test_backward_riccati_names_the_first_failing_bracket(shifts, errstate,
                                                          stack):
    # Q_4 - 1e3 I makes the bracket of step 3 indefinite; a step-by-step
    # check stops there.  Steps 2 and 1 still run (and with Q_3 + 1e308 I
    # step 3 overflows) before the brackets are checked, which must not
    # move the step or the message.
    cs = _shifted_bracket_case(shifts, stack)
    with np.errstate(**errstate), pytest.raises(NumericalBreakdown) as exc:
        backward_riccati(cs)
    assert exc.value.t == 3
    assert str(exc.value) == "control bracket is not positive definite (t=3)"


def test_backward_riccati_keeps_a_step_error_when_every_bracket_is_pd():
    cs = _shifted_bracket_case({3: 1e308})
    with np.errstate(over="ignore"), pytest.raises(NumericalBreakdown) as exc:
        backward_riccati(cs)
    assert str(exc.value) == "value matrix is not finite (t=3)"
    with np.errstate(**_TUNE_ERRSTATE), pytest.raises(FloatingPointError):
        backward_riccati(cs)


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("gain", [1e154, 1e200])
def test_a_huge_gain_is_a_breakdown_at_its_step(gain, stack):
    # G^1_5 = gain on the control-sharing demo: Q~_5 overflows, so J
    # would be inf or nan; the solve raises at t = 5 instead, for the
    # candidate alone and in a stack
    sc = load_scenario(DEMOS["control-sharing"]["config"])
    p, mp = sc.plant, sc.protocol
    theta = LocalGains.zeros(p, mp).theta.copy()
    theta[8] = gain
    thetas = np.stack([0.0 * theta, theta, 0.0 * theta]) if stack else theta
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalBreakdown) as exc:
        solve(p, mp, LocalGains.from_vector(p, mp, thetas))
    assert exc.value.t == 5


def _ref_backward(cs):
    """The per-candidate value recursion (reference), over any leading
    axes: L~_t = -(R + B~'S B~)^-1 Lambda_t with Lambda_t = N~' + B~'S A~,
    and S_t = A~'S A~ + Q~ + Lambda' L~, S = S_{t+1}, S_{T+1} = 0."""
    T, d, batch = cs.T, cs.d_state, cs.A.shape[:-3]
    S, L = np.empty(batch + (T, d, d)), np.empty(batch + (T, cs.d_u, d))
    S_next = np.zeros((d, d))
    for t in range(T, 0, -1):
        A, B, N, Q = (a[..., t - 1, :, :] for a in (cs.A, cs.B, cs.N, cs.Q))
        BS = B.T @ S_next
        lam = N.swapaxes(-1, -2) + BS @ A
        L[..., t - 1, :, :] = -np.linalg.solve(sym(cs.plant.R + BS @ B), lam)
        S_next = S[..., t - 1, :, :] = sym(
            A.swapaxes(-1, -2) @ S_next @ A + Q
            + lam.swapaxes(-1, -2) @ L[..., t - 1, :, :])
    return S, L


def _assert_rel(got, want, rtol=1e-10):
    gap, scale = (np.abs(a).max(initial=0.0) for a in (got - want, want))
    assert gap <= rtol * scale, (gap, scale)


INVARIANCE_TAG = 1113


def test_value_sweep_does_not_read_the_gains():
    """At two random gain sets the per-candidate recursion gives the same
    S, and the shared sweep gives its S and L~, on every protocol kind,
    constant and time-varying plants; a stack's L~ is bitwise that of each
    candidate solved alone, and all read one S."""
    kinds, varying = set(), set()

    def check(p, mp, seed):
        rng = np.random.default_rng([seed, INVARIANCE_TAG])
        thetas = 0.5 * rng.standard_normal(
            (2, LocalGains.zeros(p, mp).theta.size))
        S, L = backward_riccati(build(p, mp, LocalGains.from_vector(
            p, mp, thetas)))
        refs = [_ref_backward(build(p, mp, LocalGains.from_vector(p, mp, th)))
                for th in thetas]
        _assert_rel(refs[1][0], refs[0][0])
        assert S.shape == refs[0][0].shape
        for i, (S_ref, L_ref) in enumerate(refs):
            _assert_rel(S, S_ref)
            _assert_rel(L[i], L_ref)
            S_one, L_one = backward_riccati(build(
                p, mp, LocalGains.from_vector(p, mp, thetas[i])))
            assert S_one is S and L_one.tobytes() == L[i].tobytes()
        kinds.add(mp.kind)
        varying.add(p.A.strides[0] != 0)
    check_generated(_oracle_cases, INVARIANCE_TAG, 200, check)
    assert kinds == {"symmetric_delay", "asymmetric_delay", "control_sharing",
                     "one_sided", "explicit"}
    assert varying == {False, True}


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
        for seq in ("Lgain", "filter_gain", "Ptilde"):
            assert np.array_equal(getattr(stacked, seq)[idx],
                                  getattr(one, seq))
        alone = stacked.candidate(idx)
        assert alone.J == one.J and alone.rtol == one.rtol
        for seq in ("Lgain", "filter_gain", "Ptilde"):
            assert np.array_equal(getattr(alone, seq), getattr(one, seq))
        # one value sweep per plant and protocol, shared and not sliced
        assert alone.S is stacked.S is one.S
        for arr in ("A", "B", "C", "noise", "Q", "N", "noise_cost",
                    "init_root", "loc"):
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
    for seq in ("Lgain", "filter_gain", "Ptilde"):
        assert getattr(one, seq).shape[0] == 1
        assert np.array_equal(getattr(one, seq)[0], getattr(ss, seq))
    assert one.S is ss.S and one.S.shape == (p.T,) + (ss.cs.d_state,) * 2
    cs = build(p, mp, LocalGains.from_vector(p, mp, gains.theta[None]))
    for shared in ("B", "init_root"):
        assert np.array_equal(getattr(cs, shared), getattr(ss.cs, shared))
    for stacked in ("A", "C", "noise", "Q", "N", "noise_cost", "loc"):
        assert np.array_equal(getattr(cs, stacked)[0],
                              getattr(ss.cs, stacked))


REUSED = ("J", "Ptilde", "filter_gain", "S", "Lgain")


def _sweep_starts(run):
    """``run()`` and the start step of every forward sweep."""
    starts, forward = [], solver_mod.forward_riccati

    def fwd(cs, rtol, start=1, incumbent=None):
        starts.append(start)
        return forward(cs, rtol, start, incumbent)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "forward_riccati", fwd)
        out = run()
    return out, starts


def _assert_same_solve(got, ref):
    for name in REUSED:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def _assert_reuse_is_bitwise(p, mp, theta):
    """Every window of polls, changing steps t_a..t_b of the incumbent at
    ``theta``, solved from the incumbent: the forward sweep starts at t_a,
    and every output is bitwise that of a full solve of the same stack.
    Single candidates (the one-at-a-time fallback) and an unchanged one
    (nothing swept) too."""
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
            assert starts == [t_a]
            _assert_same_solve(got, solve(p, mp, gains(stack)))
        one = theta.copy()
        one[t_a * per - 1] += 0.25
        got, starts = _sweep_starts(
            lambda: solve(p, mp, gains(one), incumbent=inc))
        assert starts == [t_a]
        _assert_same_solve(got, solve(p, mp, gains(one)))
    got, starts = _sweep_starts(
        lambda: solve(p, mp, gains(theta), incumbent=inc))
    assert starts == [T]
    _assert_same_solve(got, inc)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_solve_from_an_incumbent_is_bitwise_the_full_solve(name):
    sc = load_scenario(DEMOS[name]["config"])
    p, mp = sc.plant, sc.protocol
    theta = LocalGains.random(p, mp, np.random.default_rng(len(name)),
                              0.3).theta
    _assert_reuse_is_bitwise(p, mp, theta)


def test_solve_from_an_incumbent_is_bitwise_on_generated_instances():
    paths = []      # the square-root sweep (None) or the window form (k)

    def check(p, mp, seed):
        theta = LocalGains.random(p, mp, np.random.default_rng([seed, 1]),
                                  0.3).theta
        _assert_reuse_is_bitwise(p, mp, theta)
        paths.append(mp.window)
    check_generated(_oracle_cases, 1103, 100, check)
    assert None in paths and any(k is not None for k in paths)


def _changed_steps_by_gains(cs, inc):
    """Reference t_a: the first step where any bit of G or H differs from
    the incumbent's, T if none does."""
    moved = np.zeros(cs.T, dtype=bool)
    for new, old in ((cs.gains.G, inc.gains.G), (cs.gains.H, inc.gains.H)):
        diff = new.view(np.uint64) != old.view(np.uint64)
        moved |= diff.any(axis=(-2, -1)).reshape(-1, cs.T).any(axis=0)
    steps = np.flatnonzero(moved) + 1
    return int(steps[0]) if steps.size else cs.T


CHANGED_TAG = 1111


def test_changed_steps_from_theta_equal_the_gain_bit_rule():
    """Stacks of 1, 3 and 12 candidates and a single one, each candidate
    the incumbent's theta with nothing, one entry, a +0.0/-0.0 swap or a
    few entries changed: t_a read off theta is that of G and H."""
    seen = set()

    def check(p, mp, seed):
        rng = np.random.default_rng([seed, CHANGED_TAG])
        theta = LocalGains.random(p, mp, rng, 0.3).theta.copy()
        pick = rng.random(theta.size)
        theta[pick < 0.2] = 0.0
        theta[pick > 0.8] = -0.0
        inc = solve(p, mp, LocalGains.from_vector(p, mp, theta))
        for shape in ((1,), (3,), (12,), ()):
            stack = np.broadcast_to(theta, shape + theta.shape).copy()
            for cand in stack.reshape(-1, theta.size):
                kind, zeros = rng.integers(4), np.flatnonzero(cand == 0.0)
                if kind == 1 or kind == 3:
                    cand[rng.integers(theta.size, size=kind)] += 0.25
                elif kind == 2 and zeros.size:
                    cand[rng.choice(zeros)] *= -1.0
            cs = build(p, mp, LocalGains.from_vector(p, mp, stack))
            got = solver_mod._first_changed_step(cs, DEFAULT_RTOL, inc)
            assert got == _changed_steps_by_gains(cs, inc), (shape, got)
            moved = (stack.view(np.uint64) != theta.view(np.uint64)).any()
            seen.add("some" if moved else "none")
        same = build(p, mp, LocalGains.from_vector(
            p, mp, np.repeat(theta[None], 4, axis=0)))
        assert solver_mod._first_changed_step(same, DEFAULT_RTOL, inc) == p.T
        for at in np.flatnonzero(theta == 0.0)[:3]:    # a sign bit alone
            swap = theta.copy()
            swap[at] *= -1.0
            t = at // (theta.size // p.T) + 1
            cs = build(p, mp, LocalGains.from_vector(p, mp, swap))
            assert solver_mod._first_changed_step(cs, DEFAULT_RTOL, inc) == t
    check_generated(_oracle_cases, CHANGED_TAG, 100, check)
    assert seen == {"none", "some"}


def test_an_incumbent_that_cannot_lend_gives_the_full_solve():
    """A strategy reloaded from disk (no P~ or S), one solved at another
    rtol and a stack lend nothing: the forward sweep runs over every
    step."""
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
        assert starts == [1]
        _assert_same_solve(got, full)
    _, starts = _sweep_starts(lambda: solve(
        p, mp, LocalGains.from_vector(p, mp, cand), incumbent=inc))
    assert starts == [p.T]


def _performance_per_step(cs, ptilde, s_seq, k_seq):
    """The predicted-cost sum one step at a time, in t order (reference)."""
    total = 0.0
    for t in range(1, cs.T + 1):
        total += float(np.einsum("ij,ij->", ptilde[t - 1], cs.Q[t - 1])
                       + cs.noise_cost[t - 1])
        if t < cs.T:
            C, K = cs.C[t - 1], k_seq[t - 1]
            noise_v = cs.noise[t - 1, cs.d_state:]
            M = C @ ptilde[t - 1] @ C.T + noise_v @ noise_v.T
            total += float(np.einsum("ij,ij->", s_seq[t] @ K, K @ M))
    return total


def _performance_by_difference(cs, ptilde, s_seq):
    """The same sum with the noise term written as tr[(N_w N_w' + A P~_t A'
    - P~_{t+1}) S_{t+1}], equal to tr[S_{t+1} K_t M_t K_t'] in exact
    arithmetic."""
    total = 0.0
    for t in range(1, cs.T + 1):
        total += float(np.trace(ptilde[t - 1] @ cs.Q[t - 1])
                       + cs.noise_cost[t - 1])
        if t < cs.T:
            A, noise_w = cs.A[t - 1], cs.noise[t - 1, :cs.d_state]
            gamma = (noise_w @ noise_w.T + A @ ptilde[t - 1] @ A.T
                     - ptilde[t])
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
        ref = _performance_per_step(ss.cs, ss.Ptilde, ss.S, ss.filter_gain)
        assert ss.J.hex() == ref.hex()
        assert stacked.J[i].hex() == ref.hex()
        old = _performance_by_difference(ss.cs, ss.Ptilde, ss.S)
        assert abs(ss.J - old) <= 1e-12 * abs(old)


# --------------------------------------------------------------------------
# the window form against the square-root sweep


WINDOW_TAG = 1109
WINDOW_NEAR_CUTOFF_MAX = 10     # of the 200 instances


def _window_cases(rng):
    """(plant, protocol, thetas): n in 1..3, k in 1..4, T in k..k+4 (T = k
    puts every step but the last before the first common pair; the
    builders reject k > T), d_x in 1..3, d_y^i and d_u^i in {1, 2},
    constant or time-varying maps, optionally singular observation noise;
    symmetric k-step sharing, or for n >= 2 asymmetric with every k*_j = k;
    gains at scale 0.3, one candidate or a stack of three."""
    n, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    T = int(rng.integers(k, k + 5))
    dims = lambda: tuple(int(d) for d in rng.integers(1, 3, n))
    p = random_plant(np.random.default_rng(int(rng.integers(2**32))), n=n,
                     d_x=int(rng.integers(1, 4)), d_y=dims(), d_u=dims(),
                     T=T, time_varying=bool(rng.integers(2)),
                     singular_w=bool(rng.integers(2)))
    mp = (_delayed_protocol(rng, p, k) if n > 1
          else build_symmetric_delay(p, k))
    size = LocalGains.zeros(p, mp).theta.size
    batch = () if rng.integers(2) else (3,)
    return p, mp, 0.3 * rng.standard_normal(batch + (size,))


def _kept(values, rtol):
    """Count of ``values`` (last axis) above ``rtol`` times their largest,
    and the distance in decades of the nearest nonzero one from that cut."""
    cut = rtol * values[..., -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        decades = np.abs(np.log10(values / cut))
    return (values > cut).sum(axis=-1), np.min(
        decades, where=(values > 0) & (cut > 0), initial=np.inf)


def _window_and_sweep(ss, rtol=DEFAULT_RTOL):
    """The square-root sweep's (P~, K) on a window-path solve ``ss``, the
    kept ranks at t = 1..T-1 of the window (eigenvalues of C P~ C' +
    N_v N_v') and of the sweep (squared singular values of its pre-array
    [C R, N_v]), and the distance in decades of the value nearest either
    cutoff."""
    cs, d, T = ss.cs, ss.cs.d_state, ss.cs.T
    P, K, R = solver_mod._filter_sweep(cs.A, cs.C, cs.noise, cs.init_root,
                                       rtol)
    nv = cs.noise[..., :T - 1, d:, :]
    pre = np.concatenate([cs.C @ R[..., :T - 1, :, :], nv], axis=-1)
    s = np.linalg.svd(pre, compute_uv=False)[..., ::-1]
    rank_sweep, margin_sweep = _kept(s * s, rtol)
    M = (cs.C @ ss.Ptilde[..., :-1, :, :] @ cs.C.swapaxes(-1, -2)
         + nv @ nv.swapaxes(-1, -2))
    rank_window, margin_window = _kept(np.linalg.eigvalsh(M), rtol)
    return P, K, rank_window, rank_sweep, min(margin_sweep, margin_window)


def _check_window_against_sweep(p, mp, thetas, near):
    """The window's P~, K and J within 1e-10, 1e-8 and 1e-10 (relative) of
    the square-root sweep's, the same kept rank at every step, and roots
    d_x + (k-1)(d_x + sum d_y) wide; unless a kept value (the sweep's
    squared singular values, the window's eigenvalues) lies within a decade
    of the cutoff, where the two may keep different ranks: such instances
    are counted in ``near`` instead."""
    k = mp.window
    ss = solve(p, mp, LocalGains.from_vector(p, mp, thetas))
    assert ss.root.shape[-1] == p.d_x + (k - 1) * (p.d_x + p.d_y_total)
    P, K, rank_window, rank_sweep, margin = _window_and_sweep(ss)
    if margin < 1.0:
        near.append(thetas)
        return
    assert np.array_equal(rank_window, rank_sweep)

    def gap(got, want):
        scale = np.maximum(1.0, np.abs(want).max(axis=(-3, -2, -1),
                                                 initial=0.0))
        return (np.abs(got - want).max(axis=(-3, -2, -1), initial=0.0)
                / scale).max()

    assert gap(ss.Ptilde, P) <= 1e-10
    assert gap(ss.filter_gain, K) <= 1e-8
    J = solver_mod.performance(ss.cs, P, ss.S, K)
    assert np.all(np.abs(ss.J - J) <= 1e-10 * np.abs(J))
    if k == 1 and thetas.ndim > 1:      # P~_t = blkdiag(P_t, 0), gain free
        assert ss.Ptilde[0].tobytes() == ss.Ptilde[1].tobytes()


def test_window_matches_the_sweep_on_generated_instances():
    near = []
    check_generated(_window_cases, WINDOW_TAG, 200,
                    lambda *case: _check_window_against_sweep(*case, near))
    assert len(near) <= WINDOW_NEAR_CUTOFF_MAX


def _sweep_protocol_cases():
    for name in ("figure1-asymmetric", "control-sharing", "one-sided"):
        sc = load_scenario(DEMOS[name]["config"])
        yield name, sc.plant, sc.protocol
    p = random_plant(np.random.default_rng(7), n=2, d_x=2, T=5)
    blocks = [{"mm": 0.5 * np.eye(1), "my": [[1.0]], "mu": [[0.5]],
               "zm": [[1.0]], "zy": [[0.3]], "zu": [[1.0]]}] * 2
    yield "explicit", p, explicit_protocol(p, blocks)


SWEEP_CASES = list(_sweep_protocol_cases())


@pytest.mark.parametrize("name, p, mp", SWEEP_CASES,
                         ids=[case[0] for case in SWEEP_CASES])
def test_forward_riccati_outside_the_window_class_is_the_sweep(name, p, mp):
    """The unequal-k* figure-1 graph, control sharing, one-sided and
    explicit protocols keep the square-root sweep, bit for bit."""
    assert mp.window is None
    size = LocalGains.zeros(p, mp).theta.size
    thetas = 0.3 * np.random.default_rng(len(name)).standard_normal((2, size))
    cs = build(p, mp, LocalGains.from_vector(p, mp, thetas))
    got = forward_riccati(cs)
    want = solver_mod._filter_sweep(cs.A, cs.C, cs.noise, cs.init_root,
                                    DEFAULT_RTOL)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
        fgains.append(A @ P @ C.T @ np.linalg.pinv(sym(C @ P @ C.T),
                                                    rcond=DEFAULT_RTOL))
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
        # S_t = ((X, c) estimate at tau = t - k + 1, Ut~_tau..Ut~_{t-1})
        d = cs.d_state
        dim = d + (k - 1) * p.d_u_total
        out = []
        for t in range(1, T + 1):
            tau = t - k + 1
            if tau >= 1:
                emap, start = sys["lift"][tau - 1] @ np.eye(d, dim), tau
            else:
                emap, start = np.zeros((proj.shape[1], dim)), 1
            for s in range(start, t):
                sel = np.zeros((p.d_u_total, dim))
                col = d + (s - tau) * p.d_u_total
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
    for C, Pt, noise_v in zip(ss.cs.C, ss.Ptilde,
                              ss.cs.noise[:, ss.cs.d_state:]):
        sv = np.linalg.svd(C @ Pt @ C.T + noise_v @ noise_v.T,
                           compute_uv=False)
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
    _, *got = StatisticPolicy(ss)
    for t in range(1, p.T):
        for got_t, ref in zip((m[t - 1] for m in got), trans[t - 1]):
            assert_allclose(got_t, ref, rtol=0, atol=_filter_atol(ss, ref))
    k = mp.window
    if k is None:
        return
    for g, ref in zip(delayed_stat_gains(ss, k), stat_gains(ss.cs, k)):
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


def test_solve_matches_augmented_reference_on_generated_instances():
    check_generated(_oracle_cases, 1102, 50, lambda p, mp, seed:
                    _assert_matches_augmented(p, mp, LocalGains.random(
                        p, mp, np.random.default_rng([seed, 1]), 0.3)))
