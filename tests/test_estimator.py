from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (StatisticPolicy, DelayGraph, DelayedStatTracker, DimMismatch,
                    LocalGains, PlantModel, UnsupportedProtocol, act, delayed_stat_map,
                    build, build_asymmetric_delay, build_control_sharing,
                    build_symmetric_delay,
                    delayed_stat_gains, draw_primitives, initial_state,
                    rollout_plant, solve,
                    step_statistic, DEFAULT_RTOL, TimeOutOfRange, token_trace)
from declqg.cli import DEMOS, load_scenario, strategy_to_doc
from declqg.estimator import (EstimatorState, _delay_transition,
                              statistic_transition)
from declqg.sim import Policy, _moment_cost
import declqg.estimator as estimator_mod
import declqg.plant as plant_mod
import declqg.solver as solver_mod

from conftest import check_generated, random_plant, scalar_two_controller


def test_step_statistic_zero_everything():
    p = PlantModel.create(
        n=2, T=4, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[0.9]], B=[[1.0, 0.5]],
        C=[[[1.0]], [[0.7]]], Q=[[1.0]], R=np.eye(2), sigma_x=[[0.0]],
        sigma_w0=[[0.0]], sigma_w=[[[0.0]], [[0.0]]])
    mp = build_symmetric_delay(p, 2)
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    st = initial_state(ss.cs)
    for t in range(1, p.T):
        st = step_statistic(st, ss, np.zeros(ss.cs.d_z), np.zeros(ss.cs.d_u))
        assert_allclose(st.stat, 0.0, atol=1e-15)


def test_step_statistic_prediction_only_when_nothing_shared(scalar2):
    from test_solver import nothing_shared_protocol
    mp = nothing_shared_protocol(scalar2)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    cs = ss.cs
    st = initial_state(cs)
    rng = np.random.default_rng(19)
    for t in range(1, scalar2.T):
        u = rng.standard_normal(cs.d_u)
        nxt = step_statistic(st, ss, np.zeros(0), u)
        expect = cs.A[t - 1] @ st.stat + cs.B[t - 1] @ u
        assert_allclose(nxt.stat, expect, atol=1e-12)
        st = nxt


def test_act_matches_full_gain_path(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(22)
    ss = solve(scalar2, mp, LocalGains.random(scalar2, mp, rng, 0.4))
    cs = ss.cs
    prims = draw_primitives(scalar2, seed=23, count=3)
    rb = rollout_plant(scalar2, mp, ss.gains, StatisticPolicy(ss), prims, keep=3)
    for r in range(3):
        ro = rb.samples[r]
        for t in range(1, scalar2.T + 1):
            st_t = initial_state(cs)
            st_t = type(st_t)(t=t, stat=ro.stat[t - 1])
            y_loc = [ro.y[t - 1][scalar2.y_slice(i)] for i in range(2)]
            m_loc = [ro.m[t - 1][mp.m_slice(i)] for i in range(2)]
            actions = act(st_t, ss, y_loc, m_loc)
            assert np.abs(np.concatenate(actions) - ro.u[t - 1]).max() < 1e-10
            # stacked path: L~ stat + G Y + H M
            u2 = (ss.Lgain[t - 1] @ ro.stat[t - 1]
                  + ss.gains.G[t - 1] @ ro.y[t - 1]
                  + ss.gains.H[t - 1] @ ro.m[t - 1])
            assert np.abs(np.concatenate(actions) - u2).max() < 1e-10


def test_act_zero_cases(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    st = initial_state(ss.cs)
    actions = act(st, ss, [np.zeros(1), np.zeros(1)],
                  [np.zeros(0), np.zeros(0)])
    assert all(np.allclose(a, 0.0) for a in actions)
    # statistic = 0: action reduces to the local parts
    rng = np.random.default_rng(24)
    lg = LocalGains.random(scalar2, mp, rng, 0.7)
    ss2 = solve(scalar2, mp, lg)
    y = [rng.standard_normal(1), rng.standard_normal(1)]
    acts = act(initial_state(ss2.cs), ss2, y, [np.zeros(0), np.zeros(0)])
    for i in range(2):
        assert_allclose(acts[i], lg.G[0][scalar2.u_slice(i),
                                        scalar2.y_slice(i)] @ y[i])


@pytest.mark.parametrize("name, m_local", [
    ("scalar-2ctrl-k1", [np.zeros(7), np.ones(3)]),    # d_m = (0, 0)
    ("symmetric-k2", [np.zeros(5), np.zeros(2)])],     # d_m = (2, 2)
    ids=["scalar-2ctrl-k1", "symmetric-k2"])
def test_act_rejects_memories_of_the_wrong_size(name, m_local):
    sc = load_scenario(DEMOS[name]["config"])
    p, mp = sc.plant, sc.protocol
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    y = [np.zeros(d) for d in p.d_y]
    with pytest.raises(DimMismatch, match=r"m\[0\]: expected dim"):
        act(initial_state(ss.cs), ss, y, m_local)


@pytest.mark.parametrize("past_end", [False, True], ids=["t=0", "t=T+1"])
def test_act_rejects_times_outside_the_horizon(past_end):
    # t = 0 would read step T's gains (index -1), t = T + 1 past the end
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    p, mp = sc.plant, sc.protocol
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    st = EstimatorState(p.T + 1 if past_end else 0, initial_state(ss.cs).stat)
    y, m = [np.zeros(d) for d in p.d_y], [np.zeros(d) for d in mp.d_m]
    with pytest.raises(TimeOutOfRange, match=r"t=\d+ outside 1\.\."):
        act(st, ss, y, m)


def _predictor_step(p, gains, xhat, t, y, u):
    """Reference one-step-ahead predictor: consume (Y_t, U_t), predict
    xhat_{t+1|t}."""
    return p.A[t - 1] @ xhat + p.B[t - 1] @ u + gains[t - 1] @ (
        y - p.C[t - 1] @ xhat)


def test_plant_kalman_tracks_deterministic_state():
    # at k = 1, S_t is the plant predictor alone
    p = PlantModel.create(
        n=1, T=5, d_x=2, d_u=(1,), d_y=(2,), A=[[0.9, 0.1], [0.0, 0.8]],
        B=[[1.0], [0.5]], C=[np.eye(2)], Q=np.eye(2), R=[[1.0]],
        sigma_x=np.zeros((2, 2)), sigma_w0=np.zeros((2, 2)),
        sigma_w=[np.zeros((2, 2))])
    gains = p.predictor()[1]
    x, xhat = np.zeros(2), np.zeros(2)
    tracker = DelayedStatTracker.create(p, build_symmetric_delay(p, 1))
    rng = np.random.default_rng(25)
    for t in range(1, p.T):
        assert_allclose(tracker.stat().vector(), x, atol=1e-12)
        assert_allclose(tracker.stat().vector(), xhat, atol=1e-12)
        u = rng.standard_normal(1)
        y = p.C[t - 1] @ x
        tracker = tracker.advance(y, u, u)
        xhat = _predictor_step(p, gains, xhat, t, y, u)
        x = p.A[t - 1] @ x + p.B[t - 1] @ u


def test_plant_kalman_pure_prediction_when_unobservable():
    p = PlantModel.create(
        n=1, T=4, d_x=1, d_u=(1,), d_y=(1,), A=[[0.9]], B=[[1.0]],
        C=[np.zeros((1, 1))], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]]])
    gains = p.predictor()[1]
    tracker = DelayedStatTracker.create(p, build_symmetric_delay(p, 1))
    xhat = tracker.advance([3.0], [2.0], [2.0]).stat().vector()
    assert_allclose(xhat, [2.0])     # A*0 + B*2 + gain*(...) with gain 0
    assert_allclose(xhat, _predictor_step(p, gains, np.zeros(1), 1, [3.0],
                                          [2.0]))


def test_plant_kalman_scalar_covariance_hand_value():
    p = PlantModel.create(
        n=1, T=3, d_x=1, d_u=(1,), d_y=(1,), A=[[1.0]], B=[[1.0]],
        C=[[[1.0]]], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]]])
    P = p.predictor()[0]
    assert P[0] == pytest.approx(1.0)
    assert P[1] == pytest.approx(1.5)   # 1*1*1 + 1 - 1*[1+1]^{-1}*1


def test_plant_kalman_covariance_strategy_independent(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(26)
    base = scalar2.predictor()[0]
    for _ in range(10):
        LocalGains.random(scalar2, mp, rng, 1.0)   # vary strategies
        again = scalar2.predictor()[0]
        for a, b in zip(base, again):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("singular_w", [False, True],
                         ids=["full_rank_w", "rank_deficient_w"])
def test_plant_predictor_is_the_coordinators_filter_under_one_step_sharing(
        singular_w):
    """With one-step delayed sharing the carrier is empty and Z_t is
    (Y_t, U_t), so at any local gains the coordinator's P~_1..P~_T are the
    plant predictor's P_1..P_T."""
    rng = np.random.default_rng(32)
    p = random_plant(rng, n=2, d_x=3, d_y=(2, 2), T=5, singular_w=singular_w)
    assert np.linalg.matrix_rank(p.sigma_w) == (2 if singular_w else 4)
    mp = build_symmetric_delay(p, 1)
    P = p.predictor()[0]
    for scale in (0.0, 0.5):
        ss = solve(p, mp, LocalGains.random(p, mp, rng, scale))
        assert ss.cs.d_c == 0
        assert_allclose(ss.Ptilde, P[:p.T], rtol=0, atol=1e-12)


def test_step_statistic_walk_is_the_stacked_transition_bitwise(monkeypatch):
    """A T = 50 walk forms step t's maps only (``statistic_transition``,
    which forms all T - 1, is never called), and each step is bitwise the
    stacked maps' slice applied to the same data."""
    rng = np.random.default_rng(35)
    p = random_plant(rng, n=2, d_x=3, T=50)
    ss = solve(p, build_symmetric_delay(p, 2),
               LocalGains.random(p, build_symmetric_delay(p, 2), rng, 0.3))
    Ts, Tu, Tz = statistic_transition(ss)
    formed = []
    monkeypatch.setattr(estimator_mod, "statistic_transition",
                        lambda ss: formed.append(ss))
    st = initial_state(ss.cs)
    for t in range(1, p.T):
        z, u = rng.standard_normal(ss.cs.d_z), rng.standard_normal(ss.cs.d_u)
        nxt = step_statistic(st, ss, z, u)
        want = Ts[t - 1] @ st.stat + Tu[t - 1] @ u + Tz[t - 1] @ z
        assert nxt.t == t + 1 and nxt.stat.tobytes() == want.tobytes(), t
        st = nxt
    assert not formed


def test_plant_predictor_runs_once_per_rtol(monkeypatch):
    """Every ``PlantModel.predictor`` call at one rtol returns the same
    read-only arrays, bitwise a fresh sweep's; another rtol has its own."""
    p = random_plant(np.random.default_rng(36), n=2, d_x=3, T=6)
    sweep, rtols = plant_mod._filter_sweep, []

    def counting(A, C, noise, R1, rtol):
        rtols.append(rtol)
        return sweep(A, C, noise, R1, rtol)

    monkeypatch.setattr(plant_mod, "_filter_sweep", counting)
    P, K, _ = p.predictor()
    again = p.predictor()
    assert again[0] is P and again[1] is K
    assert not P.flags.writeable and not K.flags.writeable
    fresh = sweep(p.A, p.C, p.noise_root, p.x1_root, DEFAULT_RTOL)
    assert P.tobytes() == fresh[0].tobytes()
    assert K.tobytes() == fresh[1].tobytes()
    other = p.predictor(1e-6)
    assert other[0] is not P
    assert p.predictor(1e-6)[0] is other[0]
    assert rtols == [DEFAULT_RTOL, 1e-6]


def test_tracker_after_a_solve_runs_no_second_sweep(monkeypatch):
    """The window solve runs the plant's sweep once and the coordinator's
    never; the tracker then reads the same predictor."""
    rng = np.random.default_rng(37)
    p = random_plant(rng, n=2, d_x=3, T=8)
    mp = build_symmetric_delay(p, 3)
    calls = {plant_mod: 0, solver_mod: 0}
    for module in calls:
        def counting(*args, module=module, sweep=module._filter_sweep):
            calls[module] += 1
            return sweep(*args)
        monkeypatch.setattr(module, "_filter_sweep", counting)
    solve(p, mp, LocalGains.random(p, mp, rng, 0.3))
    assert calls == {plant_mod: 1, solver_mod: 0}
    DelayedStatTracker.create(p, mp)
    assert calls == {plant_mod: 1, solver_mod: 0}


def test_statistic_transition_depends_on_gains(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(27)
    ss1 = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    ss2 = solve(scalar2, mp, LocalGains.random(scalar2, mp, rng, 0.5))
    t1 = statistic_transition(ss1)[0][1]
    t2 = statistic_transition(ss2)[0][1]
    assert np.abs(t1 - t2).max() > 1e-6


def test_reduced_stat_k1_is_predictor_alone(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    tracker = DelayedStatTracker.create(scalar2, mp)
    assert tracker.stat().vector().shape == (1,)
    gains = scalar2.predictor()[1]
    rng = np.random.default_rng(28)
    xhat = np.zeros(1)
    for t in range(1, scalar2.T):
        y = rng.standard_normal(2)
        u = rng.standard_normal(2)
        tracker = tracker.advance(y, u, u)
        xhat = _predictor_step(scalar2, gains, xhat, t, y, u)
        assert_allclose(tracker.stat().vector(), xhat)


def test_reduced_stat_k2_window_bookkeeping(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    tracker = DelayedStatTracker.create(scalar2, mp)
    rng = np.random.default_rng(29)
    ys = [rng.standard_normal(2) for _ in range(3)]
    us = [rng.standard_normal(2) for _ in range(3)]
    uts = [rng.standard_normal(2) for _ in range(3)]
    for t in range(3):
        tracker = tracker.advance(ys[t], us[t], uts[t])
    # at t = 4 (k = 2): S_4 = (xhat_{3|2}, c_3, Ut~_3), d_x = 1, and c_3
    # holds each controller's pair of step 2, Y^i then U^i
    v = tracker.stat().vector()
    assert v.shape == (7,)
    assert_allclose(v[1:5], [ys[1][0], us[1][0], ys[1][1], us[1][1]])
    assert_allclose(v[5:7], uts[2])
    gains = scalar2.predictor()[1]
    xhat = _predictor_step(scalar2, gains, np.zeros(1), 1, ys[0], us[0])
    xhat = _predictor_step(scalar2, gains, xhat, 2, ys[1], us[1])
    assert_allclose(v[:1], xhat)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tracker_rejects_advance_past_the_horizon(scalar2, k):
    # S_{T+1} is the last statistic; the error names the tracker's own t
    tracker = DelayedStatTracker.create(scalar2, build_symmetric_delay(
        scalar2, k))
    ones = np.ones(2)
    for _ in range(scalar2.T):
        tracker = tracker.advance(ones, ones, ones)
    assert tracker.t == scalar2.T + 1
    with pytest.raises(TimeOutOfRange,
                       match=rf"^t={scalar2.T + 1} outside 1\.\.{scalar2.T}$"):
        tracker.advance(ones, ones, ones)


def _step_at(ss, t):
    """``step_statistic`` out of a zero statistic at time ``t``."""
    cs = ss.cs
    return step_statistic(EstimatorState(t, initial_state(cs).stat), ss,
                          np.ones(cs.d_z), np.ones(cs.d_u))


@pytest.mark.parametrize("call, name", [
    (lambda cs, ss: delayed_stat_map(cs, 2.0), "k"),
    (lambda cs, ss: delayed_stat_gains(ss, 2.0), "k"),
    (lambda cs, ss: delayed_stat_gains(ss, True), "k"),
    (lambda cs, ss: _step_at(ss, 1.0), "t"),
    (lambda cs, ss: _step_at(ss, True), "t")],
    ids=["map-float-k", "gains-float-k",
         "gains-bool-k", "transition-float-t", "transition-bool-t"])
def test_delayed_stat_calls_reject_non_integer_t_and_k(call, name):
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    ss = solve(sc.plant, sc.protocol, LocalGains.zeros(sc.plant, sc.protocol))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(ss.cs, ss)


def test_delayed_stat_calls_take_numpy_integers():
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    ss = solve(sc.plant, sc.protocol, LocalGains.zeros(sc.plant, sc.protocol))
    two, three = np.int64(2), np.int64(3)
    assert np.array_equal(delayed_stat_map(ss.cs, two),
                          delayed_stat_map(ss.cs, 2))
    assert all(np.array_equal(a, b) for a, b in zip(
        delayed_stat_gains(ss, two), delayed_stat_gains(ss, 2)))
    a, b = _step_at(ss, two), _step_at(ss, 2)
    assert a.t == b.t == 3 and np.array_equal(a.stat, b.stat)


@pytest.mark.parametrize("call", [
    lambda ss: delayed_stat_gains(ss, 2),
    lambda ss: delayed_stat_map(ss.cs, 2),
    lambda ss: statistic_transition(ss),
    lambda ss: act(initial_state(ss.cs), ss,
                   [np.zeros(d) for d in ss.cs.plant.d_y],
                   [np.zeros(d) for d in ss.cs.protocol.d_m]),
    lambda ss: strategy_to_doc(ss)],
    ids=["gains", "map", "transition", "act", "strategy-doc"])
def test_stacked_strategy_rejected_with_dim_mismatch(call):
    sc = load_scenario(DEMOS["symmetric-k2"]["config"])
    p, mp = sc.plant, sc.protocol
    thetas = 0.1 * np.random.default_rng(56).standard_normal(
        (3, LocalGains.zeros(p, mp).theta.size))
    stack = solve(p, mp, LocalGains.from_vector(p, mp, thetas))
    with pytest.raises(DimMismatch, match=r"candidate\(i\)"):
        call(stack)
    call(stack.candidate(1))


def test_delayed_statistic_requires_a_window(scalar2):
    # control sharing never makes the observations common: no window, so
    # the tracker, the map and the gains on S_t all refuse it
    mp = build_control_sharing(scalar2)
    assert mp.window is None
    with pytest.raises(UnsupportedProtocol, match="control_sharing"):
        DelayedStatTracker.create(scalar2, mp)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    for k in (1, 2):
        with pytest.raises(UnsupportedProtocol, match="window None"):
            delayed_stat_map(ss.cs, k)
        with pytest.raises(UnsupportedProtocol, match="window None"):
            delayed_stat_gains(ss, k)


def test_delayed_stat_map_k1_identity(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    maps = delayed_stat_map(cs, 1)
    assert maps.shape == (scalar2.T, 1, 1)
    assert_allclose(maps, 1.0)


def test_delayed_stat_map_wrong_delay_rejected(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_map(cs, 3)
    mp2 = build_control_sharing(scalar2)
    cs2 = build(scalar2, mp2, LocalGains.zeros(scalar2, mp2))
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_map(cs2, 1)


def test_delayed_stat_map_noise_free_exact():
    p = PlantModel.create(
        n=2, T=6, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[0.9]], B=[[1.0, 0.5]],
        C=[[[1.0]], [[0.7]]], Q=[[1.0]], R=np.eye(2), sigma_x=[[0.0]],
        sigma_w0=[[0.0]], sigma_w=[[[0.0]], [[0.0]]])
    mp = build_symmetric_delay(p, 2)
    rng = np.random.default_rng(30)
    ss = solve(p, mp, LocalGains.random(p, mp, rng, 0.3))
    prims = draw_primitives(p, seed=31, count=1)
    rb = rollout_plant(p, mp, ss.gains, StatisticPolicy(ss), prims, keep=1)
    ro = rb.samples[0]
    tracker = DelayedStatTracker.create(p, mp)
    for t, mmap in enumerate(delayed_stat_map(ss.cs, 2), 1):
        assert np.abs(ro.stat[t - 1] - mmap @ tracker.stat().vector()
                      ).max() < 1e-12
        tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1], ro.u_tilde[t - 1])


def test_corollary_controller_equivalence(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(32)
    ss = solve(scalar2, mp, LocalGains.random(scalar2, mp, rng, 0.3))
    gains_on_stat = delayed_stat_gains(ss, 2)
    prims = draw_primitives(scalar2, seed=33, count=5)
    rb = rollout_plant(scalar2, mp, ss.gains, StatisticPolicy(ss), prims, keep=5)
    for r in range(5):
        ro = rb.samples[r]
        tracker = DelayedStatTracker.create(scalar2, mp)
        for t in range(1, scalar2.T + 1):
            via_stat = gains_on_stat[t - 1] @ tracker.stat().vector()
            via_recursion = ss.Lgain[t - 1] @ ro.stat[t - 1]
            assert np.abs(via_stat - via_recursion).max() < 1e-8
            tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                      ro.u_tilde[t - 1])


def _three_controller_plant():
    return PlantModel.create(
        n=3, T=7, d_x=2, d_u=(1, 1, 1), d_y=(1, 1, 1),
        A=[[0.9, 0.1], [0.0, 0.8]], B=[[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]],
        C=[[[1.0, 0.0]], [[0.5, 0.5]], [[0.0, 1.0]]], Q=np.eye(2),
        R=np.eye(3), sigma_x=np.eye(2), sigma_w0=0.2 * np.eye(2),
        sigma_w=[[[0.1]], [[0.1]], [[0.1]]])


def test_asymmetric_reduced_stat_heterogeneous_delays():
    """Figure-1 graph: controller 2's data goes common faster than the
    others', so no one window holds the common history and the statistic
    on S_t is refused: the tracker, the map and the gains."""
    p = _three_controller_plant()
    g = DelayGraph.create([[1, 1, 2], [1, 1, 1], [2, 1, 1]])
    mp = build_asymmetric_delay(p, g)
    assert mp.window is None
    # k* = (2, 1, 2): controllers 0 and 2 each carry one pair
    assert mp.d_carrier == 4
    with pytest.raises(UnsupportedProtocol, match="asymmetric_delay"):
        DelayedStatTracker.create(p, mp)
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_map(ss.cs, 2)
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_gains(ss, 2)


def test_asymmetric_reduced_stat_uniform_worst_case_delay():
    # equal k*_j: the common history matches the windows and the map is exact
    p = _three_controller_plant()
    g = DelayGraph.create([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
    mp = build_asymmetric_delay(p, g)
    assert mp.window == 2
    rng = np.random.default_rng(40)
    ss = solve(p, mp, LocalGains.random(p, mp, rng, 0.2))
    prims = draw_primitives(p, seed=41, count=5)
    rb = rollout_plant(p, mp, ss.gains, StatisticPolicy(ss), prims, keep=5)
    maps = delayed_stat_map(ss.cs, 2)
    for r in range(5):
        ro = rb.samples[r]
        tracker = DelayedStatTracker.create(p, mp)
        for t in range(1, p.T + 1):
            gap = np.abs(ro.stat[t - 1]
                         - maps[t - 1] @ tracker.stat().vector()).max()
            assert gap < 1e-8, (r, t, gap)
            tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                      ro.u_tilde[t - 1])


def _stat_dim(cs, k):
    """dim S_t: the coordinator's state, then k - 1 Ut~ entries."""
    return cs.d_state + (k - 1) * cs.d_u


def _start_map(cs, k):
    """[I, 0]: the coordinator's state estimate at tau = t - k + 1 >= 1 as
    a map of S_t."""
    return np.eye(cs.d_state, _stat_dim(cs, k))


def _ref_steps(cs, k, t):
    """The steps s = max(tau, 1)..t-1 of the map to stat at t, with the
    columns of S_t's Ut~_s entry."""
    d, d_u, tau = cs.d_state, cs.d_u, t - k + 1
    return [(s, slice(d + (s - tau) * d_u, d + (s - tau + 1) * d_u))
            for s in range(max(tau, 1), t)]


def _ref_stat_map(cs, k, t):
    """Reference for ``delayed_stat_map``: the start map (zero for t < k,
    before the pipeline fills) stepped forward in product form."""
    dim_s = _stat_dim(cs, k)
    emap = (_start_map(cs, k) if t >= k
            else np.zeros((cs.d_state, dim_s)))
    for s, cols in _ref_steps(cs, k, t):
        sel = np.zeros((cs.d_u, dim_s))
        sel[:, cols] = np.eye(cs.d_u)
        emap = cs.A[s - 1] @ emap + cs.B[s - 1] @ sel
    return emap


def _ref_pullback(cs, lgain, k, t):
    """Reference for ``delayed_stat_gains`` and ``delayed_stat_map``: the
    rows ``lgain`` (L~_t, or the identity) pulled back, one 2-d product at
    a time, through the reference map's steps in reverse, then through the
    start map; every zero made +0.0."""
    out = np.zeros((len(lgain), _stat_dim(cs, k)))
    g = lgain
    for s, cols in reversed(_ref_steps(cs, k, t)):
        out[:, cols] = g @ cs.B[s - 1]
        g = g @ cs.A[s - 1]
    if t >= k:
        out += g @ _start_map(cs, k)
    out += 0.0
    return out


def _check_gains(gains, cs, lgain, k, t, ref):
    """``gains`` of step t are bitwise the 2-d reference pullback of
    ``lgain`` and within 1e-13 (relative) of ``lgain @ ref``, ``ref`` the
    reference map."""
    assert _same_bits(gains, _ref_pullback(cs, lgain, k, t)), t
    want = lgain @ ref
    gap = np.abs(gains - want).max() / max(1.0, np.abs(want).max())
    assert gap <= 1e-13, (t, gap)


def _check_map(mmap, cs, k, t, ref):
    """``mmap`` of step t is bitwise the 2-d reference pullback of the
    identity and within 1e-13 (relative) of ``ref``, the product-form
    reference map."""
    _check_gains(mmap, cs, np.eye(cs.d_state), k, t, ref)


@pytest.mark.parametrize("protocol", ["sym-1", "sym-2", "sym-3", "sym-4",
                                      "wide-3", "asym-equal"])
def test_delayed_stat_gains_equal_per_step_maps(protocol):
    # both are bitwise the 2-d reference pullback (of L~_t, of the
    # identity) and within 1e-13 of the product-form reference map
    if protocol == "asym-equal":
        p = _three_controller_plant()
        mp = build_asymmetric_delay(
            p, DelayGraph.create([[1, 2, 2], [2, 1, 2], [2, 2, 1]]))
        k = 2
    else:
        k = int(protocol[-1])
        p = (random_plant(np.random.default_rng(51), n=2, d_y=(2, 1),
                          d_u=(1, 2), T=7) if protocol.startswith("wide")
             else scalar_two_controller(T=7))
        mp = build_symmetric_delay(p, k)
    ss = solve(p, mp, LocalGains.random(p, mp, np.random.default_rng(50), 0.3))
    gains = delayed_stat_gains(ss, k)
    maps = delayed_stat_map(ss.cs, k)
    assert len(gains) == p.T
    for t in range(1, p.T + 1):
        ref = _ref_stat_map(ss.cs, k, t)
        _check_map(maps[t - 1], ss.cs, k, t, ref)
        _check_gains(gains[t - 1], ss.cs, ss.Lgain[t - 1], k, t, ref)


def _stat_run_cases():
    """(k, T, kind): T = k, 2k - 1 (the last t whose carrier at tau is
    partly the zero pad from before t = 1) and 40, under symmetric and
    equal-k* asymmetric delayed sharing."""
    for k in (1, 2, 3, 4):
        for T in sorted({k, 2 * k - 1, 40}):
            for kind in ("sym", "asym-equal"):
                yield pytest.param(k, T, kind, id=f"k={k}-T={T}-{kind}")


@pytest.mark.parametrize("k, T, kind", list(_stat_run_cases()))
def test_stacked_stat_maps_across_run_edges(k, T, kind):
    # the gains' pullback steps are stacked over every t, across the edges
    # t = k and 2k - 1; time-varying A~ and B~, so a t that reads another
    # step's shows
    p = random_plant(np.random.default_rng([52, k, T]), n=2, d_y=(2, 1),
                     d_u=(1, 2), T=T, time_varying=True)
    mp = (build_symmetric_delay(p, k) if kind == "sym" else
          build_asymmetric_delay(p, DelayGraph.create([[1, k], [k, 1]])))
    ss = solve(p, mp, LocalGains.random(p, mp, np.random.default_rng(
        [53, k, T]), 0.3))
    gains = delayed_stat_gains(ss, k)
    maps = delayed_stat_map(ss.cs, k)
    for t in range(1, T + 1):
        ref = _ref_stat_map(ss.cs, k, t)
        _check_map(maps[t - 1], ss.cs, k, t, ref)
        _check_gains(gains[t - 1], ss.cs, ss.Lgain[t - 1], k, t, ref)


@pytest.mark.parametrize("k", [3, 4])
def test_stat_maps_turn_underflowed_zeros_positive(k):
    # A~_s = +-1e-200, the sign alternating with s: the second step's
    # products underflow, which gives -0.0 entries where BLAS fuses the
    # multiply-add; the final += 0.0 must turn them into +0.0
    p = random_plant(np.random.default_rng(54), n=2, d_y=(2, 1), d_u=(1, 2),
                     T=9)
    mp = build_symmetric_delay(p, k)
    ss = solve(p, mp, LocalGains.random(p, mp, np.random.default_rng(55), 0.3))
    sign = (-1.0) ** np.arange(p.T)[:, None, None]
    cs = replace(ss.cs, A=1e-200 * sign * np.ones_like(ss.cs.A))
    gains = delayed_stat_gains(replace(ss, cs=cs), k)
    maps = delayed_stat_map(cs, k)
    for t in range(1, p.T + 1):
        ref = _ref_stat_map(cs, k, t)
        _check_map(maps[t - 1], cs, k, t, ref)
        _check_gains(gains[t - 1], cs, ss.Lgain[t - 1], k, t, ref)
    # L~_t and B~_s = -+1e-200 instead: the gains' G B~_s products
    # underflow, and -0.0 entries of t < k meet no later add
    cs = replace(ss.cs, B=-1e-200 * sign * np.ones_like(ss.cs.B))
    ss = replace(ss, cs=cs, Lgain=1e-200 * ss.Lgain)
    gains = delayed_stat_gains(ss, k)
    for t in range(1, p.T + 1):
        _check_gains(gains[t - 1], cs, ss.Lgain[t - 1], k, t,
                     _ref_stat_map(cs, k, t))


def _same_bits(a, b):
    """Equal, zeros' signs included (``np.array_equal`` has -0.0 == 0.0)."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


def _check_maps_and_gains_against_reference(p, mp, k, seed):
    ss = solve(p, mp, LocalGains.random(p, mp, np.random.default_rng(
        [seed, 2]), 0.3))
    gains = delayed_stat_gains(ss, k)
    maps = delayed_stat_map(ss.cs, k)
    for t in range(1, p.T + 1):
        ref = _ref_stat_map(ss.cs, k, t)
        _check_map(maps[t - 1], ss.cs, k, t, ref)
        _check_gains(gains[t - 1], ss.cs, ss.Lgain[t - 1], k, t, ref)


def test_delayed_stat_maps_and_gains_equal_token_maps_on_generated():
    # bitwise the reference pullback and within 1e-13 of the reference
    # maps, on generated symmetric and equal-k* asymmetric instances
    check_generated(_delayed_sharing_cases, 1104, 50,
                    _check_maps_and_gains_against_reference)


def _delayed_sharing_cases(rng):
    """(plant, protocol, k, seed): symmetric, or asymmetric with equal k*_j."""
    n = int(rng.choice([2, 3]))
    k = int(rng.choice([1, 2, 3]))
    T = int(rng.integers(k, 9))
    d_x = int(rng.choice([2, 3]))
    seed = int(rng.integers(2**32))
    p = random_plant(np.random.default_rng(seed), n=n, d_x=d_x, T=T)
    return p, _delayed_protocol(rng, p, k), k, seed


def _delayed_protocol(rng, p, k):
    """Symmetric k-step sharing, or asymmetric with every k*_j = k."""
    if rng.integers(2):
        return build_symmetric_delay(p, k)
    # off-diagonal delays in 1..k, each column reaching k somewhere
    n = p.n
    delays = np.ones((n, n), dtype=int)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for i in others:
            delays[i, j] = rng.integers(1, k + 1)
        delays[rng.choice(others), j] = k
    return build_asymmetric_delay(p, DelayGraph.create(delays))


def test_delayed_stat_gains_equal_token_pullback_on_generated():
    # time-varying plants with some d_u^i = 2: the maps and gains are
    # bitwise the 2-d reference pullback of the identity and of L~_t, and
    # within 1e-13 of the reference map and of L~_t times it
    check_generated(_pullback_cases, 1105, 200,
                    _check_maps_and_gains_against_reference)


def _pullback_cases(rng):
    """(plant, protocol, k, seed): n in {2, 3}, k in 1..4, T in k..2k+3,
    d_x in 1..3, d_y^i in {1, 2}, d_u^i in {1, 2} with one d_u^i = 2,
    time-varying; symmetric, or asymmetric with equal k*_j."""
    n = int(rng.choice([2, 3]))
    k = int(rng.integers(1, 5))
    T = int(rng.integers(k, 2 * k + 4))
    d_x = int(rng.integers(1, 4))
    d_y = tuple(int(d) for d in rng.integers(1, 3, n))
    d_u = rng.integers(1, 3, n)
    d_u[rng.integers(n)] = 2
    seed = int(rng.integers(2**32))
    p = random_plant(np.random.default_rng(seed), n=n, d_x=d_x, d_y=d_y,
                     d_u=tuple(int(d) for d in d_u), T=T, time_varying=True)
    return p, _delayed_protocol(rng, p, k), k, seed




def test_delayed_stat_gains_reproduce_solver_actions():
    check_generated(_delayed_sharing_cases, 1103, 50,
                    _check_delayed_stat_actions)


def _check_delayed_stat_actions(p, mp, k, seed):
    rng = np.random.default_rng([seed, 1])
    ss = solve(p, mp, LocalGains.random(p, mp, rng, 0.3))
    gains_on_stat = delayed_stat_gains(ss, k)
    prims = draw_primitives(p, seed=seed, count=3)
    rb = rollout_plant(p, mp, ss.gains, StatisticPolicy(ss), prims, keep=3)
    for ro in rb.samples:
        tracker = DelayedStatTracker.create(p, mp)
        for t in range(1, p.T + 1):
            via_stat = gains_on_stat[t - 1] @ tracker.stat().vector()
            via_solver = ss.Lgain[t - 1] @ ro.stat[t - 1]
            scale = max(1.0, np.abs(via_solver).max())
            assert np.abs(via_stat - via_solver).max() <= 1e-8 * scale, t
            tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                      ro.u_tilde[t - 1])


def test_tracker_holds_the_coordinators_state_at_tau_on_generated():
    # S_t starts with (xhat_{tau|tau-1}, c_tau), tau = t - k + 1: along
    # kept rollouts the carrier block is bitwise the rollout's carrier at
    # tau, the predictor block the plant predictor's, both zero for t < k
    check_generated(_pullback_cases, 1108, 200, _check_tracker_state)


def _check_tracker_state(p, mp, k, seed):
    lg = LocalGains.random(p, mp, np.random.default_rng([seed, 3]), 0.3)
    ss = solve(p, mp, lg)
    rb = rollout_plant(p, mp, lg, StatisticPolicy(ss),
                       draw_primitives(p, seed=seed, count=3), keep=3)
    gains = p.predictor()[1]
    start = DelayedStatTracker.create(p, mp)
    d_x, d = p.d_x, p.d_x + mp.d_carrier
    for ro in rb.samples:
        tracker, xhat = start, np.zeros(d_x)    # xhat_{tau|tau-1}
        for t in range(1, p.T + 1):
            v, tau = tracker.stat().vector(), t - k + 1
            if tau >= 2:
                xhat = _predictor_step(p, gains, xhat, tau - 1,
                                       ro.y[tau - 2], ro.u[tau - 2])
            carrier = ro.carrier[tau - 1] if tau >= 1 else np.zeros(d - d_x)
            assert _same_bits(v[d_x:d], carrier), (t, v[d_x:d], carrier)
            gap = np.abs(v[:d_x] - xhat).max(initial=0.0)
            assert gap <= 1e-12 * max(1.0, np.abs(xhat).max(initial=0.0)), \
                (t, gap)
            tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                      ro.u_tilde[t - 1])


@pytest.mark.parametrize("other", [
    dict(n=3, d_y=(1, 1, 1), d_u=(1, 1, 1)), dict(T=6), dict(d_y=(2, 1)),
    dict(d_u=(1, 2))], ids=["n", "T", "d_y", "d_u"])
def test_tracker_rejects_a_protocol_built_for_another_plant(scalar2, other):
    # the tracker's maps come from both; at these sizes numpy would raise
    # an untyped error or build a statistic for the wrong plant
    q = random_plant(np.random.default_rng(57), **{
        "n": 2, "d_x": 1, "d_y": (1, 1), "d_u": (1, 1), "T": 5, **other})
    with pytest.raises(DimMismatch, match="protocol and plant disagree"):
        DelayedStatTracker.create(scalar2, build_symmetric_delay(q, 2))


def DelayedStatPolicy(ss):
    """The paper's strategy on the delayed-sharing statistic: Ut~_t = L_t S_t
    with L = ``delayed_stat_gains(ss, k)``, k the protocol's ``window``, S_t
    moved by ``_delay_transition`` (no transition out of T), as a
    ``sim.Policy``; UnsupportedProtocol if the protocol has no window.  The
    pair (Y_tau, U_tau), tau = t - k + 1, that S_{t+1} takes is Z_t, so
    Tz = Tp Pi, Pi from ``_pair_layout``."""
    mp = ss.cs.protocol
    Ts, Tu, Tp = _delay_transition(ss.cs.plant, mp, DEFAULT_RTOL)
    return Policy(delayed_stat_gains(ss, mp.window), Ts[:-1], Tu[:-1],
                  Tp[:-1] @ _pair_layout(mp, mp.window))


def _pair_layout(mp, k):
    """Pi with (Y_tau, U_tau) = Pi Z_t, read from the tokens of Z_k (the
    protocol is time invariant), each of which must be of step tau = 1."""
    first = {"y": np.cumsum((0,) + mp.d_y),
             "u": sum(mp.d_y) + np.cumsum((0,) + mp.d_u)}
    pi = np.zeros((first["u"][-1], mp.d_z))
    for r, tok in enumerate(token_trace(mp).z[k]):
        assert tok is not None and tok[2] == 1, (k, r, tok)
        kind, i, _, comp = tok
        pi[first[kind][i] + comp, r] = 1.0
    return pi


def _check_stat_policy_cost(p, mp, k, seed):
    lg = LocalGains.random(p, mp, np.random.default_rng([seed, 2]), 0.3)
    ss = solve(p, mp, lg)
    assert mp.window == k
    exact = _moment_cost(p, mp, lg, DelayedStatPolicy(ss))
    assert abs(exact - ss.J) <= 1e-11 * max(1.0, abs(ss.J)), (exact, ss.J)


def test_delayed_stat_policy_costs_exactly_j_on_generated():
    # Ut~_t = L_t S_t, run on S_t's own linear update, is the solver's
    # strategy: its exact second-moment cost is J
    check_generated(_pullback_cases, 1106, 200, _check_stat_policy_cost)


@pytest.mark.parametrize("name", ["scalar-2ctrl-k1", "symmetric-k2"])
def test_delayed_stat_policy_monte_carlo_matches_j(name):
    # Ut~_t = L_t S_t rolled out on the plant: per rollout the cost of the
    # solver's own statistic policy, and on average J within 4 stderr
    sc = load_scenario(DEMOS[name]["config"])
    p, mp = sc.plant, sc.protocol
    lg = LocalGains.random(p, mp, np.random.default_rng([1107, 0]), 0.3)
    ss = solve(p, mp, lg)
    prims = draw_primitives(p, seed=1107, count=20_000)
    got = rollout_plant(p, mp, lg, DelayedStatPolicy(ss), prims).costs
    want = rollout_plant(p, mp, lg, StatisticPolicy(ss), prims).costs
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    stderr = np.std(got, ddof=1) / np.sqrt(len(got))
    assert abs(np.mean(got) - ss.J) < 4 * stderr, (np.mean(got), ss.J, stderr)
