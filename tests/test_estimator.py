import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from numpy.testing import assert_allclose

from declqg import (StatisticPolicy, DelayGraph, DelayedStatTracker, LocalGains,
                    PlantModel, UnsupportedProtocol, act, delayed_stat_map,
                    build, build_asymmetric_delay, build_control_sharing,
                    build_symmetric_delay,
                    delayed_stat_gains, draw_primitives, initial_state,
                    plant_kalman_covariances, plant_kalman_init,
                    plant_kalman_step, rollout_plant, solve, step_statistic,
                    token_trace)
from declqg.estimator import (delay_stat_dim, effective_delay,
                              statistic_transition)

from conftest import random_plant, scalar_two_controller


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


def test_plant_kalman_tracks_deterministic_state():
    p = PlantModel.create(
        n=1, T=5, d_x=2, d_u=(1,), d_y=(2,), A=[[0.9, 0.1], [0.0, 0.8]],
        B=[[1.0], [0.5]], C=[np.eye(2)], Q=np.eye(2), R=[[1.0]],
        sigma_x=np.zeros((2, 2)), sigma_w0=np.zeros((2, 2)),
        sigma_w=[np.zeros((2, 2))])
    _, gains = plant_kalman_covariances(p)
    x = np.zeros(2)
    st = plant_kalman_init(p)
    rng = np.random.default_rng(25)
    for t in range(1, p.T):
        assert_allclose(st.xhat, x, atol=1e-12)
        u = rng.standard_normal(1)
        y = p.C[t - 1] @ x
        st = plant_kalman_step(p, st, y, u, gains)
        x = p.A[t - 1] @ x + p.B[t - 1] @ u


def test_plant_kalman_pure_prediction_when_unobservable():
    p = PlantModel.create(
        n=1, T=4, d_x=1, d_u=(1,), d_y=(1,), A=[[0.9]], B=[[1.0]],
        C=[np.zeros((1, 1))], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]]])
    _, gains = plant_kalman_covariances(p)
    st = plant_kalman_init(p)
    st = plant_kalman_step(p, st, [3.0], [2.0], gains)
    assert_allclose(st.xhat, [2.0])     # A*0 + B*2 + gain*(...) with gain 0


def test_plant_kalman_scalar_covariance_hand_value():
    p = PlantModel.create(
        n=1, T=3, d_x=1, d_u=(1,), d_y=(1,), A=[[1.0]], B=[[1.0]],
        C=[[[1.0]]], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]]])
    P, _ = plant_kalman_covariances(p)
    assert P[0] == pytest.approx(1.0)
    assert P[1] == pytest.approx(1.5)   # 1*1*1 + 1 - 1*[1+1]^{-1}*1


def test_plant_kalman_covariance_strategy_independent(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(26)
    base, _ = plant_kalman_covariances(scalar2)
    for _ in range(10):
        LocalGains.random(scalar2, mp, rng, 1.0)   # vary strategies
        again, _ = plant_kalman_covariances(scalar2)
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
    P, _ = plant_kalman_covariances(p)
    for scale in (0.0, 0.5):
        ss = solve(p, mp, LocalGains.random(p, mp, rng, scale))
        assert ss.cs.d_c == 0
        assert_allclose(ss.Ptilde, P[:p.T], rtol=0, atol=1e-12)


def test_statistic_transition_depends_on_gains(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(27)
    ss1 = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    ss2 = solve(scalar2, mp, LocalGains.random(scalar2, mp, rng, 0.5))
    t1 = statistic_transition(ss1, 2)[0]
    t2 = statistic_transition(ss2, 2)[0]
    assert np.abs(t1 - t2).max() > 1e-6


def test_reduced_stat_k1_is_predictor_alone(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    tracker = DelayedStatTracker.create(scalar2, mp)
    assert tracker.stat().vector().shape == (1,)
    _, gains = plant_kalman_covariances(scalar2)
    rng = np.random.default_rng(28)
    kal = plant_kalman_init(scalar2)
    for t in range(1, scalar2.T):
        y = rng.standard_normal(2)
        u = rng.standard_normal(2)
        tracker = tracker.advance(y, u, u)
        kal = plant_kalman_step(scalar2, kal, y, u, gains)
        assert_allclose(tracker.stat().vector(), kal.xhat)


def test_reduced_stat_k2_window_bookkeeping(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    tracker = DelayedStatTracker.create(scalar2, mp)
    rng = np.random.default_rng(29)
    ys = [rng.standard_normal(2) for _ in range(3)]
    us = [rng.standard_normal(2) for _ in range(3)]
    uts = [rng.standard_normal(2) for _ in range(3)]
    for t in range(3):
        tracker = tracker.advance(ys[t], us[t], uts[t])
    # at t = 4 (k = 2): S_4 = (xhat_{3|2}, Ut~_3, Y_2, U_2)
    st = tracker.stat()
    assert_allclose(st.u_tilde_window[0], uts[2])
    assert_allclose(st.y_window[0], ys[1])
    assert_allclose(st.u_window[0], us[1])
    _, gains = plant_kalman_covariances(scalar2)
    kal = plant_kalman_init(scalar2)
    kal = plant_kalman_step(scalar2, kal, ys[0], us[0], gains)
    kal = plant_kalman_step(scalar2, kal, ys[1], us[1], gains)
    assert_allclose(st.xhat, kal.xhat)


def test_effective_delay_requires_delayed_protocol(scalar2):
    mp = build_control_sharing(scalar2)
    with pytest.raises(UnsupportedProtocol):
        effective_delay(mp)


def test_delayed_stat_map_k1_identity(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    for t in range(1, scalar2.T + 1):
        assert_allclose(delayed_stat_map(cs, 1, t), np.eye(1))


def test_delayed_stat_map_wrong_delay_rejected(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_map(cs, 3, 2)
    mp2 = build_control_sharing(scalar2)
    cs2 = build(scalar2, mp2, LocalGains.zeros(scalar2, mp2))
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_map(cs2, 1, 2)


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
    for t in range(1, p.T + 1):
        mmap = delayed_stat_map(ss.cs, 2, t)
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
    """Figure-1 graph: the assembly at k* exists, but the exact statistic is
    not a linear function of it (controller 2's data goes common faster than
    the windows extend), so the map is refused."""
    p = _three_controller_plant()
    g = DelayGraph.create([[1, 1, 2], [1, 1, 1], [2, 1, 1]])
    mp = build_asymmetric_delay(p, g)
    assert effective_delay(mp) == 2
    tracker = DelayedStatTracker.create(p, mp)
    assert tracker.stat().vector().shape[0] == 2 + 1 * (3 + 3 + 3)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    with pytest.raises(UnsupportedProtocol):
        delayed_stat_map(cs, 2, 3)


def test_asymmetric_reduced_stat_uniform_worst_case_delay():
    # equal k*_j: the common history matches the windows and the map is exact
    p = _three_controller_plant()
    g = DelayGraph.create([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
    mp = build_asymmetric_delay(p, g)
    assert effective_delay(mp) == 2
    rng = np.random.default_rng(40)
    ss = solve(p, mp, LocalGains.random(p, mp, rng, 0.2))
    prims = draw_primitives(p, seed=41, count=5)
    rb = rollout_plant(p, mp, ss.gains, StatisticPolicy(ss), prims, keep=5)
    maps = [delayed_stat_map(ss.cs, 2, t) for t in range(1, p.T + 1)]
    for r in range(5):
        ro = rb.samples[r]
        tracker = DelayedStatTracker.create(p, mp)
        for t in range(1, p.T + 1):
            gap = np.abs(ro.stat[t - 1]
                         - maps[t - 1] @ tracker.stat().vector()).max()
            assert gap < 1e-8, (r, t, gap)
            tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                      ro.u_tilde[t - 1])


def _token_stat_map(cs, k, t):
    """Reference for ``delayed_stat_map``: the carrier slots at t - k + 1 are
    matched to S_t's window entries through the protocol's symbolic tokens."""
    plant = cs.plant
    d_x, d_u, d_y = plant.d_x, plant.d_u_total, plant.d_y_total
    dim_s = delay_stat_dim(plant, k)
    tau = t - k + 1
    offsets = {"y": np.cumsum((0,) + plant.d_y), "u": np.cumsum((0,) + plant.d_u)}
    y0 = d_x + (k - 1) * d_u
    window = {"y": (y0, d_y), "u": (y0 + (k - 1) * d_y, d_u)}
    if tau >= 1:
        base = np.zeros((d_x + cs.d_c, dim_s))
        base[:d_x, :d_x] = np.eye(d_x)
        for r, tok in enumerate(token_trace(cs.protocol).carrier[tau]):
            if tok is not None:
                kind, i, s, comp = tok
                first, width = window[kind]
                col = first + (s - (t - 2 * k + 2)) * width
                base[d_x + r, col + offsets[kind][i] + comp] = 1.0
        emap = base
        start = tau
    else:
        emap = np.zeros((cs.d_state, dim_s))
        start = 1
    for s in range(start, t):
        sel = np.zeros((d_u, dim_s))
        sel[:, d_x + (s - tau) * d_u:d_x + (s - tau + 1) * d_u] = np.eye(d_u)
        emap = cs.A[s - 1] @ emap + cs.B[s - 1] @ sel
    return emap


@pytest.mark.parametrize("protocol", ["sym-1", "sym-2", "sym-3", "sym-4",
                                      "wide-3", "asym-equal"])
def test_delayed_stat_gains_equal_per_step_maps(protocol):
    # both must equal, bit for bit, the token-based reference map
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
    assert len(gains) == p.T
    for t in range(1, p.T + 1):
        ref = _token_stat_map(ss.cs, k, t)
        assert np.array_equal(delayed_stat_map(ss.cs, k, t), ref), t
        assert np.array_equal(gains[t - 1], ss.Lgain[t - 1] @ ref), t


@st.composite
def _delayed_sharing_cases(draw):
    """(plant, protocol, k, seed): symmetric, or asymmetric with equal k*_j."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.sampled_from([1, 2, 3]))
    T = draw(st.integers(k, 8))
    d_x = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = random_plant(rng, n=n, d_x=d_x, T=T)
    if draw(st.booleans()):
        return p, build_symmetric_delay(p, k), k, seed
    # off-diagonal delays in 1..k, each column reaching k somewhere
    delays = np.ones((n, n), dtype=int)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for i in others:
            delays[i, j] = draw(st.integers(1, k))
        delays[draw(st.sampled_from(others)), j] = k
    return p, build_asymmetric_delay(p, DelayGraph.create(delays)), k, seed


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@seed(1103)
@given(_delayed_sharing_cases())
def test_delayed_stat_gains_reproduce_solver_actions(case):
    p, mp, k, seed = case
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
