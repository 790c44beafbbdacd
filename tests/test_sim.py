import copy
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (DelayGraph, DimMismatch, InvalidMatrix, StatisticPolicy,
                    LocalGains, NumericalBreakdown, PlantModel,
                    SolvedStrategy, TimeOutOfRange, ZHistoryPolicy,
                    build, build_asymmetric_delay,
                    build_control_sharing, build_one_sided,
                    build_symmetric_delay, closed_loop_cost_exact,
                    draw_primitives, exact_cost, explicit_protocol,
                    forward_riccati, gaussian_conditioning, random_theta_maps,
                    rollout_coordinated, rollout_plant, simulate, solve,
                    strategy_theta_maps)
from declqg.cli import (DEMOS, load_scenario, strategy_from_doc,
                        strategy_to_doc)
from declqg.core import DEFAULT_RTOL, seeded_stream
from declqg.infostructure import BLOCK_NAMES
from declqg import oracles, sim
from declqg.oracles import closed_loop_maps
from declqg.sim import BLOCK, ROLL_ROWS, Rollout, RolloutBatch

from conftest import check_generated, random_plant, scalar_two_controller

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import McRollouts, Recorder  # noqa: E402



#: ``dir(declqg)`` after ``import declqg``, submodules included.
PUBLIC_NAMES = [
    "CoordinatedSystem", "DEFAULT_RTOL", "DelayGraph", "DelayedStatPolicy",
    "DelayedStatTracker", "DimMismatch", "InvalidDelay", "InvalidMatrix",
    "LocalGains", "MemoryProtocol", "NumericalBreakdown", "PlantModel",
    "PolicyWalker", "Rollout", "RolloutBatch", "SolvedStrategy",
    "StatisticPolicy", "TimeOutOfRange",
    "UnsupportedProtocol", "WrongControllerCount", "ZHistoryPolicy", "act",
    "backward_riccati", "build", "build_asymmetric_delay",
    "build_control_sharing", "build_one_sided", "build_symmetric_delay",
    "closed_loop_cost_exact", "coordination", "core", "delayed_stat_gains",
    "delayed_stat_map", "draw_primitives", "estimator", "exact_cost",
    "explicit_protocol", "forward_riccati", "gaussian_conditioning",
    "infostructure", "oracles", "plant",
    "random_theta_maps", "rollout_coordinated", "rollout_plant",
    "seeded_stream", "sim", "simulate", "solve", "solver",
    "strategy_theta_maps", "token_trace", "tune", "validate"]


def test_package_exports_exactly_its_public_names():
    # a fresh interpreter: other tests' imports (declqg.cli) add submodules
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import declqg; print(*sorted("
         "n for n in dir(declqg) if not n.startswith('_')))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60, check=True)
    assert proc.stdout.split() == PUBLIC_NAMES


def test_sim_defines_no_oracle():
    for name in ("ZHistoryPolicy", "random_theta_maps", "strategy_theta_maps",
                 "CoordinatedRollout", "rollout_coordinated", "JointGaussian",
                 "closed_loop_maps", "gaussian_conditioning"):
        assert hasattr(oracles, name) and not hasattr(sim, name), name


def test_non_finite_innovation_map_is_a_breakdown():
    # Z_2's map holds inf: the breakdown names its step before the SVD,
    # which may raise LinAlgError on it or never return (a subprocess,
    # under a timeout)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import numpy as np\n"
         "from declqg.oracles import JointGaussian\n"
         "jg = JointGaussian(xtilde=(np.eye(4),), ytilde=(np.eye(4), "
         "np.full((4, 4), np.inf)), utilde=())\n"
         "try:\n    jg.innovations(2)\n"
         "except ArithmeticError as e:\n    print(type(e).__name__, e)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60, check=True)
    assert proc.stdout == ("NumericalBreakdown innovation map is not finite "
                           "(t=2)\n")


def test_zero_noise_zero_gain_rollouts_cost_nothing():
    p = PlantModel.create(
        n=2, T=4, d_x=1, d_u=(1, 1), d_y=(1, 1), A=[[0.9]], B=[[1.0, 0.5]],
        C=[[[1.0]], [[0.7]]], Q=[[1.0]], R=np.eye(2), sigma_x=[[0.0]],
        sigma_w0=[[0.0]], sigma_w=[[[0.0]], [[0.0]]])
    mp = build_symmetric_delay(p, 1)
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    mc = simulate(p, mp, LocalGains.zeros(p, mp), ss, seed=1, count=50)
    assert_allclose(mc.costs, 0.0, atol=1e-20)


def test_same_seed_bitwise_identical(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    a = simulate(scalar2, mp, ss.gains, ss, seed=5, count=500)
    b = simulate(scalar2, mp, ss.gains, ss, seed=5, count=500)
    assert a.costs.tobytes() == b.costs.tobytes()


def test_primitives_prefix_property(scalar2):
    small = draw_primitives(scalar2, seed=9, count=10)
    large = draw_primitives(scalar2, seed=9, count=40)
    assert np.array_equal(small.x1, large.x1[:10])
    assert np.array_equal(small.w0[2], large.w0[2][:10])


def test_monte_carlo_matches_J(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    mc = simulate(scalar2, mp, ss.gains, ss, seed=2, count=100_000)
    assert abs(mc.mean - ss.J) < 3 * mc.stderr


def test_exact_cost_matches_J_and_monte_carlo(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(34)
    lg = LocalGains.random(scalar2, mp, rng, 0.3)
    ss = solve(scalar2, mp, lg)
    exact = exact_cost(scalar2, mp, lg, ss)
    assert abs(exact - ss.J) < 1e-8
    mc = simulate(scalar2, mp, lg, ss, seed=3, count=20_000)
    assert abs(mc.mean - exact) < 3 * mc.stderr


def test_exact_cost_rejects_mismatched_strategy(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(35), 0.3)
    ss = solve(scalar2, mp, lg)
    # an equal copy passes; other gains, another plant or protocol object fail
    assert exact_cost(scalar2, mp, LocalGains.from_vector(scalar2, mp, lg.theta),
                      ss) == exact_cost(scalar2, mp, lg, ss)
    for args in ((scalar2, mp, LocalGains.zeros(scalar2, mp)),
                 (scalar_two_controller(), mp, lg),
                 (scalar2, build_symmetric_delay(scalar2, 2), lg)):
        with pytest.raises(ValueError, match="another plant"):
            exact_cost(*args, ss)


@pytest.mark.parametrize("name", ["symmetric-k2", "figure1-asymmetric",
                                  "control-sharing"])
def test_exact_cost_at_a_non_optimal_strategy_matches_monte_carlo(name):
    # L~ off the optimum by 0.3 N(0, 1), run as a gains-only strategy; the
    # coordinated recursion does not read the plant's step maps.  Random
    # local gains: at the demos' zero gains control sharing reveals nothing
    # of the state, so the statistic stays 0 and L~ does not act.
    sc = load_scenario(copy.deepcopy(DEMOS[name]["config"]))
    rng = np.random.default_rng(23)
    ss = solve(sc.plant, sc.protocol,
               LocalGains.random(sc.plant, sc.protocol, rng, 0.3))
    L = ss.Lgain + 0.3 * rng.standard_normal(ss.Lgain.shape)
    exact = closed_loop_cost_exact(ss.cs, L, ss.filter_gain)
    assert exact > ss.J
    policy = StatisticPolicy(SolvedStrategy(
        cs=ss.cs, Lgain=L, filter_gain=ss.filter_gain, J=float("nan")))
    costs = rollout_coordinated(ss.cs, policy, draw_primitives(
        sc.plant, seed=23, count=20_000)).costs
    stderr = np.std(costs, ddof=1) / np.sqrt(len(costs))
    assert abs(np.mean(costs) - exact) < 4 * stderr


def test_closed_loop_cost_exact_rejects_bad_gains(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    L, K = list(ss.Lgain), ss.filter_gain
    with pytest.raises(DimMismatch, match="need 5 gain matrices, got 4"):
        closed_loop_cost_exact(ss.cs, L[:-1], K)
    for bad, error in ((L[2][:, :-1], DimMismatch),
                       (np.full_like(L[2], np.nan), InvalidMatrix)):
        with pytest.raises(error, match=r"L\[t=3\]"):
            closed_loop_cost_exact(ss.cs, L[:2] + [bad] + L[3:], K)
    # the filter gains likewise: T - 1 of them, each checked
    K = list(K)
    with pytest.raises(DimMismatch,
                       match="need 4 filter gain matrices, got 3"):
        closed_loop_cost_exact(ss.cs, L, K[:-1])
    for bad, error in ((K[1][:, :-1], DimMismatch),
                       (np.full_like(K[1], np.nan), InvalidMatrix)):
        with pytest.raises(error, match=r"K\[t=2\]"):
            closed_loop_cost_exact(ss.cs, L, K[:1] + [bad] + K[2:])


def _malformed_policy_calls():
    """(call, error, message) on scalar2 under 2-step sharing: a call takes
    (p, mp, lg, ss, thetas) and must raise ``error`` matching ``message``."""
    def nan_at_3(thetas):
        thetas[2] = np.full_like(thetas[2], np.nan)
        return ZHistoryPolicy(thetas)

    def wide_at_3(thetas):
        thetas[2] = np.hstack([thetas[2], thetas[2][:, :1]])
        return ZHistoryPolicy(thetas)

    def short(thetas):
        return ZHistoryPolicy(thetas[:-1])

    def narrow_z(thetas):     # a consistent history over 3 wide Z, d_z = 4
        return ZHistoryPolicy(
            [np.ones((len(th), t * 3)) for t, th in enumerate(thetas)])

    shorter_plant = scalar_two_controller(T=4)
    runs = {
        "plant": lambda p, mp, lg, ss, pol: rollout_plant(
            p, mp, lg, pol, draw_primitives(p, seed=1, count=3)),
        "moments": lambda p, mp, lg, ss, pol: sim._moment_cost(p, mp, lg, pol),
        "coordinated": lambda p, mp, lg, ss, pol: rollout_coordinated(
            ss.cs, pol, draw_primitives(p, seed=1, count=3))}
    for make, error, message in (
            (nan_at_3, InvalidMatrix, r"thetas\[t=3\]"),
            (wide_at_3, DimMismatch, r"thetas\[t=3\]"),
            (short, DimMismatch, r"policy L: shape \(4, 2, 12\)"),
            (narrow_z, DimMismatch,
             r"policy Tz: shape \(4, 12, 3\), need \(4, 12, 4\)")):
        for name, run in runs.items():
            yield pytest.param(
                lambda p, mp, lg, ss, thetas, make=make, run=run: run(
                    p, mp, lg, ss, make(thetas)),
                error, message, id=f"{make.__name__}-{name}")
    yield pytest.param(
        lambda p, mp, lg, ss, thetas: rollout_plant(
            p, mp, lg, ZHistoryPolicy(thetas),
            draw_primitives(shorter_plant, seed=1, count=3)),
        DimMismatch, "another size", id="short-primitives-plant")
    yield pytest.param(
        lambda p, mp, lg, ss, thetas: rollout_coordinated(
            ss.cs, ZHistoryPolicy(thetas),
            draw_primitives(shorter_plant, seed=1, count=3)),
        DimMismatch, "another plant", id="short-primitives-coordinated")


@pytest.mark.parametrize("call, error, message",
                         list(_malformed_policy_calls()))
def test_malformed_policies_and_primitives_raise_typed_errors(
        scalar2, call, error, message):
    # before these checks a NaN Theta_t gave nan costs, and the others
    # ended in numpy's ValueError or an IndexError
    mp = build_symmetric_delay(scalar2, 2)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(61), 0.3)
    ss = solve(scalar2, mp, lg)
    thetas = random_theta_maps(ss.cs, np.random.default_rng(62), 0.3)
    with pytest.raises(error, match=message):
        call(scalar2, mp, lg, ss, thetas)


def test_simulate_rejects_mismatched_strategy(scalar2):
    # the check exact_cost makes: a strategy solved at zero gains is not
    # run with other gains, nor with another plant or protocol object
    mp = build_symmetric_delay(scalar2, 2)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(35), 0.3)
    for args in ((scalar2, mp, lg), (scalar_two_controller(), mp, ss.gains),
                 (scalar2, build_symmetric_delay(scalar2, 2), ss.gains)):
        with pytest.raises(ValueError, match="another plant"):
            simulate(*args, ss, seed=1, count=10)


@pytest.mark.parametrize("count, sample_count", [(0, 0), (-1, 0), (5, -2)])
def test_simulate_rejects_out_of_range_counts(scalar2, count, sample_count):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    with pytest.raises(ValueError, match="count >= 1 and sample_count >= 0"):
        simulate(scalar2, mp, ss.gains, ss, seed=1, count=count,
                 sample_count=sample_count)


@pytest.mark.parametrize("kwargs, name", [
    (dict(seed=1.5, count=5), "seed"), (dict(seed=True, count=5), "seed"),
    (dict(seed=1, count=2.5), "count"), (dict(seed=1, count=5.0), "count"),
    (dict(seed=1, count=5, sample_count=1.5), "sample_count"),
    (dict(seed=1, count=5, sample_count=True), "sample_count")])
def test_simulate_rejects_non_integer_seed_and_counts(scalar2, kwargs, name):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simulate(scalar2, mp, ss.gains, ss, **kwargs)


@pytest.mark.parametrize("keep, error", [
    (-1, "keep >= 0"), (2.5, "keep must be an integer"),
    (True, "keep must be an integer")])
def test_rollout_plant_rejects_a_bad_keep(scalar2, keep, error):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    prims = draw_primitives(scalar2, seed=1, count=4)
    with pytest.raises(ValueError, match=error):
        rollout_plant(scalar2, mp, ss.gains, StatisticPolicy(ss), prims,
                      keep=keep)


def test_simulate_accepts_numpy_integers(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    a = simulate(scalar2, mp, ss.gains, ss, seed=np.int64(3),
                 count=np.int32(20), sample_count=np.uint8(2))
    b = simulate(scalar2, mp, ss.gains, ss, seed=3, count=20, sample_count=2)
    assert np.array_equal(a.costs, b.costs) and len(a.samples) == 2


def test_costs_do_not_depend_on_count_across_block_edges():
    # vector signals, so that one-row and tail-row products round their own way
    rng = np.random.default_rng(37)
    p = random_plant(rng, n=2, d_x=2, d_y=(1, 1), d_u=(1, 1), T=5)
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 0.3)
    ss = solve(p, mp, lg)
    counts = (1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
    costs = [simulate(p, mp, lg, ss, seed=8, count=n).costs for n in counts]
    for n, small in zip(counts, costs):
        for large in costs:
            if len(large) >= n:
                assert np.array_equal(small, large[:n]), (n, len(large))


def test_costs_do_not_depend_on_count_on_a_44_state_coordinator():
    # rows-major products, one row per rollout, gave counts 16 and 256
    # costs a few ulps off the first rows of count 8192 here
    rng = np.random.default_rng([5, 2])
    p = random_plant(rng, n=4, d_x=8, d_y=(2,) * 4, d_u=(1,) * 4, T=6)
    mp = build_symmetric_delay(p, 4)
    lg = LocalGains.random(p, mp, rng, 0.1)
    ss = solve(p, mp, lg)
    assert ss.cs.d_state == 44
    large = simulate(p, mp, lg, ss, seed=3, count=2 * BLOCK).costs
    for n in (16, 256):
        small = simulate(p, mp, lg, ss, seed=3, count=n).costs
        assert np.array_equal(small, large[:n]), n


def _literal_rollout(plant, mp, gains, policy, prims, keep):
    """The plant's equations written out signal by signal on the scaled
    primitives, one product per term: the reference ``rollout_plant``
    composes into one map per step."""
    count = prims.count
    x = prims.x1
    c = np.zeros((count, mp.d_carrier))
    L, Ts, Tu, Tz = policy
    state = np.zeros((count, L.shape[-1]))
    costs = np.zeros(count)
    rec = []     # per step: kept rows of x, y, m, c, z, u, Ut~, cost, stat
    for t in range(1, plant.T + 1):
        y = x @ plant.C[t - 1].T + prims.wy[t - 1]
        m = c @ mp.m_sel.T
        utilde = state @ L[t - 1].T
        u = utilde + y @ gains.G[t - 1].T + m @ gains.H[t - 1].T
        z = c @ mp.zc.T + y @ mp.zy.T + u @ mp.zu.T
        sc = np.einsum("ri,ri->r", x @ plant.Q, x) \
            + np.einsum("ri,ri->r", u @ plant.R, u)
        costs += sc
        rec.append([v[:keep].copy()
                    for v in (x, y, m, c, z, u, utilde, sc, state)])
        if t < plant.T:
            x = x @ plant.A[t - 1].T + u @ plant.B[t - 1].T + prims.w0[t - 1]
            c = c @ mp.cc.T + y @ mp.cy.T + u @ mp.cu.T
            state = (state @ Ts[t - 1].T + utilde @ Tu[t - 1].T
                     + z @ Tz[t - 1].T)
    xs, ys, ms, carriers, zs, us, uts, scs, stat = (
        np.stack(seq, axis=1) for seq in zip(*rec))
    samples = [Rollout(x=xs[r], y=ys[r], m=ms[r], carrier=carriers[r],
                       z=zs[r], u=us[r], u_tilde=uts[r], stat=stat[r],
                       step_costs=scs[r]) for r in range(keep)]
    return RolloutBatch(costs=costs, samples=tuple(samples))


def _horizon_cases():
    """Time-varying plants whose horizon T is 1, 2, 9 or 17: steps 2..T-1
    make one run of ``_step_maps`` by default (the maps are small), and
    several when runs are cut to 1 or 3 steps."""
    for T in (1, 2, 9, 17):
        p = random_plant(np.random.default_rng([46, T]), n=2, d_x=2,
                         d_y=(2, 1), d_u=(1, 2), T=T, time_varying=True)
        yield pytest.param(p, build_symmetric_delay(p, min(2, T)),
                           id=f"T={T}")


def _literal_cases():
    """The five demo plants and protocols, random time-varying plants under
    every protocol family that fits them, and ``_horizon_cases``."""
    for name, demo in DEMOS.items():
        sc = load_scenario(copy.deepcopy(demo["config"]))
        yield pytest.param(sc.plant, sc.protocol, id=name)
    rng = np.random.default_rng(43)
    p = random_plant(rng, n=2, d_x=3, d_y=(2, 1), d_u=(1, 2), T=6,
                     time_varying=True)
    yield pytest.param(p, build_symmetric_delay(p, 2), id="random-symmetric")
    yield pytest.param(p, build_one_sided(p), id="random-one-sided")
    p = random_plant(rng, n=3, d_x=2, d_y=(1, 2, 1), d_u=(1, 1, 2), T=5,
                     time_varying=True, singular_w=True)
    graph = DelayGraph.create([[1, 2, 3], [1, 1, 2], [3, 1, 1]])
    yield pytest.param(p, build_asymmetric_delay(p, graph),
                       id="random-asymmetric")
    yield pytest.param(p, build_control_sharing(p),
                       id="random-control-sharing")
    yield from _horizon_cases()


@pytest.mark.parametrize("policy", ["statistic", "z-history"])
@pytest.mark.parametrize("p, mp", list(_literal_cases()))
def test_rollout_matches_the_literal_equations(p, mp, policy):
    rng = np.random.default_rng(44)
    lg = LocalGains.random(p, mp, rng, 0.3)
    ss = solve(p, mp, lg)
    pol = (StatisticPolicy(ss) if policy == "statistic"
           else ZHistoryPolicy(random_theta_maps(ss.cs, rng, 0.3)))
    prims = draw_primitives(p, seed=12, count=37)
    got = rollout_plant(p, mp, lg, pol, prims, keep=5)
    want = _literal_rollout(p, mp, lg, pol, prims, keep=5)
    assert_allclose(got.costs, want.costs, rtol=1e-12, atol=0)
    assert len(got.samples) == 5
    for field in vars(want.samples[0]):
        # contiguous, so arithmetic on a field rounds as on a copy of it
        assert all(getattr(ro, field).flags.c_contiguous
                   for ro in got.samples), field
        a, b = (np.stack([getattr(ro, field) for ro in batch.samples])
                for batch in (got, want))
        assert a.shape == b.shape, field
        scale = np.abs(b).max(initial=0.0)
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale, field


@pytest.mark.parametrize("policy", ["statistic", "z-history"])
@pytest.mark.parametrize("p, mp", list(_horizon_cases()))
def test_step_maps_do_not_depend_on_the_chunks(p, mp, policy, monkeypatch):
    rng = np.random.default_rng(45)
    lg = LocalGains.random(p, mp, rng, 0.3)
    ss = solve(p, mp, lg)
    pol = (StatisticPolicy(ss) if policy == "statistic"
           else ZHistoryPolicy(random_theta_maps(ss.cs, rng, 0.3)))
    steps, records = sim._step_maps(p, mp, lg, pol)
    assert len(steps) == len(records) == p.T
    stack, runs = sim._stack, []     # the steps of each stacked run

    def counted(signals, cols, steps):
        runs.append(steps)
        return stack(signals, cols, steps)
    monkeypatch.setattr(sim, "_stack", counted)
    for chunk in (1, 3):
        # an entry budget of ``chunk`` maps of v_t's width squared
        monkeypatch.setattr(sim, "RUN_STEPS", 1)
        monkeypatch.setattr(sim, "RUN_ENTRIES",
                            chunk * steps[-1].shape[1] ** 2)
        runs.clear()
        for got, want in zip(sim._step_maps(p, mp, lg, pol),
                             (steps, records)):
            assert len(got) == len(want) == p.T
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(got, want)), chunk
        # both kinds of policy run steps 2..T-1 in stacked runs
        assert max(runs) == min(chunk, max(1, p.T - 2)), chunk
    without = sim._step_maps(p, mp, lg, pol, records=False)
    assert without[1] == ()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(without[0], steps))


def test_maps_of_a_44_state_coordinator_stay_small():
    # the instance of test_costs_do_not_depend_on_count_on_a_44_state_
    # coordinator; a record map for every kept signal, x, c and the
    # statistic included, put this call at 1 445 063 B under tracemalloc,
    # record maps of y, m, z and Ut~ alone at 1 057 780 B
    rng = np.random.default_rng([5, 2])
    p = random_plant(rng, n=4, d_x=8, d_y=(2,) * 4, d_u=(1,) * 4, T=6)
    mp = build_symmetric_delay(p, 4)
    lg = LocalGains.random(p, mp, rng, 0.1)
    ss = solve(p, mp, lg)
    assert ss.cs.d_state == 44
    simulate(p, mp, lg, ss, seed=3, count=3, sample_count=3)    # warm-up
    tracemalloc.start()
    try:
        batch = simulate(p, mp, lg, ss, seed=3, count=3, sample_count=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch.samples) == 3 and batch.samples[0].stat.shape == (6, 44)
    assert peak <= 1_200_000, peak


def test_primitives_prefix_property_across_block_edge(scalar2):
    large = draw_primitives(scalar2, seed=9, count=2 * BLOCK + 3)
    for n in (BLOCK - 1, BLOCK + 1):
        small = draw_primitives(scalar2, seed=9, count=n)
        assert np.array_equal(small.x1, large.x1[:n])
        assert np.array_equal(small.w0, large.w0[:, :n])
        assert np.array_equal(small.wy, large.wy[:, :n])
    assert large.w0.shape == (scalar2.T, 2 * BLOCK + 3, scalar2.d_x)


def test_samples_across_block_edge_equal_one_unblocked_rollout(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(38), 0.3)
    ss = solve(scalar2, mp, lg)
    count, keep = 2 * BLOCK + 3, BLOCK + 2
    mc = simulate(scalar2, mp, lg, ss, seed=10, count=count, sample_count=keep)
    ref = rollout_plant(scalar2, mp, lg, StatisticPolicy(ss),
                        draw_primitives(scalar2, seed=10, count=count),
                        keep=keep)
    assert np.array_equal(mc.costs, ref.costs)
    assert len(mc.samples) == len(ref.samples) == keep
    for got, want in zip(mc.samples, ref.samples):
        for name in vars(want):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.fixture(scope="module")
def vector_case():
    # vector signals, so that one-row and tail-row products round their own way
    rng = np.random.default_rng(41)
    p = random_plant(rng, n=2, d_x=2, d_y=(1, 1), d_u=(1, 1), T=5)
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 0.3)
    return p, mp, lg, solve(p, mp, lg)


@pytest.mark.parametrize("count, keep", [
    (1, 3), (ROLL_ROWS - 1, 3), (ROLL_ROWS + 1, 3), (ROLL_ROWS + 8, 3),
    (BLOCK - 1, 3), (BLOCK + 1, 3), (2 * BLOCK + 3, 3),
    (2 * BLOCK + 3, ROLL_ROWS + 2), (2 * BLOCK + 3, BLOCK + 2)])
def test_results_do_not_depend_on_workers_or_chunks(vector_case, count, keep,
                                                   monkeypatch):
    p, mp, lg, ss = vector_case
    ref = rollout_plant(p, mp, lg, StatisticPolicy(ss),
                        draw_primitives(p, seed=12, count=count), keep=keep)
    for workers in (1, 2, 3):
        monkeypatch.setattr(sim, "WORKERS", workers)
        mc = simulate(p, mp, lg, ss, seed=12, count=count, sample_count=keep)
        assert np.array_equal(mc.costs, ref.costs), workers
        assert len(mc.samples) == len(ref.samples) == min(count, keep)
        for got, want in zip(mc.samples, ref.samples):
            for name in vars(want):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), (workers, name)


def test_more_workers_than_cores_under_fast_switching_agree_with_one(
        scalar2, monkeypatch):
    mp = build_symmetric_delay(scalar2, 1)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(39), 0.3)
    ss = solve(scalar2, mp, lg)
    count, keep = 12 * BLOCK + 5, BLOCK + 2
    monkeypatch.setattr(sim, "WORKERS", 1)
    want = simulate(scalar2, mp, lg, ss, seed=15, count=count,
                    sample_count=keep)
    monkeypatch.setattr(sim, "WORKERS", 2 * (os.cpu_count() or 1) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = simulate(scalar2, mp, lg, ss, seed=15, count=count,
                       sample_count=keep)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.costs, want.costs)
    assert len(got.samples) == keep
    for a, b in zip(got.samples, want.samples):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.stat, b.stat)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failing_block_re_raises_and_leaves_no_thread(scalar2, workers,
                                                       monkeypatch):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    seed, error = 13, RuntimeError("rollout failed")
    # block 1's first chunk opens with the first row of its stream
    first = seeded_stream(seed, 1).standard_normal(sim._width(scalar2))
    rollout = sim.rollout_plant

    def failing(plant, mp, gains, policy, prims, *args, **kwargs):
        if np.array_equal(prims.normals[:, 0], first):
            raise error
        return rollout(plant, mp, gains, policy, prims, *args, **kwargs)

    monkeypatch.setattr(sim, "WORKERS", workers)
    monkeypatch.setattr(sim, "rollout_plant", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        simulate(scalar2, mp, ss.gains, ss, seed=seed, count=4 * BLOCK)
    assert caught.value is error
    assert threading.active_count() == before


def test_a_one_block_call_starts_no_thread(scalar2, monkeypatch):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))

    def no_thread(self):
        raise AssertionError("simulate started a thread")

    monkeypatch.setattr(sim, "WORKERS", 2)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    mc = simulate(scalar2, mp, ss.gains, ss, seed=14, count=BLOCK,
                  sample_count=2)
    assert len(mc.costs) == BLOCK and len(mc.samples) == 2


def test_threaded_simulate_peaks_below_the_serial_block_loop(monkeypatch):
    # the mc-rollouts plant: one block at a time on one thread peaked at
    # 4 746 317 B here; two workers holding a 1 024-rollout chunk each
    # peak at about 3.26 MB
    wl = McRollouts(seed=0, tiny=False)
    wl.setup(Recorder())
    monkeypatch.setattr(sim, "WORKERS", 2)
    tracemalloc.start()
    try:
        simulate(wl.plant, wl.mp, wl.gains, wl.ss, seed=12, count=8 * BLOCK,
                 sample_count=wl.kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_746_317, peak


def test_simulate_peak_memory_grows_only_with_the_costs(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    n = 2 * BLOCK

    def peak(count):
        tracemalloc.start()
        try:
            simulate(scalar2, mp, ss.gains, ss, seed=11, count=count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(n)     # warm-up: first-call allocations are not the simulation's
    assert peak(4 * n) - peak(n) <= 8 * 3 * n + 64 * 1024


def test_stderr_scales_like_inverse_sqrt_count(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    prev = None
    for count in (1000, 10_000, 100_000):
        mc = simulate(scalar2, mp, ss.gains, ss, seed=4, count=count)
        if prev is not None:
            ratio = prev / mc.stderr
            assert abs(ratio - np.sqrt(10)) < 0.2 * np.sqrt(10)
        prev = mc.stderr


def test_conditioning_map_at_t1_is_zero(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    thetas = random_theta_maps(cs, np.random.default_rng(35), 0.2)
    omap = gaussian_conditioning(cs, thetas, 1)
    assert omap.shape == (cs.d_state, 0)


@pytest.mark.parametrize("t", [0, -1, 6, 99])
def test_conditioning_rejects_a_step_outside_the_horizon(scalar2, t):
    mp = build_symmetric_delay(scalar2, 1)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    thetas = random_theta_maps(cs, np.random.default_rng(35), 0.2)
    with pytest.raises(TimeOutOfRange, match=f"t={t} outside 1..5"):
        gaussian_conditioning(cs, thetas, t)
    with pytest.raises(ValueError, match="t must be an integer"):
        gaussian_conditioning(cs, thetas, 2.5)


def test_conditioning_recovers_state_when_observations_reveal_it():
    # noiseless scalar plant with C = 1 and k = 1: Z reveals X exactly
    p = PlantModel.create(
        n=1, T=4, d_x=1, d_u=(1,), d_y=(1,), A=[[0.9]], B=[[1.0]],
        C=[[[1.0]]], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[0.0]], sigma_w=[[[0.0]]])
    mp = build_symmetric_delay(p, 1)
    lg = LocalGains.zeros(p, mp)
    cs = build(p, mp, lg)
    rng = np.random.default_rng(36)
    thetas = random_theta_maps(cs, rng, 0.2)
    prims = draw_primitives(p, seed=6, count=5)
    rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims, keep=5)
    for t in (2, 3, 4):
        omap = gaussian_conditioning(cs, thetas, t)
        for r in range(5):
            ro = rb.samples[r]
            est = omap @ ro.z[:t - 1].reshape(-1)
            truth = np.concatenate([ro.x[t - 1], ro.carrier[t - 1]])
            assert np.abs(est - truth).max() < 1e-9


def run_filter_vs_oracle(p, mp, lg, thetas, seed, tol, relative=False):
    """Recursive filter against joint-Gaussian conditioning on 4 rollouts;
    ``relative`` scales each step's gap by max(1, |oracle estimate|)."""
    cs = build(p, mp, lg)
    _, fgains, _ = forward_riccati(cs)
    prims = draw_primitives(p, seed=seed, count=4)
    rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims, keep=4)
    omaps = [gaussian_conditioning(cs, thetas, t) for t in range(1, p.T + 1)]
    worst = 0.0
    for r in range(4):
        ro = rb.samples[r]
        xb = np.zeros(cs.d_state)
        for t in range(1, p.T + 1):
            oracle = omaps[t - 1] @ ro.z[:t - 1].reshape(-1)
            scale = max(1.0, np.abs(oracle).max()) if relative else 1.0
            worst = max(worst, np.abs(xb - oracle).max() / scale)
            if t < p.T:
                innov = (ro.z[t - 1] - cs.C[t - 1] @ xb
                         - cs.protocol.zu @ ro.u_tilde[t - 1])
                xb = (cs.A[t - 1] @ xb + cs.B[t - 1] @ ro.u_tilde[t - 1]
                      + fgains[t - 1] @ innov)
    assert worst < tol, worst


def test_recursive_filter_matches_oracle(scalar2):
    rng = np.random.default_rng(37)
    for k in (1, 2):
        mp = build_symmetric_delay(scalar2, k)
        lg = LocalGains.random(scalar2, mp, rng, 0.3)
        cs = build(scalar2, mp, lg)
        thetas = random_theta_maps(cs, rng, 0.2)
        run_filter_vs_oracle(scalar2, mp, lg, thetas, seed=7, tol=1e-8)


def test_solved_strategy_theta_maps_reproduce_policy(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(38)
    ss = solve(scalar2, mp, LocalGains.random(scalar2, mp, rng, 0.3))
    thetas = strategy_theta_maps(ss)
    prims = draw_primitives(scalar2, seed=8, count=6)
    rb = rollout_plant(scalar2, mp, ss.gains, StatisticPolicy(ss), prims, keep=6)
    rz = rollout_plant(scalar2, mp, ss.gains, ZHistoryPolicy(thetas), prims,
                       keep=6)
    for r in range(6):
        assert np.abs(rb.samples[r].u_tilde - rz.samples[r].u_tilde
                      ).max() < 1e-10


def test_innovation_orthogonal_to_estimate(scalar2):
    # sampled innovation is uncorrelated with the current estimate
    mp = build_symmetric_delay(scalar2, 1)
    ss = solve(scalar2, mp, LocalGains.zeros(scalar2, mp))
    cs = ss.cs
    n = 100_000
    prims = draw_primitives(scalar2, seed=10, count=n)
    L, Ts, Tu, Tz = StatisticPolicy(ss)
    x = prims.x1
    c = np.zeros((n, mp.d_carrier))
    state = np.zeros((n, cs.d_state))
    for t in range(1, scalar2.T):
        y = x @ scalar2.C[t - 1].T + prims.wy[t - 1]
        utilde = state @ L[t - 1].T
        u = utilde + y @ ss.gains.G[t - 1].T
        z = c @ mp.zc.T + y @ mp.zy.T + u @ mp.zu.T
        innov = z - state @ cs.C[t - 1].T - utilde @ cs.protocol.zu.T
        if t >= 2:   # estimate is degenerate-zero at t = 1
            for a in range(innov.shape[1]):
                for b in range(state.shape[1]):
                    ia, xb_col = innov[:, a], state[:, b]
                    if ia.std() < 1e-12 or xb_col.std() < 1e-12:
                        continue
                    rho = np.corrcoef(ia, xb_col)[0, 1]
                    assert abs(rho) < 0.02, (t, a, b, rho)
        x = x @ scalar2.A[t - 1].T + u @ scalar2.B[t - 1].T + prims.w0[t - 1]
        c = c @ mp.cc.T + y @ mp.cy.T + u @ mp.cu.T
        state = state @ Ts[t - 1].T + utilde @ Tu[t - 1].T + z @ Tz[t - 1].T


def test_closed_loop_maps_match_rollout(scalar2):
    # the symbolic closed-loop maps reproduce a simulated trajectory exactly;
    # they act on the unit normals draw_primitives scales, in its order: for
    # one rollout at seed s, the first row of seeded_stream(s, 0)
    mp = build_symmetric_delay(scalar2, 2)
    rng = np.random.default_rng(39)
    lg = LocalGains.random(scalar2, mp, rng, 0.3)
    cs = build(scalar2, mp, lg)
    thetas = random_theta_maps(cs, rng, 0.2)
    prims = draw_primitives(scalar2, seed=11, count=1)
    rb = rollout_plant(scalar2, mp, lg, ZHistoryPolicy(thetas), prims, keep=1)
    ro = rb.samples[0]
    jg = closed_loop_maps(cs, thetas, scalar2.T)
    prim_vec = seeded_stream(11, 0).standard_normal(jg.xtilde[0].shape[1])
    for t in range(1, scalar2.T + 1):
        got = jg.xtilde[t - 1] @ prim_vec
        want = np.concatenate([ro.x[t - 1], ro.carrier[t - 1]])
        assert np.abs(got - want).max() < 1e-10


#: Instance i of the generated-instance gate is
#: ``_oracle_cases(np.random.default_rng([ORACLE_TAG, i]))``.
ORACLE_TAG = 1101


def _oracle_cases(rng):
    """(plant, protocol, seed) over n, T (T = 1 included), signal dims,
    constant or time-varying maps, singular observation noise and every
    protocol family; ``seed`` seeds the plant's and the blocks' draws."""
    n = int(rng.integers(1, 4))
    T = int(rng.integers(1, 6))
    dims = lambda: [int(d) for d in rng.integers(1, 3, n)]
    seed = int(rng.integers(2**32))
    plant_rng = np.random.default_rng(seed)
    p = random_plant(plant_rng, n=n, d_x=int(rng.integers(1, 4)),
                     d_y=dims(), d_u=dims(), T=T,
                     time_varying=bool(rng.integers(2)),
                     singular_w=bool(rng.integers(2)))
    kinds = ["symmetric", "control_sharing", "explicit"]
    kinds += ["asymmetric"] * (n > 1) + ["one_sided"] * (n == 2)
    kind = kinds[rng.integers(len(kinds))]
    if kind == "symmetric":
        mp = build_symmetric_delay(p, int(rng.integers(1, T + 1)))
    elif kind == "asymmetric":
        delays = [[1 if i == j else int(rng.integers(1, T + 1))
                   for j in range(n)] for i in range(n)]
        mp = build_asymmetric_delay(p, DelayGraph.create(delays))
    elif kind == "control_sharing":
        mp = build_control_sharing(p)
    elif kind == "one_sided":
        mp = build_one_sided(p)
    else:
        blocks = []
        for i in range(n):
            rows = {"m": int(rng.integers(3)), "z": int(rng.integers(3))}
            cols = {"m": rows["m"], "y": p.d_y[i], "u": p.d_u[i]}
            blocks.append({b: 0.5 * plant_rng.standard_normal(
                (rows[b[0]], cols[b[1]])) for b in BLOCK_NAMES})
        mp = explicit_protocol(p, blocks)
    return p, mp, seed


def _rank_margin(cs, thetas):
    """Distance in decades between the cutoff ``DEFAULT_RTOL * sigma_max`` and
    the nearest nonzero singular value of any covariance the filter (each
    innovation C P C' + V) or the oracle (each innovation covariance r r')
    cuts."""
    P, _, _ = forward_riccati(cs)
    covs = [C @ Pt @ C.T + nv @ nv.T
            for C, Pt, nv in zip(cs.C, P, cs.noise[:, cs.d_state:])]
    jg = closed_loop_maps(cs, thetas, cs.T)
    covs += [r @ r.T for r in jg.innovations(cs.T - 1)[0]]
    margin = np.inf
    for m in covs:
        s = np.linalg.svd(m, compute_uv=False)
        s = s[s > 0]
        if s.size:
            margin = min(margin,
                         np.abs(np.log10(s / (DEFAULT_RTOL * s[0]))).min())
    return margin


def test_oracles_agree_on_generated_instances():
    check_generated(_oracle_cases, ORACLE_TAG, 300, _check_oracles_agree)


def _check_oracles_agree(p, mp, seed):
    rng = np.random.default_rng([seed, 1])
    lg = LocalGains.random(p, mp, rng, 0.3)
    ss = solve(p, mp, lg)
    exact = closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)
    assert abs(ss.J - exact) <= 1e-9 * abs(exact)
    # plant and coordinated recursions under paired noise
    thetas = random_theta_maps(ss.cs, rng, 0.3)
    prims = draw_primitives(p, seed=seed, count=4)
    rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims, keep=4)
    cr = rollout_coordinated(ss.cs, ZHistoryPolicy(thetas), prims)
    for r, ro in enumerate(rb.samples):
        assert_allclose(cr.xtilde[r], np.hstack([ro.x, ro.carrier]),
                        rtol=1e-10, atol=1e-10)
    assert_allclose(cr.costs, rb.costs, rtol=1e-9)
    # the two pseudo-inverses may keep different ranks when a singular value
    # lies within a decade of the cutoff; compare them where both agree
    if _rank_margin(ss.cs, thetas) >= 1.0:
        run_filter_vs_oracle(p, mp, lg, thetas, seed=seed, tol=1e-8,
                             relative=True)


def _explicit_case(seed, d_x, d_y, d_u, time_varying, singular_w, rows):
    """A T = 5 explicit-protocol instance of ``_oracle_cases``, rebuilt from
    its generator seed and its draws; ``rows`` gives each controller's
    memory and shared-increment sizes."""
    rng = np.random.default_rng(seed)
    p = random_plant(rng, n=len(rows), d_x=d_x, d_y=d_y, d_u=d_u, T=5,
                     time_varying=time_varying, singular_w=singular_w)
    blocks = []
    for i, (m, z) in enumerate(rows):
        size = {"m": m, "z": z}
        cols = {"m": m, "y": p.d_y[i], "u": p.d_u[i]}
        blocks.append({b: 0.5 * rng.standard_normal((size[b[0]],
                                                     cols[b[1]]))
                       for b in BLOCK_NAMES})
    return p, explicit_protocol(p, blocks)


def _assert_oracles_agree_on(p, mp, seed):
    """The J gate, then the filter against the conditioning oracle."""
    rng = np.random.default_rng([seed, 1])
    lg = LocalGains.random(p, mp, rng, 0.3)
    ss = solve(p, mp, lg)
    exact = closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)
    assert abs(ss.J - exact) <= 1e-9 * abs(exact)
    thetas = random_theta_maps(ss.cs, rng, 0.3)
    assert _rank_margin(ss.cs, thetas) >= 1.0
    run_filter_vs_oracle(p, mp, lg, thetas, seed=seed, tol=1e-8,
                         relative=True)


def test_oracles_agree_with_nearly_singular_innovation():
    """A generated explicit-protocol instance (Sigma_w of rank 1) whose
    innovation at t = 4 has a singular value 1e-7 of its largest.  A cutoff
    on the whole history's covariance dropped that direction (estimates 0.2
    apart), and the standard-form covariance update put J 2.4e-9 off the
    exact cost."""
    seed = 1601876730
    p, mp = _explicit_case(seed, 2, [1, 1, 2], [1, 2, 2], True, True,
                           [(0, 2), (1, 0), (2, 2)])
    _assert_oracles_agree_on(p, mp, seed)


@pytest.mark.parametrize("seed, args", [
    (9006, (1, [2, 2], [2, 2], True, False, [(0, 0), (2, 2)])),
    (3537, (2, [2, 1], [1, 1], False, True, [(1, 2), (0, 0)]))],
    ids=["seed9006", "seed3537"])
def test_exact_cost_is_within_the_J_gate_on_ill_conditioned_instances(
        seed, args):
    """The two ``tools/oracle_scan.py --examples 10000`` instances on
    which an exact-cost oracle on the coordinator's system erred most:
    propagating the covariance F Sigma F' of the coordinator's noise put it
    4.4e-9 and 2.4e-9 off J, above the 1e-9 gate."""
    _assert_oracles_agree_on(*_explicit_case(seed, *args), seed)


def _overflowing_strategy(g):
    """The control-sharing demo's solved strategy with G^1_5 set to ``g``,
    so U_5 = g Y^1_5 + ...: the plant, the protocol and the strategy."""
    sc = load_scenario(DEMOS["control-sharing"]["config"])
    doc = strategy_to_doc(solve(sc.plant, sc.protocol, sc.gains))
    doc["gains"]["G"][4][0][0][0] = g
    return (sc.plant, sc.protocol,
            strategy_from_doc(doc, sc.plant, sc.protocol))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_rollouts_and_moments_are_breakdowns_at_their_step():
    p, mp, ss = _overflowing_strategy(1e308)
    with pytest.raises(NumericalBreakdown,
                       match=r"rollout 0 is not finite \(t=5\)"):
        simulate(p, mp, ss.gains, ss, seed=5, count=100)
    with pytest.raises(NumericalBreakdown, match="expected cost") as e:
        exact_cost(p, mp, ss.gains, ss)
    assert e.value.t == 5


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_the_first_non_finite_rollout_is_named_past_a_block_edge():
    # at G^1_5 = 2.1e153 the first rollout whose cost overflows is 4240,
    # in the second block of streams, at step 6: there the sum of its step
    # costs overflows, though every step cost is finite
    p, mp, ss = _overflowing_strategy(2.1e153)

    def run(count):
        return simulate(p, mp, ss.gains, ss, seed=5, count=count)

    assert np.isfinite(run(4240).costs).all()
    for count in (4241, 3 * BLOCK):
        with pytest.raises(NumericalBreakdown,
                           match=r"rollout 4240 is not finite \(t=6\)"):
            run(count)
