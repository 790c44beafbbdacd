"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Desk scale throughout (n <= 3, d_x <= 3, T <= 8).
"""

import numpy as np
import pytest

from declqg import (StatisticPolicy, DelayGraph, DelayedStatTracker, LocalGains,
                    PlantModel, ZHistoryPolicy, delayed_stat_map,
                    build, build_asymmetric_delay, build_control_sharing,
                    build_one_sided, build_symmetric_delay,
                    closed_loop_cost_exact, draw_primitives, exact_cost,
                    explicit_protocol, forward_riccati, gaussian_conditioning,
                    plant_kalman_covariances, random_theta_maps,
                    rollout_coordinated, rollout_plant, simulate, solve,
                    strategy_theta_maps, tune, validate)

from conftest import random_plant, scalar_two_controller


def report(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


# -------------------------------------------------------------------- 1


def test_criterion_1_protocol_fidelity():
    # symmetric k = 2 blocks against the delay-2 display
    p = scalar_two_controller()
    mp = build_symmetric_delay(p, 2)
    for b in mp.blocks:
        assert np.array_equal(b["mm"], np.zeros((2, 2)))
        assert np.array_equal(b["my"], [[1.0], [0.0]])
        assert np.array_equal(b["mu"], [[0.0], [1.0]])
        assert np.array_equal(b["zm"], np.eye(2))
        assert np.array_equal(b["zy"], np.zeros((2, 1)))
        assert np.array_equal(b["zu"], np.zeros((2, 1)))

    # asymmetric delays on the 3-controller example graph (1-2 and 2-3 talk
    # with delay 1; 1-3 with delay 2), scalar signals: the stacked
    # memory-view matrices, entrywise integer equality
    p3 = PlantModel.create(
        n=3, T=6, d_x=1, d_u=(1, 1, 1), d_y=(1, 1, 1), A=[[1.0]],
        B=[[1.0, 1.0, 1.0]], C=[[[1.0]], [[1.0]], [[1.0]]], Q=[[1.0]],
        R=np.eye(3), sigma_x=[[1.0]], sigma_w0=[[1.0]],
        sigma_w=[[[1.0]], [[1.0]], [[1.0]]])
    g = DelayGraph.create([[1, 1, 2], [1, 1, 1], [2, 1, 1]])
    mp3 = build_asymmetric_delay(p3, g)
    assert mp3.d_m == (2, 4, 2)
    view = mp3.memory_view()

    def rows(*entries):
        out = np.zeros((len(entries), 3))
        for r, c in enumerate(entries):
            if c is not None:
                out[r, c] = 1.0
        return out

    assert np.array_equal(view["mm"], np.zeros((8, 8)))
    assert np.array_equal(view["my"],
                          rows(0, None, 0, None, 2, None, 2, None))
    assert np.array_equal(view["mu"],
                          rows(None, 0, None, 0, None, 2, None, 2))
    zm = np.zeros((6, 8))
    zm[0, 0] = zm[1, 1] = 1.0          # Z^1 <- M^1 = (Y^1, U^1) pair
    zm[4, 6] = zm[5, 7] = 1.0          # Z^3 <- M^3 pair
    assert np.array_equal(view["zm"], zm)
    zy = np.zeros((6, 3)); zy[2, 1] = 1.0
    zu = np.zeros((6, 3)); zu[3, 1] = 1.0
    assert np.array_equal(view["zy"], zy)
    assert np.array_equal(view["zu"], zu)
    report(1, "delay-2 and asymmetric example P-matrices match entrywise")


# -------------------------------------------------------------------- 2


def test_criterion_2_doubly_stochastic_and_mutation():
    rng = np.random.default_rng(101)
    plants = [scalar_two_controller(T=6),
              random_plant(rng, n=2, d_x=2, d_y=(2, 1), d_u=(1, 2), T=6)]
    checked = mutations = 0
    for p in plants:
        for k in (1, 2, 3):
            mp = build_symmetric_delay(p, k)
            assert mp.strict and validate(mp).ok
            checked += 1
            for i in range(p.n):
                for name in ("mm", "my", "mu", "zm", "zy", "zu"):
                    ones = np.argwhere(mp.blocks[i][name] == 1.0)
                    for r, c in ones:
                        blocks = [dict(b) for b in mp.blocks]
                        bad = blocks[i][name].copy()
                        bad[r, c] = 0.0
                        blocks[i][name] = bad
                        rep = validate(explicit_protocol(p, blocks,
                                                         strict=True))
                        assert not rep.ok, (k, i, name, r, c)
                        mutations += 1
    report(2, f"{checked} strict protocols pass A1/A2; all {mutations} "
              "single-entry 1->0 mutations detected")


# -------------------------------------------------------------------- 3


def _five_instances(rng):
    out = []
    p = random_plant(rng, n=2, d_x=2, T=6)
    out.append((p, build_symmetric_delay(p, 1)))
    p = random_plant(rng, n=2, d_x=3, T=6, time_varying=True)
    out.append((p, build_symmetric_delay(p, 2)))
    p = random_plant(rng, n=3, d_x=2, d_y=(1, 1, 1), d_u=(1, 1, 1), T=6)
    out.append((p, build_asymmetric_delay(
        p, DelayGraph.create([[1, 1, 2], [1, 1, 1], [2, 1, 1]]))))
    p = random_plant(rng, n=2, d_x=2, T=5)
    out.append((p, build_control_sharing(p)))
    p = random_plant(rng, n=2, d_x=2, T=5)
    out.append((p, build_one_sided(p)))
    return out


def test_criterion_3_coordinated_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for p, mp in _five_instances(rng):
        for _ in range(10):   # 10 local-gain draws x 5 policies = 50 strategies
            lg = LocalGains.random(p, mp, rng, 0.4)
            cs = build(p, mp, lg)
            for _ in range(5):
                thetas = random_theta_maps(cs, rng, 0.3)
                prims = draw_primitives(p, seed=int(rng.integers(1e6)),
                                        count=20)
                rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims,
                                   keep=20)
                cr = rollout_coordinated(cs, ZHistoryPolicy(thetas), prims)
                for r in range(20):
                    ro = rb.samples[r]
                    stacked = np.hstack([ro.x, ro.carrier])
                    worst = max(worst,
                                np.abs(stacked - cr.xtilde[r]).max())
    assert worst < 1e-10, worst
    report(3, f"plant vs coordinated recursion: max per-step gap {worst:.2e} "
              "over 5 instances x 50 strategies x 20 rollouts")


# -------------------------------------------------------------------- 4


def _duplicate_share_protocol(p):
    """Z duplicates controller 1's observation: singular innovations."""
    blocks = [
        {"mm": [], "my": [], "mu": [],
         "zm": np.zeros((3, 0)), "zy": [[1.0], [1.0], [0.0]],
         "zu": [[0.0], [0.0], [1.0]]},
        {"mm": [], "my": [], "mu": [],
         "zm": np.zeros((2, 0)), "zy": [[1.0], [0.0]],
         "zu": [[0.0], [1.0]]},
    ]
    return explicit_protocol(p, blocks, kind="duplicate_share")


def test_criterion_4_filter_matches_bruteforce():
    rng = np.random.default_rng(404)
    cases = []
    p = scalar_two_controller(T=6)
    cases.append((p, build_symmetric_delay(p, 1)))
    cases.append((p, _duplicate_share_protocol(p)))
    q = random_plant(rng, n=2, d_x=2, T=6)
    cases.append((q, build_symmetric_delay(q, 2)))
    q = random_plant(rng, n=3, d_x=2, d_y=(1, 1, 1), d_u=(1, 1, 1), T=5)
    cases.append((q, build_asymmetric_delay(
        q, DelayGraph.create([[1, 2, 2], [1, 1, 2], [2, 1, 1]]))))
    q = random_plant(rng, n=2, d_x=3, T=6, time_varying=True)
    cases.append((q, build_symmetric_delay(q, 3)))

    worst = 0.0
    for p, mp in cases:
        lg = LocalGains.random(p, mp, rng, 0.3)
        cs = build(p, mp, lg)
        _, fgains, _ = forward_riccati(cs)
        for use_solved in (False, True):
            if use_solved:
                thetas = strategy_theta_maps(solve(p, mp, lg))
            else:
                thetas = random_theta_maps(cs, rng, 0.25)
            prims = draw_primitives(p, seed=int(rng.integers(1e6)), count=3)
            rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims,
                               keep=3)
            for r in range(3):
                ro = rb.samples[r]
                xb = np.zeros(cs.d_state)
                for t in range(1, p.T + 1):
                    oracle = (gaussian_conditioning(cs, thetas, t)
                              @ ro.z[:t - 1].reshape(-1)) if t > 1 \
                        else np.zeros(cs.d_state)
                    worst = max(worst, np.abs(xb - oracle).max())
                    if t < p.T:
                        innov = (ro.z[t - 1] - cs.C[t - 1] @ xb
                                 - cs.protocol.zu @ ro.u_tilde[t - 1])
                        xb = (cs.A[t - 1] @ xb
                              + cs.B[t - 1] @ ro.u_tilde[t - 1]
                              + fgains[t - 1] @ innov)
    assert worst < 1e-8, worst
    report(4, f"recursive estimate vs joint-Gaussian conditioning: "
              f"max gap {worst:.2e} (singular-innovation case included)")


# -------------------------------------------------------------------- 5


def test_criterion_5_control_optimality():
    rng = np.random.default_rng(505)
    # (a) entrywise perturbations never help by more than 1e-9
    worst_drop = 0.0
    for p, mp in [(scalar_two_controller(T=5),
                   build_symmetric_delay(scalar_two_controller(T=5), 2)),
                  (random_plant(rng, n=2, d_x=2, T=4),
                   None)]:
        if mp is None:
            mp = build_symmetric_delay(p, 1)
        lg = LocalGains.random(p, mp, rng, 0.3)
        ss = solve(p, mp, lg)
        base = closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)
        for t in range(p.T):
            for r in range(ss.Lgain[t].shape[0]):
                for c in range(ss.Lgain[t].shape[1]):
                    for delta in (1e-3, -1e-3):
                        k_mod = [k.copy() for k in ss.Lgain]
                        k_mod[t][r, c] += delta
                        val = closed_loop_cost_exact(ss.cs, k_mod,
                                                     ss.filter_gain)
                        worst_drop = max(worst_drop, base - val)
    assert worst_drop <= 1e-9, worst_drop

    # (b) scalar brute-force grid over the final-step gain acting on the
    # sufficient statistic (the scalar X estimate: k = 1 has no carrier).
    p = PlantModel.create(
        n=1, T=3, d_x=1, d_u=(1,), d_y=(1,), A=[[1.1]], B=[[0.8]],
        C=[[[1.0]]], Q=[[1.0]], R=[[0.4]], sigma_x=[[1.0]],
        sigma_w0=[[0.3]], sigma_w=[[[0.2]]])
    mp = build_symmetric_delay(p, 1)
    lg = LocalGains.create(p, mp, [[np.array([[0.5]])]] * 3,
                           [[np.zeros((1, 0))]] * 3)
    ss = solve(p, mp, lg)
    t_last = p.T - 1
    assert ss.Lgain[t_last].shape == (1, 1)   # genuinely scalar search

    def cost_with_LT(ell):
        k_mod = [k.copy() for k in ss.Lgain]
        k_mod[t_last] = np.array([[ell]])
        return closed_loop_cost_exact(ss.cs, k_mod, ss.filter_gain)

    center = float(ss.Lgain[t_last][0, 0])
    width = 0.5
    for _ in range(4):   # refine the grid to resolution < 1e-4
        grid = np.linspace(center - width, center + width, 201)
        vals = [cost_with_LT(g) for g in grid]
        center = float(grid[int(np.argmin(vals))])
        width /= 50.0
    gap = abs(center - float(ss.Lgain[t_last][0, 0]))
    assert gap < 1e-4, gap
    report(5, f"no +-1e-3 gain perturbation helps (worst drop "
              f"{worst_drop:.2e}); scalar grid argmin matches the reduced "
              f"final-step gain within {gap:.1e}")


# -------------------------------------------------------------------- 6


def test_criterion_6_performance_formula():
    rng = np.random.default_rng(606)
    worst_exact = 0.0
    worst_mc = 0.0
    for idx, (p, mp) in enumerate(_five_instances(rng)):
        lg = LocalGains.random(p, mp, rng, 0.25)
        ss = solve(p, mp, lg)
        ex = exact_cost(p, mp, lg, ss)
        worst_exact = max(worst_exact, abs(ss.J - ex))
        mc = simulate(p, mp, lg, ss, seed=idx, count=100_000)
        worst_mc = max(worst_mc, abs(ss.J - mc.mean) / mc.stderr)
    assert worst_exact <= 1e-8, worst_exact
    assert worst_mc <= 3.0, worst_mc
    report(6, f"|J - exact| <= {worst_exact:.2e}; "
              f"|J - MC(1e5)| <= {worst_mc:.2f} stderr on 5 instances")


# -------------------------------------------------------------------- 7


def test_criterion_7_reduced_statistic_equivalence():
    rng = np.random.default_rng(707)
    worst = 0.0
    for p, mp in _five_instances(rng):
        lg = LocalGains.random(p, mp, rng, 0.3)
        ss = solve(p, mp, lg)
        cs = ss.cs
        prims = draw_primitives(p, seed=int(rng.integers(1e6)), count=10)
        rb = rollout_plant(p, mp, lg, StatisticPolicy(ss), prims, keep=10)
        for r in range(10):
            ro = rb.samples[r]
            xb = np.zeros(cs.d_state)    # independent filter written out
            for t in range(1, p.T + 1):
                via_stat = ss.Lgain[t - 1] @ ro.stat[t - 1]
                via_full = ss.Lgain[t - 1] @ xb
                worst = max(worst, np.abs(via_stat - via_full).max())
                if t < p.T:
                    innov = (ro.z[t - 1] - cs.C[t - 1] @ xb
                             - cs.protocol.zu @ ro.u_tilde[t - 1])
                    xb = (cs.A[t - 1] @ xb + cs.B[t - 1] @ ro.u_tilde[t - 1]
                          + ss.filter_gain[t - 1] @ innov)
    assert worst < 1e-10, worst
    report(7, f"statistic-policy vs written-out filter actions: "
              f"max gap {worst:.2e}")


# -------------------------------------------------------------------- 8


def test_criterion_8_delayed_sharing_reduction():
    rng = np.random.default_rng(808)
    p = scalar_two_controller(T=8)
    worst = 0.0
    for k in (1, 2, 3):
        mp = build_symmetric_delay(p, k)
        lg = LocalGains.random(p, mp, rng, 0.3)
        ss = solve(p, mp, lg)
        maps = [delayed_stat_map(ss.cs, k, t) for t in range(1, p.T + 1)]
        prims = draw_primitives(p, seed=42 + k, count=100)
        rb = rollout_plant(p, mp, lg, StatisticPolicy(ss), prims, keep=100)
        for r in range(100):
            ro = rb.samples[r]
            tracker = DelayedStatTracker.create(p, mp)
            for t in range(1, p.T + 1):
                gap = np.abs(ro.stat[t - 1]
                             - maps[t - 1] @ tracker.stat().vector()).max()
                worst = max(worst, gap)
                tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1],
                                          ro.u_tilde[t - 1])
    assert worst <= 1e-8, worst

    # plant predictor covariance never reads the local gains: bitwise equal
    base, base_gains = plant_kalman_covariances(p)
    for _ in range(10):
        LocalGains.random(p, build_symmetric_delay(p, 2), rng, 1.0)
        again, again_gains = plant_kalman_covariances(p)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(base, again))
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(base_gains, again_gains))
    report(8, f"statistic = M_map S over 100 rollouts, k in 1..3 "
              f"(max gap {worst:.2e}); predictor covariance bitwise stable")


# -------------------------------------------------------------------- 9


def classical_lqg(p):
    """Independent textbook solution: LQR gains, filter, and exact CE cost."""
    d = p.d_x
    T = p.T
    Sw = p.sigma_w
    S = np.zeros((d, d))
    Kcl = [None] * T
    for t in range(T, 0, -1):
        A, B = p.A[t - 1], p.B[t - 1]
        br = p.R + B.T @ S @ B
        lam = B.T @ S @ A
        Kcl[t - 1] = -np.linalg.solve(br, lam)
        S = p.Q + A.T @ S @ A - lam.T @ np.linalg.solve(br, lam)
    P = p.sigma_x
    Kf = [None] * T
    for t in range(1, T + 1):
        C = p.C[t - 1]
        V = C @ P @ C.T + Sw
        Kf[t - 1] = P @ C.T @ np.linalg.inv(V)
        P = (p.A[t - 1] @ (P - Kf[t - 1] @ C @ P) @ p.A[t - 1].T
             + p.sigma_w0)
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = p.sigma_x
    J = 0.0
    for t in range(1, T + 1):
        A, B, C = p.A[t - 1], p.B[t - 1], p.C[t - 1]
        K, F = Kcl[t - 1], Kf[t - 1]
        Uz = np.hstack([K @ F @ C, K @ (np.eye(d) - F @ C)])
        Uw = K @ F
        W = np.zeros((2 * d, 2 * d))
        W[:d, :d] = p.Q
        W += Uz.T @ p.R @ Uz
        J += float(np.sum(W * cov)) + float(np.trace(Uw.T @ p.R @ Uw @ Sw))
        if t == T:
            break
        M = np.vstack([np.hstack([A, np.zeros((d, d))]) + B @ Uz,
                       (A + B @ K) @ np.hstack([F @ C, np.eye(d) - F @ C])])
        Nw = np.vstack([B @ Uw, (A + B @ K) @ F])
        cov = M @ cov @ M.T + Nw @ Sw @ Nw.T
        cov[:d, :d] += p.sigma_w0
    return Kcl, Kf, J


def centralized_instance():
    return PlantModel.create(
        n=1, T=5, d_x=2, d_u=(1,), d_y=(1,),
        A=np.array([[0.9, 0.2], [0.0, 0.8]]), B=np.array([[0.0], [1.0]]),
        C=[np.array([[1.0, 0.3]])], Q=np.eye(2), R=[[0.5]],
        sigma_x=np.eye(2), sigma_w0=0.2 * np.eye(2), sigma_w=[[[0.1]]])


def test_criterion_9_centralized_reduction():
    p = centralized_instance()
    mp = build_symmetric_delay(p, 1)
    Kcl, Kf, J_cl = classical_lqg(p)
    G = [[Kcl[t] @ Kf[t]] for t in range(p.T)]
    H = [[np.zeros((1, 0))] for _ in range(p.T)]
    ss = solve(p, mp, LocalGains.create(p, mp, G, H))
    gap = abs(ss.J - J_cl)
    assert gap < 1e-8, gap

    result = tune(p, mp, budget=5000, seed=0, restarts=1)
    rel = abs(result.J - J_cl) / abs(J_cl)
    assert rel < 1e-4, rel
    report(9, f"classical composition reproduces the LQG optimum "
              f"(gap {gap:.1e}); tune from scratch within {rel:.1e} relative")


# ------------------------------------------------------------------- 10


def test_criterion_10_information_monotonicity():
    rng = np.random.default_rng(1010)
    for _ in range(3):
        p = random_plant(rng, n=2, d_x=2, T=6)
        costs = []
        for k in (1, 2, 3):
            mp = build_symmetric_delay(p, k)
            costs.append(solve(p, mp, LocalGains.zeros(p, mp)).J)
        assert costs[0] <= costs[1] + 1e-9, costs
        assert costs[1] <= costs[2] + 1e-9, costs
    report(10, "J(k=1) <= J(k=2) <= J(k=3) at zero local gains "
               "on 3 random plants")


# ------------------------------------------------------------------- 11


def test_criterion_11_determinism():
    p = scalar_two_controller(T=6)
    mp = build_symmetric_delay(p, 2)
    ss = solve(p, mp, LocalGains.zeros(p, mp))
    a = simulate(p, mp, ss.gains, ss, seed=123, count=20_000)
    b = simulate(p, mp, ss.gains, ss, seed=123, count=20_000)
    assert a.costs.tobytes() == b.costs.tobytes()

    ta = tune(p, mp, budget=120, seed=7, restarts=2)
    tb = tune(p, mp, budget=120, seed=7, restarts=2)
    assert ta.J == tb.J and ta.log == tb.log
    assert ta.gains.G.tobytes() == tb.gains.G.tobytes()
    assert ta.gains.H.tobytes() == tb.gains.H.tobytes()
    report(11, "simulate and tune are bitwise reproducible for fixed seeds")
