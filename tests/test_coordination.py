import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (DelayGraph, LocalGains, PlantModel, ZHistoryPolicy,
                    build, build_asymmetric_delay, build_control_sharing,
                    build_symmetric_delay, tune,
                    closed_loop_cost_exact,
                    draw_primitives, forward_riccati, random_theta_maps,
                    rollout_coordinated, rollout_plant, solve)
import declqg.coordination as coordination_mod
from declqg.core import DimMismatch, blkdiag, eig_bounds, sym

from conftest import check_generated, random_plant, scalar_two_controller


def test_zero_gains_structure(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    d_x = cs.d_x
    assert cs.d_state == d_x + mp.d_carrier
    t = 2
    A = cs.A[t - 1]
    assert_allclose(A[:d_x, :d_x], scalar2.A[t - 1])
    # with G = H = 0 the carrier does not act on X; it stores Y = C X + W
    assert_allclose(A[:d_x, d_x:], 0.0)
    assert_allclose(A[d_x:, :d_x], mp.cy @ scalar2.C[t - 1])
    assert_allclose(A[d_x:, d_x:], mp.cc)
    assert_allclose(cs.N[t - 1], 0.0)
    assert cs.noise_cost[t - 1] == 0.0
    Q = cs.Q[t - 1]
    assert_allclose(Q[:d_x, :d_x], scalar2.Q)
    assert_allclose(Q[d_x:, :], 0.0)


def test_scalar_single_controller_hand_expansion():
    # n = 1, k = 1, scalar plant: no carrier, so the 1x1 system by hand
    a, b, c, g = 1.1, 0.7, 0.9, 0.4
    p = PlantModel.create(
        n=1, T=3, d_x=1, d_u=(1,), d_y=(1,), A=[[a]], B=[[b]], C=[[[c]]],
        Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]], sigma_w0=[[0.5]],
        sigma_w=[[[0.2]]])
    mp = build_symmetric_delay(p, 1)
    lg = LocalGains.create(p, mp, [[np.array([[g]])]] * 3,
                           [[np.zeros((1, 0))]] * 3)
    cs = build(p, mp, lg)
    assert cs.d_state == 1
    # U_t = Ut~ + g (c X_t + W_t): W_t is process noise through b g
    assert_allclose(cs.A[0], [[a + b * g * c]])
    assert_allclose(cs.B[0], [[b]])
    # Z_t = (Y_t, U_t) observed at t+1, with measurement noise (W_t, g W_t)
    assert_allclose(cs.C[0], [[c], [g * c]])
    assert_allclose(cs.protocol.zu, [[0.0], [1.0]])
    sig = cs.noise[0] @ cs.noise[0].T
    assert_allclose(sig[:1, :1], [[0.5 + b * b * g * g * 0.2]])
    assert_allclose(sig[:1, 1:], [[b * g * 0.2, b * g * g * 0.2]])
    assert_allclose(sig[1:, 1:], [[0.2, g * 0.2], [g * 0.2, g * g * 0.2]])
    assert_allclose(cs.Q[0], [[1.0 + g * g * c * c]])
    assert_allclose(cs.N[0], [[g * c]])
    assert_allclose(cs.noise_cost, [g * g * 0.2] * 3)
    assert_allclose(cs.init_root @ cs.init_root.T, [[1.0]])


@pytest.mark.parametrize("time_varying", [False, True])
def test_paired_noise_equivalence(time_varying):
    rng = np.random.default_rng(6)
    p = random_plant(rng, n=2, d_x=2, T=6, time_varying=time_varying)
    for k in (1, 2):
        mp = build_symmetric_delay(p, k)
        lg = LocalGains.random(p, mp, rng, 0.4)
        cs = build(p, mp, lg)
        thetas = random_theta_maps(cs, rng, 0.3)
        prims = draw_primitives(p, seed=1, count=10)
        rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims, keep=10)
        cr = rollout_coordinated(cs, ZHistoryPolicy(thetas), prims)
        for r in range(10):
            ro = rb.samples[r]
            stacked = np.hstack([ro.x, ro.carrier])
            assert np.abs(stacked - cr.xtilde[r]).max() < 1e-10
            assert np.abs(ro.z[:-1] - cr.ytilde[r][1:]).max() < 1e-10


def test_compound_cost_identity():
    rng = np.random.default_rng(7)
    p = random_plant(rng, n=2, d_x=2, T=5)
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    prims = draw_primitives(p, seed=2, count=6)
    thetas = random_theta_maps(cs, rng, 0.3)
    rb = rollout_plant(p, mp, lg, ZHistoryPolicy(thetas), prims, keep=6)
    cr = rollout_coordinated(cs, ZHistoryPolicy(thetas), prims)
    for r in range(6):
        assert np.abs(rb.samples[r].step_costs - cr.step_costs[r]).max() < 1e-10


def test_compound_cost_matrix_psd():
    rng = np.random.default_rng(8)
    p = random_plant(rng, n=2, d_x=2, T=4)
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 0.8)
    cs = build(p, mp, lg)
    for t in range(1, p.T + 1):
        comp = np.block([[cs.Q[t - 1], cs.N[t - 1]],
                         [cs.N[t - 1].T, cs.plant.R]])
        lo, hi = eig_bounds(comp)
        assert lo >= -1e-10 * max(hi, 1.0)


def test_sigw_matches_noise_map_rebuild():
    # (W0_t, W_t) -> (W0_t + B G W_t, (cy + cu G) W_t; (zy + zu G) W_t)
    rng = np.random.default_rng(9)
    p = random_plant(rng, n=2, d_x=2, d_y=(2, 1), T=4, time_varying=True)
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    d = cs.d_state
    for t in range(1, p.T):
        G = lg.G[t - 1]
        F = np.block([[np.eye(p.d_x), p.B[t - 1] @ G],
                      [np.zeros((mp.d_carrier, p.d_x)), mp.cy + mp.cu @ G],
                      [np.zeros((mp.d_z, p.d_x)), mp.zy + mp.zu @ G]])
        assert_allclose(cs.noise[t - 1], F @ p.noise_root[t - 1], atol=1e-14)
        sig = F @ blkdiag([p.sigma_w0, p.sigma_w]) @ F.T
        nn = cs.noise[t - 1] @ cs.noise[t - 1].T
        assert_allclose(nn[:d, :d], sig[:d, :d], atol=1e-14)
        assert_allclose(nn[:d, d:], sig[:d, d:], atol=1e-14)
        assert_allclose(nn[d:, d:], sig[d:, d:], atol=1e-14)
        assert cs.noise_cost[t - 1] == pytest.approx(
            np.trace(G.T @ p.R @ G @ p.sigma_w), rel=1e-13)


def test_local_gains_block_diagonal():
    rng = np.random.default_rng(10)
    p = random_plant(rng, n=3, d_y=(2, 1, 1), d_u=(1, 2, 1))
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 1.0)
    G = lg.G[1]
    for i in range(p.n):
        for j in range(p.n):
            blk = G[p.u_slice(i), p.y_slice(j)]
            if i == j:
                assert_allclose(blk, lg.theta[_block_positions(p, mp, 1, i)])
            else:
                assert_allclose(blk, 0.0)


def _build_per_step(p, mp, lg):
    """The per-step assembly ``build`` batches over t, one step at a time."""
    d_x, d_y, d_c, d_z = p.d_x, p.d_y_total, mp.d_carrier, mp.d_z
    d = d_x + d_c
    cz_y, cz_c = np.vstack([mp.cy, mp.zy]), np.vstack([mp.cc, mp.zc])
    to_u = np.vstack([mp.cu, mp.zu])
    out = {k: [] for k in ("A", "B", "C", "noise", "Q", "N", "noise_cost",
                           "loc")}
    for t in range(1, p.T + 1):
        G, C_t = lg.G[t - 1], p.C[t - 1]
        loc = np.hstack([G @ C_t, lg.H[t - 1] @ mp.m_sel])
        free = np.zeros((d + d_z, d + d_y))
        free[:d_x, :d_x] = p.A[t - 1]
        free[d_x:, :d_x] = cz_y @ C_t
        free[d_x:, d_x:d] = cz_c
        free[d_x:, d:] = cz_y
        B = np.vstack([p.B[t - 1], to_u])
        step = free + B @ np.hstack([loc, G])
        F = np.zeros((d + d_z, d_x + d_y))
        F[:d_x, :d_x] = np.eye(d_x)
        F[:, d_x:] = step[:, d:]
        N = loc.T @ p.R
        Q = N @ loc
        Q[:d_x, :d_x] += p.Q
        out["A"].append(step[:d, :d])
        out["B"].append(B[:d])
        out["noise"].append(F @ p.noise_root[t - 1])
        out["Q"].append(sym(Q))
        out["N"].append(N)
        out["loc"].append(loc)
        Gw = G @ p.noise_root[t - 1][d_x:, d_x:]     # G_t W_t's root
        out["noise_cost"].append(np.sum(Gw * (p.R @ Gw)))
        if t < p.T:
            out["C"].append(step[d:, :d])
    return out


@pytest.mark.parametrize("T, time_varying, kind", [
    (5, False, "delay"), (4, True, "delay"), (1, True, "delay"),
    (3, True, "control_sharing")])
def test_build_bitwise_equals_per_step_assembly(T, time_varying, kind):
    rng = np.random.default_rng(T)
    p = random_plant(rng, n=3, d_y=(2, 1, 1), d_u=(1, 2, 1), T=T,
                     time_varying=time_varying)
    mp = build_symmetric_delay(p, min(T, 2)) if kind == "delay" \
        else build_control_sharing(p)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    for name, seq in _build_per_step(p, mp, lg).items():
        batched = getattr(cs, name)
        assert batched.shape[0] == len(seq)
        for t, ref in enumerate(seq):
            assert np.array_equal(batched[t], ref), (name, t + 1)
    assert np.array_equal(cs.init_root,
                          blkdiag([p.x1_root, np.zeros((mp.d_carrier,) * 2)]))


def _assert_build_is_per_step(p, mp, lg):
    cs = build(p, mp, lg)
    for name, seq in _build_per_step(p, mp, lg).items():
        for t, ref in enumerate(seq):
            assert np.array_equal(getattr(cs, name)[t], ref), (name, t + 1)
    assert np.array_equal(cs.init_root,
                          blkdiag([p.x1_root, np.zeros((mp.d_carrier,) * 2)]))
    return cs


FRAME_TAG = 1112


def _frame_cases(rng):
    """Two plants of the same dims, different maps (constant or per-step),
    and two protocols on the first: a symmetric delay and control sharing
    or, with several controllers, an asymmetric delay."""
    n, T = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    dims = dict(n=n, d_x=int(rng.integers(1, 4)),
                d_y=[int(d) for d in rng.integers(1, 3, n)],
                d_u=[int(d) for d in rng.integers(1, 3, n)], T=T)
    p, p2 = (random_plant(rng, time_varying=bool(rng.integers(2)), **dims)
             for _ in range(2))
    delayed = build_symmetric_delay(p, int(rng.integers(1, T + 1)))
    other = build_asymmetric_delay(p, DelayGraph.create(
        [[1 if i == j else int(rng.integers(1, T + 1)) for j in range(n)]
         for i in range(n)])) if n > 1 else build_control_sharing(p)
    return p, p2, delayed, other, rng


def test_build_bitwise_on_frames_shared_by_plants_and_protocols():
    """One plant with two protocols and one protocol object on two plants,
    built in turns, each twice: every system is bitwise the per-step
    assembly of its own plant and protocol, for one gain and a stack."""
    def check(p, p2, delayed, other, rng):
        for plant, mp in [(p, delayed), (p, other), (p2, delayed)] * 2:
            for batch in ((), (3,)):
                theta = rng.standard_normal(batch + LocalGains.zeros(
                    plant, mp).theta.shape)
                lg = LocalGains.from_vector(plant, mp, theta)
                if batch:
                    cs = build(plant, mp, lg)
                    for i in range(batch[0]):
                        one = LocalGains.from_vector(plant, mp, theta[i])
                        ref = _assert_build_is_per_step(plant, mp, one)
                        for name in ("A", "C", "noise", "Q", "N",
                                     "noise_cost", "loc"):
                            assert np.array_equal(getattr(cs, name)[i],
                                                  getattr(ref, name)), name
                else:
                    _assert_build_is_per_step(plant, mp, lg)
    check_generated(_frame_cases, FRAME_TAG, 40, check)


def test_frame_is_formed_once_per_plant_and_protocol():
    p, p2, delayed, other, rng = _frame_cases(
        np.random.default_rng([FRAME_TAG, 0]))
    first = {}
    for plant, mp in [(p, delayed), (p, other), (p2, delayed)] * 3:
        cs = build(plant, mp, LocalGains.random(plant, mp, rng, 0.5))
        B, root = first.setdefault((id(plant), id(mp)),
                                   (cs.B, cs.init_root))
        assert cs.B is B and cs.init_root is root
        assert not cs.B.flags.writeable and not cs.init_root.flags.writeable
    tuned = tune(p, delayed, budget=40)
    assert tuned.strategy.cs.B is first[id(p), id(delayed)][0]
    assert len(p._frames) == 2 and len(p2._frames) == 1
    assert first[id(p), id(delayed)][0] is not first[id(p2), id(delayed)][0]


def test_frame_keeps_one_free_block_for_a_constant_plant():
    # a plant whose A and C do not change over t keeps (T - 1) fewer
    # copies of the frame's rows that do not pass through U_t
    rng = np.random.default_rng([FRAME_TAG, 2])
    for time_varying in (False, True):
        p = random_plant(rng, n=2, d_y=(2, 1), T=4, time_varying=time_varying)
        mp = build_symmetric_delay(p, 2)
        _assert_build_is_per_step(p, mp, LocalGains.random(p, mp, rng))
        free = p._frames[mp].frame[0]
        assert (free.strides[0] == 0) != time_varying


def test_discarded_protocols_release_their_frames_and_sweeps(monkeypatch):
    """100 protocols, each solved on one plant and then dropped, keep under
    1 MB once collected (each kept about 0.5 MB when held for good), and
    the frame and value sweep of a live protocol are formed once."""
    rng = np.random.default_rng([FRAME_TAG, 3])
    p = random_plant(rng, n=4, d_x=4, d_y=(2,) * 4, d_u=(1,) * 4, T=30)
    live = build_symmetric_delay(p, 4)
    gains = LocalGains.random(p, live, rng, 0.1)
    first = solve(p, live, gains)
    formed, frame = [], coordination_mod._frame
    monkeypatch.setattr(coordination_mod, "_frame",
                        lambda *a: formed.append(a[1] is live) or frame(*a))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            mp = build_symmetric_delay(p, 4)
            solve(p, mp, LocalGains.from_vector(p, mp, gains.theta))
            again = solve(p, live, gains)
            assert again.S is first.S and again.cs.B is first.cs.B
        del mp, again
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1e6, kept
    assert list(p._frames) == [live] and formed == [False] * 100


def test_protocols_built_alike_get_entries_of_their_own():
    # a plant keys its entries by the protocol object: two protocols built
    # alike are two keys, each with its own frame and value sweep (equal
    # bits), and each entry goes with its protocol
    rng = np.random.default_rng([FRAME_TAG, 4])
    p = random_plant(rng, n=2, d_y=(2, 1), T=4)
    mp, twin = build_symmetric_delay(p, 2), build_symmetric_delay(p, 2)
    assert mp != twin and len({mp, twin}) == 2
    theta = LocalGains.random(p, mp, rng, 0.5).theta
    ss, st = (solve(p, m, LocalGains.from_vector(p, m, theta))
              for m in (mp, twin))
    assert len(p._frames) == 2
    ours, theirs = p._frames[mp], p._frames[twin]
    assert ss.cs.B is ours.frame[2] and ss.S is ours.value[0]
    assert st.cs.B is theirs.frame[2] and st.S is theirs.value[0]
    for a, b in zip(ours.frame + ours.value, theirs.frame + theirs.value):
        assert a is not b and np.array_equal(a, b)
    assert ss.J == st.J
    del twin, st, theirs
    gc.collect()
    assert list(p._frames) == [mp] and p._frames[mp] is ours


def test_replaced_plant_does_not_inherit_frames():
    rng = np.random.default_rng([FRAME_TAG, 1])
    p = random_plant(rng, n=2, d_y=(2, 1), d_u=(1, 2), T=4)
    mp = build_symmetric_delay(p, 2)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    for changed in (dict(A=np.flip(p.A, axis=-1)), dict(B=2.0 * p.B),
                    dict(sigma_x=4.0 * p.sigma_x)):
        p2 = dataclasses.replace(p, **changed)
        assert p2._frames == {}
        cs2 = _assert_build_is_per_step(p2, mp, lg)
        assert cs2.B is not cs.B and cs2.init_root is not cs.init_root
    assert build(p, mp, lg).B is cs.B


def test_build_rejects_mismatched_protocol():
    rng = np.random.default_rng(11)
    p1 = random_plant(rng, n=2)
    p2 = random_plant(rng, n=3, d_y=(1, 1, 1), d_u=(1, 1, 1))
    mp2 = build_symmetric_delay(p2, 1)
    with pytest.raises(DimMismatch):
        build(p1, mp2, LocalGains.zeros(p2, mp2))


def test_closed_loop_cost_zero_noise():
    p = PlantModel.create(
        n=1, T=4, d_x=1, d_u=(1,), d_y=(1,), A=[[1.0]], B=[[1.0]],
        C=[[[1.0]]], Q=[[1.0]], R=[[1.0]], sigma_x=[[0.0]],
        sigma_w0=[[0.0]], sigma_w=[[[0.0]]])
    mp = build_symmetric_delay(p, 1)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    k_seq = [np.zeros((1, cs.d_state))] * 4
    assert closed_loop_cost_exact(cs, k_seq, forward_riccati(cs)[1]) == \
        pytest.approx(0.0, abs=1e-15)


def test_closed_loop_cost_random_walk():
    # Q = 1, A = 1, no control used: E[sum X_t^2] = 1 + 2 + 3
    p = PlantModel.create(
        n=1, T=3, d_x=1, d_u=(1,), d_y=(1,), A=[[1.0]], B=[[0.7]],
        C=[[[1.0]]], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[0.0]]])
    mp = build_symmetric_delay(p, 1)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    k_seq = [np.zeros((1, cs.d_state))] * 3
    assert closed_loop_cost_exact(cs, k_seq, forward_riccati(cs)[1]) == \
        pytest.approx(6.0, abs=1e-12)


def test_closed_loop_cost_matches_performance(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(12), 0.3)
    ss = solve(scalar2, mp, lg)
    exact = closed_loop_cost_exact(ss.cs, ss.Lgain, ss.filter_gain)
    assert abs(ss.J - exact) < 1e-8


def test_control_sharing_observation_reads_only_actions():
    # Z_t = U_t = Ut~ + G_t (C_t X_t + W_t): the observation map is G_t C_t
    # and its noise G_t W_t
    rng = np.random.default_rng(41)
    p = random_plant(rng, n=2, d_x=2, T=4)
    mp = build_control_sharing(p)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    assert cs.d_state == cs.d_x
    for t in range(2, p.T + 1):
        G = lg.G[t - 2]
        assert_allclose(cs.C[t - 2], G @ p.C[t - 2])
        noise_v = cs.noise[t - 2, cs.d_state:]
        assert_allclose(noise_v @ noise_v.T, G @ p.sigma_w @ G.T)
        assert_allclose(cs.protocol.zu, np.eye(cs.d_u))


def _layout_positions(p, mp):
    """(t, i, kind, row, col) of every theta entry, in the documented order."""
    return [(t, i, kind, r, c)
            for t in range(p.T) for i in range(p.n)
            for kind, cols in (("G", p.d_y[i]), ("H", mp.d_m[i]))
            for r in range(p.d_u[i]) for c in range(cols)]


def _cols(p, mp, kind, i):
    return p.y_slice(i) if kind == "G" else mp.m_slice(i)


def _block(p, mp, lg, kind, t, i):
    """Controller i's block of the stacked G[t] or H[t]."""
    return getattr(lg, kind)[t][p.u_slice(i), _cols(p, mp, kind, i)]


def _block_positions(p, mp, t, i):
    """theta indices of controller i's G block at offset t, row-major."""
    first = _layout_positions(p, mp).index((t, i, "G", 0, 0))
    size = p.d_u[i] * p.d_y[i]
    return np.arange(first, first + size).reshape(p.d_u[i], p.d_y[i])


def _layout_instance():
    rng = np.random.default_rng(51)
    p = random_plant(rng, n=3, d_y=(2, 1, 1), d_u=(1, 2, 1), T=3)
    return rng, p, build_symmetric_delay(p, 2)


def test_gains_theta_unit_vector_moves_one_named_entry():
    rng, p, mp = _layout_instance()
    base = LocalGains.random(p, mp, rng, 1.0)
    positions = _layout_positions(p, mp)
    assert base.theta.size == len(positions)
    for idx, (t, i, kind, r, c) in enumerate(positions):
        theta = base.theta.copy()
        theta[idx] += 1.0
        moved = LocalGains.from_vector(p, mp, theta)
        changed = [(name, *map(int, at)) for name in ("G", "H")
                   for at in zip(*np.nonzero(getattr(moved, name)
                                             != getattr(base, name)))]
        at = (t, p.u_slice(i).start + r, _cols(p, mp, kind, i).start + c)
        assert changed == [(kind, *at)]
        assert getattr(moved, kind)[at] == getattr(base, kind)[at] + 1.0


def test_gains_create_reads_back_blocks_exactly():
    rng, p, mp = _layout_instance()
    G = [[rng.standard_normal((p.d_u[i], p.d_y[i])) for i in range(p.n)]
         for _ in range(p.T)]
    H = [[rng.standard_normal((p.d_u[i], mp.d_m[i])) for i in range(p.n)]
         for _ in range(p.T)]
    lg = LocalGains.create(p, mp, G, H)
    for t in range(p.T):
        for i in range(p.n):
            assert np.array_equal(_block(p, mp, lg, "G", t, i), G[t][i])
            assert np.array_equal(_block(p, mp, lg, "H", t, i), H[t][i])
    again = LocalGains.from_vector(p, mp, lg.theta)
    assert np.array_equal(again.theta, lg.theta)


def test_gains_create_takes_exactly_T_per_step_lists():
    # with n == T a constant set of per-controller blocks has T entries too;
    # it is refused at every T rather than read as per-step lists
    for T in (2, 3):
        p = scalar_two_controller(T=T)
        mp = build_symmetric_delay(p, 1)
        H = [[np.zeros((1, 0))] * 2 for _ in range(T)]
        G = [[[[0.5 + t]], [[0.7 + t]]] for t in range(T)]
        lg = LocalGains.create(p, mp, G, H)
        assert [lg.G[t][i, i] for t in range(T) for i in range(2)] == \
            [g[0][0] for row in G for g in row]
        with pytest.raises(DimMismatch, match="^G"):
            LocalGains.create(p, mp, [[[0.5]], [[0.7]]], H)
        with pytest.raises(DimMismatch, match="^H"):
            LocalGains.create(p, mp, G, [np.zeros((1, 0))] * 2)


def test_build_and_solve_reject_gains_made_for_another_protocol():
    p = scalar_two_controller()
    gains = LocalGains.zeros(p, build_symmetric_delay(p, 2))
    for run in (build, solve):
        with pytest.raises(DimMismatch, match="another plant or protocol"):
            run(p, build_symmetric_delay(p, 1), gains)
    with pytest.raises(DimMismatch, match="another plant or protocol"):
        build(scalar_two_controller(T=4), build_symmetric_delay(
            scalar_two_controller(T=4), 2), gains)


def test_gains_random_draws_all_G_then_all_H():
    _, p, mp = _layout_instance()
    lg = LocalGains.random(p, mp, np.random.default_rng(77), 0.3)
    rng = np.random.default_rng(77)
    G = [[0.3 * rng.standard_normal((p.d_u[i], p.d_y[i])) for i in range(p.n)]
         for _ in range(p.T)]
    H = [[0.3 * rng.standard_normal((p.d_u[i], mp.d_m[i])) for i in range(p.n)]
         for _ in range(p.T)]
    for t in range(p.T):
        for i in range(p.n):
            assert np.array_equal(_block(p, mp, lg, "G", t, i), G[t][i])
            assert np.array_equal(_block(p, mp, lg, "H", t, i), H[t][i])


def test_gains_views_are_read_only():
    rng, p, mp = _layout_instance()
    source = rng.standard_normal(LocalGains.zeros(p, mp).theta.size)
    lg = LocalGains.from_vector(p, mp, source)
    source[0] += 1.0                      # the input is copied, not aliased
    assert lg.theta[0] != source[0]
    assert not lg.theta.flags.writeable
    # stacked results of vstack, blkdiag and zeros are writeable unless
    # frozen: every array on the plant, the gains and the coordinated
    # system must refuse writes, and so must each per-step view
    cs = build(p, mp, lg)
    arrays = [lg.theta, lg.G, lg.H, _block(p, mp, lg, "G", 0, 0),
              _block(p, mp, lg, "H", 2, 1), p.Q, p.R, p.sigma_x, p.sigma_w0,
              p.sigma_w, p.A, p.B, p.C, *p.A, *p.B, *p.C, p.x1_root,
              p.noise_root, cs.init_root]
    for seq in (cs.A, cs.B, cs.C, cs.noise, cs.Q, cs.N, cs.loc):
        assert seq.shape[0] == (p.T - 1 if seq is cs.C else p.T)
        arrays += [seq, *seq]
    assert cs.noise_cost.shape == (p.T,)
    arrays.append(cs.noise_cost)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
