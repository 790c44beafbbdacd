import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (LocalGains, PlantModel, ZHistoryPolicy,
                    build, build_control_sharing, build_symmetric_delay,
                    closed_loop_cost_exact,
                    draw_primitives, forward_riccati, random_theta_maps,
                    rollout_coordinated, rollout_plant, solve)
from declqg.core import DimMismatch, blkdiag, eig_bounds, sym

from conftest import random_plant


def test_zero_gains_structure(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    cs = build(scalar2, mp, LocalGains.zeros(scalar2, mp))
    d_x, d_y = cs.d_x, cs.d_y
    t = 2
    A = cs.A[t - 1]
    assert_allclose(A[:d_x, :d_x], scalar2.A[t - 1])
    # with G = H = 0 nothing flows from Y into X except through P_my
    assert_allclose(A[:d_x, d_x:], 0.0)
    assert_allclose(A[d_x + d_y:, d_x:d_x + d_y], mp.cy)
    assert_allclose(A[d_x + d_y:, d_x + d_y:], mp.cc)
    assert_allclose(cs.N[t - 1], 0.0)
    Q = cs.Q[t - 1]
    assert_allclose(Q[:d_x, :d_x], scalar2.Q)
    assert_allclose(Q[d_x:, :], 0.0)


def test_scalar_single_controller_hand_expansion():
    # n = 1, k = 1, scalar plant: the 2x2 coordinated system by hand
    a, b, c, g = 1.1, 0.7, 0.9, 0.4
    p = PlantModel.create(
        n=1, T=3, d_x=1, d_u=(1,), d_y=(1,), A=[[a]], B=[[b]], C=[[[c]]],
        Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]], sigma_w0=[[0.5]],
        sigma_w=[[[0.2]]])
    mp = build_symmetric_delay(p, 1)
    lg = LocalGains.create(p, mp, [[np.array([[g]])]] * 3,
                           [[np.zeros((1, 0))]] * 3)
    cs = build(p, mp, lg)
    assert cs.d_state == 2
    assert_allclose(cs.A[0], [[a, b * g], [c * a, c * b * g]])
    assert_allclose(cs.B[0], [[b], [c * b]])
    # Z_t = (Y_t, U_t) observed at t+1; U_t = Ut~ + g Y_t
    assert_allclose(cs.C[0], [[0.0, 1.0], [0.0, g]])
    assert_allclose(cs.protocol.zu, [[0.0], [1.0]])
    assert_allclose(cs.SigW[0], [[0.5, 0.5 * c], [0.5 * c, 0.5 * c * c + 0.2]])
    assert_allclose(cs.Q[0], [[1.0, 0.0], [0.0, g * g]])
    assert_allclose(cs.N[0], [[0.0], [g]])
    assert_allclose(cs.init_cov, [[1.0, c], [c, c * c + 0.2]])


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
            stacked = np.hstack([ro.x, ro.y, ro.carrier])
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
    rng = np.random.default_rng(9)
    p = random_plant(rng, n=2, d_x=2, T=4, time_varying=True)
    mp = build_symmetric_delay(p, 2)
    cs = build(p, mp, LocalGains.zeros(p, mp))
    for t in range(1, p.T):
        C_next = p.C[t]
        F = np.zeros((cs.d_state, cs.d_x + cs.d_y))
        F[:cs.d_x, :cs.d_x] = np.eye(cs.d_x)
        F[cs.d_x:cs.d_x + cs.d_y, :cs.d_x] = C_next
        F[cs.d_x:cs.d_x + cs.d_y, cs.d_x:] = np.eye(cs.d_y)
        sig = F @ blkdiag([p.sigma_w0, p.sigma_w]) @ F.T
        assert_allclose(cs.SigW[t - 1], sig, atol=1e-14)


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
    d_x, d_y, d_c = p.d_x, p.d_y_total, mp.d_carrier
    d, X, Y = d_x + d_y + d_c, slice(0, d_x), slice(d_x, d_x + d_y)
    M = slice(d_x + d_y, d)
    noise = blkdiag([p.sigma_w0, p.sigma_w])
    out = {k: [] for k in ("A", "B", "SigW", "Q", "N", "C", "lift")}
    for t in range(1, p.T + 1):
        A_t, B_t, G = p.A[t - 1], p.B[t - 1], lg.G[t - 1]
        Hc = lg.H[t - 1] @ mp.m_sel
        C_next = p.C[t] if t < p.T else np.zeros((d_y, d_x))
        BG, BH = B_t @ G, B_t @ Hc
        A = np.zeros((d, d))
        A[X, X], A[X, Y], A[X, M] = A_t, BG, BH
        A[Y, X], A[Y, Y], A[Y, M] = C_next @ A_t, C_next @ BG, C_next @ BH
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
        lift[:d_x, :d_x] = np.eye(d_x)
        lift[Y, :d_x] = p.C[t - 1]
        lift[M, d_x:] = np.eye(d_c)
        out["lift"].append(lift)
        if t < p.T:
            C = np.zeros((mp.d_z, d))
            C[:, Y], C[:, M] = mp.zy + mp.zu @ G, mp.zc + mp.zu @ Hc
            out["C"].append(C)
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
    k_seq = [np.zeros((1, 2))] * 4
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
    k_seq = [np.zeros((1, 2))] * 3
    assert closed_loop_cost_exact(cs, k_seq, forward_riccati(cs)[1]) == \
        pytest.approx(6.0, abs=1e-12)


def test_closed_loop_cost_matches_performance(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    lg = LocalGains.random(scalar2, mp, np.random.default_rng(12), 0.3)
    ss = solve(scalar2, mp, lg)
    exact = closed_loop_cost_exact(ss.cs, ss.Kgain, ss.filter_gain)
    assert abs(ss.J - exact) < 1e-8


def test_control_sharing_observation_reads_only_actions():
    # Z_t = U_t, so the coordinated observation's Y-columns are exactly G_t
    from declqg import build_control_sharing
    rng = np.random.default_rng(41)
    p = random_plant(rng, n=2, d_x=2, T=4)
    mp = build_control_sharing(p)
    lg = LocalGains.random(p, mp, rng, 0.5)
    cs = build(p, mp, lg)
    for t in range(2, p.T + 1):
        C = cs.C[t - 2]
        assert_allclose(C[:, :cs.d_x], 0.0)
        assert_allclose(C[:, cs.d_x:cs.d_x + cs.d_y], lg.G[t - 2])
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
              p.sigma_w, p.A, p.B, p.C, *p.A, *p.B, *p.C, cs.init_cov,
              cs.proj]
    for seq in (cs.A, cs.B, cs.SigW, cs.C, cs.Q, cs.N, cs.lift):
        assert seq.shape[0] == (p.T - 1 if seq is cs.C else p.T)
        arrays += [seq, *seq]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
