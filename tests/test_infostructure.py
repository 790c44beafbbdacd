import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import (DelayGraph, InvalidDelay, PlantModel,
                    UnsupportedProtocol, WrongControllerCount,
                    build_asymmetric_delay, build_control_sharing,
                    build_one_sided, build_symmetric_delay, explicit_protocol,
                    token_trace, validate)

from conftest import random_plant, scalar_two_controller


def test_symmetric_k2_matches_display(scalar2):
    # delay-2 sharing: M^i_{t+1} = [I;0] Y + [0;I] U, Z^i_t = M^i_t
    mp = build_symmetric_delay(scalar2, 2)
    for b in mp.blocks:
        assert_allclose(b["mm"], np.zeros((2, 2)))
        assert_allclose(b["my"], [[1.0], [0.0]])
        assert_allclose(b["mu"], [[0.0], [1.0]])
        assert_allclose(b["zm"], np.eye(2))
        assert_allclose(b["zy"], np.zeros((2, 1)))
        assert_allclose(b["zu"], np.zeros((2, 1)))
    assert mp.strict and validate(mp).ok


def test_symmetric_k1_empty_memory(scalar2):
    mp = build_symmetric_delay(scalar2, 1)
    assert mp.d_m == (0, 0)
    assert mp.d_carrier == 0
    for b in mp.blocks:
        assert_allclose(b["zy"], [[1.0], [0.0]])
        assert_allclose(b["zu"], [[0.0], [1.0]])
    assert mp.strict and validate(mp).ok
    # Z_t = (Y^i_t, U^i_t) per controller
    tr = token_trace(mp)
    assert tr.z[3] == [("y", 0, 3, 0), ("u", 0, 3, 0),
                      ("y", 1, 3, 0), ("u", 1, 3, 0)]


def test_symmetric_k3_shift_structure():
    p = scalar_two_controller(T=7)
    mp = build_symmetric_delay(p, 3)
    assert mp.d_m == (4, 4)
    b = mp.blocks[0]
    # newest pair enters on top, old pair shifts down, oldest leaves via Z
    expect_mm = np.zeros((4, 4))
    expect_mm[2:4, 0:2] = np.eye(2)
    assert_allclose(b["mm"], expect_mm)
    assert_allclose(b["my"], [[1.0], [0.0], [0.0], [0.0]])
    assert_allclose(b["mu"], [[0.0], [1.0], [0.0], [0.0]])
    assert_allclose(b["zm"], [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert validate(mp).ok


def test_symmetric_memory_contents_by_tokens():
    for k in (1, 2, 3, 4):
        p = scalar_two_controller(T=10)
        mp = build_symmetric_delay(p, k)
        tr = token_trace(mp)
        for t in range(1, p.T + 1):
            for i in range(p.n):
                toks = set(tok for tok in tr.memory_tokens(i, t)
                           if tok is not None)
                expect = set()
                for s in range(max(1, t - k + 1), t):
                    expect.add(("y", i, s, 0))
                    expect.add(("u", i, s, 0))
                assert toks == expect, (k, i, t)


def test_strict_no_overlap_between_memory_and_share():
    for k in (2, 3):
        p = scalar_two_controller(T=8)
        mp = build_symmetric_delay(p, k)
        tr = token_trace(mp)
        for t in range(1, p.T):
            carried = set(tok for tok in tr.carrier[t + 1] if tok is not None)
            shared = set(tok for tok in tr.z[t] if tok is not None)
            assert not carried & shared


def test_invalid_delays(scalar2):
    with pytest.raises(InvalidDelay):
        build_symmetric_delay(scalar2, 0)
    with pytest.raises(InvalidDelay):
        build_symmetric_delay(scalar2, scalar2.T + 1)


def test_validate_flags_non_binary_entry(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    blocks = [dict(b) for b in mp.blocks]
    bad = blocks[0]["zy"].copy()
    bad[0, 0] = 2.0
    blocks[0]["zy"] = bad
    mutated = explicit_protocol(scalar2, blocks, strict=True)
    report = validate(mutated)
    assert any(v.rule == "A1" and v.block == "zy" for v in report.violations)


def test_validate_flags_dropped_column(scalar2):
    # discard the observation instead of storing it: column sum becomes 0
    mp = build_symmetric_delay(scalar2, 2)
    blocks = [dict(b) for b in mp.blocks]
    bad = blocks[1]["my"].copy()
    bad[0, 0] = 0.0
    blocks[1]["my"] = bad
    report = validate(explicit_protocol(scalar2, blocks, strict=True))
    assert any(v.rule == "A2-col" and v.controller == 1
               for v in report.violations)
    assert any(v.rule == "A2-row" and v.controller == 1
               for v in report.violations)


def figure1_plant(T=6):
    return PlantModel.create(
        n=3, T=T, d_x=2, d_u=(1, 1, 1), d_y=(1, 1, 1),
        A=0.8 * np.eye(2), B=np.ones((2, 3)) * 0.4,
        C=[[[1.0, 0.0]], [[0.5, 0.5]], [[0.0, 1.0]]],
        Q=np.eye(2), R=np.eye(3), sigma_x=np.eye(2),
        sigma_w0=0.2 * np.eye(2), sigma_w=[[[0.1]], [[0.1]], [[0.1]]])


def figure1_graph():
    return DelayGraph.create([[1, 1, 2], [1, 1, 1], [2, 1, 1]])


def test_asymmetric_figure1_memory_and_share_contents():
    mp = build_asymmetric_delay(figure1_plant(), figure1_graph())
    assert mp.d_m == (2, 4, 2)
    tr = token_trace(mp)
    t = 5
    assert tr.memory_tokens(0, t) == [("y", 0, 4, 0), ("u", 0, 4, 0)]
    assert tr.memory_tokens(1, t) == [("y", 0, 4, 0), ("u", 0, 4, 0),
                                      ("y", 2, 4, 0), ("u", 2, 4, 0)]
    assert tr.memory_tokens(2, t) == [("y", 2, 4, 0), ("u", 2, 4, 0)]
    assert tr.z[t] == [("y", 0, 4, 0), ("u", 0, 4, 0),
                       ("y", 1, 5, 0), ("u", 1, 5, 0),
                       ("y", 2, 4, 0), ("u", 2, 4, 0)]


def test_asymmetric_shared_tokens_cumulative():
    p = figure1_plant(T=8)
    g = figure1_graph()
    mp = build_asymmetric_delay(p, g)
    tr = token_trace(mp)
    kstar = [g.k_star(j) for j in range(3)]
    for t in range(1, p.T):
        seen = set()
        for s in range(1, t + 1):
            seen |= set(tok for tok in tr.z[s] if tok is not None)
        expect = set()
        for j in range(3):
            for s in range(1, t - kstar[j] + 2):
                expect.add(("y", j, s, 0))
                expect.add(("u", j, s, 0))
        assert seen == expect, t


def test_asymmetric_constant_delays_match_symmetric_tokens():
    p = scalar_two_controller(T=8)
    for k in (1, 2, 3):
        g = DelayGraph.create(np.where(np.eye(2, dtype=int), 1, k))
        asym = build_asymmetric_delay(p, g)
        sym_ = build_symmetric_delay(p, k)
        tra, trs = token_trace(asym), token_trace(sym_)
        for t in range(1, p.T + 1):
            assert tra.z[t] == trs.z[t]
            for i in range(2):
                assert (set(t_ for t_ in tra.memory_tokens(i, t) if t_)
                        == set(t_ for t_ in trs.memory_tokens(i, t) if t_))


def test_asymmetric_single_controller_degenerates():
    p = PlantModel.create(
        n=1, T=4, d_x=1, d_u=(1,), d_y=(1,), A=[[1.0]], B=[[1.0]],
        C=[[[1.0]]], Q=[[1.0]], R=[[1.0]], sigma_x=[[1.0]],
        sigma_w0=[[1.0]], sigma_w=[[[1.0]]])
    mp = build_asymmetric_delay(p, DelayGraph.create([[1]]))
    assert mp.d_carrier == 0 and mp.d_m == (0,)
    tr = token_trace(mp)
    assert tr.z[2] == [("y", 0, 2, 0), ("u", 0, 2, 0)]


def test_delay_graph_validation():
    with pytest.raises(InvalidDelay):
        DelayGraph.create([[2, 1], [1, 1]])   # k_ii != 1
    with pytest.raises(InvalidDelay):
        DelayGraph.create([[1, 0], [1, 1]])
    with pytest.raises(WrongControllerCount):
        build_asymmetric_delay(scalar_two_controller(),
                               DelayGraph.create([[1]]))


def test_control_sharing_shares_exactly_the_actions(scalar2):
    mp = build_control_sharing(scalar2)
    assert mp.d_m == (0, 0) and mp.d_z == 2
    tr = token_trace(mp)
    for t in range(1, scalar2.T + 1):
        assert tr.z[t] == [("u", 0, t, 0), ("u", 1, t, 0)]
    # strict view: observations are dropped, so Y columns violate A2
    report = validate(mp, enforce_strict=True)
    assert not mp.strict
    assert any(v.rule == "A2-col" for v in report.violations)
    assert validate(mp).ok   # generalized protocol passes its own contract


def test_one_sided_shares_only_controller_two(scalar2):
    mp = build_one_sided(scalar2)
    assert mp.d_m == (0, 0)
    assert mp.d_z_per == (0, 2)
    tr = token_trace(mp)
    for t in range(1, scalar2.T + 1):
        assert tr.z[t] == [("y", 1, t, 0), ("u", 1, t, 0)]
    report = validate(mp, enforce_strict=True)
    bad = [v for v in report.violations if v.rule == "A2-col"]
    assert bad and all(v.controller == 0 for v in bad)


def test_one_sided_requires_two_controllers():
    p = random_plant(np.random.default_rng(0), n=3, d_y=(1, 1, 1),
                     d_u=(1, 1, 1))
    with pytest.raises(WrongControllerCount):
        build_one_sided(p)


def test_token_trace_rejects_non_selection_rows(scalar2):
    mp = build_control_sharing(scalar2)
    blocks = [dict(b) for b in mp.blocks]
    bad = blocks[0]["zu"].copy()
    bad[0, 0] = 0.5
    blocks[0]["zu"] = bad
    with pytest.raises(UnsupportedProtocol):
        token_trace(explicit_protocol(scalar2, blocks))


def test_protocol_document_is_json_ready(scalar2):
    import json
    mp = build_symmetric_delay(scalar2, 2)
    doc = json.loads(json.dumps(mp.to_document()))
    assert doc["kind"] == "symmetric_delay"
    assert doc["blocks"][0]["my"] == [[1.0], [0.0]]


def test_memory_view_equals_blocks_for_strict(scalar2):
    mp = build_symmetric_delay(scalar2, 2)
    view = mp.memory_view()
    from declqg.core import blkdiag
    assert_allclose(view["my"], blkdiag([b["my"] for b in mp.blocks]))
    assert_allclose(view["zm"], blkdiag([b["zm"] for b in mp.blocks]))
