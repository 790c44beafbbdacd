import copy
import dataclasses
from importlib import import_module

import numpy as np
import pytest
from numpy.testing import assert_allclose

import declqg.core as core_mod
import declqg.solver as solver_mod
from declqg import (LocalGains, NumericalBreakdown, build_control_sharing,
                    build_symmetric_delay, seeded_stream, solve, tune)
from declqg.cli import DEMOS, load_scenario
from declqg.tune import STEP_INIT, STEP_MIN, WINDOW

from conftest import scalar_two_controller

tune_mod = import_module("declqg.tune")   # ``declqg.tune`` is the function


def _sequential_tune(plant, mp, budget, seed=0, restarts=0):
    """The compass search one candidate at a time, one ``solve`` each.

    The reference ``tune`` must reproduce to the bit: it solves poll
    candidates speculatively in stacks, but charges and logs only these.
    Returns (log, J, evaluations, theta of the incumbent).
    """
    evals = 0
    log = []
    best = None    # (J, theta)

    def evaluate(theta):
        nonlocal evals, best
        J = solve(plant, mp, LocalGains.from_vector(plant, mp, theta)).J
        evals += 1
        if best is None or J < best[0]:
            best = (J, theta)
        return J

    zero = LocalGains.zeros(plant, mp).theta
    starts = [zero]
    for ridx in range(restarts):
        starts.append(seeded_stream(seed, ridx).standard_normal(zero.size))
    for restart_idx, theta in enumerate(starts):
        if evals >= budget:
            break
        J_cur = evaluate(theta)
        log.append((restart_idx, evals, best[0]))
        step = STEP_INIT
        while step >= STEP_MIN and evals < budget:
            improved = False
            for p in range(zero.size):
                accepted = False
                for delta in (step, -step):
                    if evals >= budget:
                        break
                    cand = theta.copy()
                    cand[p] += delta
                    J_c = evaluate(cand)
                    log.append((restart_idx, evals, best[0]))
                    if J_c < J_cur:
                        theta, J_cur = cand, J_c
                        improved = True
                        accepted = True
                        break
                if accepted:
                    continue
                if evals >= budget:
                    break
            if not improved:
                step /= 2.0
    return tuple(log), best[0], evals, best[1]


def _assert_same_as_reference(result, ref):
    log, J, evals, theta = ref
    assert result.log == log
    assert [row[2].hex() for row in result.log] == [row[2].hex()
                                                    for row in log]
    assert result.J.hex() == J.hex()
    assert result.evaluations == evals
    assert result.gains.theta.tobytes() == theta.tobytes()


def _demo(name):
    return load_scenario(copy.deepcopy(DEMOS[name]["config"]))


def test_uncontrollable_plant_keeps_zero_gains():
    p = scalar_two_controller(T=4)
    p = dataclasses.replace(p, B=np.zeros((4, 1, 2)))
    mp = build_symmetric_delay(p, 2)
    at_zero = solve(p, mp, LocalGains.zeros(p, mp)).J
    result = tune(p, mp, budget=100, seed=0, restarts=1)
    assert abs(result.J - at_zero) < 1e-9


def test_budget_one_returns_zero_start():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 1)
    result = tune(p, mp, budget=1, seed=0, restarts=2)
    assert result.evaluations == 1
    at_zero = solve(p, mp, LocalGains.zeros(p, mp)).J
    assert result.J == pytest.approx(at_zero, abs=0)
    assert_allclose(result.gains.G[0], 0.0)


def test_incumbent_monotone_and_log_shape():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 2)
    result = tune(p, mp, budget=200, seed=1, restarts=1)
    incumbents = [row[2] for row in result.log]
    assert all(b <= a + 1e-15 for a, b in zip(incumbents, incumbents[1:]))
    assert result.log[-1][1] == result.evaluations
    assert result.evaluations <= 200


def test_search_improves_over_zero_start():
    p = scalar_two_controller(T=4)
    mp = build_symmetric_delay(p, 1)
    at_zero = solve(p, mp, LocalGains.zeros(p, mp)).J
    result = tune(p, mp, budget=400, seed=0, restarts=0)
    assert result.J < at_zero - 1e-6


def test_deterministic_given_seed():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 2)
    a = tune(p, mp, budget=150, seed=3, restarts=2)
    b = tune(p, mp, budget=150, seed=3, restarts=2)
    assert a.J == b.J
    assert a.log == b.log
    assert a.gains.G.tobytes() == b.gains.G.tobytes()
    assert a.gains.H.tobytes() == b.gains.H.tobytes()


def test_block_structure_preserved():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 2)
    result = tune(p, mp, budget=120, seed=2, restarts=1)
    G = result.gains.G[1]
    assert G[0, 1] == 0.0 and G[1, 0] == 0.0


def test_budget_must_be_positive():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 1)
    with pytest.raises(ValueError):
        tune(p, mp, budget=0)


def test_restarts_must_be_non_negative():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 1)
    with pytest.raises(ValueError):
        tune(p, mp, budget=10, restarts=-2)


@pytest.mark.parametrize("kwargs, name", [
    (dict(budget=10, seed=1.5), "seed"), (dict(budget=10, seed=True), "seed"),
    (dict(budget=10.0), "budget"), (dict(budget=10, restarts=1.5),
                                   "restarts")])
def test_tune_rejects_non_integer_seed_and_counts(kwargs, name):
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 1)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        tune(p, mp, **kwargs)


def test_tune_rejects_negative_seed_without_restarts():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 1)
    with pytest.raises(ValueError, match="seed >= 0"):
        tune(p, mp, budget=10, seed=-1)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_tune_matches_sequential_search_on_demos(name):
    sc = _demo(name)
    result = tune(sc.plant, sc.protocol, budget=sc.tune_budget,
                  seed=sc.tune_seed, restarts=sc.tune_restarts)
    _assert_same_as_reference(result, _sequential_tune(
        sc.plant, sc.protocol, sc.tune_budget, sc.tune_seed,
        sc.tune_restarts))


@pytest.mark.parametrize("budget", [1, 2, WINDOW - 1, WINDOW + 1, 37])
def test_tune_matches_sequential_search_when_budget_ends_in_a_window(budget):
    sc = _demo("symmetric-k2")
    _assert_same_as_reference(
        tune(sc.plant, sc.protocol, budget=budget, seed=0, restarts=1),
        _sequential_tune(sc.plant, sc.protocol, budget, 0, 1))


def test_tune_matches_sequential_search_with_restarts():
    p = scalar_two_controller(T=3)
    mp = build_symmetric_delay(p, 2)
    _assert_same_as_reference(tune(p, mp, budget=300, seed=5, restarts=2),
                              _sequential_tune(p, mp, 300, 5, 2))


def _tune_cases():
    """(plant, protocol, tune keywords): the demos at their own settings, a
    run whose restarts each run out their steps, and a small restarts case."""
    for name in sorted(DEMOS):
        sc = _demo(name)
        yield name, sc.plant, sc.protocol, dict(
            budget=sc.tune_budget, seed=sc.tune_seed,
            restarts=sc.tune_restarts)
    sc = _demo("scalar-2ctrl-k1")
    yield ("scalar-2ctrl-k1-restarts", sc.plant, sc.protocol,
           dict(budget=3500, seed=3, restarts=2))
    p = scalar_two_controller(T=3)
    yield ("scalar2-restarts", p, build_symmetric_delay(p, 2),
           dict(budget=300, seed=5, restarts=2))


@pytest.mark.parametrize("case", list(_tune_cases()), ids=lambda c: c[0])
def test_tune_returns_the_strategy_a_fresh_solve_gives(case):
    _, p, mp, kwargs = case
    result = tune(p, mp, **kwargs)
    fresh = solve(p, mp, result.gains)
    assert result.strategy.J.hex() == fresh.J.hex() == result.J.hex()
    for name in ("Lgain", "filter_gain", "Ptilde", "S"):
        got, want = getattr(result.strategy, name), getattr(fresh, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
            name


def _evaluated_thetas(monkeypatch, run):
    """Every gains vector ``run`` hands to ``build``, in order."""
    seen, build = [], solver_mod.build

    def recording(plant, mp, gains):
        seen.extend(gains.theta.reshape(-1, gains.theta.shape[-1]).copy())
        return build(plant, mp, gains)

    monkeypatch.setattr(solver_mod, "build", recording)
    run()
    monkeypatch.setattr(solver_mod, "build", build)
    return seen


def _fail_finite_check_at(monkeypatch, target, t_fail):
    """Make the solve's finiteness checks fail at step ``t_fail`` for any
    system (alone or in a stack) built from the gains vector ``target``.
    The forward sweep checks step ``t_fail`` if it sweeps it (its new
    covariance root, or its window's P~_t), and every solve checks the
    L~_t and cost terms of every step (``solver._check_steps``), so the
    first of them that reaches it raises.  The square-root sweep checks
    through ``core``, the window through ``solver``."""
    current, build, check = [], solver_mod.build, core_mod._check_finite
    check_steps, raised = solver_mod._check_steps, []

    def tracking(plant, mp, gains):
        current[:] = gains.theta.reshape(-1, gains.theta.shape[-1])
        return build(plant, mp, gains)

    def hit(t):
        if t == t_fail and any(np.array_equal(row, target)
                               for row in current):
            raised.append(len(current))
            raise NumericalBreakdown("injected breakdown", t)

    def failing(m, name, t):
        hit(t)
        return check(m, name, t)

    def failing_steps(cs, L):
        hit(t_fail)
        return check_steps(cs, L)

    monkeypatch.setattr(solver_mod, "build", tracking)
    monkeypatch.setattr(solver_mod, "_check_steps", failing_steps)
    for module in (solver_mod, core_mod):
        monkeypatch.setattr(module, "_check_finite", failing)
    return raised


BREAKDOWN_BUDGET = 60


def _breakdown_case():
    """Control sharing, whose forward pass is the square-root sweep."""
    p = scalar_two_controller(T=5)
    return p, build_control_sharing(p)


def _window_breakdown_case():
    """2-step sharing, whose forward pass is the window form."""
    p = scalar_two_controller(T=5)
    return p, build_symmetric_delay(p, 2)


def _check_speculative_breakdown_not_raised(monkeypatch, p, mp):
    ref_seen = _evaluated_thetas(
        monkeypatch, lambda: _sequential_tune(p, mp, BREAKDOWN_BUDGET))
    batch_seen = _evaluated_thetas(
        monkeypatch, lambda: tune(p, mp, budget=BREAKDOWN_BUDGET))
    speculative = [th for th in batch_seen
                   if not any(np.array_equal(th, r) for r in ref_seen)]
    assert speculative, "no candidate was solved only speculatively"
    ref = _sequential_tune(p, mp, BREAKDOWN_BUDGET)
    raised = _fail_finite_check_at(monkeypatch, speculative[0], t_fail=3)
    _assert_same_as_reference(tune(p, mp, budget=BREAKDOWN_BUDGET), ref)
    assert raised and raised[0] > 1     # a stack failed and was redone


def _check_charged_breakdown_raised(monkeypatch, p, mp, position):
    ref_seen = _evaluated_thetas(
        monkeypatch, lambda: _sequential_tune(p, mp, BREAKDOWN_BUDGET))
    raised = _fail_finite_check_at(monkeypatch, ref_seen[position], t_fail=3)
    with pytest.raises(NumericalBreakdown) as ref_err:
        _sequential_tune(p, mp, BREAKDOWN_BUDGET)
    with pytest.raises(NumericalBreakdown) as err:
        tune(p, mp, budget=BREAKDOWN_BUDGET)
    assert ref_err.value.t == err.value.t == 3
    assert str(err.value) == str(ref_err.value)
    return raised


def test_breakdown_past_the_accepted_candidate_is_not_raised(monkeypatch):
    _check_speculative_breakdown_not_raised(monkeypatch, *_breakdown_case())


def test_window_breakdown_past_the_accepted_candidate_is_not_raised(
        monkeypatch):
    _check_speculative_breakdown_not_raised(monkeypatch,
                                            *_window_breakdown_case())


@pytest.mark.parametrize("position", [0, 1, 5, WINDOW + 3])
def test_breakdown_of_a_charged_candidate_is_raised_at_its_step(
        monkeypatch, position):
    _check_charged_breakdown_raised(monkeypatch, *_breakdown_case(), position)


@pytest.mark.parametrize("position", [0, 1, 5, WINDOW + 3])
def test_window_breakdown_of_a_charged_candidate_is_raised_at_its_step(
        monkeypatch, position):
    """Position 0 is the zero start, solved alone; the others are polls,
    first solved in a stack."""
    raised = _check_charged_breakdown_raised(
        monkeypatch, *_window_breakdown_case(), position)
    assert raised == [1, 1] if position == 0 else max(raised) > 1


def test_window_stacks_in_tune_give_each_candidates_J_bitwise(monkeypatch):
    """Every stacked solve ``tune`` makes on the window path, each from an
    incumbent, gives each candidate the J of its own full solve, bitwise."""
    p, mp = _window_breakdown_case()
    assert mp.window == 2
    stacks, inner = [], tune_mod.solve

    def recording(plant, mp, gains, incumbent=None):
        out = inner(plant, mp, gains, incumbent)
        if gains.theta.ndim > 1:
            stacks.append((gains.theta.copy(), out.J.copy()))
        return out

    monkeypatch.setattr(tune_mod, "solve", recording)
    tune(p, mp, budget=BREAKDOWN_BUDGET)
    assert len(stacks) > 1
    for thetas, Js in stacks:
        for theta, J in zip(thetas, Js):
            one = solve(p, mp, LocalGains.from_vector(p, mp, theta)).J
            assert J.hex() == one.hex()


def _forward_sweeps(monkeypatch, run):
    """(gains vectors, start step) of every forward pass ``run`` makes."""
    seen, first = [], solver_mod._first_changed_step

    def recording(cs, inc):
        theta, start = cs.gains.theta, first(cs, inc)
        seen.append((theta.reshape(-1, theta.shape[-1]).copy(), start))
        return start

    monkeypatch.setattr(solver_mod, "_first_changed_step", recording)
    run()
    monkeypatch.setattr(solver_mod, "_first_changed_step", first)
    return seen


def test_breakdown_in_a_window_past_step_one_is_raised_at_its_step(
        monkeypatch):
    """A window whose polls first change step t_a > 1 sweeps forward from
    t_a.  Its first poll is charged; a breakdown of that poll injected at
    t_a + 1 is raised there, with the one-at-a-time search's message."""
    _check_breakdown_past_step_one(monkeypatch, *_breakdown_case())


def test_window_breakdown_in_a_window_past_step_one_is_raised_at_its_step(
        monkeypatch):
    _check_breakdown_past_step_one(monkeypatch, *_window_breakdown_case())


def _check_breakdown_past_step_one(monkeypatch, p, mp):
    ref_seen = _evaluated_thetas(
        monkeypatch, lambda: _sequential_tune(p, mp, BREAKDOWN_BUDGET))
    sweeps = _forward_sweeps(
        monkeypatch, lambda: tune(p, mp, budget=BREAKDOWN_BUDGET))
    target, t_a = next(
        (rows[0], start) for rows, start in sweeps
        if rows.shape[0] > 1 and 1 < start < p.T
        and any(np.array_equal(rows[0], r) for r in ref_seen))
    _fail_finite_check_at(monkeypatch, target, t_fail=t_a + 1)
    with pytest.raises(NumericalBreakdown) as ref_err:
        _sequential_tune(p, mp, BREAKDOWN_BUDGET)
    with pytest.raises(NumericalBreakdown) as err:
        tune(p, mp, budget=BREAKDOWN_BUDGET)
    assert ref_err.value.t == err.value.t == t_a + 1
    assert str(err.value) == str(ref_err.value)
