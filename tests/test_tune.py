import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from declqg import LocalGains, build_symmetric_delay, solve, tune

from conftest import scalar_two_controller


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
