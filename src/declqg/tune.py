"""Outer search over the local-gain matrices (G, H).

For fixed local gains the inner problem is solved exactly by the Riccati
machinery; the outer problem is in general non-convex, so this module runs a
deterministic compass (pattern) search: perturb one entry of the flat gains
vector ``LocalGains.theta`` at a time by +-step, accept strict improvements,
halve the step after a sweep with no improvement.  Restarts draw zero-mean
unit-scale initial gains from dedicated random streams; the all-zero start
always runs first.  The evaluation budget is global and consumed
sequentially, so identical (seed, budget, restarts) give bitwise identical
results.  Polls are solved speculatively, ``WINDOW`` at a time as one stack,
and charged in poll order up to the first improvement; the rest are dropped,
so the result is bitwise that of the one-at-a-time search.  A stack that
fails, or meets a floating-point error, is solved again one candidate at a
time, so an error is raised exactly where the sequential search raises it.

Every solve starts from the incumbent's ``SolvedStrategy`` (the start's own
solve after each restart, then the accepted candidate's).  ``theta`` is
ordered by step, so a window of polls changes steps t_a..t_b only, and the
forward pass copies the incumbent's before t_a (``solver.forward_riccati``):
those numbers depend only on the unchanged steps, and stacked solves are
batch invariant, so the copies are bit for bit a full solve's.  The value
sweep never reads the gains; the search's first solve runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_index, seeded_stream
from .coordination import LocalGains
from .infostructure import MemoryProtocol
from .plant import PlantModel
from .solver import SolvedStrategy, solve

STEP_INIT = 0.5     # first compass step on every gain entry
STEP_MIN = 1e-6     # a restart ends once its step halves below this
WINDOW = 12         # poll candidates solved together
_RAISE = dict(over="raise", divide="raise", invalid="raise")


@dataclass(frozen=True)
class TuneResult:
    gains: LocalGains
    strategy: SolvedStrategy
    J: float
    evaluations: int
    log: tuple[tuple[int, int, float], ...]   # (restart, eval, J_incumbent)


def tune(plant: PlantModel, mp: MemoryProtocol, budget: int, seed: int = 0,
         restarts: int = 0) -> TuneResult:
    """Compass search over all local-gain entries; inner solves are exact.

    Returns the incumbent with smallest J (ties keep the earliest
    evaluation) with the ``SolvedStrategy`` its own solve gave, which the
    incremental and batch-invariant ``solve`` makes bitwise that of a fresh
    solve of its gains.  The accepted-J sequence is non-increasing by
    construction; block-diagonality of (G, H) is structural, off-blocks are never touched.
    """
    budget = as_index(budget, "budget")
    restarts, seed = as_index(restarts, "restarts"), as_index(seed, "seed")
    if budget < 1 or restarts < 0 or seed < 0:
        raise ValueError("need budget >= 1, restarts >= 0 and seed >= 0")
    evals = 0
    log = []
    best = None    # the incumbent with the smallest J

    def charge(restart_idx, J):
        """Count one evaluation; True if J is the smallest yet, which makes
        it the next incumbent (J < best.J <= the incumbent's J)."""
        nonlocal evals
        evals += 1
        smallest = best is None or J < best.J
        log.append((restart_idx, evals, J if smallest else best.J))
        return smallest

    def solved(thetas, incumbent=None):
        gains = LocalGains.from_vector(plant, mp, thetas)
        return solve(plant, mp, gains, incumbent)

    zero = LocalGains.zeros(plant, mp).theta
    polls = 2 * zero.size           # (p, +step) then (p, -step), p in order
    starts = [zero] + [seeded_stream(seed, ridx).standard_normal(zero.size)
                       for ridx in range(restarts)]
    for restart_idx, theta in enumerate(starts):
        if evals >= budget:
            break
        incumbent = solved(theta)
        J_cur = incumbent.J
        if charge(restart_idx, J_cur):
            best = incumbent
        step = STEP_INIT
        while step >= STEP_MIN and evals < budget:
            improved, k = False, 0
            while k < polls and evals < budget:
                ks = np.arange(k, min(k + WINDOW, polls, k + budget - evals))
                cands = np.repeat(theta[None], ks.size, axis=0)
                cands[np.arange(ks.size), ks // 2] += np.where(ks % 2, -step,
                                                               step)
                k = ks[-1] + 1
                stack = None     # frees the last window before this one
                try:
                    with np.errstate(**_RAISE):
                        stack = solved(cands, incumbent)
                    Js = stack.J.tolist()
                except (ArithmeticError, ValueError):
                    stack, Js = None, [None] * ks.size
                for i, (cand, kc, J_c) in enumerate(zip(cands, ks, Js)):
                    if J_c is None:
                        alone = solved(cand, incumbent)
                        J_c = alone.J
                    smallest = charge(restart_idx, J_c)
                    if J_c < J_cur:
                        theta, J_cur, improved = cand, J_c, True
                        incumbent = (alone if stack is None
                                     else stack.candidate(i))
                        if smallest:
                            best = incumbent
                        k = 2 * (kc // 2 + 1)
                        break
            if not improved:
                step /= 2.0
    return TuneResult(gains=best.gains, strategy=best, J=best.J,
                      evaluations=evals, log=tuple(log))
