"""Outer search over the local-gain matrices (G, H).

For fixed local gains the inner problem is solved exactly by the Riccati
machinery; the outer problem is in general non-convex, so this module runs a
deterministic compass (pattern) search: perturb one entry of the flat gains
vector ``LocalGains.theta`` at a time by +-step, accept strict improvements,
halve the step after a sweep with no improvement.  Restarts draw zero-mean
unit-scale initial gains from dedicated random streams; the all-zero start
always runs first.  The evaluation budget is global and consumed
sequentially, so identical (seed, budget, restarts) give bitwise identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_RTOL, seeded_stream
from .coordination import LocalGains
from .infostructure import MemoryProtocol
from .plant import PlantModel
from .solver import SolvedStrategy, solve

STEP_INIT = 0.5     # first compass step on every gain entry
STEP_MIN = 1e-6     # a restart ends once its step halves below this


@dataclass(frozen=True)
class TuneResult:
    gains: LocalGains
    strategy: SolvedStrategy
    J: float
    evaluations: int
    log: tuple[tuple[int, int, float], ...]   # (restart, eval, J_incumbent)


def tune(plant: PlantModel, mp: MemoryProtocol, budget: int, seed: int = 0,
         restarts: int = 0, rtol: float = DEFAULT_RTOL) -> TuneResult:
    """Compass search over all local-gain entries; inner solves are exact.

    Returns the incumbent with smallest J (ties keep the earliest
    evaluation).  The accepted-J sequence is non-increasing by construction;
    block-diagonality of (G, H) is structural, off-blocks are never touched.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    evals = 0
    log = []
    best = None    # (J, gains, eval index)

    def evaluate(theta):
        nonlocal evals, best
        gains = LocalGains.from_vector(plant, mp, theta)
        J = solve(plant, mp, gains, rtol).J
        evals += 1
        if best is None or J < best[0]:
            best = (J, gains, evals)
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
    gains = best[1]
    strategy = solve(plant, mp, gains, rtol)
    return TuneResult(gains=gains, strategy=strategy, J=best[0],
                      evaluations=evals, log=tuple(log))
