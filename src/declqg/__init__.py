"""Best linear control for decentralized LQG systems with partial history sharing.

Workflow: describe the plant (:class:`PlantModel`), compile an information
structure into a :class:`MemoryProtocol`, fix local gains
(:class:`LocalGains`), and :func:`solve` the coordinator's LQG problem on
(plant state, memory carrier) for the optimal shared-information gains,
predicted cost, and the finite-dimensional online estimator.
:mod:`declqg.sim` runs Monte Carlo on the plant's own equations,
:mod:`declqg.oracles` cross-checks every number against brute-force
Gaussian oracles, and :mod:`declqg.tune` searches over the local gains.
"""

from .core import (DEFAULT_RTOL, DimMismatch, InvalidDelay, InvalidMatrix,
                   NumericalBreakdown, TimeOutOfRange, UnsupportedProtocol,
                   WrongControllerCount, seeded_stream)
from .plant import PlantModel
from .infostructure import (DelayGraph, MemoryProtocol,
                            build_asymmetric_delay, build_control_sharing,
                            build_one_sided, build_symmetric_delay,
                            explicit_protocol, token_trace, validate)
from .coordination import CoordinatedSystem, LocalGains, build
from .solver import SolvedStrategy, backward_riccati, forward_riccati, solve
from .estimator import (DelayedStatTracker, act, delayed_stat_map,
                        delayed_stat_gains, initial_state, step_statistic)
from .sim import (StatisticPolicy, Rollout, RolloutBatch,
                  closed_loop_cost_exact, draw_primitives, exact_cost,
                  rollout_plant, simulate)
from .oracles import (ZHistoryPolicy, gaussian_conditioning,
                      random_theta_maps, rollout_coordinated,
                      strategy_theta_maps)
from .tune import tune

__version__ = "0.1.0"
