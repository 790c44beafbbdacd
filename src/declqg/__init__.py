"""Best linear control for decentralized LQG systems with partial history sharing.

Workflow: describe the plant (:class:`PlantModel`), compile an information
structure into a :class:`MemoryProtocol`, fix local gains
(:class:`LocalGains`), and :func:`solve` the coordinator's augmented LQG
problem for the optimal shared-information gains, predicted cost, and the
finite-dimensional online estimator.  :mod:`declqg.sim` cross-checks every
number against brute-force Gaussian oracles; :mod:`declqg.tune` searches over
the local gains.
"""

from .core import (DEFAULT_RTOL, DimMismatch, InvalidDelay, InvalidMatrix,
                   NumericalBreakdown, TimeOutOfRange, UnsupportedProtocol,
                   WrongControllerCount, pinv, seeded_stream)
from .plant import PlantModel
from .infostructure import (DelayGraph, MemoryProtocol, ValidationReport,
                            build_asymmetric_delay, build_control_sharing,
                            build_one_sided, build_symmetric_delay,
                            explicit_protocol, token_trace, validate)
from .coordination import (CoordinatedSystem, LocalGains, build,
                           closed_loop_cost_exact)
from .solver import (SolvedStrategy, backward_riccati, forward_riccati,
                     performance, reduce_gains, solve)
from .estimator import (DelayedStatTracker, EstimatorState, ReducedDelayStat,
                        act, delayed_stat_map, delayed_stat_gains, initial_state,
                        plant_kalman_covariances, plant_kalman_init,
                        plant_kalman_step, step_statistic)
from .sim import (StatisticPolicy, JointGaussian, Primitives, Rollout,
                  RolloutBatch, ZHistoryPolicy, draw_primitives, exact_cost,
                  gaussian_conditioning, random_theta_maps, rollout_coordinated,
                  rollout_plant, simulate, strategy_theta_maps)
from .tune import TuneResult, tune

__version__ = "0.1.0"
