"""Extremum-seeking synthesis of optimal controllers for repeatable systems.

The package learns open-loop controls and time-varying feedback gains of
unknown plants from noisy scalar cost measurements, and ships an analytic
finite-horizon LQR/tracking oracle to verify what was learned.
"""
from .basis import ControllerCoefficients, CustomSampledBasis, FourierPairsBasis
from .errors import (ArtifactWriteError, ContractViolationError, EsControlError,
                     IllPosedSynthesisError, IntegrationDivergedError,
                     MeasurementInvalidError, RiccatiInstabilityError, ScenarioParseError,
                     ScenarioValidationError, ScheduleCollisionError)
from .es import (EsConfig, EsRunRecord, assemble_quadratic_cost, es_step,
                 make_frequency_schedule, restricted_optimum, run_es)
from .feedback import (GainField, gain_dither_assignment, run_feedback_episode,
                       synthesize_gain)
from .harness import (ExperimentSpec, RunSummary, es_config_for, load_scenario,
                      run_experiment, shipped_scenarios)
from .lqr import (RiccatiSolution, optimal_cost_quadratic_form, oracle_costs,
                  scenario_oracle, simulate_optimal, solve_riccati)
from .ode import StateTrajectory, TimeGrid, integrate_rk4
from .scenario import (EpisodeResult, GeneralCost, GeneralDynamics, LinearDynamics,
                       MultiEpisodeResult, NoiseModel, QuadraticCost, Scenario,
                       run_episode, run_multi_episode)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
