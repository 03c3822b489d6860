"""Branching processes with theta-parametrized offspring laws in a varying
environment: closed-form analytics, series expansion, simulation, regime
classification, and statistical verification of the limit theorems."""

from .analytics import (AbsorptionProbabilities, CompositeConstants,
                        ConvergenceReport, LimitConstants, LimitEstimate,
                        LimitLawDescriptor, SurvivalMoments,
                        absorption_probabilities, composed_pgf,
                        composite_constants, composite_law, conditional_pgf,
                        constants_at, constants_table, convergence_conditions,
                        limit_constants, limit_law, pgf_from_constants,
                        subsequence_b_values, survival_and_moments)
from .classifier import RegimeLabel, classify
from .environment import (EnvSequence, ThetaLaw, ThetaModel, step_pgf,
                          step_pgf_weight_one, validate_model)
from .errors import (ConditioningOnNull, CutoffExceeded, DomainError,
                     GwThetaError, NoLimitLaw, RejectedParameter,
                     ScenarioInfeasible, UndeterminedLimit)
from .harness import (Scenario, VerificationReport, VerifyConfig,
                      get_scenario, registry, scenario_model,
                      verify_theorem)
from .series import (Pmf, extend_pmf, pmf_from_theta_pgf, population_pmf,
                     step_pmf, write_pmf_csv)
from .simulator import (DELTA, EnsembleStats, Trajectory, replicate_rng,
                        run_ensemble, sample_offspring, sample_zn,
                        sample_zn_direct, simulate_trajectories,
                        simulate_trajectory, write_trajectory_csv)

__version__ = "0.1.0"
