"""detac: actor-critic updates for continuous deterministic policies, with
exact dynamic-programming verification oracles."""

from .agents import (AgentConfig, BanditConfig, BatchActorCritic,
                     IncrementalActorCritic, evaluate_deterministic,
                     make_agent, run_bandit, run_episodes)
from .config import ExperimentConfig, parse_config
from .critics import (CompatibleQCritic, MlpVCritic, fitted_value_iteration,
                      lambda_returns)
from .envs import (EnvSpec, FiniteMdp, PointMass, QuadraticBandit,
                   make_quadratic_bandit, random_finite_mdp)
from .nets import Adam, MlpNet, gradient_check
from .oracle import (DpSolution, LipschitzGaussianChain, dp_solve,
                     epsilon_smoothed, gated_scaled_direction_1d,
                     occupancy_shift_bound_check, performance_difference_residual)
from .policies import GaussianExploration, LinearPolicy, MlpPolicy
from .trajectory import Trajectory
from .updates import (TrustRegionState, adapt_beta, batch_gated_direction,
                      cac_direction, cacla_direction, policy_distance_dhat)

__version__ = "0.1.0"
