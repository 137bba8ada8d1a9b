"""Deep-Q congestion-window control over a deterministic dumbbell-network
simulator, with a factorial experiment runner and OLS effect analysis."""

from .netsim import (BottleneckSpec, LinkSpec, SimConfig, Simulator,
                     FlowCounters, update_rtt_ewma,
                     InvalidConfigError, CwndRangeError)
from .env import (Action, EnvConfig, Env, Observation, StepResult,
                  compute_reward, normalize, EpisodeDoneError)
from .dqn import (Batch, DqnAgent, DqnConfig, QNetwork, ReplayBuffer,
                  Transition, act_epsilon_greedy, td_targets, train_step,
                  TrainingDivergedError)
from .experiments import (FactorLevels, RunSpec, RunRecord, enumerate_runs,
                          execute_run, convergence_step, derive_seed)
from .stats import (RegressionRow, code_level, ols_fit,
                    student_t_two_sided_p, make_interaction_design,
                    render_table)

__version__ = "0.1.0"
