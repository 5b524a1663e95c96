"""testscope: a simulated CI/CD pipeline with learned per-commit test scope.

The package models a commit pipeline as a sequential decision process
(state, action, transition, reward), trains a Q-learning agent to choose
between full, partial, and skipped test runs, and benchmarks it against
static, heuristic, and classifier baselines on throughput, defect leakage,
test-time savings, and compute savings.
"""

from .agent import (
    EpisodeRecord,
    GreedyPolicy,
    ReplayBuffer,
    TrainingLog,
    epsilon_schedule,
    greedy_action,
    select_action,
    train_agent,
    train_agents,
)
from .baselines import (
    ClassifierPolicy,
    HeuristicPolicy,
    LogisticModel,
    StaticPolicy,
    make_classifier,
    predict_risk,
    train_classifier,
)
from .commits import (
    Commit,
    ObservedCommit,
    generate_trace,
    observe,
)
from .config import (
    ClassifierConfig,
    ConfigError,
    EnvConfig,
    EvalConfig,
    ExperimentConfig,
    GeneratorConfig,
    StateConfig,
    TrainConfig,
    derive_seed,
    load_config,
)
from .environment import (
    Action,
    N_ACTIONS,
    PipelineEnv,
    STATE_DIM,
    StepTable,
)
from .evaluation import (
    AdversarialReport,
    ComparisonReport,
    ConvergenceReport,
    EpisodeStats,
    MetricsReport,
    SweepReport,
    adversarial_eval,
    compare_policies,
    compute_metrics,
    convergence_stats,
    exploration_corrected_curve,
    penalty_sweep,
    run_episode,
    run_episodes,
    uniform_policy_reward,
)
from .network import AdamState, QNetwork, adam_update, mlp_forward, mlp_init
from .persist import WeightFileError, load_policy, save_policy

__version__ = "0.1.0"
