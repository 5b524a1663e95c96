"""Experiment configuration.

Dataclasses with the default simulation and training parameters, a parser
for the plain-text ``key = value`` config format, and deterministic seed
derivation. Every numeric default can be overridden through a config file;
unknown keys are rejected so typos fail loudly instead of silently using a
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "ConfigError",
    "GeneratorConfig",
    "StateConfig",
    "EnvConfig",
    "TrainConfig",
    "EvalConfig",
    "ClassifierConfig",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "config_items",
    "validate_experiment",
    "derive_seed",
]


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration values."""


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from non-negative integer parts.

    Hashes the parts through ``numpy.random.SeedSequence`` so that derived
    streams (per-episode traces, per-run evaluations, exploration noise) are
    independent and reproducible without any wall-clock entropy.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"seed parts must be non-negative, got {parts}")
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass
class GeneratorConfig:
    """Distribution parameters for synthetic commits.

    Buggy commits skew toward larger diffs, riskier authors, more source-file
    churn, and less experienced developers, so the observable metadata carries
    a learnable but deliberately imperfect defect signal.
    """

    # log-space diff size: exp(Normal(mean, sigma)), rounded to whole lines
    clean_diff_log_mean: float = 3.0
    buggy_diff_log_mean: float = 4.0
    diff_log_sigma: float = 1.0
    # files_changed ~ 1 + Poisson(diff_size / lines_per_file)
    lines_per_file: float = 40.0
    # developer_defect_rate ~ Beta(alpha, beta), shifted up for buggy commits
    defect_rate_alpha: float = 2.0
    defect_rate_beta: float = 8.0
    buggy_defect_rate_shift: float = 0.1
    # source_fraction ~ Beta per class
    clean_source_alpha: float = 2.0
    clean_source_beta: float = 2.0
    buggy_source_alpha: float = 2.2
    buggy_source_beta: float = 1.85
    # developer_experience ~ Beta per class (buggy commits skew junior)
    clean_experience_alpha: float = 3.0
    clean_experience_beta: float = 2.0
    buggy_experience_alpha: float = 2.5
    buggy_experience_beta: float = 2.2
    # stress-trace blocks: a streak of small diffs, then a burst of large ones
    streak_length: int = 15
    burst_length: int = 5
    streak_diff_min: int = 1
    streak_diff_max: int = 19
    burst_diff_min: int = 100
    burst_diff_max: int = 400


@dataclass
class StateConfig:
    """Normalization caps and window sizes for the 10-dimensional state."""

    diff_cap: int = 500
    files_cap: int = 20
    history_window: int = 10
    full_test_gap_cap: int = 20


@dataclass
class EnvConfig:
    """Pipeline simulation parameters.

    ``test_minutes`` and ``detection_rates`` are indexed by action
    (full, partial, skip).
    """

    bug_probability: float = 0.15
    test_minutes: tuple[float, float, float] = (10.0, 3.0, 0.0)
    detection_rates: tuple[float, float, float] = (1.0, 0.7, 0.0)
    escape_delay_minutes: float = 15.0
    build_minutes: float = 2.0
    deploy_minutes: float = 1.0
    commits_per_episode: int = 100
    trace_mode: str = "standard"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    state: StateConfig = field(default_factory=StateConfig)


@dataclass
class TrainConfig:
    """Q-learning hyperparameters."""

    episodes: int = 2000
    discount: float = 0.99
    learning_rate: float = 1e-4
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    buffer_capacity: int = 10000
    minibatch_size: int = 64
    hidden_sizes: tuple[int, ...] = (64, 64)  # one width per hidden layer
    # episodes between hard target-network syncs; 0 disables the frozen
    # target entirely (bootstrap targets come from the live network)
    target_sync_interval: int = 10
    escape_penalty: float = 5.0
    seed: int = 0


@dataclass
class EvalConfig:
    """Evaluation harness parameters. Run ``i`` uses ``derive_seed(seed, i)``."""

    n_runs: int = 5
    seed: int = 1000
    penalties: tuple[float, ...] = (1.0, 3.0, 5.0, 10.0)


@dataclass
class ClassifierConfig:
    """Risk-classifier training and decision thresholds."""

    tau_skip: float = 0.05
    tau_partial: float = 0.30
    train_size: int = 5000
    train_seed: int = 77
    l2_penalty: float = 1e-4
    max_iterations: int = 50  # Newton steps
    tolerance: float = 1e-6


@dataclass
class ExperimentConfig:
    """Top-level bundle of all configuration sections."""

    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    output_dir: str = "results"


# --------------------------------------------------------------------------
# config file keys
# --------------------------------------------------------------------------

def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    value = int(text)
    return value


def _parse_str(text: str) -> str:
    return text


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return parse


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _parse_ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError("expected one or more comma-separated integers")
    return tuple(int(p) for p in parts)


def _format_value(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (attribute path under ExperimentConfig, parser)
CONFIG_KEYS: dict[str, tuple[tuple[str, ...], Callable[[str], Any]]] = {
    # pipeline environment
    "env.bug_probability": (("env", "bug_probability"), _parse_float),
    "env.full_test_minutes": (("env", "test_minutes", 0), _parse_float),
    "env.partial_test_minutes": (("env", "test_minutes", 1), _parse_float),
    "env.skip_test_minutes": (("env", "test_minutes", 2), _parse_float),
    "env.full_detection_rate": (("env", "detection_rates", 0), _parse_float),
    "env.partial_detection_rate": (("env", "detection_rates", 1), _parse_float),
    "env.skip_detection_rate": (("env", "detection_rates", 2), _parse_float),
    "env.escape_delay_minutes": (("env", "escape_delay_minutes"), _parse_float),
    "env.build_minutes": (("env", "build_minutes"), _parse_float),
    "env.deploy_minutes": (("env", "deploy_minutes"), _parse_float),
    "env.commits_per_episode": (("env", "commits_per_episode"), _parse_int),
    "env.trace_mode": (("env", "trace_mode"), _parse_choice("standard", "adversarial")),
    # commit generator
    "generator.clean_diff_log_mean": (("env", "generator", "clean_diff_log_mean"), _parse_float),
    "generator.buggy_diff_log_mean": (("env", "generator", "buggy_diff_log_mean"), _parse_float),
    "generator.diff_log_sigma": (("env", "generator", "diff_log_sigma"), _parse_float),
    "generator.lines_per_file": (("env", "generator", "lines_per_file"), _parse_float),
    "generator.defect_rate_alpha": (("env", "generator", "defect_rate_alpha"), _parse_float),
    "generator.defect_rate_beta": (("env", "generator", "defect_rate_beta"), _parse_float),
    "generator.buggy_defect_rate_shift": (
        ("env", "generator", "buggy_defect_rate_shift"),
        _parse_float,
    ),
    "generator.clean_source_alpha": (("env", "generator", "clean_source_alpha"), _parse_float),
    "generator.clean_source_beta": (("env", "generator", "clean_source_beta"), _parse_float),
    "generator.buggy_source_alpha": (("env", "generator", "buggy_source_alpha"), _parse_float),
    "generator.buggy_source_beta": (("env", "generator", "buggy_source_beta"), _parse_float),
    "generator.clean_experience_alpha": (
        ("env", "generator", "clean_experience_alpha"),
        _parse_float,
    ),
    "generator.clean_experience_beta": (
        ("env", "generator", "clean_experience_beta"),
        _parse_float,
    ),
    "generator.buggy_experience_alpha": (
        ("env", "generator", "buggy_experience_alpha"),
        _parse_float,
    ),
    "generator.buggy_experience_beta": (
        ("env", "generator", "buggy_experience_beta"),
        _parse_float,
    ),
    "generator.streak_length": (("env", "generator", "streak_length"), _parse_int),
    "generator.burst_length": (("env", "generator", "burst_length"), _parse_int),
    "generator.streak_diff_min": (("env", "generator", "streak_diff_min"), _parse_int),
    "generator.streak_diff_max": (("env", "generator", "streak_diff_max"), _parse_int),
    "generator.burst_diff_min": (("env", "generator", "burst_diff_min"), _parse_int),
    "generator.burst_diff_max": (("env", "generator", "burst_diff_max"), _parse_int),
    # state encoding
    "state.diff_cap": (("env", "state", "diff_cap"), _parse_int),
    "state.files_cap": (("env", "state", "files_cap"), _parse_int),
    "state.history_window": (("env", "state", "history_window"), _parse_int),
    "state.full_test_gap_cap": (("env", "state", "full_test_gap_cap"), _parse_int),
    # training
    "train.episodes": (("train", "episodes"), _parse_int),
    "train.discount": (("train", "discount"), _parse_float),
    "train.learning_rate": (("train", "learning_rate"), _parse_float),
    "train.epsilon_start": (("train", "epsilon_start"), _parse_float),
    "train.epsilon_end": (("train", "epsilon_end"), _parse_float),
    "train.buffer_capacity": (("train", "buffer_capacity"), _parse_int),
    "train.minibatch_size": (("train", "minibatch_size"), _parse_int),
    "train.hidden_sizes": (("train", "hidden_sizes"), _parse_ints),
    "train.target_sync_interval": (("train", "target_sync_interval"), _parse_int),
    "train.escape_penalty": (("train", "escape_penalty"), _parse_float),
    "train.seed": (("train", "seed"), _parse_int),
    # evaluation
    "eval.n_runs": (("eval", "n_runs"), _parse_int),
    "eval.seed": (("eval", "seed"), _parse_int),
    "eval.penalties": (("eval", "penalties"), _parse_floats),
    # risk classifier
    "classifier.tau_skip": (("classifier", "tau_skip"), _parse_float),
    "classifier.tau_partial": (("classifier", "tau_partial"), _parse_float),
    "classifier.train_size": (("classifier", "train_size"), _parse_int),
    "classifier.train_seed": (("classifier", "train_seed"), _parse_int),
    "classifier.l2_penalty": (("classifier", "l2_penalty"), _parse_float),
    "classifier.max_iterations": (("classifier", "max_iterations"), _parse_int),
    "classifier.tolerance": (("classifier", "tolerance"), _parse_float),
    # output
    "output_dir": (("output_dir",), _parse_str),
}


def _get_path(cfg: ExperimentConfig, path: tuple) -> Any:
    node: Any = cfg
    for part in path:
        node = node[part] if isinstance(part, int) else getattr(node, part)
    return node


def _set_path(cfg: ExperimentConfig, path: tuple, value: Any) -> None:
    node: Any = cfg
    for part in path[:-1]:
        if isinstance(part, int):
            raise AssertionError("tuple elements must be path leaves")
        node = getattr(node, part)
    last = path[-1]
    if isinstance(last, int):
        raise AssertionError("tuple elements are set via _set_tuple_path")
    setattr(node, last, value)


def _set_value(cfg: ExperimentConfig, path: tuple, value: Any) -> None:
    if isinstance(path[-1], int):
        # value is one entry of a tuple field (e.g. per-action test minutes)
        holder_path, index = path[:-1], path[-1]
        current = list(_get_path(cfg, holder_path))
        current[index] = value
        _set_path(cfg, holder_path, tuple(current))
    else:
        _set_path(cfg, path, value)


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """All config keys with their current values, formatted for the file format."""
    return [(key, _format_value(_get_path(cfg, path))) for key, (path, _) in CONFIG_KEYS.items()]


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse ``key = value`` lines into a validated :class:`ExperimentConfig`.

    Blank lines and lines starting with ``#`` are ignored. Unknown keys raise
    :class:`ConfigError` with the offending line number.
    """
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        path, parser = CONFIG_KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        _set_value(cfg, path, parsed)
    validate_experiment(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a config file. Missing files raise :class:`ConfigError`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def _check(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {message}")


def validate_experiment(cfg: ExperimentConfig) -> None:
    """Check every field invariant; error messages name the config key."""
    env, gen, st = cfg.env, cfg.env.generator, cfg.env.state
    train, ev, clf = cfg.train, cfg.eval, cfg.classifier

    _check(0.0 <= env.bug_probability <= 1.0, "env.bug_probability", "must be in [0, 1]")
    for i, name in enumerate(("full", "partial", "skip")):
        _check(env.test_minutes[i] >= 0.0, f"env.{name}_test_minutes", "must be >= 0")
        _check(
            0.0 <= env.detection_rates[i] <= 1.0,
            f"env.{name}_detection_rate",
            "must be in [0, 1]",
        )
    _check(env.escape_delay_minutes >= 0.0, "env.escape_delay_minutes", "must be >= 0")
    _check(env.build_minutes >= 0.0, "env.build_minutes", "must be >= 0")
    _check(env.deploy_minutes >= 0.0, "env.deploy_minutes", "must be >= 0")
    # A commit takes build + test minutes, plus deploy minutes unless testing
    # catches a bug. If that can sum to 0, a run of such commits has infinite
    # throughput (commits per hour).
    for i, name in enumerate(("full", "partial", "skip")):
        if env.build_minutes + env.test_minutes[i] == 0.0:
            _check(
                env.deploy_minutes > 0.0 and env.detection_rates[i] == 0.0,
                "env.build_minutes",
                f"must be > 0 when env.{name}_test_minutes is 0 and either "
                f"env.deploy_minutes is 0 or env.{name}_detection_rate is > 0 "
                "(a commit could take 0 minutes)",
            )
    _check(env.commits_per_episode >= 1, "env.commits_per_episode", "must be >= 1")
    _check(env.trace_mode in ("standard", "adversarial"), "env.trace_mode", "invalid mode")

    _check(gen.diff_log_sigma > 0.0, "generator.diff_log_sigma", "must be > 0")
    _check(gen.lines_per_file > 0.0, "generator.lines_per_file", "must be > 0")
    for key in (
        "defect_rate_alpha",
        "defect_rate_beta",
        "clean_source_alpha",
        "clean_source_beta",
        "buggy_source_alpha",
        "buggy_source_beta",
        "clean_experience_alpha",
        "clean_experience_beta",
        "buggy_experience_alpha",
        "buggy_experience_beta",
    ):
        _check(getattr(gen, key) > 0.0, f"generator.{key}", "must be > 0")
    _check(
        0.0 <= gen.buggy_defect_rate_shift <= 1.0,
        "generator.buggy_defect_rate_shift",
        "must be in [0, 1]",
    )
    _check(gen.streak_length >= 1, "generator.streak_length", "must be >= 1")
    _check(gen.burst_length >= 1, "generator.burst_length", "must be >= 1")
    _check(
        1 <= gen.streak_diff_min <= gen.streak_diff_max,
        "generator.streak_diff_min",
        "need 1 <= min <= max",
    )
    _check(
        1 <= gen.burst_diff_min <= gen.burst_diff_max,
        "generator.burst_diff_min",
        "need 1 <= min <= max",
    )

    _check(st.diff_cap >= 1, "state.diff_cap", "must be >= 1")
    _check(st.files_cap >= 1, "state.files_cap", "must be >= 1")
    _check(st.history_window >= 1, "state.history_window", "must be >= 1")
    _check(st.full_test_gap_cap >= 1, "state.full_test_gap_cap", "must be >= 1")

    _check(train.episodes >= 1, "train.episodes", "must be >= 1")
    _check(0.0 < train.discount <= 1.0, "train.discount", "must be in (0, 1]")
    _check(train.learning_rate > 0.0, "train.learning_rate", "must be > 0")
    _check(
        train.epsilon_start >= train.epsilon_end > 0.0,
        "train.epsilon_start",
        "need epsilon_start >= epsilon_end > 0",
    )
    _check(train.epsilon_start <= 1.0, "train.epsilon_start", "must be <= 1")
    _check(train.buffer_capacity >= 1, "train.buffer_capacity", "must be >= 1")
    _check(
        1 <= train.minibatch_size <= train.buffer_capacity,
        "train.minibatch_size",
        "need 1 <= minibatch_size <= buffer_capacity",
    )
    _check(all(h >= 1 for h in train.hidden_sizes), "train.hidden_sizes", "widths must be >= 1")
    _check(
        train.target_sync_interval >= 0,
        "train.target_sync_interval",
        "must be >= 0 (0 disables the target network)",
    )
    _check(train.escape_penalty >= 0.0, "train.escape_penalty", "must be >= 0")
    _check(train.seed >= 0, "train.seed", "must be >= 0")

    _check(ev.n_runs >= 1, "eval.n_runs", "must be >= 1")
    _check(ev.seed >= 0, "eval.seed", "must be >= 0")
    _check(len(ev.penalties) >= 1, "eval.penalties", "must be non-empty")
    _check(all(b >= 0.0 for b in ev.penalties), "eval.penalties", "must be >= 0")

    _check(
        0.0 <= clf.tau_skip <= clf.tau_partial <= 1.0,
        "classifier.tau_skip",
        "need 0 <= tau_skip <= tau_partial <= 1",
    )
    _check(clf.train_size >= 2, "classifier.train_size", "must be >= 2")
    _check(clf.train_seed >= 0, "classifier.train_seed", "must be >= 0")
    _check(clf.l2_penalty >= 0.0, "classifier.l2_penalty", "must be >= 0")
    _check(clf.max_iterations >= 1, "classifier.max_iterations", "must be >= 1")
    _check(clf.tolerance > 0.0, "classifier.tolerance", "must be > 0")


def adversarial(env_cfg: EnvConfig) -> EnvConfig:
    """Copy of ``env_cfg`` with the stress trace mode switched on."""
    return replace(env_cfg, trace_mode="adversarial")
