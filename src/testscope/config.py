"""Experiment configuration.

Dataclasses with the default simulation and training parameters, a parser
for the plain-text ``key = value`` config format, and deterministic seed
derivation. Every field can be overridden through a config file: the keys
are derived from the dataclass fields, so a new field is a new key. Unknown
keys are rejected so typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial, reduce
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
    "validate_env",
    "validate_train",
    "validate_eval",
    "validate_classifier",
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
    target_sync_interval: int = 10  # episodes between hard target-network syncs
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
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_list(parse_item: Callable[[str], Any], text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError("expected one or more comma-separated values")
    return tuple(parse_item(p) for p in parts)


# the parser of a scalar field, looked up by the type of its default value
_PARSERS: dict[type, Callable[[str], Any]] = {float: _parse_float, int: int, str: str}

# per-action tuple fields take one key per action, named by these patterns
_ACTIONS = ("full", "partial", "skip")
_ACTION_KEYS = {"test_minutes": "{}_test_minutes", "detection_rates": "{}_detection_rate"}


def _format_value(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# (field path under ExperimentConfig, tuple index or None, parser)
_Key = tuple[tuple[str, ...], int | None, Callable[[str], Any]]


def _derive_keys(section: Any, path: tuple[str, ...] = (), prefix: str = "") -> dict[str, _Key]:
    """One key per field in declaration order; a nested section prefixes its own name."""
    keys: dict[str, _Key] = {}
    for f in fields(section):
        value, where = getattr(section, f.name), (*path, f.name)
        if is_dataclass(value):
            keys.update(_derive_keys(value, where, f"{f.name}."))
        elif f.name in _ACTION_KEYS:
            parse = _PARSERS[type(value[0])]
            for i, action in enumerate(_ACTIONS):
                keys[prefix + _ACTION_KEYS[f.name].format(action)] = (where, i, parse)
        elif isinstance(value, tuple):
            keys[prefix + f.name] = (where, None, partial(_parse_list, _PARSERS[type(value[0])]))
        else:
            keys[prefix + f.name] = (where, None, _PARSERS[type(value)])
    return keys


CONFIG_KEYS: dict[str, _Key] = _derive_keys(ExperimentConfig())


def _get(cfg: Any, path: tuple[str, ...], index: int | None) -> Any:
    value = reduce(getattr, path, cfg)
    return value if index is None else value[index]


def _set(cfg: ExperimentConfig, path: tuple[str, ...], index: int | None, value: Any) -> None:
    owner = reduce(getattr, path[:-1], cfg)
    if index is not None:
        items = list(getattr(owner, path[-1]))
        items[index] = value
        value = tuple(items)
    setattr(owner, path[-1], value)


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """All config keys with their current values, formatted for the file format."""
    return [(key, _format_value(_get(cfg, path, i))) for key, (path, i, _) in CONFIG_KEYS.items()]


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
        path, index, parse = CONFIG_KEYS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        _set(cfg, path, index, parsed)
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


def _check_finite(section: Any, name: str) -> None:
    """Every float of the section ``name`` (given as ``section``) must be finite.

    The keys come from ``CONFIG_KEYS``, so per-action and list items are
    checked one by one and an error names the key as a config file spells it.
    """
    for key, (path, index, _) in CONFIG_KEYS.items():
        if path[0] == name:
            value = _get(section, path[1:], index)
            values = value if isinstance(value, tuple) else (value,)
            _check(all(math.isfinite(v) for v in values if isinstance(v, float)), key, "must be finite")


def validate_env(env: EnvConfig) -> None:
    """Check the ``env.``, ``generator.`` and ``state.`` keys; errors name the key."""
    _check_finite(env, "env")
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
    _check(
        env.trace_mode in ("standard", "adversarial"),
        "env.trace_mode",
        f"must be 'standard' or 'adversarial', got {env.trace_mode!r}",
    )

    gen, st = env.generator, env.state
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


def validate_train(train: TrainConfig) -> None:
    """Check the ``train.`` keys; errors name the key."""
    _check_finite(train, "train")
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
    _check(train.target_sync_interval >= 1, "train.target_sync_interval", "must be >= 1")
    _check(train.escape_penalty >= 0.0, "train.escape_penalty", "must be >= 0")
    _check(train.seed >= 0, "train.seed", "must be >= 0")


def validate_eval(ev: EvalConfig) -> None:
    """Check the ``eval.`` keys; errors name the key."""
    _check_finite(ev, "eval")
    _check(ev.n_runs >= 1, "eval.n_runs", "must be >= 1")
    _check(ev.seed >= 0, "eval.seed", "must be >= 0")
    _check(len(ev.penalties) >= 1, "eval.penalties", "must be non-empty")
    _check(all(b >= 0.0 for b in ev.penalties), "eval.penalties", "must be >= 0")


def validate_classifier(clf: ClassifierConfig) -> None:
    """Check the ``classifier.`` keys; errors name the key."""
    _check_finite(clf, "classifier")
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


def validate_experiment(cfg: ExperimentConfig) -> None:
    """Check every field invariant, section by section; error messages name the config key."""
    validate_env(cfg.env)
    validate_train(cfg.train)
    validate_eval(cfg.eval)
    validate_classifier(cfg.classifier)


def adversarial(env_cfg: EnvConfig) -> EnvConfig:
    """Copy of ``env_cfg`` with the stress trace mode switched on."""
    return replace(env_cfg, trace_mode="adversarial")
