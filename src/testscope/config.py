"""Experiment configuration.

Dataclasses with the default simulation and training parameters, a parser
for the plain-text ``key = value`` config format, and deterministic seed
derivation. Every field can be overridden through a config file: the keys
are derived from the dataclass fields, so a new field is a new key. Unknown
keys are rejected so typos fail loudly instead of silently using a default.

A field's range is declared on the field, next to its default, as
``field(metadata=...)`` metadata, and ``CONFIG_KEYS`` carries it to each of
the field's keys. The ``validate_*`` checks walk those keys (a value of its
field's kind and never a ``bool``, a float finite, a bounded value inside its
bound) and then state only the rules that relate two or more fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial, reduce
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .fileio import format_value

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
    "validate_penalties",
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


def _bound(test: Callable[[Any], bool], message: str) -> dict[str, Any]:
    """Field metadata declaring a range: every value (every item of a tuple) passes ``test``."""
    return {"bound": (test, message)}


_NON_NEGATIVE = _bound(lambda v: v >= 0, "must be >= 0")
_POSITIVE = _bound(lambda v: v > 0, "must be > 0")
_AT_LEAST_1 = _bound(lambda v: v >= 1, "must be >= 1")
_UNIT = _bound(lambda v: 0 <= v <= 1, "must be in [0, 1]")


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
    diff_log_sigma: float = field(default=1.0, metadata=_POSITIVE)
    # files_changed ~ 1 + Poisson(diff_size / lines_per_file)
    lines_per_file: float = field(default=40.0, metadata=_POSITIVE)
    # developer_defect_rate ~ Beta(alpha, beta), shifted up for buggy commits
    defect_rate_alpha: float = field(default=2.0, metadata=_POSITIVE)
    defect_rate_beta: float = field(default=8.0, metadata=_POSITIVE)
    buggy_defect_rate_shift: float = field(default=0.1, metadata=_UNIT)
    # source_fraction ~ Beta per class
    clean_source_alpha: float = field(default=2.0, metadata=_POSITIVE)
    clean_source_beta: float = field(default=2.0, metadata=_POSITIVE)
    buggy_source_alpha: float = field(default=2.2, metadata=_POSITIVE)
    buggy_source_beta: float = field(default=1.85, metadata=_POSITIVE)
    # developer_experience ~ Beta per class (buggy commits skew junior)
    clean_experience_alpha: float = field(default=3.0, metadata=_POSITIVE)
    clean_experience_beta: float = field(default=2.0, metadata=_POSITIVE)
    buggy_experience_alpha: float = field(default=2.5, metadata=_POSITIVE)
    buggy_experience_beta: float = field(default=2.2, metadata=_POSITIVE)
    # stress-trace blocks: a streak of small diffs, then a burst of large ones
    streak_length: int = field(default=15, metadata=_AT_LEAST_1)
    burst_length: int = field(default=5, metadata=_AT_LEAST_1)
    streak_diff_min: int = field(default=1, metadata=_AT_LEAST_1)
    streak_diff_max: int = 19
    burst_diff_min: int = field(default=100, metadata=_AT_LEAST_1)
    burst_diff_max: int = 400


@dataclass
class StateConfig:
    """Normalization caps and window sizes for the 10-dimensional state."""

    diff_cap: int = field(default=500, metadata=_AT_LEAST_1)
    files_cap: int = field(default=20, metadata=_AT_LEAST_1)
    history_window: int = field(default=10, metadata=_AT_LEAST_1)
    full_test_gap_cap: int = field(default=20, metadata=_AT_LEAST_1)


@dataclass
class EnvConfig:
    """Pipeline simulation parameters.

    ``test_minutes`` and ``detection_rates`` are indexed by action
    (full, partial, skip).
    """

    bug_probability: float = field(default=0.15, metadata=_UNIT)
    test_minutes: tuple[float, float, float] = field(default=(10.0, 3.0, 0.0), metadata=_NON_NEGATIVE)
    detection_rates: tuple[float, float, float] = field(default=(1.0, 0.7, 0.0), metadata=_UNIT)
    escape_delay_minutes: float = field(default=15.0, metadata=_NON_NEGATIVE)
    build_minutes: float = field(default=2.0, metadata=_NON_NEGATIVE)
    deploy_minutes: float = field(default=1.0, metadata=_NON_NEGATIVE)
    commits_per_episode: int = field(default=100, metadata=_AT_LEAST_1)
    trace_mode: str = "standard"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    state: StateConfig = field(default_factory=StateConfig)


@dataclass
class TrainConfig:
    """Q-learning hyperparameters."""

    episodes: int = field(default=2000, metadata=_AT_LEAST_1)
    discount: float = field(default=0.99, metadata=_bound(lambda v: 0 < v <= 1, "must be in (0, 1]"))
    learning_rate: float = field(default=1e-4, metadata=_POSITIVE)
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    buffer_capacity: int = field(default=10000, metadata=_AT_LEAST_1)
    minibatch_size: int = field(default=64, metadata=_AT_LEAST_1)
    hidden_sizes: tuple[int, ...] = field(default=(64, 64), metadata=_AT_LEAST_1)  # one width per hidden layer
    # episodes between hard target-network syncs
    target_sync_interval: int = field(default=10, metadata=_AT_LEAST_1)
    escape_penalty: float = field(default=5.0, metadata=_NON_NEGATIVE)
    seed: int = field(default=0, metadata=_NON_NEGATIVE)


@dataclass
class EvalConfig:
    """Evaluation harness parameters. Run ``i`` uses ``derive_seed(seed, i)``."""

    n_runs: int = field(default=5, metadata=_AT_LEAST_1)
    seed: int = field(default=1000, metadata=_NON_NEGATIVE)
    penalties: tuple[float, ...] = field(default=(1.0, 3.0, 5.0, 10.0), metadata=_NON_NEGATIVE)


@dataclass
class ClassifierConfig:
    """Risk-classifier training and decision thresholds."""

    tau_skip: float = field(default=0.05, metadata=_UNIT)
    tau_partial: float = field(default=0.30, metadata=_UNIT)
    train_size: int = field(default=5000, metadata=_bound(lambda v: v >= 2, "must be >= 2"))
    train_seed: int = field(default=77, metadata=_NON_NEGATIVE)
    l2_penalty: float = field(default=1e-4, metadata=_NON_NEGATIVE)
    max_iterations: int = field(default=50, metadata=_AT_LEAST_1)  # Newton steps
    tolerance: float = field(default=1e-6, metadata=_POSITIVE)


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


class _Key(NamedTuple):
    path: tuple[str, ...]  # field path under ExperimentConfig
    index: int | None  # the item of a per-action tuple, or None
    parse: Callable[[str], Any]
    kind: type  # the type of the default value, or of its items for a tuple
    bound: tuple[Callable[[Any], bool], str] | None  # the field's declared range
    many: bool  # whether the field holds a tuple


def _derive_keys(section: Any, path: tuple[str, ...] = (), prefix: str = "") -> dict[str, _Key]:
    """One key per field in declaration order; a nested section prefixes its own name."""
    keys: dict[str, _Key] = {}
    for f in fields(section):
        value, where = getattr(section, f.name), (*path, f.name)
        if is_dataclass(value):
            keys.update(_derive_keys(value, where, f"{f.name}."))
            continue
        many = isinstance(value, tuple)
        kind = type(value[0]) if many else type(value)
        parse, bound = _PARSERS[kind], f.metadata.get("bound")
        if f.name in _ACTION_KEYS:
            for i, action in enumerate(_ACTIONS):
                keys[prefix + _ACTION_KEYS[f.name].format(action)] = _Key(where, i, parse, kind, bound, many)
        else:
            if many:
                parse = partial(_parse_list, parse)
            keys[prefix + f.name] = _Key(where, None, parse, kind, bound, many)
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
    return [(key, format_value(_get(cfg, k.path, k.index))) for key, k in CONFIG_KEYS.items()]


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
        k = CONFIG_KEYS[key]
        try:
            parsed = k.parse(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        _set(cfg, k.path, k.index, parsed)
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


# the types and the name of what a field of each kind takes; never a bool
_TYPES = {float: (int, float, np.integer, np.floating), int: (int, np.integer), str: str}
_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}


def _check_fields(section: Any, name: str) -> None:
    """Check every key of the section ``name`` (given as ``section``) on its own.

    A tuple field must hold a tuple, a per-action tuple one value per action,
    and a value must be of its field's kind
    (never a ``bool``), finite if a float, and inside its declared bound. The
    keys come from ``CONFIG_KEYS``, so per-action and list items are checked
    one by one and an error names the key as a config file spells it.
    """
    for key, k in CONFIG_KEYS.items():
        if k.path[0] != name:
            continue
        value = _get(section, k.path[1:], None)
        if k.many and not isinstance(value, tuple):
            raise ConfigError(f"{key}: must be a tuple, got {value!r}")
        if k.index is not None:
            if len(value) != len(_ACTIONS):
                raise ConfigError(
                    f"{'.'.join(k.path)}: must hold one value per action "
                    f"({', '.join(_ACTIONS)}), got {value!r}"
                )
            value = value[k.index]
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, bool) or not isinstance(v, _TYPES[k.kind]):
                raise ConfigError(f"{key}: must be {_KIND_NAMES[k.kind]}, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key}: must be finite")
            if k.bound is not None and not k.bound[0](v):
                raise ConfigError(f"{key}: {k.bound[1]}")


def validate_env(env: EnvConfig) -> None:
    """Check the ``env.``, ``generator.`` and ``state.`` keys; errors name the key."""
    _check_fields(env, "env")
    # A commit takes build + test minutes, plus deploy minutes unless testing
    # catches a bug. If that can sum to 0, a run of such commits has infinite
    # throughput (commits per hour).
    for i, name in enumerate(_ACTIONS):
        if env.build_minutes + env.test_minutes[i] == 0.0:
            _check(
                env.deploy_minutes > 0.0 and env.detection_rates[i] == 0.0,
                "env.build_minutes",
                f"must be > 0 when env.{name}_test_minutes is 0 and either "
                f"env.deploy_minutes is 0 or env.{name}_detection_rate is > 0 "
                "(a commit could take 0 minutes)",
            )
    _check(
        env.trace_mode in ("standard", "adversarial"),
        "env.trace_mode",
        f"must be 'standard' or 'adversarial', got {env.trace_mode!r}",
    )
    gen = env.generator
    _check(gen.streak_diff_min <= gen.streak_diff_max, "generator.streak_diff_min", "need 1 <= min <= max")
    _check(gen.burst_diff_min <= gen.burst_diff_max, "generator.burst_diff_min", "need 1 <= min <= max")


def validate_train(train: TrainConfig) -> None:
    """Check the ``train.`` keys; errors name the key."""
    _check_fields(train, "train")
    _check(
        train.epsilon_start >= train.epsilon_end > 0.0,
        "train.epsilon_start",
        "need epsilon_start >= epsilon_end > 0",
    )
    _check(train.epsilon_start <= 1.0, "train.epsilon_start", "must be <= 1")
    _check(
        train.minibatch_size <= train.buffer_capacity,
        "train.minibatch_size",
        "need 1 <= minibatch_size <= buffer_capacity",
    )


def validate_eval(ev: EvalConfig) -> None:
    """Check the ``eval.`` keys; errors name the key."""
    _check_fields(ev, "eval")
    _check(len(ev.penalties) >= 1, "eval.penalties", "must be non-empty")


def validate_classifier(clf: ClassifierConfig) -> None:
    """Check the ``classifier.`` keys; errors name the key."""
    _check_fields(clf, "classifier")
    _check(clf.tau_skip <= clf.tau_partial, "classifier.tau_skip", "need 0 <= tau_skip <= tau_partial <= 1")


def validate_experiment(cfg: ExperimentConfig) -> None:
    """Check every field invariant, section by section; error messages name the config key."""
    validate_env(cfg.env)
    validate_train(cfg.train)
    validate_eval(cfg.eval)
    validate_classifier(cfg.classifier)


def validate_penalties(penalties: Iterable[float]) -> tuple[float, ...]:
    """The escape penalties as floats; raises :class:`ValueError` unless each
    is finite and >= 0 (NaN and infinity would poison every reward)."""
    penalties = tuple(float(p) for p in penalties)
    bad = [p for p in penalties if not (math.isfinite(p) and p >= 0.0)]
    if bad:
        raise ValueError(f"escape penalties must be finite and >= 0, got {bad}")
    return penalties


def adversarial(env_cfg: EnvConfig) -> EnvConfig:
    """Copy of ``env_cfg`` with the stress trace mode switched on."""
    return replace(env_cfg, trace_mode="adversarial")
