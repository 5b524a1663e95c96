"""Config parsing, defaults, validation, and seed derivation."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from testscope import cli
from testscope.config import (
    CONFIG_KEYS,
    ClassifierConfig,
    ConfigError,
    EnvConfig,
    EvalConfig,
    ExperimentConfig,
    GeneratorConfig,
    TrainConfig,
    config_items,
    derive_seed,
    load_config,
    parse_config_text,
    validate_env,
    validate_eval,
    validate_experiment,
    validate_train,
)


DEFAULT_ITEMS = config_items(ExperimentConfig())


def changed_value(key: str, text: str) -> str:
    """A valid value other than the default ``text``, in the file format.

    Floats halve (0 becomes 0.5) and integers grow by one, element by element
    for lists; each such change alone, or all of them together, validates.
    """
    if key == "env.trace_mode":
        return "adversarial"
    if key == "output_dir":
        return text + "-elsewhere"

    def change(part: str) -> str:
        if "." in part or "e" in part:
            value = float(part)
            return repr(value / 2 if value else 0.5)
        return str(int(part) + 1)

    return ",".join(change(part) for part in text.split(","))


class TestDefaults:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.env.bug_probability == 0.15
        assert cfg.env.test_minutes == (10.0, 3.0, 0.0)
        assert cfg.env.detection_rates == (1.0, 0.7, 0.0)
        assert cfg.env.escape_delay_minutes == 15.0
        assert cfg.env.commits_per_episode == 100
        assert cfg.train.escape_penalty == 5.0
        assert cfg.train.episodes == 2000
        assert cfg.train.learning_rate == 1e-4
        assert cfg.train.epsilon_start == 1.0
        assert cfg.train.epsilon_end == 0.1
        assert cfg.train.buffer_capacity == 10000
        assert cfg.train.minibatch_size == 64
        assert cfg.train.hidden_sizes == (64, 64)
        assert cfg.eval.n_runs == 5
        assert cfg.eval.penalties == (1.0, 3.0, 5.0, 10.0)
        assert cfg.classifier.tau_skip == 0.05
        assert cfg.classifier.tau_partial == 0.30
        assert cfg.classifier.max_iterations == 50

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\n   \ntrain.episodes = 10\n")
        assert cfg.train.episodes == 10


class TestParsing:
    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown config key 'bug_probabilty'"):
            parse_config_text("train.episodes = 5\nbug_probabilty = 0.2\n")

    def test_missing_equals_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"<config>:1: expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"<config>:1: bad value for train.episodes"):
            parse_config_text("train.episodes = soon\n")

    def test_out_of_range_value_names_field(self):
        with pytest.raises(ConfigError, match="env.bug_probability"):
            parse_config_text("env.bug_probability = 1.5\n")

    def test_tuple_entry_keys(self):
        cfg = parse_config_text("env.partial_test_minutes = 4.5\n")
        assert cfg.env.test_minutes == (10.0, 4.5, 0.0)

    def test_list_and_pair_values(self):
        cfg = parse_config_text("eval.penalties = 2, 4\ntrain.hidden_sizes = 32,16\n")
        assert cfg.eval.penalties == (2.0, 4.0)
        assert cfg.train.hidden_sizes == (32, 16)

    @pytest.mark.parametrize("text, widths", [("32", (32,)), ("16, 16, 16", (16, 16, 16))])
    def test_hidden_sizes_take_any_depth(self, text, widths):
        cfg = parse_config_text(f"train.hidden_sizes = {text}\n")
        assert cfg.train.hidden_sizes == widths
        (snapshot,) = [v for k, v in config_items(cfg) if k == "train.hidden_sizes"]
        assert snapshot == ",".join(map(str, widths))
        assert parse_config_text(f"train.hidden_sizes = {snapshot}\n") == cfg

    @pytest.mark.parametrize("text", ["", "64,,64", "64,", "8.5", "0,4"])
    def test_bad_hidden_sizes_rejected(self, text):
        with pytest.raises(ConfigError, match="train.hidden_sizes"):
            parse_config_text(f"train.hidden_sizes = {text}\n")

    def test_every_key_round_trips(self):
        # serializing the defaults and parsing them back is the identity
        default = ExperimentConfig()
        text = "\n".join(f"{key} = {value}" for key, value in config_items(default))
        assert parse_config_text(text) == default

    def test_every_changed_key_round_trips(self):
        changed = [(key, changed_value(key, value)) for key, value in DEFAULT_ITEMS]
        cfg = parse_config_text("\n".join(f"{key} = {value}" for key, value in changed))
        assert config_items(cfg) == changed
        assert all(value != default for (_, value), (_, default) in zip(changed, DEFAULT_ITEMS))

    def test_each_key_sets_its_own_field(self):
        # a key that wrote another key's field would change two snapshot lines
        for key, value in DEFAULT_ITEMS:
            cfg = parse_config_text(f"{key} = {changed_value(key, value)}\n")
            moved = [k for (k, v), (_, d) in zip(config_items(cfg), DEFAULT_ITEMS) if v != d]
            assert moved == [key]

    def test_snapshot_covers_every_key(self):
        keys = {key for key, _ in config_items(ExperimentConfig())}
        assert keys == set(CONFIG_KEYS)

    def test_default_snapshot_is_pinned(self):
        # reports embed these lines: any change of key order or value
        # formatting changes every report's bytes
        lines = cli._snapshot_lines("sweep", ExperimentConfig())
        assert len(lines) == 60
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "77689367d36c159ce23d1bc12af66d7d3770b2516af4102cc1226c910d347de0"

    @pytest.mark.parametrize(
        "key, text",
        [
            ("train.learning_rate", "nan"),
            ("train.learning_rate", "inf"),
            ("train.learning_rate", "-inf"),
            ("eval.penalties", "1,nan"),
            ("eval.penalties", "inf,2"),
            ("eval.penalties", "1,,2"),
            ("eval.penalties", "1,2,"),
        ],
    )
    def test_non_finite_floats_and_empty_list_parts_rejected(self, key, text):
        with pytest.raises(ConfigError, match=re.escape(f"<config>:2: bad value for {key}: ")):
            parse_config_text(f"train.episodes = 3\n{key} = {text}\n")

    def test_unknown_trace_mode_lists_the_modes(self):
        with pytest.raises(ConfigError, match="env.trace_mode: must be 'standard' or 'adversarial'"):
            parse_config_text("env.trace_mode = stress\n")


class TestValidation:
    def test_epsilon_floor_must_be_positive(self):
        with pytest.raises(ConfigError, match="train.epsilon_start"):
            parse_config_text("train.epsilon_end = 0\n")

    def test_minibatch_cannot_exceed_buffer(self):
        with pytest.raises(ConfigError, match="train.minibatch_size"):
            parse_config_text("train.buffer_capacity = 32\n")

    def test_thresholds_ordering(self):
        with pytest.raises(ConfigError, match="classifier.tau_skip"):
            parse_config_text("classifier.tau_skip = 0.5\nclassifier.tau_partial = 0.2\n")

    def test_target_sync_interval_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"train.target_sync_interval: must be >= 1"):
            parse_config_text("train.target_sync_interval = 0\n")

    def test_discount_range(self):
        with pytest.raises(ConfigError, match="train.discount"):
            parse_config_text("train.discount = 0\n")

    def test_zero_minute_commit_rejected(self):
        # build 0, a 0-minute scope and no deploy time: a commit takes 0 minutes
        with pytest.raises(ConfigError, match="env.build_minutes.*env.skip_test_minutes.*env.deploy_minutes"):
            parse_config_text("env.build_minutes = 0\nenv.deploy_minutes = 0\n")
        # a bug caught by a 0-minute scope skips deployment: also 0 minutes
        with pytest.raises(ConfigError, match="env.skip_detection_rate"):
            parse_config_text("env.build_minutes = 0\nenv.skip_detection_rate = 0.5\n")

    def test_zero_build_minutes_accepted_when_every_commit_takes_time(self):
        # the skip scope catches nothing, so its commits always deploy
        cfg = parse_config_text("env.build_minutes = 0\n")
        assert cfg.env.build_minutes == 0.0 and cfg.env.deploy_minutes > 0.0
        cfg = parse_config_text("env.build_minutes = 0\nenv.deploy_minutes = 0\nenv.skip_test_minutes = 0.5\n")
        assert cfg.env.test_minutes == (10.0, 3.0, 0.5)

    def test_default_config_validates(self):
        validate_experiment(ExperimentConfig())

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"env": EnvConfig(test_minutes=(10.0, float("inf"), 0.0))}, "env.partial_test_minutes"),
            (
                {"env": EnvConfig(generator=GeneratorConfig(lines_per_file=float("inf")))},
                "generator.lines_per_file",
            ),
            ({"train": TrainConfig(learning_rate=float("inf"))}, "train.learning_rate"),
            ({"train": TrainConfig(discount=float("nan"))}, "train.discount"),
            ({"eval": EvalConfig(penalties=(1.0, float("nan")))}, "eval.penalties"),
            ({"classifier": ClassifierConfig(tolerance=float("inf"))}, "classifier.tolerance"),
        ],
    )
    def test_code_built_non_finite_floats_rejected(self, changes, key):
        # the parser rejects these at parse; a config built in code meets
        # the same rule in the section checks
        cfg = dataclasses.replace(ExperimentConfig(), **changes)
        with pytest.raises(ConfigError, match=re.escape(f"{key}: must be finite")):
            validate_experiment(cfg)

    @pytest.mark.parametrize(
        "validate, section, message",
        [
            (validate_env, EnvConfig(build_minutes="2"), "env.build_minutes: must be a number, got '2'"),
            (
                validate_env,
                EnvConfig(escape_delay_minutes=None),
                "env.escape_delay_minutes: must be a number, got None",
            ),
            (
                validate_env,
                EnvConfig(test_minutes=[10.0, 3.0, 0.0]),
                "env.full_test_minutes: must be a tuple, got [10.0, 3.0, 0.0]",
            ),
            (validate_train, TrainConfig(seed=True), "train.seed: must be an integer, got True"),
            (
                validate_train,
                TrainConfig(hidden_sizes=[64, 64]),
                "train.hidden_sizes: must be a tuple, got [64, 64]",
            ),
            (validate_eval, EvalConfig(penalties=(1.0, False)), "eval.penalties: must be a number, got False"),
        ],
    )
    def test_code_built_values_of_the_wrong_type_rejected(self, validate, section, message):
        # one type rule per field kind: a number for a float field, an
        # integer for an int field (a bool is neither), a tuple for a tuple field
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate(section)

    def test_ints_and_numpy_numbers_pass_as_floats(self):
        validate_env(EnvConfig(build_minutes=2, escape_delay_minutes=np.float64(15.0)))


# every key whose field declares a bound, with the message it fails with
BOUNDS = {
    "env.bug_probability": "must be in [0, 1]",
    "env.full_test_minutes": "must be >= 0",
    "env.partial_test_minutes": "must be >= 0",
    "env.skip_test_minutes": "must be >= 0",
    "env.full_detection_rate": "must be in [0, 1]",
    "env.partial_detection_rate": "must be in [0, 1]",
    "env.skip_detection_rate": "must be in [0, 1]",
    "env.escape_delay_minutes": "must be >= 0",
    "env.build_minutes": "must be >= 0",
    "env.deploy_minutes": "must be >= 0",
    "env.commits_per_episode": "must be >= 1",
    "generator.diff_log_sigma": "must be > 0",
    "generator.lines_per_file": "must be > 0",
    "generator.defect_rate_alpha": "must be > 0",
    "generator.defect_rate_beta": "must be > 0",
    "generator.buggy_defect_rate_shift": "must be in [0, 1]",
    "generator.clean_source_alpha": "must be > 0",
    "generator.clean_source_beta": "must be > 0",
    "generator.buggy_source_alpha": "must be > 0",
    "generator.buggy_source_beta": "must be > 0",
    "generator.clean_experience_alpha": "must be > 0",
    "generator.clean_experience_beta": "must be > 0",
    "generator.buggy_experience_alpha": "must be > 0",
    "generator.buggy_experience_beta": "must be > 0",
    "generator.streak_length": "must be >= 1",
    "generator.burst_length": "must be >= 1",
    "generator.streak_diff_min": "must be >= 1",
    "generator.burst_diff_min": "must be >= 1",
    "state.diff_cap": "must be >= 1",
    "state.files_cap": "must be >= 1",
    "state.history_window": "must be >= 1",
    "state.full_test_gap_cap": "must be >= 1",
    "train.episodes": "must be >= 1",
    "train.discount": "must be in (0, 1]",
    "train.learning_rate": "must be > 0",
    "train.buffer_capacity": "must be >= 1",
    "train.minibatch_size": "must be >= 1",
    "train.hidden_sizes": "must be >= 1",
    "train.target_sync_interval": "must be >= 1",
    "train.escape_penalty": "must be >= 0",
    "train.seed": "must be >= 0",
    "eval.n_runs": "must be >= 1",
    "eval.seed": "must be >= 0",
    "eval.penalties": "must be >= 0",
    "classifier.tau_skip": "must be in [0, 1]",
    "classifier.tau_partial": "must be in [0, 1]",
    "classifier.train_size": "must be >= 2",
    "classifier.train_seed": "must be >= 0",
    "classifier.l2_penalty": "must be >= 0",
    "classifier.max_iterations": "must be >= 1",
    "classifier.tolerance": "must be > 0",
}

TINY = 5e-324  # the smallest positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
# bound message -> (values at its edges, the first values past them)
FLOAT_EDGES = {
    "must be >= 0": ([0.0], [-TINY]),
    "must be > 0": ([TINY], [0.0]),
    "must be in [0, 1]": ([0.0, 1.0], [-TINY, ABOVE_ONE]),
    "must be in (0, 1]": ([TINY, 1.0], [0.0, ABOVE_ONE]),
}
INT_EDGES = {"must be >= 0": ([0], [-1]), "must be >= 1": ([1], [0]), "must be >= 2": ([2], [1])}

# other keys set so that an edge value breaks no rule across fields
COMPANIONS = {
    "classifier.tau_skip": "classifier.tau_partial = 1.0\n",
    "classifier.tau_partial": "classifier.tau_skip = 0.0\n",
    "train.buffer_capacity": "train.minibatch_size = 1\n",
}


class TestFieldBounds:
    def test_bounded_keys_are_the_declared_ones(self):
        assert {key for key, k in CONFIG_KEYS.items() if k.bound} == set(BOUNDS)
        assert all(CONFIG_KEYS[key].bound[1] == message for key, message in BOUNDS.items())

    @pytest.mark.parametrize("key", BOUNDS)
    def test_edge_parses_and_the_value_past_it_is_rejected(self, key):
        message = BOUNDS[key]
        default = dict(DEFAULT_ITEMS)[key].split(",")
        is_float = "." in default[0] or "e" in default[0]
        edges, past = (FLOAT_EDGES if is_float else INT_EDGES)[message]
        for item in range(len(default)):  # each item of a list key on its own
            for value, ok in [(v, True) for v in edges] + [(v, False) for v in past]:
                items = default[:item] + [repr(value)] + default[item + 1 :]
                text = COMPANIONS.get(key, "") + f"{key} = {','.join(items)}\n"
                if ok:
                    parse_config_text(text)
                else:
                    with pytest.raises(ConfigError, match=re.escape(f"{key}: {message}")):
                        parse_config_text(text)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("train.episodes = 7\n# comment\n")
        assert load_config(path).train.episodes == 7

    @pytest.mark.parametrize("key", ["env.discount", "classifier.learning_rate"])
    def test_removed_keys_rejected_as_unknown(self, tmp_path, key):
        # env.discount was never read (training uses train.discount); the
        # classifier's Newton fit has no step size
        path = tmp_path / "old.cfg"
        path.write_text(f"train.episodes = 7\n{key} = 0.5\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: unknown config key '{key}'")):
            load_config(path)

    def test_file_errors_carry_path_and_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("train.episodes = 7\nnot a setting\n")
        with pytest.raises(ConfigError, match=rf"{path}:2"):
            load_config(path)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1)
