"""Config parsing, defaults, validation, and seed derivation."""

import pytest

from testscope.config import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    config_items,
    derive_seed,
    load_config,
    parse_config_text,
    validate_experiment,
)


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

    def test_snapshot_covers_every_key(self):
        keys = {key for key, _ in config_items(ExperimentConfig())}
        assert keys == set(CONFIG_KEYS)


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


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("train.episodes = 7\n# comment\n")
        assert load_config(path).train.episodes == 7

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
