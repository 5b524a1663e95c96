"""Command-line interface: subcommands, determinism, exit codes, file naming."""

import json

import pytest

from testscope.cli import run_command
from testscope.commits import read_trace
from testscope.network import QNetwork
from testscope.persist import load_policy

TINY_CONFIG = """\
# small experiment for fast end-to-end runs
env.commits_per_episode = 12
train.episodes = 2
train.minibatch_size = 8
train.buffer_capacity = 64
train.hidden_sizes = 8,8
eval.n_runs = 2
classifier.train_size = 300
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def read_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestTraceGen:
    def test_writes_named_trace(self, tmp_path):
        out = tmp_path / "results"
        assert run_command(["trace-gen", "--seed", "7", "--out", str(out), "--n", "25"]) == 0
        trace = read_trace(out / "trace-gen-7-0.csv")
        assert len(trace) == 25

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_command(["trace-gen", "--seed", "7", "--out", str(out)]) == 0
        assert read_files(a) == read_files(b)

    def test_adversarial_mode(self, tmp_path):
        out = tmp_path / "r"
        assert (
            run_command(
                ["trace-gen", "--seed", "3", "--out", str(out), "--mode", "adversarial", "--n", "40"]
            )
            == 0
        )
        trace = read_trace(out / "trace-gen-3-0.csv")
        assert max(c.diff_size for c in trace) >= 100

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "r"
        run_command(["trace-gen", "--seed", "1", "--out", str(out)])
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


class TestTrain:
    def test_single_episode_outputs(self, tmp_path, tiny_config):
        out = tmp_path / "r"
        code = run_command(
            ["train", "--config", tiny_config, "--seed", "5", "--out", str(out), "--episodes", "1"]
        )
        assert code == 0
        net = load_policy(out / "train-5-0.json")
        assert isinstance(net, QNetwork)
        log_lines = [
            line
            for line in (out / "train-5-1.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert log_lines[0].startswith("episode,total_reward,epsilon")
        assert len(log_lines) == 1 + 1  # header plus one record

    def test_deterministic_reruns(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_command(["train", "--config", tiny_config, "--seed", "5", "--out", str(out)]) == 0
        assert read_files(a) == read_files(b)

    @pytest.mark.parametrize("widths", ["32", "16,16,16"])
    def test_any_hidden_depth(self, tmp_path, widths):
        config = tmp_path / "deep.cfg"
        config.write_text(TINY_CONFIG.replace("train.hidden_sizes = 8,8", f"train.hidden_sizes = {widths}"))
        out = tmp_path / "r"
        assert run_command(["train", "--config", str(config), "--seed", "5", "--out", str(out)]) == 0
        net = load_policy(out / "train-5-0.json")
        assert net.hidden_sizes == tuple(int(w) for w in widths.split(","))
        assert f"# config train.hidden_sizes = {widths}" in (out / "train-5-1.csv").read_text()


class TestEvalCommand:
    def test_static_policy_report(self, tmp_path, tiny_config):
        out = tmp_path / "r"
        code = run_command(
            ["eval", "--policy", "static", "--config", tiny_config, "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "eval-9-1.json").read_text())
        static = report["report"]["policies"]["static"]
        assert static["dmr"]["mean"] == 0.0
        assert static["tts"]["mean"] == 0.0
        assert report["config"]["train.episodes"] == "2"
        csv_text = (out / "eval-9-0.csv").read_text()
        assert "policy,beta,run,seed,tp,dmr,tts,si" in csv_text

    def test_rl_requires_weights(self, tmp_path, tiny_config, capsys):
        code = run_command(
            ["eval", "--policy", "rl", "--config", tiny_config, "--out", str(tmp_path)]
        )
        assert code == 1
        assert "--weights" in capsys.readouterr().err

    def test_rl_with_trained_weights(self, tmp_path, tiny_config):
        out = tmp_path / "r"
        assert run_command(["train", "--config", tiny_config, "--seed", "5", "--out", str(out)]) == 0
        code = run_command(
            [
                "eval",
                "--policy",
                "rl",
                "--weights",
                str(out / "train-5-0.json"),
                "--config",
                tiny_config,
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "eval-5-0.csv").exists() and (out / "eval-5-1.json").exists()

    def test_classifier_policy_trains_from_config(self, tmp_path, tiny_config):
        out = tmp_path / "r"
        code = run_command(
            ["eval", "--policy", "classifier", "--config", tiny_config, "--seed", "2", "--out", str(out)]
        )
        assert code == 0


class TestCompare:
    def test_deterministic_byte_identical_outputs(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_command(["compare", "--config", tiny_config, "--seed", "7", "--out", str(out)]) == 0
        assert read_files(a) == read_files(b)

    def test_report_covers_all_policies(self, tmp_path, tiny_config):
        out = tmp_path / "r"
        run_command(["compare", "--config", tiny_config, "--seed", "7", "--out", str(out)])
        report = json.loads((out / "compare-7-1.json").read_text())
        assert set(report["report"]["policies"]) == {"static", "heuristic", "classifier", "rl"}
        assert set(report["report"]["deltas_vs_static"]) == {
            "static",
            "heuristic",
            "classifier",
            "rl",
        }


class TestSweep:
    def test_default_penalties_give_four_entries(self, tmp_path):
        out = tmp_path / "r"
        config = tmp_path / "sweep.cfg"
        config.write_text(TINY_CONFIG)
        code = run_command(["sweep", "--config", str(config), "--seed", "4", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "sweep-4-1.json").read_text())
        betas = [entry["beta"] for entry in report["report"]["entries"]]
        assert betas == [1.0, 3.0, 5.0, 10.0]


class TestErrors:
    def test_unknown_subcommand(self):
        assert run_command(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert run_command(["eval", "--config", "default"]) == 2

    def test_bad_config_file(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("env.bug_probability = 1.5\n")
        assert run_command(["trace-gen", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "env.bug_probability" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_command(["trace-gen", "--config", str(tmp_path / "none.cfg")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert run_command(["trace-gen", "--seed", "-3", "--out", "/tmp/x"]) == 1
        assert "--seed" in capsys.readouterr().err
