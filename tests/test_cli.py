"""Command-line interface: subcommands, determinism, exit codes, file naming."""

import json

import numpy as np
import pytest

from testscope.baselines import LogisticModel
from testscope.cli import run_command
from testscope.config import StateConfig
from testscope.network import QNetwork, mlp_init
from testscope.persist import load_policy, save_policy

from test_commits import parse_trace_text

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
        trace = parse_trace_text((out / "trace-gen-7-0.csv").read_text())
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
        trace = parse_trace_text((out / "trace-gen-3-0.csv").read_text())
        assert max(c.diff_size for c in trace) >= 100

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "r"
        run_command(["trace-gen", "--seed", "1", "--out", str(out)])
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    def test_numbering_goes_on_after_this_commands_files_at_this_seed(self, tmp_path):
        # files of other commands or seeds, or not named by the CLI, move nothing
        out = tmp_path / "r"
        out.mkdir()
        for name in ("trace-gen-31-7.csv", "eval-3-5.json", "trace-gen-3-x.csv", "trace-gen-3-8.csv.tmp"):
            (out / name).write_text("")
        for mode in ("standard", "adversarial", "standard"):
            argv = ["trace-gen", "--seed", "3", "--out", str(out), "--n", "30", "--mode", mode]
            assert run_command(argv) == 0
        written = [parse_trace_text((out / f"trace-gen-3-{k}.csv").read_text()) for k in range(3)]
        assert written[0] == written[2] != written[1]
        assert len(list(out.iterdir())) == 7


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
        assert log_lines[0] == (
            "episode,total_reward,epsilon,mean_td_loss,full_tests,partial_tests,skip_tests"
        )
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

    def test_a_second_run_into_one_directory_keeps_the_first_runs_files(self, tmp_path, tiny_config):
        out = tmp_path / "r"
        for policy in ("static", "heuristic"):
            argv = ["eval", "--policy", policy, "--config", tiny_config, "--seed", "9", "--out", str(out)]
            assert run_command(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "eval-9-0.csv", "eval-9-1.json", "eval-9-2.csv", "eval-9-3.json"
        ]
        first, second = (json.loads((out / name).read_text()) for name in ("eval-9-1.json", "eval-9-3.json"))
        assert list(first["report"]["policies"]) == ["static"]
        assert list(second["report"]["policies"]) == ["heuristic"]


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

    @pytest.mark.parametrize(
        "sizes, command",
        [
            ({"input_dim": 5}, ["eval", "--policy", "rl"]),
            ({"output_dim": 4}, ["eval", "--policy", "rl"]),
            ({"input_dim": 5}, ["compare"]),
        ],
    )
    def test_agent_of_the_wrong_shape(self, tmp_path, tiny_config, capsys, sizes, command):
        weights = tmp_path / "odd.json"
        save_policy(weights, mlp_init((8,), seed=0, **sizes))
        out = tmp_path / "r"
        argv = [*command, "--weights", str(weights), "--config", tiny_config, "--out", str(out)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {weights}: the network maps")
        assert "expected 10 state features to 3 actions" in err
        assert not out.exists()

    def test_classifier_fit_that_does_not_converge(self, tmp_path, capsys):
        config = tmp_path / "capped.cfg"
        config.write_text(TINY_CONFIG + "classifier.max_iterations = 1\n")
        out = tmp_path / "r"
        assert run_command(["compare", "--config", str(config), "--seed", "7", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: risk classifier fit did not converge")
        assert "1 Newton iteration(s), gradient norm" in err
        assert not out.exists()

    def test_diverged_training_writes_no_weight_file(self, tmp_path, capsys):
        config = tmp_path / "diverging.cfg"
        config.write_text(TINY_CONFIG + "train.escape_penalty = 1e300\n")
        out = tmp_path / "r"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_command(["train", "--config", str(config), "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: mean TD loss inf in episode ")
        assert not out.exists()

    def test_classifier_file_with_other_caps(self, tmp_path, tiny_config):
        # the classifier encodes each trace under the caps it was fitted
        # with, so the config's state caps do not change its report
        matching = tmp_path / "caps.cfg"
        matching.write_text(TINY_CONFIG + "state.diff_cap = 400\nstate.files_cap = 30\n")
        reports = []
        for caps, config in [
            (StateConfig(diff_cap=400, files_cap=30), tiny_config),
            (StateConfig(diff_cap=400, files_cap=30), str(matching)),
            (StateConfig(), tiny_config),
        ]:
            weights = tmp_path / "clf.json"
            # a one-file commit scores 0.36 (full tests) under files_cap 20
            # and 0.25 (partial tests) under files_cap 30
            model = LogisticModel(np.array([0.0, 30.0, 0.0, 0.0, 0.0]), -2.1, state_cfg=caps)
            save_policy(weights, model)
            out = tmp_path / f"r{len(reports)}"
            argv = ["eval", "--policy", "classifier", "--weights", str(weights), "--config", config]
            assert run_command([*argv, "--out", str(out)]) == 0
            (path,) = out.glob("*.json")
            reports.append(json.loads(path.read_text())["report"])
        assert reports[0] == reports[1]
        # the same weights under the config's caps play another way
        assert reports[2] != reports[0]

    @pytest.mark.parametrize("policy", ["static", "heuristic"])
    def test_weights_for_a_policy_that_takes_none(self, tmp_path, tiny_config, capsys, policy):
        # the flag would otherwise be ignored, and the file never even opened
        out = tmp_path / "r"
        argv = ["eval", "--policy", policy, "--weights", str(tmp_path / "none.json")]
        assert run_command([*argv, "--config", tiny_config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --weights applies to the rl and classifier policies only, not to {policy}\n"
        )
        assert not out.exists()

    def test_classifier_file_with_the_config_caps(self, tmp_path):
        config = tmp_path / "caps.cfg"
        config.write_text(TINY_CONFIG + "state.diff_cap = 400\nstate.files_cap = 30\n")
        weights = tmp_path / "clf.json"
        caps = StateConfig(diff_cap=400, files_cap=30)
        save_policy(weights, LogisticModel(weights=np.zeros(5), bias=0.0, state_cfg=caps))
        out = tmp_path / "r"
        argv = ["eval", "--policy", "classifier", "--weights", str(weights), "--config", str(config)]
        assert run_command([*argv, "--out", str(out)]) == 0
