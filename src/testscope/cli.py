"""Experiment command-line interface.

Subcommands::

    trace-gen   generate a commit trace file
    train       train the Q-learning agent, write weights and a training log
    eval        evaluate one policy against the always-full reference
    compare     evaluate all policies on identical traces
    sweep       train and evaluate one agent per escape-penalty value

Every command accepts ``--config`` (path to a key=value file, or ``default``
for built-in defaults), ``--seed`` (overrides both the training and the
evaluation seed), and ``--out`` (output directory). Outputs are written
atomically and named ``<command>-<seed>-<counter>.<ext>`` with no timestamps,
so identical invocations produce byte-identical files. The counter goes on
after the highest one that the command at that seed left in the directory,
so a second run adds files instead of replacing the first's. Each report
embeds the full configuration snapshot in its header.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .agent import GreedyPolicy, train_agent
from .baselines import (
    ClassifierPolicy,
    HeuristicPolicy,
    LogisticModel,
    StaticPolicy,
    make_classifier,
)
from .commits import generate_trace, trace_records, trace_to_text
from .config import ConfigError, ExperimentConfig, config_items, load_config
from .environment import N_ACTIONS, STATE_DIM
from .evaluation import (
    REPORT_COLUMNS,
    TRAINING_LOG_COLUMNS,
    ComparisonReport,
    compare_policies,
    comparison_rows,
    comparison_to_dict,
    penalty_sweep,
    sweep_rows,
    sweep_to_dict,
    training_log_rows,
)
from .fileio import atomic_write, json_text, rows_to_csv
from .network import QNetwork
from .persist import KIND_LOGISTIC, KIND_QNETWORK, WeightFileError, load_policy, save_policy

__all__ = ["run_command", "main"]

POLICY_CHOICES = ("static", "heuristic", "classifier", "rl")


class _Outputs:
    """Names output files ``<command>-<seed>-<counter>.<ext>`` in order, the
    counter starting after the highest such file already in ``out_dir``."""

    def __init__(self, out_dir: str, command: str, seed: int):
        self.dir = Path(out_dir)
        self.command = command
        self.seed = seed
        pattern = re.compile(rf"{re.escape(command)}-{seed}-(\d+)\.[^.]+", re.ASCII)
        found = [pattern.fullmatch(p.name) for p in self.dir.iterdir()] if self.dir.is_dir() else []
        self.counter = max((int(m[1]) + 1 for m in found if m), default=0)

    def path(self, ext: str) -> Path:
        path = self.dir / f"{self.command}-{self.seed}-{self.counter}.{ext}"
        self.counter += 1
        return path

    def write(self, ext: str, data: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.path(ext)
        atomic_write(path, data)
        return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="testscope", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default="default", help="config file path, or 'default'")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("trace-gen", help="generate a commit trace file")
    common(p)
    p.add_argument("--n", type=int, default=None, help="number of commits")
    p.add_argument("--mode", choices=("standard", "adversarial"), default=None)

    p = sub.add_parser("train", help="train the agent")
    common(p)
    p.add_argument("--episodes", type=int, default=None, help="episode count override")

    p = sub.add_parser("eval", help="evaluate one policy")
    common(p)
    p.add_argument("--policy", choices=POLICY_CHOICES, required=True)
    p.add_argument("--weights", default=None, help="weight file for rl or classifier")

    p = sub.add_parser("compare", help="evaluate all policies on identical traces")
    common(p)
    p.add_argument("--weights", default=None, help="reuse trained agent weights")

    p = sub.add_parser("sweep", help="train and evaluate across escape penalties")
    common(p)

    return parser


def _load_experiment(args: argparse.Namespace) -> tuple[ExperimentConfig, int]:
    if args.config == "default":
        cfg = ExperimentConfig()
    else:
        cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg.train.seed = args.seed
        cfg.eval.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg, cfg.train.seed


def _snapshot_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    # output_dir is where a report lives, not an experiment parameter;
    # leaving it out keeps reruns into different directories diffable
    return [(k, v) for k, v in config_items(cfg) if k != "output_dir"]


def _snapshot_lines(command: str, cfg: ExperimentConfig) -> list[str]:
    lines = [
        "testscope report, format 1",
        f"command: {command}",
    ]
    lines.extend(f"config {key} = {value}" for key, value in _snapshot_items(cfg))
    return lines


def _json_report(command: str, cfg: ExperimentConfig, body: dict) -> str:
    document = {
        "format_version": 1,
        "command": command,
        "config": dict(_snapshot_items(cfg)),
        "report": body,
    }
    return json_text(document)


def _write_reports(command: str, cfg: ExperimentConfig, seed: int, rows: list[dict], body: dict) -> str:
    """Write a report as CSV and as JSON; returns the line that names both files."""
    out = _Outputs(cfg.output_dir, command, seed)
    csv_path = out.write("csv", rows_to_csv(rows, REPORT_COLUMNS, _snapshot_lines(command, cfg)))
    json_path = out.write("json", _json_report(command, cfg, body))
    return f"wrote {csv_path} and {json_path}"


def _compare(cfg: ExperimentConfig, policies: dict) -> ComparisonReport:
    return compare_policies(
        policies, cfg.env, cfg.train.escape_penalty, cfg.eval.n_runs, cfg.eval.seed
    )[0]


def _load_agent(weights: str) -> QNetwork:
    net = load_policy(weights, expect_kind=KIND_QNETWORK)
    assert isinstance(net, QNetwork)
    if (net.input_dim, net.output_dim) != (STATE_DIM, N_ACTIONS):
        raise WeightFileError(
            f"{weights}: the network maps {net.input_dim} inputs to {net.output_dim} "
            f"Q-values, expected {STATE_DIM} state features to {N_ACTIONS} actions"
        )
    return net


def _make_policy(name: str, cfg: ExperimentConfig, weights: str | None):
    if weights is not None and name in ("static", "heuristic"):
        raise ConfigError(f"--weights applies to the rl and classifier policies only, not to {name}")
    if name == "static":
        return StaticPolicy()
    if name == "heuristic":
        return HeuristicPolicy()
    if name == "classifier":
        if weights is None:
            return ClassifierPolicy(make_classifier(cfg.env, cfg.classifier), cfg.classifier)
        model = load_policy(weights, expect_kind=KIND_LOGISTIC)
        assert isinstance(model, LogisticModel)
        return ClassifierPolicy(model, cfg.classifier)
    if name == "rl":
        if weights is None:
            raise ConfigError("the rl policy needs --weights pointing at a trained agent")
        return GreedyPolicy(_load_agent(weights))
    raise ConfigError(f"unknown policy {name!r}")


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    cfg, seed = _load_experiment(args)
    n = args.n if args.n is not None else cfg.env.commits_per_episode
    trace = generate_trace(cfg.env, n, seed=seed, mode=args.mode)
    out = _Outputs(cfg.output_dir, "trace-gen", seed)
    path = out.write("csv", trace_to_text(trace_records(trace, cfg.env)))
    print(f"wrote {path} ({n} commits)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, seed = _load_experiment(args)
    if args.episodes is not None:
        cfg.train.episodes = args.episodes
        if cfg.train.episodes < 1:
            raise ConfigError("--episodes must be >= 1")
    net, log = train_agent(cfg.env, cfg.train)
    out = _Outputs(cfg.output_dir, "train", seed)
    out.dir.mkdir(parents=True, exist_ok=True)
    weight_path = out.path("json")
    save_policy(weight_path, net, cfg.train)
    log_csv = rows_to_csv(training_log_rows(log), TRAINING_LOG_COLUMNS, _snapshot_lines("train", cfg))
    log_path = out.write("csv", log_csv)
    print(f"wrote {weight_path} and {log_path} ({len(log)} episodes)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg, seed = _load_experiment(args)
    report = _compare(cfg, {args.policy: _make_policy(args.policy, cfg, args.weights)})
    print(_write_reports("eval", cfg, seed, comparison_rows(report), comparison_to_dict(report)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg, seed = _load_experiment(args)
    # fit the classifier first: a fit that does not converge fails in
    # milliseconds instead of after the agent has trained
    classifier = _make_policy("classifier", cfg, None)
    if args.weights is not None:
        net = _load_agent(args.weights)
    else:
        net, _ = train_agent(cfg.env, cfg.train)
    policies = {
        "static": StaticPolicy(),
        "heuristic": HeuristicPolicy(),
        "classifier": classifier,
        "rl": GreedyPolicy(net),
    }
    report = _compare(cfg, policies)
    print(_write_reports("compare", cfg, seed, comparison_rows(report), comparison_to_dict(report)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, seed = _load_experiment(args)
    sweep = penalty_sweep(
        cfg.env,
        cfg.train,
        penalties=cfg.eval.penalties,
        n_runs=cfg.eval.n_runs,
        eval_seed=cfg.eval.seed,
    )
    written = _write_reports("sweep", cfg, seed, sweep_rows(sweep), sweep_to_dict(sweep))
    print(f"{written} ({len(sweep)} penalty values)")
    return 0


_COMMANDS = {
    "trace-gen": _cmd_trace_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def run_command(argv: list[str]) -> int:
    """Parse ``argv`` and run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, WeightFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
