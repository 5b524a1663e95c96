"""The three benchmark workloads: ``train``, ``evaluate`` and ``sweep``.

Each is a closed loop with one caller: :func:`set_up` builds a job from the
workload seed, and the job's ``run`` performs one repetition, returning the
output digest and any broken output invariants. The package is only ever
called through module attributes (``agent.train_agent``, not a name imported
here), so the traced run's rebinding reaches every call.

Sizes are fixed here, so one seed always gives the same inputs and digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from testscope import agent, baselines, cli, config, evaluation, network, persist

WORKLOADS = ("train", "evaluate", "sweep")

TRAIN_EPISODES = 20  # one repetition of ``train``: 2000 commits, 2000 TD updates
EVAL_RUNS = 30  # runs per policy in ``compare_policies`` and ``adversarial_eval``
SWEEP_EPISODES = 8  # ``train.episodes`` in the sweep's config file
SWEEP_RUNS = 2  # ``eval.n_runs`` in the sweep's config file


@dataclass
class Outcome:
    """One repetition's output digest and the invariants it broke."""

    digest: str
    problems: list[str]


@dataclass
class Job:
    """A set-up workload: ``run(scratch_dir)`` performs one repetition.

    ``commits`` is the number of ``PipelineEnv.step`` calls one repetition
    makes, and ``td_updates`` the number of minibatch updates its training
    configs imply.
    """

    run: Callable[[Path], Outcome]
    commits: int
    td_updates: int


def implied_updates(cfg: config.TrainConfig, commits_per_episode: int) -> int:
    """Minibatch updates ``train_agent`` makes: one per step of each episode
    that ends with at least a minibatch of transitions in the buffer."""
    updates = 0
    for episode in range(cfg.episodes):
        if min((episode + 1) * commits_per_episode, cfg.buffer_capacity) >= cfg.minibatch_size:
            updates += commits_per_episode
    return updates


def weights_problems(net: network.QNetwork, loaded: network.QNetwork) -> list[str]:
    """Non-finite weights, or a save/load round trip that is not bit-exact."""
    problems = []
    if not all(np.isfinite(p).all() for p in net.params):
        problems.append("non-finite weights")
    same = len(net.params) == len(loaded.params) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(net.params, loaded.params)
    )
    if not same:
        problems.append("load_policy round trip is not bit-exact")
    return problems


def metrics_problems(per_run: list[dict], where: str) -> list[str]:
    """``dmr`` outside [0, 100] or ``tp`` not finite and positive, per run."""
    problems = []
    for run in per_run:
        if not 0.0 <= run["dmr"] <= 100.0:
            problems.append(f"{where}: dmr {run['dmr']!r} outside [0, 100]")
        if not (math.isfinite(run["tp"]) and run["tp"] > 0.0):
            problems.append(f"{where}: tp {run['tp']!r} not finite and positive")
    return problems


def _round_trip(net: network.QNetwork, path: Path, train_cfg=None) -> tuple[bytes, network.QNetwork]:
    """Save ``net``, read it back; returns the file bytes and the loaded net."""
    persist.save_policy(path, net, train_cfg)
    return path.read_bytes(), persist.load_policy(path, expect_kind="q_network")


def _train(seed: int, workdir: Path) -> Job:
    env_cfg = config.EnvConfig()
    train_cfg = config.TrainConfig(episodes=TRAIN_EPISODES, seed=seed)

    def run(scratch: Path) -> Outcome:
        net, _ = agent.train_agent(env_cfg, train_cfg)
        data, loaded = _round_trip(net, scratch / "train.json", train_cfg)
        return Outcome(hashlib.sha256(data).hexdigest(), weights_problems(net, loaded))

    commits = train_cfg.episodes * env_cfg.commits_per_episode
    return Job(run, commits, implied_updates(train_cfg, env_cfg.commits_per_episode))


def _evaluate(seed: int, workdir: Path) -> Job:
    env_cfg = config.EnvConfig()
    penalty = config.TrainConfig().escape_penalty
    net = network.mlp_init(config.TrainConfig().hidden_sizes, seed=seed)
    _, rl = _round_trip(net, workdir / "rl.json")
    problems = weights_problems(net, rl)
    if problems:
        raise RuntimeError(f"rl weight round trip failed: {problems}")

    def run(scratch: Path) -> Outcome:
        model = baselines.make_classifier(env_cfg)
        classifier = baselines.ClassifierPolicy(model)
        policies = {
            "static": baselines.StaticPolicy(),
            "heuristic": baselines.HeuristicPolicy(),
            "classifier": classifier,
            "rl": agent.GreedyPolicy(rl),
        }
        report, _ = evaluation.compare_policies(
            policies, env_cfg, escape_penalty=penalty, n_runs=EVAL_RUNS, base_seed=seed
        )
        adversarial = {
            name: dataclasses.asdict(
                evaluation.adversarial_eval(
                    policy, env_cfg, penalty, n_runs=EVAL_RUNS, base_seed=seed
                )
            )
            for name, policy in (("heuristic", policies["heuristic"]), ("classifier", classifier))
        }
        comparison = evaluation.comparison_to_dict(report)
        problems = []
        for name, rep in comparison["policies"].items():
            problems += metrics_problems(rep["per_run"], f"compare {name}")
        for name, rep in adversarial.items():
            problems += metrics_problems(rep["metrics"]["per_run"], f"adversarial {name}")
        text = json.dumps({"comparison": comparison, "adversarial": adversarial}, sort_keys=True)
        return Outcome(hashlib.sha256(text.encode()).hexdigest(), problems)

    # compare_policies plays the static reference once per run and reuses it
    # for the static policy, so 1 + 3 episodes per run; each of the two
    # adversarial_eval calls plays the reference and its policy
    episodes = EVAL_RUNS * (1 + 3) + 2 * EVAL_RUNS * 2
    return Job(run, episodes * env_cfg.commits_per_episode, 0)


def _sweep(seed: int, workdir: Path) -> Job:
    config_path = workdir / "sweep.cfg"
    config_path.write_text(
        f"train.episodes = {SWEEP_EPISODES}\neval.n_runs = {SWEEP_RUNS}\n"
    )
    cfg = config.load_config(config_path)
    penalties = cfg.eval.penalties
    commits_per_episode = cfg.env.commits_per_episode

    def run(scratch: Path) -> Outcome:
        out = scratch / "sweep-out"
        argv = ["sweep", "--config", str(config_path), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.run_command(argv)
        if status != 0:
            return Outcome("", [f"cli exit status {status}"])
        digest = hashlib.sha256()
        problems = []
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            if path.suffix == ".json":
                for entry in json.loads(data)["report"]["entries"]:
                    for name, rep in entry["comparison"]["policies"].items():
                        problems += metrics_problems(rep["per_run"], f"beta {entry['beta']} {name}")
        shutil.rmtree(out)
        return Outcome(digest.hexdigest(), problems)

    train_commits = len(penalties) * SWEEP_EPISODES * commits_per_episode
    # each penalty's evaluation plays the static reference and the agent
    eval_commits = len(penalties) * SWEEP_RUNS * 2 * commits_per_episode
    updates = len(penalties) * implied_updates(cfg.train, commits_per_episode)
    return Job(run, train_commits + eval_commits, updates)


def set_up(workload: str, seed: int, workdir: Path) -> Job:
    """Build the named workload's job; set-up files go to ``workdir``."""
    return {"train": _train, "evaluate": _evaluate, "sweep": _sweep}[workload](seed, workdir)
