"""Policy evaluation: seeded episode runs, metric aggregation, and studies.

Metrics (each reported as mean and sample standard deviation over runs):

* ``tp``  - throughput, commits per hour of simulated pipeline time
* ``dmr`` - defect miss rate, escaped bugs as a percent of introduced bugs
* ``tts`` - test-time savings, percent reduction vs the always-full reference
* ``si``  - sustainability impact, core-minutes of test compute saved (one core a run)

Every comparison replays the identical traces for every policy, with the
always-full baseline computed on the same traces as the reference for
``tts``/``si``.

A policy is either a planner, whose ``plan(metadata)`` gives every trace's
actions at once from a ``(..., T, 5)`` stack of their raw observable
columns (the baselines), or a closed-loop callable ``policy(states)`` that
maps a ``(B, 10)`` float64 array of env states to B actions
(:class:`GreedyPolicy`). A policy plays all of an evaluation's runs in
lockstep: a planner makes one ``plan`` call for all B runs and at each commit
index gives each run that index of its row of the ``(B, T)`` plan, and a
closed-loop policy gets every run's state at once and picks each run's action
from that run's state alone. Those states come from
:func:`~testscope.environment.lockstep_states`, which encodes features 6-9
of all B runs in one array pass from rows encoded once for the runs'
stacked columns. Either way every action goes through one
:meth:`PipelineEnv.step` call, and
:func:`~testscope.environment.episode_stats`, which training shares, totals
each policy's episodes from their outcome codes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

# ``train_agent`` and ``observe`` are not called here, but perfbench traces
# them under this module's name as well
from .agent import EpisodeRecord, GreedyPolicy, train_agent, train_agents  # noqa: F401
from .baselines import StaticPolicy
from .commits import Trace, generate_trace, observe  # noqa: F401
from .config import (
    EnvConfig, TrainConfig, adversarial, derive_seed, validate_env, validate_penalties
)
from .environment import (
    Action, EpisodeStats, PipelineEnv, code_array, encode_rows, episode_stats, lockstep_states,
    step_envs,
)
from .network import QNetwork

__all__ = [
    "Planner",
    "Policy",
    "run_episode",
    "MetricStat",
    "RunMetrics",
    "MetricsReport",
    "compute_metrics",
    "PolicyDelta",
    "ComparisonReport",
    "compare_policies",
    "SweepEntry",
    "penalty_sweep",
    "AdversarialReport",
    "adversarial_eval",
    "ConvergenceReport",
    "convergence_stats",
    "uniform_policy_reward",
    "exploration_corrected_curve",
    "comparison_rows",
    "comparison_to_dict",
    "sweep_rows",
    "sweep_to_dict",
    "REPORT_COLUMNS",
    "TRAINING_LOG_COLUMNS",
    "training_log_rows",
]

class Planner(Protocol):
    """An open-loop policy: the ``(..., T)`` actions of a ``(..., T, 5)``
    stack of traces' raw observable columns, one :meth:`Trace.metadata` per
    trace. Each trace's actions are those it gets when planned alone."""

    def plan(self, metadata: np.ndarray) -> np.ndarray: ...


# a policy plans traces' actions from their raw observable columns, or maps
# a (B, 10) array of env states, one per run played in lockstep, to B
# actions; the latent bug flag and the generator's risk score reach neither
Policy = Planner | Callable[[np.ndarray], Sequence[Action | int]]

def _play(
    policies: Sequence[Policy],
    traces: Sequence[Trace],
    seeds: Sequence[int],
    escape_penalty: float,
    env_cfg: EnvConfig,
) -> list[list[PipelineEnv]]:
    """Per policy, the env of its episode over each trace, built with the
    trace's seed and played to the end. Every trace has
    ``env_cfg.commits_per_episode`` commits.

    Each policy in turn plays every trace in lockstep, one env per trace: a
    planner makes one ``plan`` call on the traces' ``(B, T, 5)`` stacked
    columns and at each commit index gives each trace that index of its row
    of the ``(B, T)`` plan, a closed-loop policy makes one call per commit
    index that maps the envs' ``(B, 10)`` states to B actions, and
    :func:`step_envs` steps the envs by them. A plan of any other shape, or
    of any dtype but an integer one (a boolean plan included), raises
    :class:`ValueError` before any env steps. A trace's envs are replicas of
    one, sharing its draws and prices, so each policy meets the same
    detection draws as when played alone. A closed-loop policy reads its states from
    :func:`lockstep_states`, which gives each run the bits of its env's own
    state reads; the first such policy encodes the stack's ``(B, T + 1, 10)``
    rows in one :func:`encode_rows` call, which every later one reuses. A
    step records an outcome code and nothing more, so a planner-only play
    encodes no row. :func:`episode_stats` reduces each policy's envs.
    """
    n = env_cfg.commits_per_episode
    # [trace][k]: the env of the k-th policy
    trace_envs = [
        PipelineEnv(t, env_cfg, escape_penalty, seed=s).replicas([escape_penalty] * len(policies))
        for t, s in zip(traces, seeds)
    ]
    metadata = np.stack([trace.metadata() for trace in traces])
    rows = None  # the traces' encoded rows, once a closed-loop policy plays
    played = []
    for k, policy in enumerate(policies):
        envs = [run_envs[k] for run_envs in trace_envs]
        if hasattr(policy, "plan"):
            plan = np.asarray(policy.plan(metadata))
            name = type(policy).__name__
            if plan.shape != (len(envs), n):
                raise ValueError(f"{name}.plan gave shape {plan.shape}, not {(len(envs), n)}")
            if not np.issubdtype(plan.dtype, np.integer):
                raise ValueError(f"{name}.plan gave {plan.dtype} actions, not integers")
            # the t-th row holds each trace's action at commit t
            actions_at = plan.T.tolist()
        else:
            if rows is None:
                rows = encode_rows(metadata, env_cfg.state)
            actions_at = map(policy, lockstep_states(envs, rows, env_cfg.state))
        for actions in actions_at:
            step_envs(envs, actions)
        played.append(envs)
    return played


def run_episode(
    policy: Policy,
    trace: Trace,
    escape_penalty: float,
    env_cfg: EnvConfig,
    seed: int = 0,
) -> EpisodeStats:
    """Play one trace under ``policy``, from an env built with ``seed``, and
    accumulate episode statistics: the one-run case of :func:`_play`. A
    planner plans the trace once, as a ``(1, T, 5)`` stack whose plan is
    ``(1, T)``; a closed-loop policy gets each state as a ``(1, 10)`` array
    and returns one action."""
    if len(trace) != env_cfg.commits_per_episode:
        raise ValueError(
            f"trace length {len(trace)} != commits_per_episode "
            f"{env_cfg.commits_per_episode}"
        )
    ((env,),) = _play([policy], [trace], [seed], escape_penalty, env_cfg)
    (stats,) = episode_stats([env])
    return stats


@dataclass
class MetricStat:
    """Mean and sample standard deviation over runs."""

    mean: float
    std: float


@dataclass
class RunMetrics:
    """Metric values of a single run."""

    run: int
    seed: int
    tp: float
    dmr: float
    tts: float
    si: float


@dataclass
class MetricsReport:
    """Aggregated metrics of one policy over independent runs."""

    tp: MetricStat
    dmr: MetricStat
    tts: MetricStat
    si: MetricStat
    runs: int
    per_run: tuple[RunMetrics, ...]


def _stat(values: list[float]) -> MetricStat:
    arr = np.asarray(values, dtype=np.float64)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return MetricStat(mean=float(arr.mean()), std=std)


def compute_metrics(
    stats: list[EpisodeStats],
    reference: list[EpisodeStats],
    run_seeds: list[int] | None = None,
) -> MetricsReport:
    """Aggregate per-run metrics against the always-full reference runs.

    ``reference`` must come from the static policy on the identical traces.
    Zero-bug runs define the miss rate as 0; a zero-minute reference defines
    the savings as 0.
    """
    if len(stats) != len(reference):
        raise ValueError(f"got {len(stats)} runs but {len(reference)} reference runs")
    if not stats:
        raise ValueError("need at least one run")
    seeds = run_seeds if run_seeds is not None else [0] * len(stats)
    if len(seeds) != len(stats):
        raise ValueError("run_seeds length must match the number of runs")

    per_run = []
    for i, (s, ref) in enumerate(zip(stats, reference)):
        tp = 60.0 * s.commits / s.total_pipeline_minutes if s.total_pipeline_minutes > 0 else float("inf")
        dmr = 100.0 * s.bugs_escaped / s.bugs_introduced if s.bugs_introduced > 0 else 0.0
        if ref.total_test_minutes > 0:
            tts = 100.0 * (1.0 - s.total_test_minutes / ref.total_test_minutes)
        else:
            tts = 0.0
        si = ref.total_test_minutes - s.total_test_minutes
        per_run.append(RunMetrics(run=i, seed=seeds[i], tp=tp, dmr=dmr, tts=tts, si=si))

    return MetricsReport(
        tp=_stat([r.tp for r in per_run]),
        dmr=_stat([r.dmr for r in per_run]),
        tts=_stat([r.tts for r in per_run]),
        si=_stat([r.si for r in per_run]),
        runs=len(per_run),
        per_run=tuple(per_run),
    )


@dataclass
class PolicyDelta:
    """Improvement of a policy over the static baseline."""

    tp_improvement_pct: float
    dmr_delta_pp: float


@dataclass
class ComparisonReport:
    """Metrics for every policy on identical traces, plus deltas vs static."""

    escape_penalty: float
    n_runs: int
    run_seeds: tuple[int, ...]
    reports: dict[str, MetricsReport]
    deltas: dict[str, PolicyDelta]


def _runs(
    policies: Sequence[Policy], env_cfg: EnvConfig, escape_penalty: float, n_runs: int, base_seed: int
) -> tuple[list[int], list[Trace], list[list[PipelineEnv]]]:
    """``(run_seeds, traces, played)`` of the seeded runs: ``played`` holds
    the played envs of the always-full reference, then of each policy, one
    per run. Checks ``env_cfg``, the penalty and ``n_runs`` before any trace
    is generated, then generates every run's trace, so that each policy
    plays all runs in lockstep (see :func:`_play`)."""
    validate_env(env_cfg)
    validate_penalties((escape_penalty,))
    if n_runs < 1:
        raise ValueError("need at least one run")
    run_seeds = [derive_seed(base_seed, i) for i in range(n_runs)]
    traces = [
        generate_trace(env_cfg, env_cfg.commits_per_episode, seed=derive_seed(s, 0))
        for s in run_seeds
    ]
    env_seeds = [derive_seed(s, 1) for s in run_seeds]
    players = [StaticPolicy(), *policies]
    return run_seeds, traces, _play(players, traces, env_seeds, escape_penalty, env_cfg)


def compare_policies(
    policies: Mapping[str, Policy],
    env_cfg: EnvConfig,
    escape_penalty: float,
    n_runs: int = 5,
    base_seed: int = 1000,
) -> tuple[ComparisonReport, dict[str, list[EpisodeStats]]]:
    """Evaluate every policy on the same seeded traces.

    Returns the report and the raw per-policy episode stats. The always-full
    reference is computed internally on the identical traces (and reused for
    every :class:`StaticPolicy`). Each policy plays all ``n_runs`` runs in
    lockstep, one commit index at a time, and gets the same episodes as when
    each run is played alone: a planner makes one ``plan`` call that maps
    the runs' ``(n_runs, T, 5)`` stacked columns to ``(n_runs, T)`` actions,
    a closed-loop policy makes one call per commit index that maps the runs'
    ``(n_runs, 10)`` states to one action per run. A plan of any other
    shape or of a non-integer dtype, or a call that returns other than one
    action per run, raises :class:`ValueError`.
    ``env_cfg`` must pass
    :func:`~testscope.config.validate_env` (``ConfigError`` names the bad key),
    and the penalty the checks of ``validate_penalties`` (``ValueError``).
    """
    if not policies:
        raise ValueError("need at least one policy")
    played = [n for n, p in policies.items() if not isinstance(p, StaticPolicy)]
    run_seeds, _, envs = _runs([policies[n] for n in played], env_cfg, escape_penalty, n_runs, base_seed)
    reference, *stats = map(episode_stats, envs)
    by_name = dict(zip(played, stats))
    all_stats = {
        name: by_name[name] if name in by_name else [replace(s) for s in reference]
        for name in policies
    }

    static_report = compute_metrics(reference, reference, run_seeds)
    reports = {
        name: compute_metrics(stats, reference, run_seeds) if name in played else static_report
        for name, stats in all_stats.items()
    }
    tp_ref = static_report.tp.mean
    deltas = {}
    for name, report in reports.items():
        deltas[name] = PolicyDelta(
            tp_improvement_pct=100.0 * (report.tp.mean - tp_ref) / tp_ref if tp_ref else 0.0,
            dmr_delta_pp=report.dmr.mean - static_report.dmr.mean,
        )

    report = ComparisonReport(
        escape_penalty=escape_penalty,
        n_runs=n_runs,
        run_seeds=tuple(run_seeds),
        reports=reports,
        deltas=deltas,
    )
    return report, all_stats


@dataclass
class SweepEntry:
    """One penalty setting: the trained network, its log, and its evaluation."""

    escape_penalty: float
    net: QNetwork
    log: list[EpisodeRecord]
    comparison: ComparisonReport


def penalty_sweep(
    env_cfg: EnvConfig,
    train_cfg: TrainConfig,
    penalties: tuple[float, ...] = (1.0, 3.0, 5.0, 10.0),
    n_runs: int = 5,
    eval_seed: int = 1000,
) -> list[SweepEntry]:
    """Train one agent per escape penalty and evaluate each on identical traces;
    one entry per penalty, in order.

    Each agent trains with the same seed and differs only in the penalty, so
    the sweep isolates the speed-vs-safety trade-off. All agents train in
    lockstep in one :func:`train_agents` call.
    """
    if not penalties:
        raise ValueError("need at least one penalty value")
    trained = train_agents(env_cfg, train_cfg, penalties)
    entries = []
    for penalty, (net, log) in zip(penalties, trained):
        comparison, _ = compare_policies(
            {"rl": GreedyPolicy(net)},
            env_cfg,
            escape_penalty=penalty,
            n_runs=n_runs,
            base_seed=eval_seed,
        )
        entries.append(
            SweepEntry(escape_penalty=penalty, net=net, log=log, comparison=comparison)
        )
    return entries


@dataclass
class AdversarialReport:
    """Stress-trace evaluation plus how small diffs were treated."""

    metrics: MetricsReport
    low_diff_partial_fraction: float
    low_diff_cutoff: int


def adversarial_eval(
    policy: Policy,
    env_cfg: EnvConfig,
    escape_penalty: float,
    n_runs: int = 5,
    base_seed: int = 1000,
) -> AdversarialReport:
    """Evaluate a policy on adversarial traces.

    Also reports the fraction of small-diff (streak) commits that received
    partial tests, the behavior diff-based policies exhibit on these traces,
    counted from each played episode's actions. The runs and the checks are
    those of :func:`compare_policies`, so ``metrics`` equals its report of
    ``policy`` on the adversarial config.
    """
    cfg = adversarial(env_cfg)
    cutoff = cfg.generator.streak_diff_max
    run_seeds, traces, (reference, envs) = _runs([policy], cfg, escape_penalty, n_runs, base_seed)
    low = np.array([trace.diff_size for trace in traces]) <= cutoff
    actions = code_array(envs) // 3
    low_total = int(np.count_nonzero(low))
    low_partial = int(np.count_nonzero(low & (actions == Action.PARTIAL_TESTS)))
    fraction = low_partial / low_total if low_total else 0.0
    return AdversarialReport(
        metrics=compute_metrics(episode_stats(envs), episode_stats(reference), run_seeds),
        low_diff_partial_fraction=fraction,
        low_diff_cutoff=cutoff,
    )


@dataclass
class ConvergenceReport:
    """First episode where the trailing reward window is stable, if any."""

    converged_episode: int | None
    window: int
    threshold: float


def convergence_stats(
    rewards: np.ndarray, window: int = 100, threshold: float = 0.03
) -> ConvergenceReport:
    """Find the first episode whose trailing-window rewards look converged.

    Converged means the coefficient of variation (sample std over |mean|) of
    the last ``window`` episode rewards drops below ``threshold``. Windows
    with zero mean are treated as not converged at that point.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if not 1 <= window <= rewards.size:
        raise ValueError(f"window {window} is outside 1..{rewards.size}, the log's episode count")
    for end in range(window, rewards.size + 1):
        chunk = rewards[end - window : end]
        mean = float(chunk.mean())
        if mean == 0.0:
            continue
        std = float(np.std(chunk, ddof=1)) if window > 1 else 0.0
        if std / abs(mean) < threshold:
            return ConvergenceReport(converged_episode=end, window=window, threshold=threshold)
    return ConvergenceReport(converged_episode=None, window=window, threshold=threshold)


def uniform_policy_reward(env_cfg: EnvConfig, escape_penalty: float) -> float:
    """Expected episode reward of the policy that picks every action uniformly."""
    per_commit = np.mean(
        [
            minutes + escape_penalty * env_cfg.bug_probability * (1.0 - rate)
            for minutes, rate in zip(env_cfg.test_minutes, env_cfg.detection_rates)
        ]
    )
    return -env_cfg.commits_per_episode * float(per_commit)


def exploration_corrected_curve(
    log: list[EpisodeRecord], uniform_reward: float, window: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Moving average of the greedy-policy reward implied by each training episode.

    An episode played at exploration rate eps earns, in expectation,
    ``eps * U + (1 - eps) * G`` with ``U`` the uniform-random reward (see
    :func:`uniform_policy_reward`) and ``G`` the greedy policy's: a commit's
    reward depends only on that commit and the action taken. So
    ``g = (R - eps * U) / (1 - eps)`` estimates ``G`` without the exploration
    cost (episodes at eps = 1 carry no information about ``G`` and are
    dropped). Returns ``(episodes, curve)``, where ``episodes[i]`` is the
    1-based number of the last training episode averaged into ``curve[i]``,
    a mean over ``window`` kept episodes; fewer kept raise :class:`ValueError`.
    """
    episodes = np.array([r.episode for r in log]) + 1
    epsilon = np.array([r.epsilon for r in log])
    rewards = np.array([r.total_reward for r in log])
    keep = epsilon < 1.0
    if not 1 <= window <= keep.sum():
        raise ValueError(f"window {window} is outside 1..{keep.sum()}, the episodes at epsilon < 1")
    greedy = (rewards[keep] - epsilon[keep] * uniform_reward) / (1.0 - epsilon[keep])
    curve = np.convolve(greedy, np.ones(window) / window, mode="valid")
    return episodes[keep][window - 1 :], curve


# --------------------------------------------------------------------------
# report serialization: tabular rows and JSON-ready dicts
# --------------------------------------------------------------------------

# the columns of a report CSV and of a training log: each record type's
# fields in order, so a new field is a new column
REPORT_COLUMNS = ("policy", "beta", *(f.name for f in fields(RunMetrics)))
_ACTION_COLUMNS = tuple(a.name.lower() for a in Action)
TRAINING_LOG_COLUMNS = tuple(
    c for f in fields(EpisodeRecord) for c in (_ACTION_COLUMNS if f.name == "action_counts" else (f.name,))
)


def _metric_rows(policy: str, penalty: float, report: MetricsReport) -> list[dict]:
    rows = [{"policy": policy, "beta": penalty, **asdict(r)} for r in report.per_run]
    stats = {name: stat for name, stat in vars(report).items() if isinstance(stat, MetricStat)}
    for kind in ("mean", "std"):
        row = {name: getattr(stat, kind) for name, stat in stats.items()}
        rows.append({"policy": policy, "beta": penalty, "run": kind, "seed": "", **row})
    return rows


def comparison_rows(report: ComparisonReport) -> list[dict]:
    """Flatten a comparison into report rows (per run plus mean/std per policy)."""
    rows = []
    for name in sorted(report.reports):
        rows.extend(_metric_rows(name, report.escape_penalty, report.reports[name]))
    return rows


def comparison_to_dict(report: ComparisonReport) -> dict:
    return {
        "beta": report.escape_penalty,
        "n_runs": report.n_runs,
        "run_seeds": list(report.run_seeds),
        "policies": {name: asdict(rep) for name, rep in sorted(report.reports.items())},
        "deltas_vs_static": {name: asdict(d) for name, d in sorted(report.deltas.items())},
    }


def sweep_rows(entries: list[SweepEntry]) -> list[dict]:
    return [row for e in entries for row in comparison_rows(e.comparison)]


def sweep_to_dict(entries: list[SweepEntry]) -> dict:
    return {
        "entries": [
            {"beta": e.escape_penalty, "comparison": comparison_to_dict(e.comparison)}
            for e in entries
        ]
    }


def training_log_rows(log: list[EpisodeRecord]) -> list[dict]:
    """One row per episode record, its action counts spread over one column per action."""
    return [{**vars(r), **dict(zip(_ACTION_COLUMNS, r.action_counts))} for r in log]
