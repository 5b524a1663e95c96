"""Per-layer metrics of a traced run, and the checks on its counts.

Spans come from :mod:`spans`; the :class:`Counters` observers see the
arguments and results of a few calls to count what spans cannot: bytes
written, repeated traces, matmul FLOPs and the classifier's final gradient.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

import numpy as np

from spans import Span, Tracer, percentile, self_times, tail_percentile, td_step_flops
from testscope import baselines, config

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("commits.generate_trace.calls", "count", "lower"),
    ("commits.generate_trace.us_p50", "us", "lower"),
    ("commits.generate_trace.busy_s", "s", "lower"),
    ("commits.generate_trace.repeat_frac", "ratio", "lower"),
    ("commits.observe.us_p50", "us", "lower"),
    ("environment.step.calls", "count", "lower"),
    ("environment.step.us_p50", "us", "lower"),
    ("environment.step.us_p99", "us", "lower"),
    ("environment.step.self_s", "s", "lower"),
    ("environment.encode_state.us_p50", "us", "lower"),
    ("environment.encode_state.busy_s", "s", "lower"),
    ("network.td_loss_and_grads.calls", "count", "lower"),
    ("network.td_loss_and_grads.us_p50", "us", "lower"),
    ("network.td_loss_and_grads.us_p99", "us", "lower"),
    ("network.td_loss_and_grads.busy_s", "s", "lower"),
    ("network.td_loss_and_grads.gflops", "GFLOP/s", "higher"),
    ("network.adam_update.calls", "count", "lower"),
    ("network.adam_update.us_p50", "us", "lower"),
    ("network.adam_update.us_p99", "us", "lower"),
    ("network.adam_update.busy_s", "s", "lower"),
    ("network.mlp_forward.calls", "count", "lower"),
    ("network.mlp_forward.us_p50", "us", "lower"),
    ("network.clone.calls", "count", "lower"),
    ("agent.train_agent.calls", "count", "lower"),
    ("agent.train_agent.self_s", "s", "lower"),
    ("agent.sample_batch.us_p50", "us", "lower"),
    ("agent.sample_batch.busy_s", "s", "lower"),
    ("agent.push.us_p50", "us", "lower"),
    ("agent.select_action.us_p50", "us", "lower"),
    ("baselines.train_classifier.busy_s", "s", "lower"),
    ("baselines.train_classifier.grad_norm", "norm", "lower"),
    ("baselines.predict_risk.calls", "count", "lower"),
    ("baselines.predict_risk.us_p50", "us", "lower"),
    ("evaluation.run_episode.calls", "count", "lower"),
    ("evaluation.run_episode.ms_p50", "ms", "lower"),
    ("evaluation.run_episode.ms_p99", "ms", "lower"),
    ("evaluation.run_episode.self_s", "s", "lower"),
    ("evaluation.compare_policies.busy_s", "s", "lower"),
    ("evaluation.adversarial_eval.busy_s", "s", "lower"),
    ("evaluation.penalty_sweep.busy_s", "s", "lower"),
    ("persist.save_policy.ms", "ms", "lower"),
    ("persist.load_policy.ms", "ms", "lower"),
    ("persist.weight_file_bytes", "bytes", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
    ("config.load_config.ms", "ms", "lower"),
    ("fileio.atomic_write.calls", "count", "lower"),
    ("fileio.atomic_write.ms_p50", "ms", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

_SCALE = {"us": 1e6, "ms": 1e3}


def classifier_grad_norm(model: baselines.LogisticModel, commits, opts, state_cfg) -> float:
    """Norm of the regularised log-loss gradient at the model's weights."""
    x = np.stack([baselines.commit_features(c, state_cfg) for c in commits])
    y = np.array([float(c.has_bug) for c in commits])
    p = np.exp(-np.logaddexp(0.0, -(x @ model.weights + model.bias)))
    grad_w = x.T @ (p - y) / len(y) + opts.l2_penalty * model.weights
    grad_b = float(np.mean(p - y))
    return float(np.sqrt(np.sum(grad_w**2) + grad_b**2))


class Counters:
    """Observers that count, per repetition, what the spans do not show."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.bytes_written = defaultdict(int)
        self.trace_keys = defaultdict(list)
        self.flops = defaultdict(int)
        self.weight_file_bytes = 0
        self.grad_norm = 0.0
        tracer.observers.update({
            "fileio.atomic_write": self._atomic_write,
            "commits.generate_trace": self._generate_trace,
            "network.td_loss_and_grads": self._td_step,
            "persist.save_policy": self._save_policy,
            "baselines.train_classifier": self._train_classifier,
        })

    def _atomic_write(self, args, kwargs, result):
        data = _arg(args, kwargs, 1, "data")
        size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
        self.bytes_written[self.tracer.rep] += size

    def _generate_trace(self, args, kwargs, result):
        cfg = _arg(args, kwargs, 0, "cfg")
        mode = _arg(args, kwargs, 3, "mode") or cfg.trace_mode
        key = (mode, _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "seed"))
        self.trace_keys[self.tracer.rep].append(key)

    def _td_step(self, args, kwargs, result):
        net, states = args[0], args[2]
        sizes = (net.input_dim, *net.hidden_sizes, net.output_dim)
        self.flops[self.tracer.rep] += td_step_flops(sizes, len(states))

    def _save_policy(self, args, kwargs, result):
        self.weight_file_bytes = os.path.getsize(args[0])

    def _train_classifier(self, args, kwargs, result):
        opts = _arg(args, kwargs, 1, "opts") or config.ClassifierConfig()
        state_cfg = _arg(args, kwargs, 2, "state_cfg") or config.StateConfig()
        self.grad_norm = classifier_grad_norm(result, _arg(args, kwargs, 0, "commits"), opts, state_cfg)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A call's argument by position or keyword; None when left at its default."""
    return args[index] if len(args) > index else kwargs.get(name)


def repeat_fraction(keys: list) -> float:
    """Share of generated traces whose key was already generated before."""
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def layer_metrics(
    spans: list[Span], reps: list[int], counters: Counters, overhead_pct: float
) -> dict[str, float]:
    """Every per-layer metric, from the spans of the traced repetitions ``reps``.

    Counts and busy/self times are per repetition (median over ``reps``);
    percentiles pool the calls of all of ``reps``; the ``persist.*.ms`` and
    ``config.load_config.ms`` figures also include calls made during set-up.
    """
    selfs = self_times(spans)
    durations = defaultdict(list)  # name -> seconds of every call in reps
    any_durations = defaultdict(list)  # same, set-up included
    busy = defaultdict(lambda: defaultdict(float))  # name -> rep -> seconds
    own = defaultdict(lambda: defaultdict(float))  # name -> rep -> self seconds
    calls = defaultdict(lambda: defaultdict(int))
    rep_set = set(reps)
    for span, self_s in zip(spans, selfs):
        any_durations[span.name].append(span.seconds)
        if span.rep not in rep_set:
            continue
        durations[span.name].append(span.seconds)
        busy[span.name][span.rep] += span.seconds
        own[span.name][span.rep] += self_s
        calls[span.name][span.rep] += 1

    def per_rep(table, name):
        return statistics.median(table[name].get(rep, 0) for rep in reps)

    out: dict[str, float] = {}
    for metric, unit, _ in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = per_rep(calls, name)
        elif stat == "busy_s":
            out[metric] = per_rep(busy, name)
        elif stat == "self_s":
            out[metric] = per_rep(own, name)
        elif stat.endswith("_p50"):
            out[metric] = percentile(durations[name], 50) * _SCALE[unit]
        elif stat.endswith("_p99"):
            out[metric] = tail_percentile(durations[name], 99) * _SCALE[unit]
        elif stat == "ms":
            out[metric] = percentile(any_durations[name], 50) * 1e3
    busy_td = sum(busy["network.td_loss_and_grads"][rep] for rep in reps)
    flops = sum(counters.flops[rep] for rep in reps)
    out["network.td_loss_and_grads.gflops"] = flops / busy_td * 1e-9 if busy_td else 0.0
    out["commits.generate_trace.repeat_frac"] = statistics.median(
        repeat_fraction(counters.trace_keys[rep]) for rep in reps
    )
    out["baselines.train_classifier.grad_norm"] = counters.grad_norm
    out["persist.weight_file_bytes"] = counters.weight_file_bytes
    out["fileio.bytes_written"] = statistics.median(counters.bytes_written[rep] for rep in reps)
    out["trace.overhead_pct"] = overhead_pct
    missing = [metric for metric, _, _ in PER_LAYER if metric not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics without a value: {missing}")
    return out


def busy_shares(spans: list[Span], walls: dict[int, float]) -> dict[str, float]:
    """Per span name, the median over repetitions of busy time / wall time.

    Nested names overlap (``agent.train_agent`` contains the TD steps), so
    the shares do not add up to one.
    """
    busy = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.rep in walls:
            busy[span.name][span.rep] += span.seconds
    return {
        name: statistics.median(by_rep.get(rep, 0.0) / wall for rep, wall in walls.items())
        for name, by_rep in sorted(busy.items())
    }


# (workload, span names whose shares add up, least share of the wall time)
STRUCTURE = (
    ("train", ("network.td_loss_and_grads", "network.adam_update"), 0.70),
    ("sweep", ("agent.train_agent",), 0.90),
)


def structure_report(workload: str, shares: dict[str, float]) -> list[str]:
    """Whether the per-update step dominates ``train`` and training ``sweep``."""
    lines = []
    for name, parts, least in STRUCTURE:
        if name == workload:
            share = sum(shares.get(p, 0.0) for p in parts)
            verdict = "holds" if share >= least else "DOES NOT HOLD"
            lines.append(f"{' + '.join(parts)} take {share:.1%} of wall time (>= {least:.0%}): {verdict}")
    return lines


def check_counts(metrics: dict[str, float], commits: int, td_updates: int, exact: bool) -> list[str]:
    """Mismatches between traced call counts and the counts the workload implies.

    ``exact`` demands equality; otherwise (the sweep, where training several
    agents in lockstep may legitimately merge calls) the traced counts may
    only be lower. A workload that implies no updates must make no TD or
    Adam calls at all.
    """
    errors = []
    for metric, expected in (
        ("environment.step.calls", commits),
        ("network.td_loss_and_grads.calls", td_updates),
    ):
        got = metrics[metric]
        if got != expected if exact else got > expected:
            errors.append(f"{metric} is {got}, the workload implies {expected}")
    if td_updates == 0 and metrics["network.adam_update.calls"] != 0:
        errors.append(f"network.adam_update.calls is {metrics['network.adam_update.calls']}, expected 0")
    return errors
