"""Span tracing from outside the package, and the arithmetic on spans.

The traced run rebinds the module-level names through which the testscope
modules call each other (``testscope.agent.td_loss_and_grads``,
``PipelineEnv.step``, ...) to thin wrappers that record one span per call:
name, start, end, parent span and job repetition. Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

# Span name -> the "module:attribute" bindings the wrapper replaces. A name
# is rebound where its callers look it up, so e.g. only the agent's
# ``mlp_forward`` (the single-state policy forward via ``greedy_action``) is
# wrapped, not the target-network forward inside ``td_loss_and_grads``.
PROBES: dict[str, tuple[str, ...]] = {
    "commits.generate_trace": (
        "testscope.agent:generate_trace",
        "testscope.baselines:generate_trace",
        "testscope.evaluation:generate_trace",
        "testscope.cli:generate_trace",
    ),
    "commits.observe": ("testscope.evaluation:observe",),
    "environment.step": ("testscope.environment:PipelineEnv.step",),
    "environment.encode_state": ("testscope.environment:encode_state",),
    "network.td_loss_and_grads": ("testscope.agent:td_loss_and_grads",),
    "network.adam_update": ("testscope.agent:adam_update",),
    "network.mlp_forward": ("testscope.agent:mlp_forward",),
    "network.clone": ("testscope.network:QNetwork.clone",),
    "agent.train_agent": (
        "testscope.agent:train_agent",
        "testscope.evaluation:train_agent",
        "testscope.cli:train_agent",
    ),
    "agent.select_action": ("testscope.agent:select_action",),
    "agent.push": ("testscope.agent:ReplayBuffer.push",),
    "agent.sample_batch": ("testscope.agent:ReplayBuffer.sample_batch",),
    "baselines.train_classifier": ("testscope.baselines:train_classifier",),
    "baselines.predict_risk": ("testscope.baselines:predict_risk",),
    "evaluation.run_episode": ("testscope.evaluation:run_episode",),
    "evaluation.compare_policies": (
        "testscope.evaluation:compare_policies",
        "testscope.cli:compare_policies",
    ),
    "evaluation.adversarial_eval": ("testscope.evaluation:adversarial_eval",),
    "evaluation.penalty_sweep": (
        "testscope.evaluation:penalty_sweep",
        "testscope.cli:penalty_sweep",
    ),
    "persist.save_policy": ("testscope.persist:save_policy", "testscope.cli:save_policy"),
    "persist.load_policy": ("testscope.persist:load_policy", "testscope.cli:load_policy"),
    "cli.run_command": ("testscope.cli:run_command",),
    "config.load_config": ("testscope.cli:load_config",),
    "fileio.atomic_write": (
        "testscope.commits:atomic_write",
        "testscope.persist:atomic_write",
        "testscope.cli:atomic_write",
    ),
}

SETUP_REP = 0  # repetition id of spans recorded while the workload sets up


class Span(NamedTuple):
    name: str
    rep: int
    parent: int  # index of the enclosing span, -1 at top level
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


Observer = Callable[[tuple, dict, object], None]


@dataclass
class Tracer:
    """Records spans in memory while installed; ``rep`` tags each new span."""

    spans: list = field(default_factory=list)
    rep: int = SETUP_REP
    observers: dict[str, Observer] = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, self.rep, parent, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, probes: dict[str, tuple[str, ...]] = PROBES) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, bindings in probes.items():
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(binding: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (the module or class holding it, ``"attr"``)."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{binding} does not exist")
    return owner, attr


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover, in seconds.

    Children of one span run one after another on a single thread, so the
    covered time is the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    return [(s.end_ns - s.start_ns - c) * 1e-9 for s, c in zip(spans, child_ns)]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list[float], q: float, beyond: int = 10) -> float:
    """The ``q``-th percentile, lowered until ``beyond`` samples lie above it.

    With fewer than ``100 * beyond / (100 - q)`` samples the true tail is not
    resolved, so this reports the largest sample that still has ``beyond``
    samples above it; with ``beyond`` or fewer samples it reports 0.
    """
    if len(samples) <= beyond:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered) - beyond) - 1]


def td_step_flops(layer_sizes: tuple[int, ...], batch: int) -> int:
    """Matmul FLOPs of one ``td_loss_and_grads`` call (2 per multiply-add).

    Online forward, target forward and the weight gradients each cost
    ``2 * batch * S`` where ``S`` sums ``d_in * d_out`` over the layers; the
    input gradients cost the same without the first layer, which needs none.
    Elementwise work (ReLU, biases, the loss) is left out.
    """
    pairs = [a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:])]
    total = sum(pairs)
    return 2 * batch * (4 * total - pairs[0])
