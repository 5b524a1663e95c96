"""Traces built from commit records, for tests that make or edit commits one
by one, the state an env shows after a step, and an episode's stats folded
from its step table."""

from dataclasses import fields
from functools import reduce
from operator import add

import numpy as np

from testscope.commits import Commit, Trace, generate_trace, trace_records
from testscope.config import EnvConfig
from testscope.environment import Action, PipelineEnv, StepTable
from testscope.evaluation import EpisodeStats


def as_trace(commits) -> Trace:
    """The trace whose i-th commit has the fields of ``commits[i]`` (records
    or any objects with the trace's fields); ids and risk scores are dropped."""
    return Trace(*(np.array([getattr(c, f.name) for c in commits]) for f in fields(Trace)))


def records(cfg: EnvConfig, n: int, seed: int, mode: str | None = None) -> list[Commit]:
    """The records of ``generate_trace(cfg, n, seed, mode)``, risk scores included."""
    return trace_records(generate_trace(cfg, n, seed, mode), cfg)


def next_state(env: PipelineEnv, action) -> np.ndarray:
    """Step ``env`` under ``action``, then read the state it moved to."""
    env.step(action)
    return env.state


def folded_stats(table: StepTable) -> EpisodeStats:
    """One episode's stats as a left fold over its step table: each total
    added in step order from 0.0, each count counted."""
    caught, escaped = table.detected.count(True), table.escaped.count(True)
    return EpisodeStats(
        commits=len(table.action),
        total_pipeline_minutes=reduce(add, table.pipeline_minutes, 0.0),
        total_test_minutes=reduce(add, table.test_minutes, 0.0),
        bugs_introduced=caught + escaped,
        bugs_caught=caught,
        bugs_escaped=escaped,
        action_counts=tuple(table.action.count(a) for a in Action),
        total_reward=reduce(add, table.reward, 0.0),
    )
