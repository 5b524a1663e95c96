"""Traces built from commit records, for tests that make or edit commits one
by one, the state an env shows after a step, an episode's step table read
from its outcome codes, and its stats folded from that table."""

from dataclasses import fields
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from testscope.commits import Commit, Trace, generate_trace, trace_records
from testscope.config import EnvConfig
from testscope.environment import Action, EpisodeStats, PipelineEnv


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


class StepTable(NamedTuple):
    """An episode's outcomes: entry t of every column belongs to the t-th step.

    A commit had a bug exactly when it was detected or escaped, never both.
    The reward is ``-test_minutes - escape_penalty * escaped``.
    """

    action: tuple[int, ...]
    detected: tuple[bool, ...]
    escaped: tuple[bool, ...]
    test_minutes: tuple[float, ...]
    pipeline_minutes: tuple[float, ...]
    reward: tuple[float, ...]


EMPTY_TABLE = StepTable((), (), (), (), (), ())


def step_table(env: PipelineEnv) -> StepTable:
    """The step table of ``env``'s episode so far, read step by step from its
    outcome codes, ``3 * action + kind`` (kind 0 clean, 1 caught, 2
    escaped), and the price the env put on each code."""
    codes = env.codes
    prices = tuple(zip(*(env._prices[code] for code in codes))) or ((), (), ())
    return StepTable(
        tuple(code // 3 for code in codes),
        tuple(code % 3 == 1 for code in codes),
        tuple(code % 3 == 2 for code in codes),
        *prices,
    )


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
