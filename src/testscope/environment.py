"""Pipeline decision process.

Each step consumes one commit: the policy picks a test scope, the simulator
draws whether the tests catch a latent bug, and the pipeline pays build, test,
and deploy time. A detected bug rejects the commit before deployment (no
deploy time, no escape). An undetected bug ships and costs an extra escape
delay on top of deployment.

The per-step reward is ``-test_minutes - escape_penalty * escaped``: testing
costs time up front, shipping a bug costs a configurable penalty.

The agent observes a 10-dimensional state in [0, 1]:

====  ======================================================================
 #    feature
====  ======================================================================
 1    diff size, capped and scaled
 2    files changed, capped and scaled
 3    source-file fraction of the change
 4    author's historical defect rate
 5    author's experience level
 6    fraction of recent commits whose tests failed
 7    whether the previous commit's tests failed
 8    commits since the last full-suite run, capped and scaled
 9    fraction of recent commits with a caught bug
 10   previous commit's diff size, capped and scaled
====  ======================================================================

Features 6-10 default to 0 at the start of an episode. Features 6 and 9 are
always equal: tests fail only on a caught bug (clean commits never fail),
so they carry one signal, kept twice to match the paper's 10-feature
state. The latent bug flag never enters the state.

Features 1-5 are also the risk classifier's features: :func:`metadata_features`
encodes them for both, so the state and the classifier clip them alike.

Features 1-5 and 10 depend on the trace alone, so :class:`PipelineEnv`
encodes them for the whole trace in one pass when it is built. A reset copies
those rows into a new state array, and each step writes features 6-9 of the
next commit's row from the history and returns that row. :func:`encode_state`
composes the same helpers for one commit. The detection draws depend on the
trace and the seed alone too, so they are drawn when the env is built, and
:meth:`PipelineEnv.replicas` shares rows and draws among environments that
play the same trace.

A step returns ``(reward, next_state, done)`` and records the commit in the
episode's :class:`StepTable`, one row per commit: action, detected, escaped,
test minutes, pipeline minutes and reward.
"""

from __future__ import annotations

import copy
from enum import IntEnum
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .commits import Commit, ObservedCommit
from .config import EnvConfig, StateConfig

__all__ = [
    "Action",
    "N_ACTIONS",
    "STATE_DIM",
    "StepTable",
    "PipelineHistory",
    "metadata_features",
    "encode_state",
    "PipelineEnv",
]


class Action(IntEnum):
    """Test scope choices, ordered from most to least thorough."""

    FULL_TESTS = 0
    PARTIAL_TESTS = 1
    SKIP_TESTS = 2


N_ACTIONS = 3
STATE_DIM = 10
_FULL_TESTS = Action.FULL_TESTS  # a module global reads faster than an enum member


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

    def total(self, column: str) -> float:
        """Sum of a float column, added in step order from 0.0 (``np.sum`` adds
        pairwise and ``sum`` compensates on Python 3.12+)."""
        return reduce(add, getattr(self, column), 0.0)

    def action_counts(self) -> tuple[int, int, int]:
        """Steps per action, indexed by action."""
        count = self.action.count
        return (count(0), count(1), count(2))


class PipelineHistory:
    """Record of the episode's step outcomes backing state features 6-10."""

    __slots__ = ("window", "fails", "prev_failed", "since_full_tests", "prev_diff_size")

    def __init__(self, cfg: StateConfig):
        self.window = cfg.history_window
        self.fails = [0]  # fails[t]: commits among the first t whose tests failed
        self.prev_failed = False
        self.since_full_tests = 0
        self.prev_diff_size = 0

    def update(self, action: Action, detected: bool, commit: Commit) -> None:
        """Record one processed commit. ``detected`` implies its tests failed."""
        fails = self.fails
        fails.append(fails[-1] + detected)
        self.prev_failed = detected
        self.since_full_tests = 0 if action == _FULL_TESTS else self.since_full_tests + 1
        self.prev_diff_size = commit.diff_size


def metadata_features(commit: Commit | ObservedCommit, cfg: StateConfig) -> tuple[float, ...]:
    """Features 1-5 of ``commit``'s state: diff size and files changed capped and
    scaled, then every feature clipped to [0, 1] with the bits of ``np.clip``."""
    d, f, diff_cap, files_cap = commit.diff_size, commit.files_changed, cfg.diff_cap, cfg.files_cap
    d = (diff_cap if d > diff_cap else d) / diff_cap
    f = (files_cap if f > files_cap else f) / files_cap
    s, r, e = commit.source_fraction, commit.developer_defect_rate, commit.developer_experience
    return (  # conditional expressions: min() and max() cost a call each
        0.0 if d < 0.0 else 1.0 if d > 1.0 else d,
        0.0 if f < 0.0 else 1.0 if f > 1.0 else f,
        0.0 if s < 0.0 else 1.0 if s > 1.0 else s,
        0.0 if r < 0.0 else 1.0 if r > 1.0 else r,
        0.0 if e < 0.0 else 1.0 if e > 1.0 else e,
    )


def _commit_rows(commits: list[Commit], cfg: StateConfig) -> np.ndarray:
    """States of ``commits`` with features 1-5 encoded and 6-10 left at 0."""
    rows = np.zeros((len(commits), STATE_DIM))
    rows[:, :5] = [metadata_features(c, cfg) for c in commits]
    return rows


def _write_history(cells: memoryview, at: int, history: PipelineHistory, cfg: StateConfig) -> None:
    """Write features 6-9 of the state that starts at ``cells[at]`` from ``history``.

    ``cells`` is a flat float64 memoryview, which takes one float at a time
    faster than an array does. Each feature lands in [0, 1] without a clip:
    the window fractions and the gap are bounded by construction.
    """
    # fraction of the last min(t, window) commits whose tests failed (0 at t = 0)
    fails = history.fails
    t = len(fails) - 1
    window = history.window
    if t >= window:
        failed = (fails[t] - fails[t - window]) / window
    else:
        failed = fails[t] / t if t else 0.0
    cells[at + 5] = failed
    cells[at + 6] = 1.0 if history.prev_failed else 0.0
    cap = cfg.full_test_gap_cap
    since = history.since_full_tests
    cells[at + 7] = (since if since < cap else cap) / cap  # min() costs a call
    cells[at + 8] = failed


def encode_state(commit: Commit, history: PipelineHistory, cfg: StateConfig) -> np.ndarray:
    """Encode a commit plus pipeline history into the 10-feature state vector.

    Pure in its inputs and independent of ``has_bug``/``risk_score``.
    """
    state = _commit_rows([commit], cfg)[0]
    _write_history(memoryview(state), 0, history, cfg)
    state[9] = max(min(history.prev_diff_size, cfg.diff_cap), 0) / cfg.diff_cap
    return state


class PipelineEnv:
    """Steps a fixed commit trace through the simulated pipeline.

    Stateful and single-threaded. The encoded rows and the detection draws
    are fixed when the env is built: the k-th buggy commit of the trace is
    caught when the k-th number of ``default_rng(seed).random(n_buggy)`` is
    below the action's detection rate. ``reset`` restores the cursor and the
    history and replays the same draws, so a reset environment replays
    identically under the same action sequence. The states a step returns
    are rows of one array per episode: each is written once, before it is
    returned, and a reset allocates a new array, so callers may keep them.
    """

    def __init__(self, trace: list[Commit], cfg: EnvConfig, seed: int = 0):
        if not trace:
            raise ValueError("trace must contain at least one commit")
        if min(cfg.test_minutes) < 0:
            raise ValueError(f"test_minutes must be >= 0, got {cfg.test_minutes}")
        self._trace = trace
        self._cfg = cfg
        rows = _commit_rows(trace, cfg.state)
        rows[1:, 9] = rows[:-1, 0]  # feature 10 is the previous commit's feature 1
        # one row per commit, then the all-zero state that ends the episode
        self._rows = np.vstack([rows, np.zeros(STATE_DIM)])
        # the k-th buggy commit gets the k-th draw; clean commits draw none
        draws = iter(np.random.default_rng(seed).random(sum(c.has_bug for c in trace)).tolist())
        self._draws = [next(draws) if c.has_bug else None for c in trace]
        # per action: test minutes, their cost as a reward, detection rates,
        # and pipeline minutes when a bug is caught, the commit passes, or a
        # bug escapes (only commits that pass testing reach deployment)
        self._test_minutes = tuple(cfg.test_minutes)
        self._costs = tuple(-m - 0.0 for m in cfg.test_minutes)  # floats, also for int minutes
        self._rates = tuple(cfg.detection_rates)
        self._caught_minutes = tuple(cfg.build_minutes + m for m in cfg.test_minutes)
        self._passed_minutes = tuple(m + cfg.deploy_minutes for m in self._caught_minutes)
        self._escaped_minutes = tuple(m + cfg.escape_delay_minutes for m in self._passed_minutes)
        self.reset()

    def replicas(self, k: int) -> list["PipelineEnv"]:
        """``k`` reset environments over this one's trace, config and seed.

        They share the encoded rows and the detection draws; each has its own
        cursor, history, step table and state array.
        """
        envs = [copy.copy(self) for _ in range(k)]
        for env in envs:
            env.reset()
        return envs

    def reset(self) -> np.ndarray:
        """Rewind to the first commit and return its state."""
        self._cursor = 0
        self._history = PipelineHistory(self._cfg.state)
        self._states = self._rows.copy()
        self._cells = memoryview(self._states.reshape(-1))
        self._steps: list[tuple] = []
        return self._states[0]

    @property
    def state(self) -> np.ndarray:
        """The current commit's state, all zeros once the episode is done."""
        return self._states[self._cursor]

    @property
    def table(self) -> StepTable:
        """The episode's steps so far, one entry per stepped commit in each column."""
        return StepTable(*(tuple(zip(*self._steps)) or ((),) * len(StepTable._fields)))

    def step(self, action: Action, escape_penalty: float) -> tuple[float, np.ndarray, bool]:
        """Process the current commit with the chosen test scope.

        Returns the reward, the next state (zeros once the trace is
        exhausted), and the done flag, and records the step in ``table``.
        Stepping a finished episode raises.
        """
        t = self._cursor
        trace = self._trace
        if t == len(trace):
            raise RuntimeError("episode is done; call reset() first")
        if action not in (0, 1, 2):
            action = Action(action)
        if escape_penalty < 0:
            raise ValueError(f"escape_penalty must be >= 0, got {escape_penalty}")
        # clean commits never fail tests; a buggy one is caught at the
        # action's rate (a rate of 1.0 always, 0.0 never)
        draw = self._draws[t]
        if draw is None:
            detected = escaped = False
            pipeline_minutes = self._passed_minutes[action]
            reward = self._costs[action]
        elif draw < self._rates[action]:
            detected, escaped = True, False
            pipeline_minutes = self._caught_minutes[action]
            reward = self._costs[action]
        else:
            detected, escaped = False, True
            pipeline_minutes = self._escaped_minutes[action]
            reward = self._costs[action] - escape_penalty

        self._steps.append(
            (action, detected, escaped, self._test_minutes[action], pipeline_minutes, reward)
        )
        history = self._history
        history.update(action, detected, trace[t])
        self._cursor = t = t + 1
        done = t == len(trace)
        if not done:
            _write_history(self._cells, t * STATE_DIM, history, self._cfg.state)
        return reward, self._states[t], done
