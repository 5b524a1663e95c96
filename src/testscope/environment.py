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

Features 1-5 depend on the commit alone, so :class:`PipelineEnv` encodes
them for the whole trace in one pass when it is built; each step copies the
next commit's row and writes features 6-10 from the history.
:func:`encode_state` composes the same two helpers for one commit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .commits import Commit
from .config import EnvConfig, StateConfig

__all__ = [
    "Action",
    "N_ACTIONS",
    "STATE_DIM",
    "StepOutcome",
    "PipelineHistory",
    "encode_state",
    "sample_detection",
    "compute_reward",
    "PipelineEnv",
]


class Action(IntEnum):
    """Test scope choices, ordered from most to least thorough."""

    FULL_TESTS = 0
    PARTIAL_TESTS = 1
    SKIP_TESTS = 2


N_ACTIONS = 3
STATE_DIM = 10


@dataclass
class StepOutcome:
    """What one commit cost and whether its bug (if any) got away."""

    test_minutes: float
    detected: bool
    escaped: bool
    pipeline_minutes: float
    reward: float


def compute_reward(test_minutes: float, escaped: bool, escape_penalty: float) -> float:
    """Per-step reward: time spent testing plus a flat penalty per escaped bug."""
    if escape_penalty < 0:
        raise ValueError(f"escape_penalty must be >= 0, got {escape_penalty}")
    if test_minutes < 0:
        raise ValueError(f"test_minutes must be >= 0, got {test_minutes}")
    return -test_minutes - (escape_penalty if escaped else 0.0)


def sample_detection(
    action: Action, has_bug: bool, rng: np.random.Generator, cfg: EnvConfig
) -> bool:
    """Whether the chosen test scope catches the commit's bug.

    Clean commits never fail tests (no false positives). Buggy commits are
    caught with the per-action detection rate; rates of exactly 1.0 and 0.0
    detect always and never.
    """
    if not has_bug:
        return False
    return rng.random() < cfg.detection_rates[action]


class PipelineHistory:
    """Rolling record of recent step outcomes backing state features 6-10."""

    def __init__(self, cfg: StateConfig):
        self._cfg = cfg
        self._recent: deque[bool] = deque(maxlen=cfg.history_window)  # tests failed?
        self._failures = 0  # sum(self._recent), kept as the window moves
        self.prev_failed = False
        self.since_full_tests = 0
        self.prev_diff_size = 0

    def update(self, action: Action, detected: bool, commit: Commit) -> None:
        """Record one processed commit. ``detected`` implies its tests failed."""
        recent = self._recent
        if recent and len(recent) == recent.maxlen:
            self._failures -= recent[0]
        recent.append(detected)
        self._failures += detected
        self.prev_failed = detected
        self.since_full_tests = 0 if action == Action.FULL_TESTS else self.since_full_tests + 1
        self.prev_diff_size = commit.diff_size

    @property
    def failure_fraction(self) -> float:
        """Fraction of the recent window whose tests failed (0 when empty)."""
        if not self._recent:
            return 0.0
        return self._failures / len(self._recent)

    @property
    def caught_fraction(self) -> float:
        """Fraction of the recent window with a caught bug.

        Equal to :attr:`failure_fraction` while tests never fail on clean
        commits; kept separate so the encoding stays correct if a flaky
        failure mode is ever added.
        """
        return self.failure_fraction


def _commit_rows(commits: list[Commit], cfg: StateConfig) -> np.ndarray:
    """States of ``commits`` with features 1-5 encoded and 6-10 left at 0."""
    fields = [
        (c.diff_size, c.files_changed, c.source_fraction, c.developer_defect_rate,
         c.developer_experience)
        for c in commits
    ]
    raw = np.array(fields, dtype=np.float64)
    raw[:, 0] = np.minimum(raw[:, 0], cfg.diff_cap) / cfg.diff_cap
    raw[:, 1] = np.minimum(raw[:, 1], cfg.files_cap) / cfg.files_cap
    rows = np.zeros((len(commits), STATE_DIM))
    rows[:, :5] = np.clip(raw, 0.0, 1.0)
    return rows


def _write_history(state: np.ndarray, history: PipelineHistory, cfg: StateConfig) -> None:
    """Write features 6-10 of ``state`` from ``history``.

    Each lands in [0, 1] without a clip: the window fractions and the gap are
    bounded by construction, and a negative diff size clamps to 0.
    """
    state[5:] = (
        history.failure_fraction,
        1.0 if history.prev_failed else 0.0,
        min(history.since_full_tests, cfg.full_test_gap_cap) / cfg.full_test_gap_cap,
        history.caught_fraction,
        max(min(history.prev_diff_size, cfg.diff_cap), 0) / cfg.diff_cap,
    )


def encode_state(commit: Commit, history: PipelineHistory, cfg: StateConfig) -> np.ndarray:
    """Encode a commit plus pipeline history into the 10-feature state vector.

    Pure in its inputs and independent of ``has_bug``/``risk_score``.
    """
    state = _commit_rows([commit], cfg)[0]
    _write_history(state, history, cfg)
    return state


class PipelineEnv:
    """Steps a fixed commit trace through the simulated pipeline.

    Stateful and single-threaded; independent instances never share state.
    ``reset`` restores the cursor, the history, and the detection RNG, so a
    reset environment replays identically under the same action sequence.
    """

    def __init__(self, trace: list[Commit], cfg: EnvConfig, seed: int = 0):
        if not trace:
            raise ValueError("trace must contain at least one commit")
        self._trace = trace
        self._cfg = cfg
        self._seed = seed
        self._rows = _commit_rows(trace, cfg.state)
        self._rng = np.random.default_rng(seed)
        self._cursor = 0
        self._history = PipelineHistory(cfg.state)
        self._done = False
        self.reset()

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cfg(self) -> EnvConfig:
        return self._cfg

    def reset(self) -> np.ndarray:
        """Rewind to the first commit and return its state."""
        self._rng = np.random.default_rng(self._seed)
        self._cursor = 0
        self._history = PipelineHistory(self._cfg.state)
        self._done = False
        return self._state()

    def _state(self) -> np.ndarray:
        # a fresh array: callers keep states across steps
        state = self._rows[self._cursor].copy()
        _write_history(state, self._history, self._cfg.state)
        return state

    def step(self, action: Action, escape_penalty: float) -> tuple[StepOutcome, np.ndarray, bool]:
        """Process the current commit with the chosen test scope.

        Returns the step outcome, the next state (zeros once the trace is
        exhausted), and the done flag. Stepping a finished episode raises.
        """
        if self._done:
            raise RuntimeError("episode is done; call reset() first")
        if not isinstance(action, Action):
            action = Action(action)
        cfg = self._cfg
        commit = self._trace[self._cursor]

        test_minutes = cfg.test_minutes[action]
        detected = sample_detection(action, commit.has_bug, self._rng, cfg)
        escaped = commit.has_bug and not detected

        pipeline_minutes = cfg.build_minutes + test_minutes
        if not detected:
            # only commits that pass testing reach deployment
            pipeline_minutes += cfg.deploy_minutes
            if escaped:
                pipeline_minutes += cfg.escape_delay_minutes

        reward = compute_reward(test_minutes, escaped, escape_penalty)
        self._history.update(action, detected, commit)
        self._cursor += 1
        self._done = self._cursor >= len(self._trace)

        next_state = np.zeros(STATE_DIM, dtype=np.float64) if self._done else self._state()

        outcome = StepOutcome(
            test_minutes=test_minutes,
            detected=detected,
            escaped=escaped,
            pipeline_minutes=pipeline_minutes,
            reward=reward,
        )
        return outcome, next_state, self._done
