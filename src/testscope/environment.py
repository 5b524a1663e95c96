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
encodes them for both from the same raw columns (:meth:`Trace.metadata`),
so the state and the classifier clip them alike.

Features 1-5 and 10 depend on the trace alone, so :class:`PipelineEnv`
encodes them for the whole trace in one pass when it is built. The
baselines never read that encoding: they plan an episode's actions from the
trace's raw columns. The episode history behind features 6-9 is the env's
own state: running failure counts and the commits since the last
full-suite run, which a reset clears and each step updates. A step records
its outcome and updates the history; it encodes nothing. Reading
:attr:`PipelineEnv.state` copies the current commit's row and writes its
features 6-9 with :func:`encode_state`, so an episode whose states no one
reads (a planned baseline's) never runs the encoder.
The detection draws depend on the trace and the seed alone too, so they are
drawn when the env is built, and :meth:`PipelineEnv.replicas` shares rows
and draws among environments that play the same trace, each with its own
escape penalty.

An env is priced once, when it is built: each action gets a clean, a caught
and an escaped :class:`StepTable` row. A step picks one by the commit's draw,
records it in the episode's table and returns ``(reward, done)``.
"""

from __future__ import annotations

import copy
from enum import IntEnum
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .commits import Trace
from .config import EnvConfig, StateConfig, validate_penalties

__all__ = [
    "Action",
    "N_ACTIONS",
    "STATE_DIM",
    "StepTable",
    "metadata_features",
    "encode_state",
    "PipelineEnv",
    "step_envs",
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


def metadata_features(raw: np.ndarray, cfg: StateConfig) -> np.ndarray:
    """Features 1-5 of each row of ``raw``, an ``(n, 5)`` array of diff size,
    files changed, source fraction, defect rate and experience: diff size and
    files changed capped and scaled, then every feature clipped to [0, 1]."""
    features = np.array(raw, dtype=np.float64)
    features[:, 0] = np.minimum(features[:, 0], cfg.diff_cap) / cfg.diff_cap
    features[:, 1] = np.minimum(features[:, 1], cfg.files_cap) / cfg.files_cap
    return np.clip(features, 0.0, 1.0, out=features)


def encode_state(
    state: np.ndarray, t: int, fails: list[int], since_full_tests: int, cfg: StateConfig
) -> None:
    """Write features 6-9 of ``state``, the state of commit ``t >= 1``, from
    the history: ``fails[k]`` failed commits among the first k,
    ``since_full_tests`` commits since the last full-suite run. The features
    need no clip: the window fractions and the gap are bounded by construction.
    Reading :attr:`PipelineEnv.state` calls it through this module-level
    name, under which the benchmark probes it.
    """
    # fraction of the last min(t, window) commits whose tests failed
    window = cfg.history_window
    if t >= window:
        failed = (fails[t] - fails[t - window]) / window
    else:
        failed = fails[t] / t
    state[5] = failed
    state[6] = fails[t] - fails[t - 1]  # an int 0 or 1 writes the bits of 0.0 or 1.0
    cap = cfg.full_test_gap_cap
    state[7] = (since_full_tests if since_full_tests < cap else cap) / cap  # no min() call
    state[8] = failed


class PipelineEnv:
    """Steps a fixed commit trace through the simulated pipeline.

    Stateful and single-threaded. The encoded rows, the step rows (priced
    with an escape penalty that :func:`validate_penalties` checks) and the
    detection draws are fixed when the env is built: the k-th buggy commit is
    caught when the k-th number of ``default_rng(seed).random(n_buggy)`` is
    below the action's detection rate. ``reset`` restores the cursor and the
    history and replays the same draws, so a reset environment replays
    identically under the same action sequence. Each read of ``state``
    returns a new array, the same bits on every read while the cursor stays
    on a commit, so callers may keep and change them.
    """

    def __init__(self, trace: Trace, cfg: EnvConfig, escape_penalty: float, seed: int = 0):
        if not trace:
            raise ValueError("trace must contain at least one commit")
        if min(cfg.test_minutes) < 0:
            raise ValueError(f"test_minutes must be >= 0, got {cfg.test_minutes}")
        self._n = len(trace)
        self._cfg = cfg
        # one row per commit, then the all-zero state that ends the episode;
        # features 6-9 stay 0 here, a read of ``state`` writes them in its copy
        rows = np.zeros((self._n + 1, STATE_DIM))
        rows[:-1, :5] = metadata_features(trace.metadata(), cfg.state)
        rows[1:-1, 9] = rows[:-2, 0]  # feature 10 is the previous commit's feature 1
        self._rows = rows
        # the k-th buggy commit gets the k-th draw; clean commits draw none
        has_bug = trace.has_bug.tolist()
        draws = iter(np.random.default_rng(seed).random(sum(has_bug)).tolist())
        self._draws = [next(draws) if bug else None for bug in has_bug]
        self._rates = tuple(cfg.detection_rates)
        self._price(escape_penalty)
        self.reset()

    def _price(self, escape_penalty: float) -> None:
        """Check the penalty and build each action's clean, caught and escaped step rows."""
        (escape_penalty,) = validate_penalties((escape_penalty,))
        cfg = self._cfg
        self._step_rows = []
        for action, minutes in zip(Action, cfg.test_minutes):
            cost = -minutes - 0.0  # a float, also for int minutes
            caught = cfg.build_minutes + minutes
            passed = caught + cfg.deploy_minutes  # only commits that pass testing deploy
            escaped = passed + cfg.escape_delay_minutes
            self._step_rows.append((
                (action, False, False, minutes, passed, cost),
                (action, True, False, minutes, caught, cost),
                (action, False, True, minutes, escaped, cost - escape_penalty),
            ))

    def replicas(self, penalties: list[float]) -> list["PipelineEnv"]:
        """One reset environment per escape penalty, over this one's trace,
        config and seed.

        They share the encoded rows and the detection draws; each has its own
        step rows, cursor, history and step table.
        """
        envs = [copy.copy(self) for _ in penalties]
        for env, penalty in zip(envs, penalties):
            env._price(penalty)
            env.reset()
        return envs

    def reset(self) -> np.ndarray:
        """Rewind to the first commit and return its state."""
        self._cursor = 0
        self._fails = [0]  # fails[t]: commits among the first t whose tests failed
        self._since_full_tests = 0
        self._steps: list[tuple] = []
        return self.state

    @property
    def state(self) -> np.ndarray:
        """A new array holding the current commit's state, all zeros once the
        episode is done; its features 6-9 are encoded from the history."""
        t = self._cursor
        state = self._rows[t].copy()
        if 0 < t < self._n:
            encode_state(state, t, self._fails, self._since_full_tests, self._cfg.state)
        return state

    @property
    def table(self) -> StepTable:
        """The episode's steps so far, one entry per stepped commit in each column."""
        return StepTable(*(tuple(zip(*self._steps)) or ((),) * len(StepTable._fields)))

    def step(self, action: Action) -> tuple[float, bool]:
        """Process the current commit with the chosen test scope.

        Records the step in ``table``, updates the history and returns the
        reward and the done flag; ``state`` then reads the next commit's
        state (zeros once the trace is exhausted). Stepping a finished
        episode, or an action that is not an integer in 0..2, raises before
        anything changes.
        """
        t = self._cursor
        if t == self._n:
            raise RuntimeError("episode is done; call reset() first")
        if action not in (0, 1, 2):
            action = Action(action)
        try:
            clean, caught, escaped = self._step_rows[action]
        except TypeError:  # a float equal to 0, 1 or 2 passes the guard above
            raise ValueError(f"action must be an integer in 0..2, got {action!r}") from None
        # clean commits never fail tests; a buggy one is caught at the
        # action's rate (a rate of 1.0 always, 0.0 never)
        draw = self._draws[t]
        row = clean if draw is None else caught if draw < self._rates[action] else escaped
        self._steps.append(row)
        fails = self._fails
        fails.append(fails[t] + row[1])  # row[1]: detected
        self._since_full_tests = 0 if action == _FULL_TESTS else self._since_full_tests + 1
        self._cursor = t = t + 1
        return row[5], t == self._n


def step_envs(envs: list[PipelineEnv], actions) -> tuple[list[float], bool]:
    """Step each env by its action, in order; returns their rewards and the
    done flag. The envs play traces of one length, so they finish together.
    Callers read the next states they need. Training steps its agents' envs
    with it, and evaluation each policy's envs, one per run. A count of
    actions other than one per env raises :class:`ValueError` before any
    env is stepped.
    """
    if len(actions) != len(envs):
        raise ValueError(f"got {len(actions)} actions for {len(envs)} environments")
    rewards = []
    for env, action in zip(envs, actions):
        reward, done = env.step(action)
        rewards.append(reward)
    return rewards, done
