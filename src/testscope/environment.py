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

Features 1-5 and 10 depend on the trace alone, so :func:`encode_rows`
encodes them for a whole trace, or a ``(B, T, 5)`` stack of traces, in one
pass. The baselines never read them: they plan an episode's actions from
the trace's raw columns, so an episode that only a planner plays encodes no
row.

The detection draws depend on the trace and the seed alone too, so each
commit's outcome under each action is fixed when the env is built, and
:meth:`PipelineEnv.replicas` shares the draws among environments that play
the same trace, each with its own escape penalty (and the prices too where
that penalty is the source's). A step records only the outcome's code,
``3 * action + kind`` (kind 0 clean, 1 caught, 2 escaped), and returns
``(reward, done)`` with the reward of that code. An env is priced once,
when it is built: each code gets its test minutes, pipeline minutes and
reward. The code itself holds the rest: the action is ``code // 3``, and
the commit was caught when ``code % 3 == 1`` and escaped when
``code % 3 == 2``. The codes are all an env keeps of its episode.

:func:`lockstep_states` is the one way to read states, in training and in
evaluation alike. B envs play B traces of one length in lockstep, one step
each per commit index; the reader keeps the episode history behind
features 6-9 (running failure counts and the commits since the last
full-suite run, capped at ``full_test_gap_cap``), updates it from each
env's last code, and yields each commit index's ``(B, 10)`` states, with
features 6-9 written by one :func:`encode_state` call. One run keeps its
history as Python ints, B runs as arrays; both give each run the same bits.

:func:`episode_stats` totals B envs' episodes, in training and in
evaluation alike, from one ``(B, T)`` array of their codes and their prices.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .commits import Trace
from .config import EnvConfig, StateConfig, validate_penalties

__all__ = [
    "Action",
    "N_ACTIONS",
    "STATE_DIM",
    "metadata_features",
    "encode_rows",
    "encode_state",
    "PipelineEnv",
    "step_envs",
    "lockstep_states",
    "EpisodeStats",
    "code_array",
    "episode_stats",
]


class Action(IntEnum):
    """Test scope choices, ordered from most to least thorough."""

    FULL_TESTS = 0
    PARTIAL_TESTS = 1
    SKIP_TESTS = 2


N_ACTIONS = 3
STATE_DIM = 10
_CLEAN = (0, 3, 6)  # each action's code for a clean commit
_FAILED = (0, 1, 0) * 3  # per code, 1 where the tests failed (kind 1, a caught bug)


def metadata_features(raw: np.ndarray, cfg: StateConfig) -> np.ndarray:
    """Features 1-5 of each row of ``raw``, an ``(..., 5)`` array of diff size,
    files changed, source fraction, defect rate and experience: diff size and
    files changed capped and scaled, then every feature clipped to [0, 1]."""
    features = np.array(raw, dtype=np.float64)
    features[..., 0] = np.minimum(features[..., 0], cfg.diff_cap) / cfg.diff_cap
    features[..., 1] = np.minimum(features[..., 1], cfg.files_cap) / cfg.files_cap
    return np.clip(features, 0.0, 1.0, out=features)


def encode_rows(metadata: np.ndarray, cfg: StateConfig) -> np.ndarray:
    """The ``(..., T + 1, 10)`` state rows of a ``(..., T, 5)`` stack of
    traces' raw columns (:meth:`Trace.metadata` per trace): features 1-5 and
    10 of each commit, then the all-zero state that ends the episode.
    Features 6-9 stay 0 here; a state read writes them in its copy."""
    *lead, n, _ = metadata.shape
    rows = np.zeros((*lead, n + 1, STATE_DIM))
    rows[..., :-1, :5] = metadata_features(metadata, cfg)
    rows[..., 1:-1, 9] = rows[..., :-2, 0]  # feature 10 is the previous commit's feature 1
    return rows


def encode_state(
    state: np.ndarray,
    t: int,
    fails: list[int] | np.ndarray,
    since_full_tests: int | np.ndarray,
    cfg: StateConfig,
) -> None:
    """Write features 6-9 of ``state``, the state of commit ``t >= 1``, from
    the history: ``fails[k]`` failed commits among the first k, and
    ``since_full_tests`` commits since the last full-suite run, already
    capped at ``cfg.full_test_gap_cap``. The features need no clip: the
    window fractions and the capped gap are bounded by construction.

    One state is a ``(10,)`` array with a list of int counts and an int gap.
    B states played in lockstep are the ``(10, B)`` transposed view of their
    ``(B, 10)`` array, with a ``(T + 1, B)`` int array of counts and a
    ``(B,)`` int array of gaps: the same arithmetic on int64 gives each run
    the bits that Python ints give it alone. :func:`lockstep_states` calls
    it through this module-level name, under which the benchmark probes it,
    once per commit index after the first.
    """
    # fraction of the last min(t, window) commits whose tests failed
    window = cfg.history_window
    if t >= window:
        failed = (fails[t] - fails[t - window]) / window
    else:
        failed = fails[t] / t
    state[5] = failed
    state[6] = fails[t] - fails[t - 1]  # an int 0 or 1 writes the bits of 0.0 or 1.0
    state[7] = since_full_tests / cfg.full_test_gap_cap
    state[8] = failed


class PipelineEnv:
    """Steps a fixed commit trace through the simulated pipeline.

    Stateful and single-threaded. The prices (with an escape penalty that
    :func:`validate_penalties` checks) and the detection draws are fixed
    when the env is built: the k-th buggy commit is caught when the k-th
    number of ``default_rng(seed).random(n_buggy)`` is below the action's
    detection rate. A step records one outcome code, and the codes are all
    the env keeps of its episode: :func:`lockstep_states` reads the states
    from them and :func:`episode_stats` the totals. :meth:`replicas` gives
    fresh envs that replay the same draws.
    """

    def __init__(self, trace: Trace, cfg: EnvConfig, escape_penalty: float, seed: int = 0):
        if not trace:
            raise ValueError("trace must contain at least one commit")
        if min(cfg.test_minutes) < 0:
            raise ValueError(f"test_minutes must be >= 0, got {cfg.test_minutes}")
        self._n = len(trace)
        self._cfg = cfg
        # the k-th buggy commit gets the k-th draw; clean commits draw none
        has_bug = trace.has_bug.tolist()
        draws = iter(np.random.default_rng(seed).random(sum(has_bug)).tolist())
        draws = [next(draws) if bug else None for bug in has_bug]
        # [t][action]: the step's code. Clean commits never fail tests; a
        # buggy one is caught (kind 1) when its draw is below the action's
        # rate (a rate of 1.0 always, 0.0 never) and escapes (kind 2) otherwise
        full, partial, skip = cfg.detection_rates
        self._outcomes = [
            _CLEAN if d is None else (2 - (d < full), 5 - (d < partial), 8 - (d < skip))
            for d in draws
        ]
        (escape_penalty,) = validate_penalties((escape_penalty,))
        self._price(escape_penalty)
        self._rewind()

    def _price(self, escape_penalty: float) -> None:
        """Price each code under a checked penalty: its ``(test_minutes,
        pipeline_minutes, reward)``."""
        self._escape_penalty = escape_penalty
        cfg = self._cfg
        prices = []
        for minutes in cfg.test_minutes:
            cost = -minutes - 0.0  # a float, also for int minutes
            caught = cfg.build_minutes + minutes
            passed = caught + cfg.deploy_minutes  # only commits that pass testing deploy
            escaped = passed + cfg.escape_delay_minutes
            prices += [
                (minutes, passed, cost),
                (minutes, caught, cost),
                (minutes, escaped, cost - escape_penalty),
            ]
        self._prices = tuple(prices)
        self._rewards = tuple(price[2] for price in prices)

    def replicas(self, penalties: list[float]) -> list["PipelineEnv"]:
        """One fresh environment per escape penalty, over this one's trace,
        config and seed.

        They share the detection draws; each has its own cursor and codes.
        Every penalty is checked first, as the env's own was. A replica whose
        penalty equals this env's in value and sign shares its prices; any
        other is priced anew (``-0.0`` and ``0.0`` give escaped-skip rewards
        that differ in the sign of zero).
        """
        penalties = validate_penalties(penalties)
        own = self._escape_penalty
        envs = [copy.copy(self) for _ in penalties]
        for env, penalty in zip(envs, penalties):
            if not (penalty == own and math.copysign(1.0, penalty) == math.copysign(1.0, own)):
                env._price(penalty)
            env._rewind()
        return envs

    def _rewind(self) -> None:
        """Rewind to the first commit, with no step recorded."""
        self._cursor = 0
        self._codes: list[int] = []

    @property
    def codes(self) -> bytes:
        """The outcome code of each step so far, ``3 * action + kind``, one
        byte per step."""
        return bytes(self._codes)

    def step(self, action: Action) -> tuple[float, bool]:
        """Process the current commit with the chosen test scope.

        Records the step's outcome code and returns its reward and the done
        flag. Stepping a finished episode, or an action that is not an
        integer in 0..2, raises before anything changes.
        """
        t = self._cursor
        if t == self._n:
            raise RuntimeError("episode is done")
        if action not in (0, 1, 2):
            action = Action(action)
        try:
            code = self._outcomes[t][action]
        except TypeError:  # a float equal to 0, 1 or 2 passes the guard above
            raise ValueError(f"action must be an integer in 0..2, got {action!r}") from None
        self._codes.append(code)
        self._cursor = t = t + 1
        return self._rewards[code], t == self._n


def step_envs(envs: list[PipelineEnv], actions) -> tuple[list[float], bool]:
    """Step each env by its action, in order; returns their rewards and the
    done flag. The envs play traces of one length, so they finish together.
    Callers read the next states they need. Training steps its agents' envs
    with it, and evaluation each policy's envs, one per run. A count of
    actions other than one per env raises :class:`ValueError` before any
    env is stepped.
    """
    if not envs:
        raise ValueError("need at least one environment")
    if len(actions) != len(envs):
        raise ValueError(f"got {len(actions)} actions for {len(envs)} environments")
    rewards = []
    for env, action in zip(envs, actions):
        reward, done = env.step(action)
        rewards.append(reward)
    return rewards, done


def lockstep_states(
    envs: Sequence[PipelineEnv], rows: np.ndarray, cfg: StateConfig
) -> Iterator[np.ndarray]:
    """The states of B fresh envs that play B traces of one length T in
    lockstep: at each commit index, a new ``(B, 10)`` array whose row b is
    the state of ``envs[b]``'s commit there.

    ``rows`` holds the traces' ``(B, T + 1, 10)`` :func:`encode_rows`, under
    ``cfg``, the envs' state config; its last row, all zeros, is the state
    after the last step, which the reader does not yield. The history is
    brought up to date from each env's last code before each state after
    the first, and features 6-9 are then written by one :func:`encode_state`
    call. One run keeps a list of failure counts and an int gap and writes
    its ``(10,)`` row; B runs keep a ``(T + 1, B)`` array of counts and a
    ``(B,)`` array of gaps and write the ``(10, B)`` view. Row b of a B-run
    read has the bits of ``envs[b]`` read alone. Each env must be stepped
    exactly once between two states, and once after the last: otherwise the
    next read raises :class:`ValueError`.
    """
    n = rows.shape[-2] - 1
    if rows.shape != (len(envs), n + 1, STATE_DIM) or any(env._n != n for env in envs):
        raise ValueError(f"rows of shape {rows.shape} do not fit {len(envs)} envs of one length")
    # fails[t]: commits among the first t whose tests failed; since: commits
    # since the last full-suite run (codes 0-2), stopped at its cap. One run
    # keeps them as Python ints, which cost less per step than arrays
    cap, one = cfg.full_test_gap_cap, len(envs) == 1
    if one:
        fails, since = [0], 0
    else:
        fails = np.zeros((n + 1, len(envs)), dtype=np.int64)
        since = np.zeros(len(envs), dtype=np.int64)
        failed = np.array(_FAILED)
    for t in range(n + 1):
        codes = [env._codes for env in envs]
        if any(len(c) != t for c in codes):
            raise ValueError(
                f"each env must step once per state; before commit {t} they stepped "
                f"{[len(c) for c in codes]} commits"
            )
        if t == n:
            return
        states = rows[:, t].copy()
        if t and one:
            last = codes[0][-1]
            fails.append(fails[-1] + _FAILED[last])
            since = 0 if last < 3 else since + (since < cap)
            encode_state(states[0], t, fails, since, cfg)
        elif t:
            last = np.array([c[-1] for c in codes])
            np.add(fails[t - 1], failed[last], out=fails[t])
            since = np.where(last < 3, 0, since + (since < cap))
            encode_state(states.T, t, fails, since, cfg)
        yield states


@dataclass
class EpisodeStats:
    """Accumulated outcomes of one full episode."""

    commits: int
    total_pipeline_minutes: float
    total_test_minutes: float
    bugs_introduced: int
    bugs_caught: int
    bugs_escaped: int
    action_counts: tuple[int, int, int]
    total_reward: float


def code_array(envs: Sequence[PipelineEnv]) -> np.ndarray:
    """The ``(B, T)`` outcome codes of B envs that stepped T commits each."""
    codes = [env.codes for env in envs]
    lengths = [len(c) for c in codes]
    if len(set(lengths)) != 1:
        raise ValueError(f"need envs that stepped equally many commits, got {lengths}")
    return np.frombuffer(b"".join(codes), dtype=np.uint8).reshape(len(codes), -1)


def episode_stats(envs: Sequence[PipelineEnv]) -> list[EpisodeStats]:
    """The stats of each env's episode so far, for envs that stepped equally
    many commits, from one ``(B, T)`` array of their outcome codes.

    Each total is the left fold of its steps' prices from 0.0, in step
    order (``np.sum`` adds pairwise and ``math.fsum`` exactly):
    ``np.add.accumulate`` adds along the step axis from a leading 0.0 row,
    so steps that each cost -0.0 total +0.0 as the fold does.
    """
    codes = code_array(envs)
    runs, steps = codes.shape
    # row 9 * run + code: the test minutes, pipeline minutes and reward of
    # that run's outcome
    priced = np.fromiter(
        chain.from_iterable(price for env in envs for price in env._prices), float, 27 * runs
    ).reshape(-1, 3)
    index = codes.T + 9 * np.arange(runs)  # [t, run]: the row of that run's step t
    columns = np.empty((steps + 1, runs, 3))
    columns[0] = 0.0
    np.take(priced, index, axis=0, out=columns[1:])
    totals = np.add.accumulate(columns, out=columns)[-1].tolist()
    # [run, action, kind]: steps with that outcome code
    tally = np.bincount(index.ravel(), minlength=9 * runs).reshape(runs, 3, 3)
    return [
        EpisodeStats(
            commits=steps,
            total_pipeline_minutes=pipeline,
            total_test_minutes=test,
            bugs_introduced=caught + escaped,
            bugs_caught=caught,
            bugs_escaped=escaped,
            action_counts=tuple(actions),
            total_reward=reward,
        )
        for (test, pipeline, reward), (_, caught, escaped), actions in zip(
            totals, tally.sum(1).tolist(), tally.sum(2).tolist()
        )
    ]
