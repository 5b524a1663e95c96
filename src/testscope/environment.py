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
commit's outcome under each action is fixed before any step:
:func:`outcome_codes` gives each commit's code under each action, ``3 *
action + kind`` (kind 0 clean, 1 caught, 2 escaped). A :class:`PipelineEnv`
steps one run through such a table, which any number of envs can share,
and records the code of each step. The code holds the step's outcome: the
action is ``code // 3``, and the commit was caught when ``code % 3 == 1``
and escaped when ``code % 3 == 2``. The codes are all an env keeps of its
episode.

A code's price depends on the config and the escape penalty alone, so
:func:`price_table` prices the nine codes once per penalty, outside any
env: each gets its test minutes, pipeline minutes and reward.

:func:`lockstep_play` is the one closed-loop play loop, in training and in
evaluation alike. B envs play B traces of one length in lockstep: at each
commit index it reads the B runs' ``(B, 10)`` states, calls the policy once
for B actions and steps each env once. It keeps the episode history behind
features 6-9 (running failure counts and the commits since the last
full-suite run, capped at ``full_test_gap_cap``), updates it from the B
codes that the steps return, and writes features 6-9 of the next states
with one :func:`encode_state` call. One run keeps its history as Python
ints, B runs as arrays; both give each run the same bits.

:func:`episode_stats` totals B runs' episodes, in training and in
evaluation alike, from one ``(B, T)`` array of their codes and their price
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Iterator, Sequence

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
    "outcome_codes",
    "price_table",
    "PipelineEnv",
    "lockstep_play",
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
    the bits that Python ints give it alone. :func:`lockstep_play` calls
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


def outcome_codes(trace: Trace, cfg: EnvConfig, seed: int = 0) -> list[tuple[int, int, int]]:
    """Each commit's ``(full, partial, skip)`` outcome codes, ``3 * action +
    kind``: the code that each action gives it.

    Clean commits never fail tests (kind 0). The k-th buggy commit gets the
    k-th number of ``default_rng(seed).random(n_buggy)`` and is caught
    (kind 1) under an action when that number is below the action's
    detection rate (a rate of 1.0 always, 0.0 never), and escapes (kind 2)
    otherwise. An empty trace raises :class:`ValueError`.
    """
    if not trace:
        raise ValueError("trace must contain at least one commit")
    has_bug = trace.has_bug.tolist()
    draws = iter(np.random.default_rng(seed).random(sum(has_bug)).tolist())
    draws = [next(draws) if bug else None for bug in has_bug]
    full, partial, skip = cfg.detection_rates
    return [
        _CLEAN if d is None else (2 - (d < full), 5 - (d < partial), 8 - (d < skip))
        for d in draws
    ]


def price_table(cfg: EnvConfig, penalties: Iterable[float]) -> np.ndarray:
    """The ``(K, 9, 3)`` prices of the nine outcome codes under each of K
    escape penalties: row ``[k, code]`` holds the code's ``(test_minutes,
    pipeline_minutes, reward)`` at ``penalties[k]``.

    The penalties must pass :func:`validate_penalties` and the test minutes
    be >= 0 (:class:`ValueError`). A reward is ``-minutes - 0.0``, less the
    penalty when the bug escaped, in Python float arithmetic: so at 0 skip
    minutes, penalties ``0.0`` and ``-0.0`` price an escaped skip at
    ``-0.0`` and ``0.0``.
    """
    penalties = validate_penalties(penalties)
    if min(cfg.test_minutes) < 0:
        raise ValueError(f"test_minutes must be >= 0, got {cfg.test_minutes}")
    prices = []
    for penalty in penalties:
        for minutes in cfg.test_minutes:
            cost = -minutes - 0.0  # a float, also for int minutes
            caught = cfg.build_minutes + minutes
            passed = caught + cfg.deploy_minutes  # only commits that pass testing deploy
            escaped = passed + cfg.escape_delay_minutes
            prices += [
                (minutes, passed, cost),
                (minutes, caught, cost),
                (minutes, escaped, cost - penalty),
            ]
    return np.array(prices, dtype=np.float64).reshape(len(penalties), 9, 3)


class PipelineEnv:
    """Steps one run through its commits' :func:`outcome_codes`.

    Stateful and single-threaded. ``outcomes`` is shared, never copied, so
    any number of envs can replay one table of draws. A step records the
    outcome code of the commit under the chosen action, and ``codes``, one
    byte per step, are all the env keeps of its episode:
    :func:`lockstep_play` reads the states from them and
    :func:`episode_stats` the totals under a :func:`price_table`.
    """

    def __init__(self, outcomes: Sequence[tuple[int, int, int]]):
        self.outcomes = outcomes
        self.codes = bytearray()

    def step(self, action: Action) -> int:
        """Process the current commit with the chosen test scope and return
        the step's outcome code. Stepping a finished episode, or an action
        that is not an integer in 0..2, raises before anything changes.
        """
        t = len(self.codes)
        if t == len(self.outcomes):
            raise RuntimeError("episode is done")
        if action not in (0, 1, 2):
            action = Action(action)
        try:
            code = self.outcomes[t][action]
        except TypeError:  # a float equal to 0, 1 or 2 passes the guard above
            raise ValueError(f"action must be an integer in 0..2, got {action!r}") from None
        self.codes.append(code)
        return code


def lockstep_play(
    envs: Sequence[PipelineEnv],
    rows: np.ndarray,
    cfg: StateConfig,
    policy: Callable[[np.ndarray], Sequence],
) -> Iterator[tuple[np.ndarray, Sequence, list[int], np.ndarray]]:
    """Play B fresh envs over B traces of one length T in lockstep under
    ``policy``; yield each commit index's ``(states, actions, codes,
    next_states)``.

    ``rows`` holds the traces' ``(B, T + 1, 10)`` :func:`encode_rows` under
    ``cfg``, the envs' state config. At each commit index ``policy`` maps a
    new ``(B, 10)`` array of the envs' states to B actions, each env steps
    once by its own, and the history behind features 6-9 is updated from
    the B outcome codes that the steps return; one :func:`encode_state`
    call then writes features 6-9 of all B next states (from Python ints
    for one run, int arrays for B), and after the last step ``next_states``
    is the all-zero end row. Row b has the bits of ``envs[b]`` played
    alone. No envs, rows that do not fit them or an env that has stepped
    raise :class:`ValueError` on the first ``next``; a policy call that
    returns other than B actions raises it before any env steps at that
    index.
    """
    if not envs:
        raise ValueError("need at least one environment")
    n = rows.shape[-2] - 1
    if rows.shape != (len(envs), n + 1, STATE_DIM) or any(len(env.outcomes) != n for env in envs):
        raise ValueError(f"rows of shape {rows.shape} do not fit {len(envs)} envs of one length")
    stepped = [len(env.codes) for env in envs]
    if any(stepped):
        raise ValueError(f"need fresh envs, got envs that stepped {stepped} commits")
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
    states = rows[:, 0].copy()
    for t in range(1, n + 1):
        actions = policy(states)
        if len(actions) != len(envs):
            raise ValueError(f"got {len(actions)} actions for {len(envs)} environments")
        codes = [env.step(action) for env, action in zip(envs, actions)]
        next_states = rows[:, t].copy()
        if t < n and one:
            (last,) = codes
            fails.append(fails[-1] + _FAILED[last])
            since = 0 if last < 3 else since + (since < cap)
            encode_state(next_states[0], t, fails, since, cfg)
        elif t < n:
            last = np.array(codes)
            np.add(fails[t - 1], failed[last], out=fails[t])
            since = np.where(last < 3, 0, since + (since < cap))
            encode_state(next_states.T, t, fails, since, cfg)
        yield states, actions, codes, next_states
        states = next_states


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
    lengths = [len(env.codes) for env in envs]
    if len(set(lengths)) != 1:
        raise ValueError(f"need envs that stepped equally many commits, got {lengths}")
    return np.frombuffer(b"".join(env.codes for env in envs), dtype=np.uint8).reshape(len(envs), -1)


def episode_stats(codes: np.ndarray, prices: np.ndarray) -> list[EpisodeStats]:
    """The stats of B runs' episodes from their ``(B, T)`` outcome codes,
    priced by a :func:`price_table` of one row per run, ``(B, 9, 3)``, or
    one row for all of them, ``(1, 9, 3)``.

    Each total is the left fold of its steps' prices from 0.0, in step
    order (``np.sum`` adds pairwise and ``math.fsum`` exactly):
    ``np.add.accumulate`` adds along the step axis from a leading 0.0 row,
    so steps that each cost -0.0 total +0.0 as the fold does.
    """
    runs, steps = codes.shape
    if prices.shape not in ((runs, 9, 3), (1, 9, 3)):
        raise ValueError(f"prices of shape {prices.shape} do not fit {runs} runs")
    # row 9 * run + code: the test minutes, pipeline minutes and reward of
    # that run's outcome
    priced = np.broadcast_to(prices, (runs, 9, 3)).reshape(-1, 3)
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
