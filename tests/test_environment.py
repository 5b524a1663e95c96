"""Pipeline environment: state encoding, detection, reward, step mechanics."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testscope.commits import Commit, ObservedCommit, Trace, generate_trace, observe, trace_records
from testscope.config import EnvConfig, StateConfig, derive_seed
from testscope.environment import (
    Action,
    EpisodeStats,
    PipelineEnv,
    STATE_DIM,
    encode_rows,
    encode_state,
    episode_stats,
    lockstep_states,
    metadata_features,
    step_envs,
)
from trace_helpers import EMPTY_TABLE, as_trace, play, records, step_table


def make_commit(**kwargs) -> Commit:
    base = dict(
        id=0,
        diff_size=120,
        files_changed=4,
        source_fraction=0.6,
        developer_defect_rate=0.2,
        developer_experience=0.7,
        has_bug=False,
        risk_score=0.1,
    )
    base.update(kwargs)
    return Commit(**base)


def played(trace: Trace | list[Commit], action, penalty: float = 5.0, cfg=None, seed: int = 0):
    """Step every commit of a trace or of a list of records under ``action``;
    returns the rewards and the step table."""
    trace = trace if isinstance(trace, Trace) else as_trace(trace)
    env = PipelineEnv(trace, cfg or EnvConfig(), penalty, seed=seed)
    rewards = [env.step(action)[0] for _ in range(len(trace))]
    return rewards, step_table(env)


def detected_column(action, n: int, seed: int, has_bug: bool = True) -> tuple[bool, ...]:
    """Whether each of ``n`` commits, all buggy or all clean, is caught under ``action``.

    Each buggy commit draws one number from the env's generator, seeded with ``seed``.
    """
    return played([make_commit(id=i, has_bug=has_bug) for i in range(n)], action, seed=seed)[1].detected


def first_state(commit: Commit, cfg: StateConfig | None = None) -> np.ndarray:
    """The state the environment shows for ``commit`` at the start of an episode."""
    env_cfg = dataclasses.replace(EnvConfig(), state=cfg or StateConfig())
    trace = as_trace([commit])
    return play(PipelineEnv(trace, env_cfg, 5.0), trace, [])[0]


def states_after(outcomes: list[bool], state_cfg: StateConfig) -> list[np.ndarray]:
    """The states of an all-buggy trace whose t-th commit is caught exactly
    when ``outcomes[t]``: state t follows the first t outcomes.

    On such a trace the action decides each outcome: full tests catch every
    bug (rate 1.0) and skipping catches none (rate 0.0).
    """
    cfg = dataclasses.replace(EnvConfig(), bug_probability=1.0, state=state_cfg)
    trace = generate_trace(cfg, len(outcomes) + 1, seed=0)
    assert trace.has_bug.all()
    env = PipelineEnv(trace, cfg, 5.0)
    actions = [Action.FULL_TESTS if caught else Action.SKIP_TESTS for caught in outcomes]
    states = play(env, trace, actions)
    assert step_table(env).detected == tuple(outcomes)
    return states


class TestEncodeState:
    def test_zero_diff_gives_zero_feature(self):
        assert first_state(make_commit(diff_size=0))[0] == 0.0

    def test_diff_at_cap_saturates(self):
        cfg = StateConfig()
        for diff in (cfg.diff_cap, cfg.diff_cap + 1, 10 * cfg.diff_cap):
            assert first_state(make_commit(diff_size=diff), cfg)[0] == 1.0

    def test_empty_history_neutral_defaults(self):
        state = first_state(make_commit())
        assert tuple(state[5:]) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_dimensions_and_bounds(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 500, seed=2)
        env = PipelineEnv(trace, cfg, 5.0, seed=3)
        states = play(env, trace, [Action(t % 3) for t in range(len(trace) - 1)])
        assert any(step_table(env).detected)
        for state in states:
            assert state.shape == (STATE_DIM,)
            assert np.all(state >= 0.0) and np.all(state <= 1.0)
            assert np.all(np.isfinite(state))

    def test_independent_of_latent_bug_flag(self):
        # skipped tests catch nothing, so flipping every bug flag changes no
        # outcome, and must change no state either
        cfg = EnvConfig()
        trace = generate_trace(cfg, 50, seed=5)
        flipped = dataclasses.replace(trace, has_bug=~trace.has_bug)
        states = []
        for played_trace in (trace, flipped):
            env = PipelineEnv(played_trace, cfg, 5.0, seed=1)
            states.append(play(env, played_trace, [Action.SKIP_TESTS] * len(trace)))
        assert [s.tobytes() for s in states[0]] == [s.tobytes() for s in states[1]]

    def test_pure_recomputation(self):
        # the encoder writes features 6-9 of the one state it is given, for
        # commit t, from its arguments alone and changes none of them
        cfg = StateConfig()
        fails = [0, 1, 1, 2]
        written = []
        for _ in range(2):
            state = np.zeros(STATE_DIM)
            encode_state(state, 3, fails, 2, cfg)
            written.append(state.tobytes())
        assert written[0] == written[1] and fails == [0, 1, 1, 2]
        assert state[5:9].tolist() == [2 / 3, 1.0, 2 / cfg.full_test_gap_cap, 2 / 3]
        assert not state[[0, 1, 2, 3, 4, 9]].any()

    def test_gap_saturates_at_its_cap(self):
        # full tests reset the gap, skipped ones extend it up to the cap
        states = states_after([True] + [False] * 7 + [True], StateConfig(full_test_gap_cap=4))
        assert [s[7] for s in states] == [0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0, 0.0]

    def test_history_features_after_updates(self):
        cfg = StateConfig()
        trace = as_trace(
            [make_commit(diff_size=250, has_bug=True), make_commit(diff_size=10), make_commit()]
        )
        env = PipelineEnv(trace, EnvConfig(), 5.0)
        # the partial suite catches the bug: seed 0's first draw is below its 0.7 rate
        _, state, after = play(env, trace, [Action.PARTIAL_TESTS, Action.FULL_TESTS])
        assert step_table(env).detected == (True, False)
        assert state[5] == 1.0  # one of one recent commit failed
        assert state[6] == 1.0  # previous failed
        assert state[7] == 1.0 / cfg.full_test_gap_cap  # one commit since a full run
        assert state[8] == 1.0
        assert state[9] == 250 / cfg.diff_cap
        state = after
        assert state[5] == 0.5
        assert state[6] == 0.0
        assert state[7] == 0.0  # full tests reset the gap counter
        assert state[9] == 10 / cfg.diff_cap


class TestDetection:
    def test_full_tests_always_catch(self):
        assert all(detected_column(Action.FULL_TESTS, 2000, seed=0))

    def test_skip_never_catches(self):
        assert not any(detected_column(Action.SKIP_TESTS, 2000, seed=0))

    def test_clean_commit_never_fails(self):
        for action in Action:
            assert not any(detected_column(action, 500, seed=0, has_bug=False))

    def test_partial_detection_rate(self):
        # Monte Carlo vs the 70% partial-suite detection rate
        hits = sum(detected_column(Action.PARTIAL_TESTS, 10_000, seed=8))
        assert abs(hits / 10_000 - 0.70) <= 0.02

    def test_three_sigma_binomial_bounds(self):
        cfg = EnvConfig()
        n = 10_000
        for action, rate in zip(Action, cfg.detection_rates):
            hits = sum(detected_column(action, n, seed=15 + action))
            sigma = np.sqrt(rate * (1.0 - rate) / n)
            assert abs(hits / n - rate) <= 3.0 * sigma + 1e-12


class TestReward:
    def test_full_suite_cost(self):
        rewards, table = played([make_commit(has_bug=False)], Action.FULL_TESTS, 5.0)
        assert rewards == list(table.reward) == [-10.0]

    def test_escaped_bug_penalty(self):
        rewards, table = played([make_commit(has_bug=True)], Action.SKIP_TESTS, 5.0)
        assert rewards == list(table.reward) == [-5.0]

    def test_clean_skip_is_free(self):
        rewards, table = played([make_commit(has_bug=False)], Action.SKIP_TESTS, 123.0)
        assert rewards == list(table.reward) == [0.0]

    def test_negative_penalty_rejected(self):
        # an env, or a replica, is priced when it is built, so a bad penalty
        # fails there, before any step
        trace = as_trace([make_commit()])
        env = PipelineEnv(trace, EnvConfig(), 5.0)
        for penalty in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PipelineEnv(trace, EnvConfig(), penalty)
            with pytest.raises(ValueError):
                env.replicas([5.0, penalty])
        assert step_table(env).action == ()

    def test_each_replica_is_charged_its_own_penalty(self):
        # skipping catches half the bugs here, so the shared draws decide
        # which commits escape, and each escape costs the replica's penalty
        cfg = dataclasses.replace(
            EnvConfig(), bug_probability=1.0, detection_rates=(1.0, 0.7, 0.5)
        )
        trace = generate_trace(cfg, 40, seed=3)
        assert trace.has_bug.all()
        free, costly = PipelineEnv(trace, cfg, 5.0, seed=2).replicas([0.0, 7.0])
        for env in (free, costly):
            for _ in range(len(trace)):
                env.step(Action.SKIP_TESTS)
        free, costly = step_table(free), step_table(costly)
        assert free.detected == costly.detected
        assert free.escaped == costly.escaped
        assert any(free.detected) and any(free.escaped)
        assert free.reward == tuple(-0.0 * e for e in free.escaped)
        assert costly.reward == tuple(-7.0 * e for e in costly.escaped)

    def test_negative_test_minutes_rejected(self):
        cfg = dataclasses.replace(EnvConfig(), test_minutes=(-1.0, 3.0, 0.0))
        with pytest.raises(ValueError):
            PipelineEnv(as_trace([make_commit()]), cfg, 5.0)

    @given(
        minutes=st.floats(0, 1e4, allow_nan=False),
        escaped=st.booleans(),
        penalty=st.floats(0, 1e4, allow_nan=False),
    )
    def test_reward_identity(self, minutes, escaped, penalty):
        # no action detects, so a buggy commit escapes
        cfg = dataclasses.replace(
            EnvConfig(), test_minutes=(minutes,) * 3, detection_rates=(0.0,) * 3
        )
        rewards, table = played([make_commit(has_bug=escaped)], Action.FULL_TESTS, penalty, cfg)
        assert table.escaped == (escaped,) and table.test_minutes == (minutes,)
        assert rewards == list(table.reward) == [-minutes - penalty * escaped]


class TestEpisodeTotals:
    def test_totals_add_in_step_order_from_zero(self):
        # a running sum from 0.0 loses both -1.0 rewards to rounding next to
        # -1e16; an exact or compensated sum would keep them
        cfg = dataclasses.replace(EnvConfig(), test_minutes=(1.0, 3.0, 0.0))
        trace = as_trace([make_commit(), make_commit(has_bug=True), make_commit()])
        env = PipelineEnv(trace, cfg, 1e16)
        for action in (Action.FULL_TESTS, Action.SKIP_TESTS, Action.FULL_TESTS):
            env.step(action)
        rewards = step_table(env).reward
        assert rewards == (-1.0, -1e16, -1.0)
        (stats,) = episode_stats([env])
        assert stats.total_reward == -1e16 != math.fsum(rewards)
        assert stats.total_test_minutes == 2.0
        assert stats.action_counts == (2, 0, 1) and stats.bugs_escaped == 1

    def test_empty_episode(self):
        env = PipelineEnv(as_trace([make_commit()]), EnvConfig(), 5.0)
        assert step_table(env) == EMPTY_TABLE
        (stats,) = episode_stats([env])
        assert stats == EpisodeStats(0, 0.0, 0.0, 0, 0, 0, (0, 0, 0), 0.0)
        totals = (stats.total_pipeline_minutes, stats.total_test_minutes, stats.total_reward)
        assert [math.copysign(1.0, total) for total in totals] == [1.0] * 3


class TestPipelineEnv:
    def test_empty_trace_rejected(self):
        empty = as_trace([])
        assert len(empty) == 0
        with pytest.raises(ValueError, match="trace must contain at least one commit"):
            PipelineEnv(empty, EnvConfig(), 5.0)

    def test_returned_states_stay_valid(self):
        # later steps, and another episode over the same trace, leave the
        # states already returned untouched
        cfg = EnvConfig()
        trace = generate_trace(cfg, 30, seed=4)
        env, again = PipelineEnv(trace, cfg, 5.0, seed=1).replicas([5.0, 5.0])
        copies = []

        def action(state):
            copies.append(state.copy())
            return Action(len(copies) % 3)

        kept = play(env, trace, action)
        copies.append(kept[-1].copy())
        play(again, trace, [Action.SKIP_TESTS])
        for state, copy in zip(kept, copies, strict=True):
            assert state.tobytes() == copy.tobytes()

    def test_invalid_action_rejected(self):
        env = PipelineEnv(as_trace([make_commit()]), EnvConfig(), 5.0)
        with pytest.raises(ValueError):
            env.step(3)
        assert step_table(env).action == ()

    @pytest.mark.parametrize("action", [1.0, np.float64(2.0), 1.5])
    def test_non_integer_action_rejected_before_any_change(self, action):
        # 1.0 == 1, so a float can pass a membership test and then fail as
        # a list index; it must fail as a bad action, with nothing changed
        cfg = EnvConfig()
        trace = generate_trace(cfg, 5, seed=4)
        env = PipelineEnv(trace, cfg, 5.0, seed=1)
        env.step(Action.PARTIAL_TESTS)
        table = step_table(env)
        with pytest.raises(ValueError, match=re.escape(str(action))):
            env.step(action)
        assert step_table(env) == table
        steps, done = 0, False
        while not done:
            _, done = env.step(Action.SKIP_TESTS)
            steps += 1
        assert steps == len(trace) - 1

    def test_single_commit_trace_finishes_in_one_step(self):
        trace = generate_trace(EnvConfig(), 1, seed=4)
        cfg = dataclasses.replace(EnvConfig(), commits_per_episode=1)
        env = PipelineEnv(trace, cfg, 5.0, seed=1)
        _, done = env.step(Action.FULL_TESTS)
        assert done

    def test_stepping_done_episode_raises(self):
        trace = generate_trace(EnvConfig(), 1, seed=4)
        env = PipelineEnv(trace, EnvConfig(), 5.0, seed=1)
        env.step(Action.FULL_TESTS)
        with pytest.raises(RuntimeError):
            env.step(Action.FULL_TESTS)

    def test_episode_emits_exactly_trace_length_steps(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=6)
        env = PipelineEnv(trace, cfg, 5.0, seed=2)
        steps = 0
        done = False
        while not done:
            _, done = env.step(Action.SKIP_TESTS)
            steps += 1
        assert steps == cfg.commits_per_episode

    def test_features_six_and_nine_are_always_equal(self):
        # tests fail only on a caught bug, so the failure and caught
        # fractions are one signal
        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=8)
        env = PipelineEnv(trace, cfg, 5.0, seed=3)
        rng = np.random.default_rng(0)
        for state in play(env, trace, lambda _: Action(int(rng.integers(3)))):
            assert state[5] == state[8]
        assert any(step_table(env).detected)

    def test_detected_bug_rejected_before_deploy(self):
        # full tests on a buggy commit: no deploy time, no escape delay
        cfg = EnvConfig()
        trace = [make_commit(has_bug=True)]
        rewards, table = played(trace, Action.FULL_TESTS, 5.0, cfg)
        assert table.detected == (True,) and table.escaped == (False,)
        assert table.pipeline_minutes == (cfg.build_minutes + 10.0,)
        assert rewards == list(table.reward) == [-10.0]

    def test_escaped_bug_pays_delay(self):
        cfg = EnvConfig()
        trace = [make_commit(has_bug=True)]
        rewards, table = played(trace, Action.SKIP_TESTS, 5.0, cfg)
        assert table.escaped == (True,) and table.detected == (False,)
        expected = cfg.build_minutes + 0.0 + cfg.deploy_minutes + cfg.escape_delay_minutes
        assert table.pipeline_minutes[0] == expected == 18.0
        assert rewards == list(table.reward) == [-5.0]

    def test_clean_skip_pipeline_minutes(self):
        cfg = EnvConfig()
        trace = [make_commit(has_bug=False)]
        rewards, table = played(trace, Action.SKIP_TESTS, 5.0, cfg)
        assert table.pipeline_minutes == (3.0,)
        assert rewards == list(table.reward) == [0.0]

    def test_pipeline_minutes_cover_test_minutes(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        env = PipelineEnv(trace, cfg, 5.0, seed=3)
        rng = np.random.default_rng(1)
        done = False
        while not done:
            _, done = env.step(Action(int(rng.integers(3))))
        table = step_table(env)
        assert len(table.action) == 100
        for pipeline, test, detected, escaped in zip(
            table.pipeline_minutes, table.test_minutes, table.detected, table.escaped
        ):
            assert pipeline >= test
            assert not (detected and escaped)

    def test_replay_determinism(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        actions = [Action(int(a)) for a in np.random.default_rng(2).integers(0, 3, 100)]

        def replay():
            env = PipelineEnv(trace, cfg, 5.0, seed=5)
            return play(env, trace, actions), step_table(env)

        (first, first_table), (second, second_table) = replay(), replay()
        assert first_table == second_table
        assert [s.tobytes() for s in first] == [s.tobytes() for s in second]

    def test_reward_identity_every_step(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        env = PipelineEnv(trace, cfg, 7.0, seed=5)
        rng = np.random.default_rng(3)
        done, rewards = False, []
        while not done:
            reward, done = env.step(Action(int(rng.integers(3))))
            rewards.append(reward)
        table = step_table(env)
        assert rewards == list(table.reward)
        for reward, minutes, escaped in zip(table.reward, table.test_minutes, table.escaped):
            assert reward == -minutes - 7.0 * escaped


class TestSharedDraws:
    def test_detection_matches_a_scalar_draw_loop(self):
        # the k-th buggy commit is judged by the k-th scalar draw of the seed's generator
        cfg = EnvConfig()
        for seed, mode in ((0, "standard"), (5, "standard"), (9, "adversarial")):
            trace = generate_trace(cfg, 400, seed=seed + 100, mode=mode)
            for action, rate in zip(Action, cfg.detection_rates):
                rng = np.random.default_rng(seed)
                expected = tuple(bug and rng.random() < rate for bug in trace.has_bug.tolist())
                assert played(trace, action, cfg=cfg, seed=seed)[1].detected == expected
                for env in PipelineEnv(trace, cfg, 5.0, seed=seed).replicas([5.0, 5.0]):
                    for _ in range(len(trace)):
                        env.step(action)
                    assert step_table(env).detected == expected

    def test_stepping_one_replica_leaves_the_others_untouched(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 60, seed=8)
        rng = np.random.default_rng(6)
        actions = [Action(int(a)) for a in rng.integers(0, 3, 60)]
        first, second, third = PipelineEnv(trace, cfg, 5.0, seed=2).replicas([3.0, 5.0, 5.0])

        def interrupted(state):
            t = len(second.codes)
            if t == 30:
                half_table = step_table(second)
                for a in reversed(actions):
                    first.step(a)
                assert step_table(second) == half_table and step_table(third) == EMPTY_TABLE
            return actions[t]

        kept = play(second, trace, interrupted)
        # the interrupted replica finishes as an env played alone would, and
        # the untouched one starts as it does
        alone = PipelineEnv(trace, cfg, 5.0, seed=2)
        states = play(alone, trace, actions)
        assert step_table(alone) == step_table(second)
        assert [s.tobytes() for s in states] == [s.tobytes() for s in kept]
        assert play(third, trace, [])[0].tobytes() == states[0].tobytes()

    def test_a_replica_at_its_sources_penalty_shares_the_step_rows(self):
        # a replica at the source's penalty in value and sign keeps its step
        # rows; a 0.0 replica of a -0.0 env (or the reverse) is priced anew,
        # as its escaped skips earn 0.0 where the source's earn -0.0. Each
        # replica plays the table of an env built at its own penalty.
        cfg = dataclasses.replace(EnvConfig(), bug_probability=1.0, detection_rates=(1.0, 0.7, 0.5))
        trace = generate_trace(cfg, 60, seed=3)
        actions = np.random.default_rng(7).integers(0, 3, len(trace)).tolist()
        for source, penalties, shared in [
            (5.0, [5.0, 5, 7.0], [True, True, False]),
            (-0.0, [-0.0, 0.0], [True, False]),
            (0.0, [0.0, -0.0], [True, False]),
        ]:
            env = PipelineEnv(trace, cfg, source, seed=2)
            replicas = env.replicas(penalties)
            assert [r._prices is env._prices for r in replicas] == shared
            for replica, penalty in zip(replicas, penalties):
                fresh = PipelineEnv(trace, cfg, penalty, seed=2)
                for action in actions:
                    replica.step(action)
                    fresh.step(action)
                assert repr(step_table(replica)) == repr(step_table(fresh))
            if source == 0.0:
                # the signs of zero show in the escaped skips' rewards
                assert repr(step_table(replicas[0])) != repr(step_table(replicas[1]))


class TestStepEnvs:
    def test_steps_each_env_once_in_order_as_single_steps_do(self, monkeypatch):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 40, seed=8)
        penalties = [0.0, 5.0, 50.0]
        envs = PipelineEnv(trace, cfg, 5.0, seed=2).replicas(penalties)
        alone = PipelineEnv(trace, cfg, 5.0, seed=2).replicas(penalties)
        step, order = PipelineEnv.step, []

        def recorded(env, action):
            order.append(env)
            return step(env, action)

        monkeypatch.setattr(PipelineEnv, "step", recorded)
        for actions in np.random.default_rng(3).integers(0, 3, (len(trace), 3)).tolist():
            order.clear()
            rewards, done = step_envs(envs, actions)
            assert order == envs
            expected = [step(env, action) for env, action in zip(alone, actions)]
            assert rewards == [reward for reward, _ in expected]
            assert all(done == flag for _, flag in expected)
        assert done
        assert [step_table(env) for env in envs] == [step_table(env) for env in alone]
        # the penalties priced some step apart
        assert len({stats.total_reward for stats in episode_stats(envs)}) == len(penalties)

    def test_no_envs_rejected(self):
        # unchecked, the loop never ran and the done flag was never bound
        with pytest.raises(ValueError, match="need at least one environment"):
            step_envs([], [])

    @pytest.mark.parametrize("count", [2, 4])
    def test_a_wrong_number_of_actions_steps_no_env(self, count):
        # unchecked, zip stepped only the envs that got an action
        cfg = EnvConfig()
        envs = PipelineEnv(generate_trace(cfg, 10, seed=8), cfg, 5.0, seed=2).replicas([5.0] * 3)
        with pytest.raises(ValueError, match=f"got {count} actions for 3 environments"):
            step_envs(envs, [Action.SKIP_TESTS] * count)
        assert all(step_table(env).action == () for env in envs)


lockstep_kinds = st.sampled_from(
    [("standard", 0.15), ("adversarial", 0.15), ("standard", 1.0), ("standard", 0.0)]
)


def lockstep_runs(kind, runs: int, length: int, state_cfg: StateConfig, seed: int):
    """``(cfg, lockstep, alone, rows)``: two equal sets of ``runs`` fresh envs
    over traces of ``length`` commits, and the traces' encoded rows."""
    mode, bug_probability = kind
    cfg = dataclasses.replace(EnvConfig(), bug_probability=bug_probability, state=state_cfg)
    traces = [generate_trace(cfg, length, seed=derive_seed(seed, i), mode=mode) for i in range(runs)]
    if bug_probability in (0.0, 1.0):
        assert all(t.has_bug.all() == bool(bug_probability) == t.has_bug.any() for t in traces)
    lockstep, alone = (
        [PipelineEnv(t, cfg, 5.0, seed=derive_seed(seed, i, 1)) for i, t in enumerate(traces)]
        for _ in range(2)
    )
    rows = encode_rows(np.stack([t.metadata() for t in traces]), cfg.state)
    return cfg, lockstep, alone, traces, rows


class TestLockstepStates:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=lockstep_kinds,
        runs=st.sampled_from([2, 7, 30]),
        # episodes shorter than the window as well as longer ones
        length=st.integers(1, 40),
        window=st.integers(1, 12),
        cap=st.integers(1, 8),
        # a run of skips, up to well past the gap's cap, from a random commit
        streak=st.tuples(st.integers(0, 39), st.integers(0, 25)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_equals_the_run_read_alone(
        self, kind, runs, length, window, cap, streak, seed
    ):
        # the B-run read keeps arrays, a run read alone Python ints; the
        # formula tests below check the one-run read
        state_cfg = StateConfig(history_window=window, full_test_gap_cap=cap)
        cfg, lockstep, alone, traces, rows = lockstep_runs(kind, runs, length, state_cfg, seed)
        actions = np.random.default_rng(seed).integers(0, 3, (length, runs))
        start, count = streak
        actions[start : start + count] = Action.SKIP_TESTS
        expected = np.stack(
            [play(env, trace, column) for env, trace, column in zip(alone, traces, actions.T.tolist())],
            axis=1,
        )
        read = 0
        for t, states in enumerate(lockstep_states(lockstep, rows, cfg.state)):
            assert states.shape == (runs, STATE_DIM)
            assert states.tobytes() == expected[t].tobytes()
            step_envs(lockstep, actions[t].tolist())
            read += 1
        assert read == length
        assert [env.codes for env in lockstep] == [env.codes for env in alone]

    @settings(max_examples=40, deadline=None)
    @given(
        kind=lockstep_kinds,
        runs=st.sampled_from([1, 2, 7, 30]),
        length=st.integers(1, 30),
        fault=st.tuples(st.integers(0, 29), st.integers(0, 29), st.sampled_from([0, 2])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_env_not_stepped_once_between_states_raises(self, kind, runs, length, fault, seed):
        # run ``b`` steps ``steps`` times, not once, after state ``t``; the
        # last state's step is checked when the reader is exhausted
        cfg, envs, _, _, rows = lockstep_runs(kind, runs, length, StateConfig(), seed)
        t, b, steps = fault[0] % length, fault[1] % runs, fault[2]
        if steps == 2 and t == length - 1:
            steps = 0  # a finished episode cannot step twice
        reader = lockstep_states(envs, rows, cfg.state)
        for _ in range(t):
            next(reader)
            step_envs(envs, [Action.PARTIAL_TESTS] * runs)
        next(reader)
        for k, env in enumerate(envs):
            for _ in range(steps if k == b else 1):
                env.step(Action.FULL_TESTS)
        stepped = [t + 1] * runs
        stepped[b] = t + steps
        match = re.escape(f"before commit {t + 1} they stepped {stepped} commits")
        with pytest.raises(ValueError, match=match):
            next(reader)

    def test_rows_that_do_not_fit_the_envs_rejected(self):
        cfg, envs, _, _, rows = lockstep_runs(("standard", 0.15), 3, 10, StateConfig(), 5)
        for bad in (rows[:2], rows[:, :-1]):
            with pytest.raises(ValueError, match="do not fit 3 envs of one length"):
                next(lockstep_states(envs, bad, cfg.state))


def formula_state(
    commit: Commit | ObservedCommit, cfg: StateConfig, detections, actions, prev_diff
) -> np.ndarray:
    """The 10-feature state written out in one expression, clipped once.

    ``detections`` and ``actions`` are the outcomes and actions of every
    commit processed before ``commit``; ``prev_diff`` is the last one's diff.
    """
    recent = detections[max(0, len(detections) - cfg.history_window):]
    fraction = sum(recent) / len(recent) if recent else 0.0
    fulls = [k for k, a in enumerate(actions) if a == Action.FULL_TESTS]
    since = len(actions) - 1 - fulls[-1] if fulls else len(actions)
    features = np.array(
        [
            min(commit.diff_size, cfg.diff_cap) / cfg.diff_cap,
            min(commit.files_changed, cfg.files_cap) / cfg.files_cap,
            commit.source_fraction,
            commit.developer_defect_rate,
            commit.developer_experience,
            fraction,
            1.0 if detections and detections[-1] else 0.0,
            min(since, cfg.full_test_gap_cap) / cfg.full_test_gap_cap,
            fraction,
            min(prev_diff, cfg.diff_cap) / cfg.diff_cap,
        ],
        dtype=np.float64,
    )
    return np.clip(features, 0.0, 1.0)


out_of_range_commits = st.builds(
    make_commit,
    diff_size=st.one_of(st.integers(-50, 0), st.integers(1, 5000)),
    files_changed=st.integers(-5, 100),
    source_fraction=st.floats(-1.0, 2.0),
    developer_defect_rate=st.floats(-1.0, 2.0),
    developer_experience=st.floats(-1.0, 2.0),
    has_bug=st.booleans(),
)


class TestEncodingIsBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(
        trace_seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 40),
        odd=out_of_range_commits,
        odd_at=st.integers(0, 40),
        state_cfg=st.builds(
            StateConfig,
            diff_cap=st.integers(1, 600),
            files_cap=st.integers(1, 30),
            history_window=st.integers(1, 6),
            full_test_gap_cap=st.integers(1, 8),
        ),
        env_seed=st.integers(0, 2**32 - 1),
        # Action members and plain ints, one per commit of the longest trace
        choices=st.lists(
            st.one_of(st.sampled_from(list(Action)), st.integers(0, 2)), min_size=41, max_size=41
        ),
    )
    def test_every_state_matches_the_formula(
        self, trace_seed, length, odd, odd_at, state_cfg, env_seed, choices
    ):
        cfg = dataclasses.replace(EnvConfig(), bug_probability=0.5, state=state_cfg)
        trace = records(cfg, length, seed=trace_seed)
        trace.insert(min(odd_at, length), odd)
        env = PipelineEnv(as_trace(trace), cfg, 5.0, seed=env_seed)
        states = play(env, as_trace(trace), choices[: len(trace)])
        detections = step_table(env).detected
        actions = [Action(action) for action in choices[: len(trace)]]
        for t, commit in enumerate(trace):
            prev_diff = trace[t - 1].diff_size if t else 0
            expected = formula_state(commit, state_cfg, detections[:t], actions[:t], prev_diff)
            assert states[t].tobytes() == expected.tobytes()
        assert states[-1].tobytes() == np.zeros(STATE_DIM).tobytes()

    def test_nan_and_negative_zero_keep_the_bits_of_np_clip(self):
        nan = float("nan")
        commits = [
            make_commit(
                diff_size=nan, files_changed=-0.0, source_fraction=-nan, developer_defect_rate=-0.0
            ),
            make_commit(diff_size=-0.0, files_changed=nan, developer_experience=-0.0),
            make_commit(diff_size=-7, files_changed=-2, source_fraction=1.5, developer_experience=-nan),
        ]
        expected = np.stack([formula_state(c, StateConfig(), [], [], 0)[:5] for c in commits])
        features = metadata_features(as_trace(commits).metadata(), StateConfig())
        assert features.tobytes() == expected.tobytes()
        assert features[2, :4].tolist() == [0.0, 0.0, 1.0, 0.2]

    @pytest.mark.parametrize("mode", ["standard", "adversarial"])
    @pytest.mark.parametrize("caps", [(500, 20), (37, 3)])
    def test_encoder_matches_the_formula_on_generated_commits(self, mode, caps):
        cfg = StateConfig(diff_cap=caps[0], files_cap=caps[1])
        trace = generate_trace(EnvConfig(), 500, seed=31, mode=mode)
        commits = trace_records(trace, EnvConfig())
        expected = np.stack([formula_state(c, cfg, [], [], 0)[:5] for c in commits])
        features = metadata_features(as_trace(commits).metadata(), cfg)
        assert features.shape == (500, 5)
        assert features.tobytes() == expected.tobytes()
        # the trace's columns encode as its commit records do
        assert metadata_features(trace.metadata(), cfg).tobytes() == expected.tobytes()

    @given(
        outcomes=st.lists(st.booleans(), min_size=20, max_size=60),
        window=st.integers(1, 6),
    )
    def test_failure_fraction_is_the_window_mean(self, outcomes, window):
        states = states_after(outcomes, StateConfig(history_window=window))
        for t, state in enumerate(states[1:], start=1):
            recent = outcomes[max(0, t - window) : t]
            assert state[5] == sum(recent) / len(recent)

    @pytest.mark.parametrize("window", [1, 3, 10])
    def test_window_fraction_before_at_and_past_a_full_window(self, window):
        # outcomes that differ between consecutive windows, so a window off by
        # one commit reads a different fraction
        outcomes = [k % 3 == 0 or k % 7 == 1 for k in range(3 * window + 5)]
        states = states_after(outcomes, StateConfig(history_window=window))
        assert states[0][5] == states[0][8] == 0.0
        for t, state in enumerate(states[1:], start=1):
            last = outcomes[:t][-window:]
            assert len(last) == min(t, window)  # t < w, t = w and t > w all occur
            assert state[5] == state[8] == sum(last) / len(last)
            assert state[6] == float(outcomes[t - 1])

    def test_env_states_equal_the_formula_as_the_window_wraps(self):
        cfg = dataclasses.replace(
            EnvConfig(), bug_probability=0.5, state=StateConfig(history_window=3)
        )
        trace = generate_trace(cfg, 120, seed=14, mode="adversarial")
        actions = np.random.default_rng(15).integers(0, 3, len(trace)).tolist()
        env = PipelineEnv(trace, cfg, 5.0, seed=16)
        states = play(env, trace, actions)
        detected = step_table(env).detected
        commits = observe(trace)
        for t, (state, commit) in enumerate(zip(states, commits)):
            prev_diff = commits[t - 1].diff_size if t else 0
            expected = formula_state(commit, cfg.state, detected[:t], actions[:t], prev_diff)
            assert state.tobytes() == expected.tobytes()
        assert states[-1].tobytes() == np.zeros(STATE_DIM).tobytes()
        # the window wrapped many times over both outcomes
        assert 20 <= sum(detected) <= len(trace) - 20
