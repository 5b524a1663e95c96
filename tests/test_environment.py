"""Pipeline environment: state encoding, detection, reward, step mechanics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testscope.commits import Commit, generate_trace
from testscope.config import EnvConfig, StateConfig
from testscope.environment import (
    Action,
    PipelineEnv,
    PipelineHistory,
    STATE_DIM,
    compute_reward,
    encode_state,
    sample_detection,
)


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


def fresh_history() -> PipelineHistory:
    return PipelineHistory(StateConfig())


class TestEncodeState:
    def test_zero_diff_gives_zero_feature(self):
        state = encode_state(make_commit(diff_size=0), fresh_history(), StateConfig())
        assert state[0] == 0.0

    def test_diff_at_cap_saturates(self):
        cfg = StateConfig()
        for diff in (cfg.diff_cap, cfg.diff_cap + 1, 10 * cfg.diff_cap):
            state = encode_state(make_commit(diff_size=diff), fresh_history(), cfg)
            assert state[0] == 1.0

    def test_empty_history_neutral_defaults(self):
        state = encode_state(make_commit(), fresh_history(), StateConfig())
        assert tuple(state[5:]) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_dimensions_and_bounds(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 500, seed=2)
        history = fresh_history()
        for commit in trace:
            state = encode_state(commit, history, cfg.state)
            assert state.shape == (STATE_DIM,)
            assert np.all(state >= 0.0) and np.all(state <= 1.0)
            assert np.all(np.isfinite(state))
            history.update(Action(commit.id % 3), commit.has_bug, commit)

    def test_independent_of_latent_bug_flag(self):
        commit = make_commit(has_bug=False)
        flipped = dataclasses.replace(commit, has_bug=True, risk_score=0.99)
        a = encode_state(commit, fresh_history(), StateConfig())
        b = encode_state(flipped, fresh_history(), StateConfig())
        np.testing.assert_array_equal(a, b)

    def test_pure_recomputation(self):
        history = fresh_history()
        history.update(Action.SKIP_TESTS, True, make_commit(diff_size=300))
        commit = make_commit()
        a = encode_state(commit, history, StateConfig())
        b = encode_state(commit, history, StateConfig())
        np.testing.assert_array_equal(a, b)

    def test_history_features_after_updates(self):
        cfg = StateConfig()
        history = fresh_history()
        history.update(Action.PARTIAL_TESTS, True, make_commit(diff_size=250))
        state = encode_state(make_commit(), history, cfg)
        assert state[5] == 1.0  # one of one recent commit failed
        assert state[6] == 1.0  # previous failed
        assert state[7] == 1.0 / cfg.full_test_gap_cap  # one commit since a full run
        assert state[8] == 1.0
        assert state[9] == 250 / cfg.diff_cap
        history.update(Action.FULL_TESTS, False, make_commit(diff_size=10))
        state = encode_state(make_commit(), history, cfg)
        assert state[5] == 0.5
        assert state[6] == 0.0
        assert state[7] == 0.0  # full tests reset the gap counter
        assert state[9] == 10 / cfg.diff_cap


class TestSampleDetection:
    def test_full_tests_always_catch(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(0)
        assert all(
            sample_detection(Action.FULL_TESTS, True, rng, cfg) for _ in range(2000)
        )

    def test_skip_never_catches(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(0)
        assert not any(
            sample_detection(Action.SKIP_TESTS, True, rng, cfg) for _ in range(2000)
        )

    def test_clean_commit_never_fails(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(0)
        for action in Action:
            assert not any(
                sample_detection(action, False, rng, cfg) for _ in range(500)
            )

    def test_partial_detection_rate(self):
        # Monte Carlo vs the 70% partial-suite detection rate
        cfg = EnvConfig()
        rng = np.random.default_rng(8)
        hits = sum(
            sample_detection(Action.PARTIAL_TESTS, True, rng, cfg) for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.70) <= 0.02

    def test_three_sigma_binomial_bounds(self):
        cfg = EnvConfig()
        n = 10_000
        for action, rate in zip(Action, cfg.detection_rates):
            rng = np.random.default_rng(15 + action)
            hits = sum(sample_detection(action, True, rng, cfg) for _ in range(n))
            sigma = np.sqrt(rate * (1.0 - rate) / n)
            assert abs(hits / n - rate) <= 3.0 * sigma + 1e-12


class TestComputeReward:
    def test_full_suite_cost(self):
        assert compute_reward(10.0, False, 5.0) == -10.0

    def test_escaped_bug_penalty(self):
        assert compute_reward(0.0, True, 5.0) == -5.0

    def test_clean_skip_is_free(self):
        assert compute_reward(0.0, False, 123.0) == 0.0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(1.0, False, -0.1)

    def test_negative_test_minutes_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(-1.0, False, 1.0)

    @given(
        minutes=st.floats(0, 1e4, allow_nan=False),
        escaped=st.booleans(),
        penalty=st.floats(0, 1e4, allow_nan=False),
    )
    def test_reward_identity(self, minutes, escaped, penalty):
        assert compute_reward(minutes, escaped, penalty) == -minutes - penalty * escaped


class TestPipelineEnv:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            PipelineEnv([], EnvConfig())

    def test_reset_is_idempotent(self):
        trace = generate_trace(EnvConfig(), 10, seed=4)
        env = PipelineEnv(trace, EnvConfig(), seed=1)
        first = env.reset()
        np.testing.assert_array_equal(first, env.reset())

    def test_reset_clears_history(self):
        trace = generate_trace(EnvConfig(), 10, seed=4)
        env = PipelineEnv(trace, EnvConfig(), seed=1)
        initial = env.reset()
        done = False
        while not done:
            _, _, done = env.step(Action.PARTIAL_TESTS, 5.0)
        np.testing.assert_array_equal(initial, env.reset())

    def test_single_commit_trace_finishes_in_one_step(self):
        trace = generate_trace(EnvConfig(), 1, seed=4)
        cfg = dataclasses.replace(EnvConfig(), commits_per_episode=1)
        env = PipelineEnv(trace, cfg, seed=1)
        env.reset()
        _, _, done = env.step(Action.FULL_TESTS, 5.0)
        assert done

    def test_stepping_done_episode_raises(self):
        trace = generate_trace(EnvConfig(), 1, seed=4)
        env = PipelineEnv(trace, EnvConfig(), seed=1)
        env.reset()
        env.step(Action.FULL_TESTS, 5.0)
        with pytest.raises(RuntimeError):
            env.step(Action.FULL_TESTS, 5.0)

    def test_episode_emits_exactly_trace_length_steps(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=6)
        env = PipelineEnv(trace, cfg, seed=2)
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done = env.step(Action.SKIP_TESTS, 5.0)
            steps += 1
        assert steps == cfg.commits_per_episode

    def test_features_six_and_nine_are_always_equal(self):
        # tests fail only on a caught bug, so the failure and caught
        # fractions are one signal
        cfg = EnvConfig()
        env = PipelineEnv(generate_trace(cfg, cfg.commits_per_episode, seed=8), cfg, seed=3)
        rng = np.random.default_rng(0)
        state, done, caught = env.reset(), False, 0
        while not done:
            assert state[5] == state[8]
            outcome, state, done = env.step(Action(int(rng.integers(3))), 5.0)
            caught += outcome.detected
        assert caught > 0

    def test_detected_bug_rejected_before_deploy(self):
        # full tests on a buggy commit: no deploy time, no escape delay
        cfg = EnvConfig()
        trace = [make_commit(has_bug=True)]
        env = PipelineEnv(trace, cfg, seed=0)
        env.reset()
        outcome, _, _ = env.step(Action.FULL_TESTS, 5.0)
        assert outcome.detected and not outcome.escaped
        assert outcome.pipeline_minutes == cfg.build_minutes + 10.0
        assert outcome.reward == -10.0

    def test_escaped_bug_pays_delay(self):
        cfg = EnvConfig()
        trace = [make_commit(has_bug=True)]
        env = PipelineEnv(trace, cfg, seed=0)
        env.reset()
        outcome, _, _ = env.step(Action.SKIP_TESTS, 5.0)
        assert outcome.escaped and not outcome.detected
        expected = cfg.build_minutes + 0.0 + cfg.deploy_minutes + cfg.escape_delay_minutes
        assert outcome.pipeline_minutes == expected == 18.0
        assert outcome.reward == -5.0

    def test_clean_skip_pipeline_minutes(self):
        cfg = EnvConfig()
        trace = [make_commit(has_bug=False)]
        env = PipelineEnv(trace, cfg, seed=0)
        env.reset()
        outcome, _, _ = env.step(Action.SKIP_TESTS, 5.0)
        assert outcome.pipeline_minutes == 3.0
        assert outcome.reward == 0.0

    def test_pipeline_minutes_cover_test_minutes(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        env = PipelineEnv(trace, cfg, seed=3)
        env.reset()
        rng = np.random.default_rng(1)
        done = False
        while not done:
            outcome, _, done = env.step(Action(int(rng.integers(3))), 5.0)
            assert outcome.pipeline_minutes >= outcome.test_minutes
            assert not (outcome.detected and outcome.escaped)

    def test_replay_determinism(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        actions = [Action(int(a)) for a in np.random.default_rng(2).integers(0, 3, 100)]

        def play():
            env = PipelineEnv(trace, cfg, seed=5)
            env.reset()
            return [env.step(a, 5.0)[0] for a in actions]

        assert play() == play()

    def test_reward_identity_every_step(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        env = PipelineEnv(trace, cfg, seed=5)
        env.reset()
        rng = np.random.default_rng(3)
        done = False
        while not done:
            outcome, _, done = env.step(Action(int(rng.integers(3))), 7.0)
            assert outcome.reward == -outcome.test_minutes - 7.0 * outcome.escaped


def formula_state(commit: Commit, cfg: StateConfig, detections, actions, prev_diff) -> np.ndarray:
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
        trace = generate_trace(cfg, length, seed=trace_seed)
        trace.insert(min(odd_at, length), odd)
        env = PipelineEnv(trace, cfg, seed=env_seed)
        history = PipelineHistory(state_cfg)
        detections, actions, prev_diff = [], [], 0
        state, done = env.reset(), False
        for commit, action in zip(trace, choices):
            expected = formula_state(commit, state_cfg, detections, actions, prev_diff)
            assert state.tobytes() == expected.tobytes()
            assert encode_state(commit, history, state_cfg).tobytes() == expected.tobytes()
            outcome, state, done = env.step(action, 5.0)
            history.update(Action(action), outcome.detected, commit)
            detections.append(outcome.detected)
            actions.append(Action(action))
            prev_diff = commit.diff_size
        assert done and state.tobytes() == np.zeros(STATE_DIM).tobytes()

    @given(
        outcomes=st.lists(st.booleans(), min_size=20, max_size=60),
        window=st.integers(1, 6),
    )
    def test_failure_fraction_is_the_window_mean(self, outcomes, window):
        history = PipelineHistory(StateConfig(history_window=window))
        for k, detected in enumerate(outcomes):
            history.update(Action.PARTIAL_TESTS, detected, make_commit())
            recent = outcomes[max(0, k + 1 - window) : k + 1]
            assert history.failure_fraction == sum(recent) / len(recent)
