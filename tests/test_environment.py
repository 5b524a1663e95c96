"""Pipeline environment: state encoding, outcome codes, prices, step mechanics."""

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
    code_array,
    encode_rows,
    encode_state,
    episode_stats,
    lockstep_play,
    metadata_features,
    outcome_codes,
    price_table,
)
from trace_helpers import (
    EMPTY_TABLE,
    as_trace,
    field_bits,
    folded_stats,
    fractional_cfg,
    play,
    records,
    step_table,
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


def env_of(trace: Trace, cfg: EnvConfig | None = None, seed: int = 0) -> PipelineEnv:
    """A fresh env over the outcome codes of ``trace`` under ``cfg`` and ``seed``."""
    return PipelineEnv(outcome_codes(trace, cfg or EnvConfig(), seed))


def table(env: PipelineEnv, cfg: EnvConfig | None = None, penalty: float = 5.0):
    """``env``'s step table, priced under ``cfg`` at ``penalty``."""
    return step_table(env, price_table(cfg or EnvConfig(), (penalty,))[0])


def played(trace: Trace | list[Commit], action, penalty: float = 5.0, cfg=None, seed: int = 0):
    """Step every commit of a trace or of a list of records under ``action``;
    returns the step table, whose codes are the ones the steps returned."""
    trace = trace if isinstance(trace, Trace) else as_trace(trace)
    env = env_of(trace, cfg, seed)
    codes = [env.step(action) for _ in range(len(trace))]
    assert codes == list(env.codes)
    return table(env, cfg, penalty)


def detected_column(action, n: int, seed: int, has_bug: bool = True) -> tuple[bool, ...]:
    """Whether each of ``n`` commits, all buggy or all clean, is caught under ``action``.

    Each buggy commit draws one number from the env's generator, seeded with ``seed``.
    """
    return played([make_commit(id=i, has_bug=has_bug) for i in range(n)], action, seed=seed).detected


def first_state(commit: Commit, cfg: StateConfig | None = None) -> np.ndarray:
    """The state the environment shows for ``commit`` at the start of an episode."""
    trace = as_trace([commit])
    return play(env_of(trace), trace, cfg or StateConfig(), [])[0]


def states_after(outcomes: list[bool], state_cfg: StateConfig) -> list[np.ndarray]:
    """The states of an all-buggy trace whose t-th commit is caught exactly
    when ``outcomes[t]``: state t follows the first t outcomes.

    On such a trace the action decides each outcome: full tests catch every
    bug (rate 1.0) and skipping catches none (rate 0.0).
    """
    cfg = dataclasses.replace(EnvConfig(), bug_probability=1.0, state=state_cfg)
    trace = generate_trace(cfg, len(outcomes) + 1, seed=0)
    assert trace.has_bug.all()
    env = env_of(trace, cfg)
    actions = [Action.FULL_TESTS if caught else Action.SKIP_TESTS for caught in outcomes]
    states = play(env, trace, state_cfg, actions)
    assert table(env).detected == tuple(outcomes)
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
        env = env_of(trace, cfg, seed=3)
        states = play(env, trace, cfg.state, [Action(t % 3) for t in range(len(trace) - 1)])
        assert any(table(env).detected)
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
            env = env_of(played_trace, cfg, seed=1)
            states.append(play(env, played_trace, cfg.state, [Action.SKIP_TESTS] * len(trace)))
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
        env = env_of(trace)
        # the partial suite catches the bug: seed 0's first draw is below its 0.7 rate
        _, state, after = play(env, trace, cfg, [Action.PARTIAL_TESTS, Action.FULL_TESTS])
        assert table(env).detected == (True, False)
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
        assert played([make_commit(has_bug=False)], Action.FULL_TESTS, 5.0).reward == (-10.0,)

    def test_escaped_bug_penalty(self):
        assert played([make_commit(has_bug=True)], Action.SKIP_TESTS, 5.0).reward == (-5.0,)

    def test_clean_skip_is_free(self):
        assert played([make_commit(has_bug=False)], Action.SKIP_TESTS, 123.0).reward == (0.0,)

    def test_negative_penalty_rejected(self):
        # the prices are built before any step, so a bad penalty fails there,
        # alone or among good ones
        for penalty in (-0.1, float("nan"), float("inf")):
            for penalties in ((penalty,), (5.0, penalty)):
                with pytest.raises(ValueError, match="must be finite and >= 0"):
                    price_table(EnvConfig(), penalties)

    @pytest.mark.parametrize("penalty", [True, False, np.True_, "5", "5.0", None])
    def test_a_penalty_that_is_not_a_number_rejected(self, penalty):
        # unchecked, float() priced True as 1.0 and "5" as 5.0
        match = "escape penalties must be numbers, got " + re.escape(repr([penalty]))
        for penalties in ((penalty,), (0.0, penalty), (1.0, penalty)):
            with pytest.raises(ValueError, match=match):
                price_table(EnvConfig(), penalties)

    def test_each_run_is_charged_its_own_penalty(self):
        # skipping catches half the bugs here, so the shared draws decide
        # which commits escape, and each escape costs its run's penalty
        cfg = dataclasses.replace(
            EnvConfig(), bug_probability=1.0, detection_rates=(1.0, 0.7, 0.5)
        )
        trace = generate_trace(cfg, 40, seed=3)
        assert trace.has_bug.all()
        outcomes = outcome_codes(trace, cfg, seed=2)
        envs = [PipelineEnv(outcomes) for _ in range(2)]
        for env in envs:
            for _ in range(len(trace)):
                env.step(Action.SKIP_TESTS)
        free, costly = (step_table(env, p) for env, p in zip(envs, price_table(cfg, (0.0, 7.0))))
        assert free.detected == costly.detected
        assert free.escaped == costly.escaped
        assert any(free.detected) and any(free.escaped)
        assert free.reward == tuple(-0.0 * e for e in free.escaped)
        assert costly.reward == tuple(-7.0 * e for e in costly.escaped)

    def test_negative_test_minutes_rejected(self):
        cfg = dataclasses.replace(EnvConfig(), test_minutes=(-1.0, 3.0, 0.0))
        with pytest.raises(ValueError, match="test_minutes must be >= 0"):
            price_table(cfg, (5.0,))

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
        steps = played([make_commit(has_bug=escaped)], Action.FULL_TESTS, penalty, cfg)
        assert steps.escaped == (escaped,) and steps.test_minutes == (minutes,)
        assert steps.reward == (-minutes - penalty * escaped,)


class TestPriceTable:
    def test_each_code_is_priced_by_its_action_and_kind(self):
        cfg = fractional_cfg()
        prices = price_table(cfg, (4.0, 9.5))
        assert prices.shape == (2, 9, 3) and prices.dtype == np.float64
        for penalty, rows in zip((4.0, 9.5), prices.tolist()):
            for code, (test, pipeline, reward) in enumerate(rows):
                action, kind = divmod(code, 3)
                minutes = cfg.test_minutes[action]
                caught = cfg.build_minutes + minutes
                passed = caught + cfg.deploy_minutes
                assert test == minutes
                assert pipeline == (passed, caught, passed + cfg.escape_delay_minutes)[kind]
                assert reward == -minutes - penalty * (kind == 2)

    def test_a_row_is_the_table_of_its_penalty_alone(self):
        # a penalty's row does not depend on the penalties priced beside it,
        # and int penalties price as their floats
        cfg = fractional_cfg()
        penalties = [5.0, 5, 7.0, 0.0, -0.0]
        prices = price_table(cfg, penalties)
        for row, penalty in zip(prices, penalties):
            assert row.tobytes() == price_table(cfg, (float(penalty),))[0].tobytes()

    def test_signed_zero_penalties_differ_in_the_escaped_skip_reward_alone(self):
        # an escaped skip costs -0.0 - penalty: -0.0 at 0.0 and 0.0 at -0.0
        zero, negative_zero = price_table(fractional_cfg(), (0.0, -0.0))
        differ = np.argwhere(zero.view(np.uint64) != negative_zero.view(np.uint64))
        assert differ.tolist() == [[3 * Action.SKIP_TESTS + 2, 2]]
        assert zero[8, 2].hex() == (-0.0).hex() and negative_zero[8, 2].hex() == (0.0).hex()

    def test_no_penalties_give_no_rows(self):
        assert price_table(EnvConfig(), ()).shape == (0, 9, 3)


class TestEpisodeTotals:
    def test_totals_add_in_step_order_from_zero(self):
        # a running sum from 0.0 loses both -1.0 rewards to rounding next to
        # -1e16; an exact or compensated sum would keep them
        cfg = dataclasses.replace(EnvConfig(), test_minutes=(1.0, 3.0, 0.0))
        trace = as_trace([make_commit(), make_commit(has_bug=True), make_commit()])
        env = env_of(trace, cfg)
        for action in (Action.FULL_TESTS, Action.SKIP_TESTS, Action.FULL_TESTS):
            env.step(action)
        prices = price_table(cfg, (1e16,))
        rewards = step_table(env, prices[0]).reward
        assert rewards == (-1.0, -1e16, -1.0)
        (stats,) = episode_stats(code_array([env]), prices)
        assert stats.total_reward == -1e16 != math.fsum(rewards)
        assert stats.total_test_minutes == 2.0
        assert stats.action_counts == (2, 0, 1) and stats.bugs_escaped == 1

    def test_empty_episode(self):
        env = env_of(as_trace([make_commit()]))
        assert table(env) == EMPTY_TABLE
        (stats,) = episode_stats(code_array([env]), price_table(EnvConfig(), (5.0,)))
        assert stats == EpisodeStats(0, 0.0, 0.0, 0, 0, 0, (0, 0, 0), 0.0)
        totals = (stats.total_pipeline_minutes, stats.total_test_minutes, stats.total_reward)
        assert [math.copysign(1.0, total) for total in totals] == [1.0] * 3


class TestPipelineEnv:
    def test_empty_trace_rejected(self):
        empty = as_trace([])
        assert len(empty) == 0
        with pytest.raises(ValueError, match="trace must contain at least one commit"):
            outcome_codes(empty, EnvConfig())

    def test_returned_states_stay_valid(self):
        # later steps, and another episode over the same outcomes, leave the
        # states already returned untouched
        cfg = EnvConfig()
        trace = generate_trace(cfg, 30, seed=4)
        outcomes = outcome_codes(trace, cfg, seed=1)
        env, again = PipelineEnv(outcomes), PipelineEnv(outcomes)
        copies = []

        def action(state):
            copies.append(state.copy())
            return Action(len(copies) % 3)

        kept = play(env, trace, cfg.state, action)
        copies.append(kept[-1].copy())
        play(again, trace, cfg.state, [Action.SKIP_TESTS])
        for state, copy in zip(kept, copies, strict=True):
            assert state.tobytes() == copy.tobytes()

    def test_invalid_action_rejected(self):
        env = env_of(as_trace([make_commit()]))
        with pytest.raises(ValueError):
            env.step(3)
        assert env.codes == b""

    @pytest.mark.parametrize("action", [1.0, np.float64(2.0), 1.5])
    def test_non_integer_action_rejected_before_any_change(self, action):
        # 1.0 == 1, so a float can pass a membership test and then fail as
        # a list index; it must fail as a bad action, with nothing changed
        cfg = EnvConfig()
        trace = generate_trace(cfg, 5, seed=4)
        env = env_of(trace, cfg, seed=1)
        env.step(Action.PARTIAL_TESTS)
        steps = table(env)
        with pytest.raises(ValueError, match=re.escape(str(action))):
            env.step(action)
        assert table(env) == steps
        # the episode still has its other commits to play, and no more
        for _ in range(len(trace) - 1):
            env.step(Action.SKIP_TESTS)
        with pytest.raises(RuntimeError, match="episode is done"):
            env.step(Action.SKIP_TESTS)

    def test_stepping_done_episode_raises(self):
        # a one-commit episode is done after one step
        trace = generate_trace(EnvConfig(), 1, seed=4)
        env = env_of(trace, seed=1)
        code = env.step(Action.FULL_TESTS)
        assert env.codes == bytes([code])
        with pytest.raises(RuntimeError, match="episode is done"):
            env.step(Action.FULL_TESTS)
        assert env.codes == bytes([code])

    def test_episode_emits_exactly_trace_length_steps(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=6)
        env = env_of(trace, cfg, seed=2)
        codes = [env.step(Action.SKIP_TESTS) for _ in range(cfg.commits_per_episode)]
        with pytest.raises(RuntimeError, match="episode is done"):
            env.step(Action.SKIP_TESTS)
        assert bytes(codes) == env.codes and len(codes) == cfg.commits_per_episode

    def test_features_six_and_nine_are_always_equal(self):
        # tests fail only on a caught bug, so the failure and caught
        # fractions are one signal
        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=8)
        env = env_of(trace, cfg, seed=3)
        rng = np.random.default_rng(0)
        for state in play(env, trace, cfg.state, lambda _: Action(int(rng.integers(3)))):
            assert state[5] == state[8]
        assert any(table(env).detected)

    def test_detected_bug_rejected_before_deploy(self):
        # full tests on a buggy commit: no deploy time, no escape delay
        cfg = EnvConfig()
        steps = played([make_commit(has_bug=True)], Action.FULL_TESTS, 5.0, cfg)
        assert steps.detected == (True,) and steps.escaped == (False,)
        assert steps.pipeline_minutes == (cfg.build_minutes + 10.0,)
        assert steps.reward == (-10.0,)

    def test_escaped_bug_pays_delay(self):
        cfg = EnvConfig()
        steps = played([make_commit(has_bug=True)], Action.SKIP_TESTS, 5.0, cfg)
        assert steps.escaped == (True,) and steps.detected == (False,)
        expected = cfg.build_minutes + 0.0 + cfg.deploy_minutes + cfg.escape_delay_minutes
        assert steps.pipeline_minutes[0] == expected == 18.0
        assert steps.reward == (-5.0,)

    def test_clean_skip_pipeline_minutes(self):
        steps = played([make_commit(has_bug=False)], Action.SKIP_TESTS, 5.0)
        assert steps.pipeline_minutes == (3.0,)
        assert steps.reward == (0.0,)

    def test_pipeline_minutes_cover_test_minutes(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        env = env_of(trace, cfg, seed=3)
        for action in np.random.default_rng(1).integers(0, 3, 100).tolist():
            env.step(action)
        steps = table(env)
        assert len(steps.action) == 100
        for pipeline, test, detected, escaped in zip(
            steps.pipeline_minutes, steps.test_minutes, steps.detected, steps.escaped
        ):
            assert pipeline >= test
            assert not (detected and escaped)

    def test_replay_determinism(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        actions = [Action(int(a)) for a in np.random.default_rng(2).integers(0, 3, 100)]

        def replay():
            env = env_of(trace, cfg, seed=5)
            return play(env, trace, cfg.state, actions), table(env)

        (first, first_table), (second, second_table) = replay(), replay()
        assert first_table == second_table
        assert [s.tobytes() for s in first] == [s.tobytes() for s in second]

    def test_reward_identity_every_step(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=8)
        env = env_of(trace, cfg, seed=5)
        actions = np.random.default_rng(3).integers(0, 3, 100).tolist()
        codes = [env.step(action) for action in actions]
        steps = table(env, cfg, 7.0)
        assert codes == list(env.codes) and list(steps.action) == actions
        for reward, minutes, escaped in zip(steps.reward, steps.test_minutes, steps.escaped):
            assert reward == -minutes - 7.0 * escaped


lockstep_kinds = st.sampled_from(
    [("standard", 0.15), ("adversarial", 0.15), ("standard", 1.0), ("standard", 0.0)]
)


def kind_cfg(kind, cfg: EnvConfig | None = None) -> EnvConfig:
    """``cfg`` in the trace mode and bug probability of ``kind``."""
    mode, bug_probability = kind
    return dataclasses.replace(cfg or EnvConfig(), trace_mode=mode, bug_probability=bug_probability)


def kind_trace(cfg: EnvConfig, length: int, seed: int) -> Trace:
    """A trace of ``cfg``'s mode; an all-buggy or all-clean one when its bug
    probability is 1 or 0."""
    trace = generate_trace(cfg, length, seed=seed, mode=cfg.trace_mode)
    if cfg.bug_probability in (0.0, 1.0):
        assert trace.has_bug.all() == bool(cfg.bug_probability) == trace.has_bug.any()
    return trace


class TestSharedDraws:
    def test_detection_matches_a_scalar_draw_loop(self):
        # the k-th buggy commit is judged by the k-th scalar draw of the seed's generator
        cfg = EnvConfig()
        for seed, mode in ((0, "standard"), (5, "standard"), (9, "adversarial")):
            trace = generate_trace(cfg, 400, seed=seed + 100, mode=mode)
            outcomes = outcome_codes(trace, cfg, seed)
            for action, rate in zip(Action, cfg.detection_rates):
                rng = np.random.default_rng(seed)
                expected = tuple(bug and rng.random() < rate for bug in trace.has_bug.tolist())
                assert played(trace, action, cfg=cfg, seed=seed).detected == expected
                for env in (PipelineEnv(outcomes), PipelineEnv(outcomes)):
                    for _ in range(len(trace)):
                        env.step(action)
                    assert table(env).detected == expected

    @settings(max_examples=60, deadline=None)
    @given(kind=lockstep_kinds, length=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_envs_over_one_table_step_and_price_as_a_scalar_loop(self, kind, length, seed):
        # K envs share one outcome table and each plays its own actions; a
        # scalar loop gives each buggy commit the next draw and judges it
        # by the action's rate. Each run's stats are the left fold of its
        # step table, a signed zero penalty among the K, over fractional
        # minutes, so a sum in another order shows in its bits
        cfg = kind_cfg(kind, fractional_cfg())
        trace = kind_trace(cfg, length, seed)
        penalties = (0.0, -0.0, 5.0, 500.0)
        actions = np.random.default_rng(seed).integers(0, 3, (len(penalties), length)).tolist()
        draws, judged = np.random.default_rng(derive_seed(seed, 1)), []
        for bug in trace.has_bug.tolist():  # judged[t][action]: the kind of the outcome
            d = draws.random() if bug else None
            judged.append([0 if d is None else 1 if d < rate else 2 for rate in cfg.detection_rates])
        outcomes = outcome_codes(trace, cfg, derive_seed(seed, 1))
        envs = [PipelineEnv(outcomes) for _ in penalties]
        for env, run_actions in zip(envs, actions):
            codes = [env.step(action) for action in run_actions]
            assert codes == [3 * a + kinds[a] for a, kinds in zip(run_actions, judged)]
        prices = price_table(cfg, penalties)
        stats = episode_stats(code_array(envs), prices)
        tables = [step_table(env, p) for env, p in zip(envs, prices)]
        assert [field_bits(s) for s in stats] == [field_bits(folded_stats(t)) for t in tables]
        # the same codes priced at 0.0 and at -0.0: equal rewards, whose
        # signs differ exactly on the escaped skips (code 8)
        for env in envs:
            zero, negative_zero = (step_table(env, p).reward for p in prices[:2])
            assert zero == negative_zero
            signs = [r.hex() != s.hex() for r, s in zip(zero, negative_zero)]
            assert signs == [code == 8 for code in env.codes]

    def test_stepping_one_env_leaves_the_others_over_its_table_untouched(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 60, seed=8)
        rng = np.random.default_rng(6)
        actions = [Action(int(a)) for a in rng.integers(0, 3, 60)]
        outcomes = outcome_codes(trace, cfg, seed=2)
        first, second, third = (PipelineEnv(outcomes) for _ in range(3))

        def interrupted(state):
            t = len(second.codes)
            if t == 30:
                half_table = table(second)
                for a in reversed(actions):
                    first.step(a)
                assert table(second) == half_table and table(third) == EMPTY_TABLE
            return actions[t]

        kept = play(second, trace, cfg.state, interrupted)
        # the interrupted env finishes as an env played alone would, and
        # the untouched one starts as it does
        alone = env_of(trace, cfg, seed=2)
        states = play(alone, trace, cfg.state, actions)
        assert table(alone) == table(second)
        assert [s.tobytes() for s in states] == [s.tobytes() for s in kept]
        assert play(third, trace, cfg.state, [])[0].tobytes() == states[0].tobytes()


def lockstep_runs(kind, runs: int, length: int, state_cfg: StateConfig, seed: int):
    """``(cfg, lockstep, alone, traces, rows)``: two equal sets of ``runs``
    fresh envs over traces of ``length`` commits, and the traces' encoded
    rows."""
    cfg = kind_cfg(kind, dataclasses.replace(EnvConfig(), state=state_cfg))
    traces = [kind_trace(cfg, length, derive_seed(seed, i)) for i in range(runs)]
    tables = [outcome_codes(t, cfg, derive_seed(seed, i, 1)) for i, t in enumerate(traces)]
    lockstep, alone = ([PipelineEnv(outcomes) for outcomes in tables] for _ in range(2))
    rows = encode_rows(np.stack([t.metadata() for t in traces]), cfg.state)
    return cfg, lockstep, alone, traces, rows


def replaying(actions):
    """A closed-loop policy that ignores its states and gives, at its t-th
    call, ``actions[t]``, a list of one action per run; it records each
    call's states."""
    rows, seen = iter(actions), []

    def policy(states):
        seen.append(states.copy())
        return next(rows)

    policy.seen = seen
    return policy


class TestLockstepPlay:
    def test_steps_each_env_once_in_order_as_single_steps_do(self, monkeypatch):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 40, seed=8)
        outcomes = outcome_codes(trace, cfg, seed=2)
        envs, alone = ([PipelineEnv(outcomes) for _ in range(3)] for _ in range(2))
        rows = np.broadcast_to(encode_rows(trace.metadata(), cfg.state), (3, 41, STATE_DIM))
        step, order = PipelineEnv.step, []

        def recorded(env, action):
            order.append(env)
            return step(env, action)

        monkeypatch.setattr(PipelineEnv, "step", recorded)
        actions = np.random.default_rng(3).integers(0, 3, (len(trace), 3))
        played = 0
        for t, (_, chosen, codes, _) in enumerate(
            lockstep_play(envs, rows, cfg.state, replaying(actions.tolist()))
        ):
            assert order == envs
            order.clear()
            assert chosen == actions[t].tolist()
            assert codes == [step(env, action) for env, action in zip(alone, chosen)]
            played += 1
        assert played == len(trace)
        assert [env.codes for env in envs] == [env.codes for env in alone]
        # the penalties priced some step apart
        prices = price_table(cfg, [0.0, 5.0, 50.0])
        assert len({stats.total_reward for stats in episode_stats(code_array(envs), prices)}) == 3

    def test_no_envs_rejected(self):
        # unchecked, the loop stepped nothing and yielded B = 0 states
        rows = np.zeros((0, 11, STATE_DIM))
        with pytest.raises(ValueError, match="need at least one environment"):
            next(lockstep_play([], rows, StateConfig(), replaying([[]] * 10)))

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("index", [0, 6])
    def test_a_wrong_number_of_actions_steps_no_env(self, count, index):
        # unchecked, zip stepped only the envs that got an action
        cfg, envs, _, _, rows = lockstep_runs(("standard", 0.15), 3, 10, StateConfig(), 5)
        actions = [[Action.SKIP_TESTS] * (count if t == index else 3) for t in range(10)]
        play = lockstep_play(envs, rows, cfg.state, replaying(actions))
        with pytest.raises(ValueError, match=f"got {count} actions for 3 environments"):
            for _ in play:
                pass
        assert [len(env.codes) for env in envs] == [index] * 3

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
    def test_each_row_equals_the_run_played_alone(
        self, kind, runs, length, window, cap, streak, seed
    ):
        # the B-run play keeps arrays, a run played alone Python ints; the
        # formula tests below check the one-run play
        state_cfg = StateConfig(history_window=window, full_test_gap_cap=cap)
        cfg, lockstep, alone, traces, rows = lockstep_runs(kind, runs, length, state_cfg, seed)
        actions = np.random.default_rng(seed).integers(0, 3, (length, runs))
        start, count = streak
        actions[start : start + count] = Action.SKIP_TESTS
        expected = np.stack(
            [
                play(env, trace, cfg.state, column)
                for env, trace, column in zip(alone, traces, actions.T.tolist())
            ],
            axis=1,
        )
        policy = replaying(actions.tolist())
        steps = list(lockstep_play(lockstep, rows, cfg.state, policy))
        assert len(steps) == len(policy.seen) == length
        for t, (states, _, _, next_states) in enumerate(steps):
            assert states.shape == next_states.shape == (runs, STATE_DIM)
            assert states.tobytes() == policy.seen[t].tobytes() == expected[t].tobytes()
            assert next_states.tobytes() == expected[t + 1].tobytes()
        assert not steps[-1][3].any()  # the all-zero end row
        # the yielded codes, column by column, are the codes each env recorded
        yielded = np.array([codes for _, _, codes, _ in steps], dtype=np.uint8).T
        assert yielded.tobytes() == code_array(lockstep).tobytes() == code_array(alone).tobytes()

    def test_rows_that_do_not_fit_the_envs_rejected(self):
        cfg, envs, _, _, rows = lockstep_runs(("standard", 0.15), 3, 10, StateConfig(), 5)
        policy = replaying([[Action.FULL_TESTS] * 3] * 10)
        for bad in (rows[:2], rows[:, :-1]):
            with pytest.raises(ValueError, match="do not fit 3 envs of one length"):
                next(lockstep_play(envs, bad, cfg.state, policy))
        assert policy.seen == []

    def test_an_env_that_has_stepped_rejected(self):
        # the history starts empty, so an env past its first commit would
        # get states that its codes do not give
        cfg, envs, _, _, rows = lockstep_runs(("standard", 0.15), 3, 10, StateConfig(), 5)
        envs[1].step(Action.FULL_TESTS)
        with pytest.raises(ValueError, match=re.escape("got envs that stepped [0, 1, 0] commits")):
            next(lockstep_play(envs, rows, cfg.state, replaying([[Action.FULL_TESTS] * 3] * 10)))
        assert [len(env.codes) for env in envs] == [0, 1, 0]


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
        env = env_of(as_trace(trace), cfg, seed=env_seed)
        states = play(env, as_trace(trace), state_cfg, choices[: len(trace)])
        detections = table(env).detected
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
        env = env_of(trace, cfg, seed=16)
        states = play(env, trace, cfg.state, actions)
        detected = table(env).detected
        commits = observe(trace)
        for t, (state, commit) in enumerate(zip(states, commits)):
            prev_diff = commits[t - 1].diff_size if t else 0
            expected = formula_state(commit, cfg.state, detected[:t], actions[:t], prev_diff)
            assert state.tobytes() == expected.tobytes()
        assert states[-1].tobytes() == np.zeros(STATE_DIM).tobytes()
        # the window wrapped many times over both outcomes
        assert 20 <= sum(detected) <= len(trace) - 20
