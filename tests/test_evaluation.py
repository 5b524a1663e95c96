"""Evaluation harness: episode stats, metric aggregation, studies."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testscope import agent, commits, environment, evaluation
from testscope.agent import GreedyPolicy, greedy_action, train_agents
from testscope.baselines import (
    ClassifierPolicy,
    HeuristicPolicy,
    LogisticModel,
    StaticPolicy,
    commit_features,
    make_classifier,
    predict_risk,
)
from testscope.commits import generate_trace, observe
from testscope.config import (
    ConfigError, EnvConfig, StateConfig, TrainConfig, adversarial, derive_seed
)
from testscope.environment import Action, PipelineEnv, episode_stats
from testscope.evaluation import (
    REPORT_COLUMNS,
    adversarial_eval,
    compare_policies,
    compute_metrics,
    convergence_stats,
    comparison_rows,
    comparison_to_dict,
    exploration_corrected_curve,
    penalty_sweep,
    run_episode,
    sweep_rows,
    sweep_to_dict,
)
from testscope.fileio import json_text, rows_to_csv
from testscope.network import mlp_init

from trace_helpers import folded_stats, play, step_table


def refuse_traces(*args, **kwargs):
    raise AssertionError("a trace was generated")


def zero_bug_cfg() -> EnvConfig:
    return dataclasses.replace(EnvConfig(), bug_probability=0.0)


def four_policies():
    """static, heuristic, a classifier that uses all three tiers, an untrained net."""
    model = LogisticModel(weights=np.array([6.0, 1.0, 0.8, 5.0, -1.8]), bias=-3.0)
    return [
        StaticPolicy(),
        HeuristicPolicy(),
        ClassifierPolicy(model),
        GreedyPolicy(mlp_init((16, 16), seed=4)),
    ]


def always(action):
    """A policy that picks ``action`` on every commit of every run."""
    return lambda states: [action] * len(states)


class Recording:
    """Plays the closed-loop ``policy`` and records every action it returns,
    in order: each call's actions, one per run, row by row."""

    def __init__(self, policy):
        self.policy = policy
        self.actions = []

    def __call__(self, states):
        actions = self.policy(states)
        self.actions.extend(map(int, actions))
        return actions


class RecordingPlans(Recording):
    """Plans with ``policy`` and records the shape of every call's stacked
    columns and the actions of its plan, trace by trace, in order."""

    def __init__(self, policy):
        super().__init__(policy)
        self.shapes = []

    def plan(self, metadata):
        actions = self.policy.plan(metadata)
        self.shapes.append(metadata.shape)
        self.actions.extend(actions.reshape(-1).tolist())
        return actions


class FixedPlan:
    """A planner that plans the same ``actions`` for every trace."""

    def __init__(self, actions):
        self.actions = actions

    def plan(self, metadata):
        return np.tile(self.actions, (*metadata.shape[:-2], 1))


class DropsARun:
    """A planner that plans every trace but the first."""

    def plan(self, metadata):
        return HeuristicPolicy().plan(metadata)[1:]


def recording(policy):
    """A recorder of ``policy``'s actions that plans when ``policy`` does."""
    return RecordingPlans(policy) if hasattr(policy, "plan") else Recording(policy)


def episode(policy, cfg=None, trace_seed=1, env_seed=2, penalty=5.0, **kwargs):
    cfg = cfg or EnvConfig()
    trace = generate_trace(cfg, cfg.commits_per_episode, seed=trace_seed)
    return run_episode(policy, trace, penalty, cfg, seed=env_seed, **kwargs)


class TestRunEpisode:
    def test_static_policy_catches_everything(self):
        stats = episode(StaticPolicy())
        assert stats.bugs_escaped == 0
        assert stats.bugs_caught == stats.bugs_introduced
        assert stats.total_test_minutes == 1000.0
        assert stats.action_counts == (100, 0, 0)

    def test_always_skip_misses_everything(self):
        stats = episode(always(Action.SKIP_TESTS))
        assert stats.bugs_escaped == stats.bugs_introduced > 0
        assert stats.bugs_caught == 0
        assert stats.total_test_minutes == 0.0

    def test_trace_length_mismatch_rejected(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 50, seed=1)
        with pytest.raises(ValueError):
            run_episode(StaticPolicy(), trace, 5.0, cfg)

    def test_conservation_invariants(self):
        rng = np.random.default_rng(0)

        def random_policy(states):
            return rng.integers(3, size=len(states)).tolist()

        stats = episode(random_policy, env_seed=9)
        assert stats.bugs_caught + stats.bugs_escaped == stats.bugs_introduced
        assert sum(stats.action_counts) == stats.commits == 100

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_policies_never_see_ground_truth(self, n_runs):
        # a closed-loop policy gets one argument per commit index, the
        # (n_runs, 10) states of the runs' envs, which hold neither the bug
        # flag nor the risk score
        seen = []

        def probing_policy(*args, **kwargs):
            seen.append((args, kwargs))
            return [Action.FULL_TESTS] * len(args[0])

        if n_runs == 1:
            episode(probing_policy)
        else:
            compare_policies({"probe": probing_policy}, EnvConfig(), 5.0, n_runs=n_runs)
        assert len(seen) == 100
        for args, kwargs in seen:
            assert len(args) == 1 and not kwargs
            (states,) = args
            assert type(states) is np.ndarray
            assert states.shape == (n_runs, 10) and states.dtype == np.float64

    def test_recorded_actions(self):
        policy = recording(HeuristicPolicy())
        stats = episode(policy)
        assert policy.shapes == [(1, stats.commits, 5)]
        assert len(policy.actions) == stats.commits
        counted = tuple(policy.actions.count(a) for a in range(3))
        assert counted == stats.action_counts

    def test_deterministic(self):
        a = episode(HeuristicPolicy())
        b = episode(HeuristicPolicy())
        assert a == b


class TestRunEpisodes:
    def test_no_policy_observes_the_trace(self, monkeypatch):
        # planners plan from the trace's arrays and closed-loop policies act
        # on the state: no per-commit view is built
        def refuse(trace):
            raise AssertionError("the trace was observed")

        monkeypatch.setattr(evaluation, "observe", refuse)
        monkeypatch.setattr(commits, "observe", refuse)
        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=3)
        stats = [run_episode(p, trace, 5.0, cfg) for p in four_policies()]
        assert [s.commits for s in stats] == [len(trace)] * 4

    def test_simulation_builds_no_records_and_scores_no_risk(self, monkeypatch):
        # policies play and agents train on a trace's columns: no commit
        # record is built and no risk score computed, so neither can reach a policy
        def refuse(*args, **kwargs):
            raise AssertionError("a commit record or a risk score was computed")

        monkeypatch.setattr(commits, "risk_scores", refuse)
        monkeypatch.setattr(commits.Commit, "__init__", refuse)
        cfg = EnvConfig()
        names = ("static", "heuristic", "classifier", "rl")
        policies = dict(zip(names, four_policies()))
        policies["classifier"] = ClassifierPolicy(make_classifier(cfg))
        report, stats = compare_policies(policies, cfg, 5.0, n_runs=2, base_seed=3)
        assert sorted(report.reports) == sorted(names)
        assert all(len(runs) == 2 for runs in stats.values())
        adversarial_report = adversarial_eval(policies["classifier"], cfg, 5.0, n_runs=2)
        assert adversarial_report.metrics.runs == 2
        ((_, log),) = train_agents(cfg, TrainConfig(episodes=2, seed=1), (5.0,))
        assert len(log) == 2 and log[1].mean_td_loss > 0.0


def three_action_net():
    """A random network whose greedy policy picks every action on these traces."""
    net = mlp_init((64, 64), seed=2)
    net.biases[-1][:] = np.random.default_rng(2).normal(scale=0.1, size=3)
    return net


class TestLockstep:
    @pytest.mark.parametrize("mode", ["standard", "adversarial"])
    @pytest.mark.parametrize("n_runs", [1, 2, 7, 30])
    @pytest.mark.parametrize("net_kind", ["random", "three_actions"])
    def test_lockstep_equals_per_run_play(self, mode, n_runs, net_kind):
        # the reference plays each run alone, one single-state forward per commit
        cfg = dataclasses.replace(EnvConfig(), trace_mode=mode)
        net = three_action_net() if net_kind == "three_actions" else mlp_init((64, 64), seed=n_runs)
        base_seed = 40 + n_runs
        run_seeds = [derive_seed(base_seed, i) for i in range(n_runs)]
        traces = [generate_trace(cfg, 100, seed=derive_seed(s, 0)) for s in run_seeds]
        env_seeds = [derive_seed(s, 1) for s in run_seeds]
        alone = []
        for trace, seed in zip(traces, env_seeds):
            env = PipelineEnv(trace, cfg, 5.0, seed=seed)
            play(env, trace, lambda state: greedy_action(net, state))
            alone.append(step_table(env))

        (envs,) = evaluation._play([GreedyPolicy(net)], traces, env_seeds, 5.0, cfg)
        assert [step_table(env) for env in envs] == alone
        _, stats = compare_policies({"rl": GreedyPolicy(net)}, cfg, 5.0, n_runs, base_seed)
        assert stats["rl"] == [folded_stats(t) for t in alone]
        if net_kind == "three_actions":
            assert all(sum(column) for column in zip(*(s.action_counts for s in stats["rl"])))

    def test_one_forward_per_commit_index(self, monkeypatch):
        # five runs in lockstep: one batched forward per commit, not one per run and commit
        calls = []
        forward = agent.mlp_forward

        def counted(net, states):
            calls.append(states.shape)
            return forward(net, states)

        monkeypatch.setattr(agent, "mlp_forward", counted)
        cfg = EnvConfig()
        compare_policies({"rl": GreedyPolicy(three_action_net())}, cfg, 5.0, n_runs=5)
        assert calls == [(5, 1, 10)] * cfg.commits_per_episode

    @pytest.mark.parametrize("count", [1, 4])
    def test_a_call_with_the_wrong_number_of_actions_rejected(self, count):
        # unchecked, one action for three runs stepped the first run alone:
        # commits [20, 0, 0], and tp mean inf with std nan
        cfg = EnvConfig(commits_per_episode=20)
        with pytest.raises(ValueError, match=f"got {count} actions for 3 environments"):
            compare_policies({"one": lambda states: [1] * count}, cfg, 5.0, n_runs=3)

    @pytest.mark.parametrize("length", [15, 25])
    def test_a_plan_of_the_wrong_length_rejected(self, length):
        # unchecked, a 15-action plan played 15 of 20 commits per run
        cfg = EnvConfig(commits_per_episode=20)
        planner = FixedPlan(np.full(length, Action.PARTIAL_TESTS))
        match = rf"FixedPlan.plan gave shape \(2, {length}\), not \(2, 20\)"
        with pytest.raises(ValueError, match=match):
            compare_policies({"fixed": planner}, cfg, 5.0, n_runs=2)
        trace = generate_trace(cfg, 20, seed=1)
        with pytest.raises(ValueError, match=rf"shape \(1, {length}\), not \(1, 20\)"):
            run_episode(planner, trace, 5.0, cfg)

    @pytest.mark.parametrize("dtype", [bool, np.float64, object])
    def test_a_plan_that_is_not_integers_rejected(self, monkeypatch, dtype):
        # unchecked, a boolean plan played True as partial tests and False as
        # full tests: this planner's tts read 28.35 on 2 runs
        class SmallDiffs:
            def plan(self, metadata):
                return (metadata[..., 0] < 20).astype(dtype)

        cfg = EnvConfig(commits_per_episode=20)
        match = rf"SmallDiffs.plan gave {np.dtype(dtype)} actions, not integers"
        with pytest.raises(ValueError, match=match):
            compare_policies({"small": SmallDiffs()}, cfg, 5.0, n_runs=2)
        with pytest.raises(ValueError, match=match):
            adversarial_eval(SmallDiffs(), cfg, 5.0, n_runs=2)
        # the plan is refused before any of its envs steps
        steps = []
        monkeypatch.setattr(PipelineEnv, "step", lambda env, action: steps.append(action))
        with pytest.raises(ValueError, match=match):
            run_episode(SmallDiffs(), generate_trace(cfg, 20, seed=1), 5.0, cfg)
        assert steps == []

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_a_plan_with_the_wrong_run_count_rejected(self, n_runs):
        # a plan one run short is refused for its shape before any env steps
        cfg = EnvConfig(commits_per_episode=20)
        match = rf"DropsARun.plan gave shape \({n_runs - 1}, 20\), not \({n_runs}, 20\)"
        with pytest.raises(ValueError, match=match):
            compare_policies({"short": DropsARun()}, cfg, 5.0, n_runs=n_runs)
        with pytest.raises(ValueError, match=match):
            adversarial_eval(DropsARun(), cfg, 5.0, n_runs=n_runs)

    def test_one_plan_call_per_planner(self, monkeypatch):
        # each planner, the always-full reference among them, plans all runs
        # in one call on their stacked columns
        reference = []
        static_plan = StaticPolicy.plan

        def recorded(self, metadata):
            reference.append(metadata.shape)
            return static_plan(self, metadata)

        monkeypatch.setattr(StaticPolicy, "plan", recorded)
        cfg = EnvConfig()
        heuristic, classifier = map(recording, four_policies()[1:3])
        compare_policies({"heuristic": heuristic, "classifier": classifier}, cfg, 5.0, n_runs=3)
        shape = (3, cfg.commits_per_episode, 5)
        assert reference == heuristic.shapes == classifier.shapes == [shape]


def field_bits(stats: environment.EpisodeStats) -> list:
    """Each field's type and value, a float by its hex digits (so -0.0 and
    0.0 differ)."""
    return [
        (type(v), v.hex() if isinstance(v, float) else v) for v in dataclasses.astuple(stats)
    ]


class TestEpisodeStats:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(
            [("standard", 0.15), ("adversarial", 0.15), ("standard", 1.0), ("standard", 0.0)]
        ),
        runs=st.sampled_from([1, 2, 7, 30]),
        length=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_run_equals_a_left_fold_over_its_table(self, kind, runs, length, seed):
        # runs priced at different penalties, a signed zero among them, over
        # fractional minutes, so a sum in another order shows in its bits
        mode, bug_probability = kind
        cfg = dataclasses.replace(fractional_cfg(mode), bug_probability=bug_probability)
        rng = np.random.default_rng(seed)
        actions = rng.integers(0, 3, (runs, length)).tolist()
        envs = []
        for i, penalty in enumerate(rng.choice([4.9, 0.0, -0.0, 1e16], runs).tolist()):
            trace = generate_trace(cfg, length, seed=derive_seed(seed, i))
            if bug_probability in (0.0, 1.0):
                assert trace.has_bug.all() == bool(bug_probability) == trace.has_bug.any()
            envs.append(PipelineEnv(trace, cfg, penalty, seed=derive_seed(seed, i, 1)))
        for step_actions in zip(*actions):
            environment.step_envs(envs, step_actions)
        folded = [field_bits(folded_stats(step_table(env))) for env in envs]
        assert [field_bits(s) for s in episode_stats(envs)] == folded

    def test_an_all_skip_clean_episode_earns_positive_zero(self):
        # every step's reward is -0.0 (no test minutes, no escape); a fold
        # from 0.0 gives +0.0, which np.sum over the column would not
        cfg = dataclasses.replace(zero_bug_cfg(), test_minutes=(10.0, 3.0, 0.0))
        envs = [
            PipelineEnv(generate_trace(cfg, 50, seed=s), cfg, 5.0, seed=s) for s in range(3)
        ]
        for _ in range(50):
            environment.step_envs(envs, [Action.SKIP_TESTS] * 3)
        assert all(r == -0.0 for env in envs for r in step_table(env).reward)
        for stats, env in zip(episode_stats(envs), envs):
            assert stats.total_reward.hex() == stats.total_test_minutes.hex() == (0.0).hex()
            assert field_bits(stats) == field_bits(folded_stats(step_table(env)))
            assert stats.action_counts == (0, 0, 50) and stats.bugs_introduced == 0

    def test_envs_of_unequal_length_rejected(self):
        # codes of 3 and 1 steps would fill a (2, 2) array without the check
        cfg = EnvConfig()
        envs = [PipelineEnv(generate_trace(cfg, 5, seed=s), cfg, 5.0, seed=s) for s in range(2)]
        for action in (0, 1, 2):
            envs[0].step(action)
        envs[1].step(0)
        with pytest.raises(ValueError, match=r"equally many commits, got \[3, 1\]"):
            episode_stats(envs)
        with pytest.raises(ValueError, match=r"got \[\]"):
            episode_stats([])

    def test_a_planner_only_evaluation_encodes_no_rows(self, monkeypatch):
        # the rows are encoded when the first closed-loop policy plays, once
        # for all runs' stacked columns and every later policy, so a
        # planner's episode encodes none
        calls = []
        features = environment.metadata_features

        def counted(*args):
            calls.append(args[0].shape)
            return features(*args)

        monkeypatch.setattr(environment, "metadata_features", counted)
        cfg = EnvConfig()
        adversarial_eval(HeuristicPolicy(), cfg, 5.0, n_runs=3)
        compare_policies({"heuristic": HeuristicPolicy(), "static": StaticPolicy()}, cfg, 5.0, n_runs=3)
        assert calls == []
        compare_policies({"a": always(1), "b": always(2)}, cfg, 5.0, n_runs=3)
        assert calls == [(3, cfg.commits_per_episode, 5)]


class TestComputeMetrics:
    def test_static_against_itself(self):
        ref = [episode(StaticPolicy(), trace_seed=s, env_seed=s) for s in (1, 2, 3)]
        report = compute_metrics(ref, ref)
        assert report.tts.mean == 0.0 and report.tts.std == 0.0
        assert report.si.mean == 0.0
        assert report.dmr.mean == 0.0

    def test_skip_against_static(self):
        ref = [episode(StaticPolicy(), trace_seed=s, env_seed=s) for s in (1, 2)]
        skip = [episode(always(Action.SKIP_TESTS), trace_seed=s, env_seed=s) for s in (1, 2)]
        report = compute_metrics(skip, ref)
        assert report.tts.mean == 100.0
        assert report.dmr.mean == 100.0
        assert report.si.mean == 1000.0  # one core: minutes saved

    def test_throughput_on_clean_trace(self):
        # all-full on a bug-free trace: every commit takes 2 + 10 + 1 minutes
        cfg = zero_bug_cfg()
        stats = [episode(StaticPolicy(), cfg=cfg)]
        report = compute_metrics(stats, stats)
        assert report.tp.mean == pytest.approx(60.0 / 13.0, rel=1e-12)
        assert report.dmr.mean == 0.0  # no bugs introduced defines zero miss rate

    def test_mismatched_run_counts_rejected(self):
        stats = [episode(StaticPolicy())]
        with pytest.raises(ValueError):
            compute_metrics(stats, stats * 2)

    def test_metric_bounds(self):
        rng = np.random.default_rng(7)

        def random_policy(states):
            return rng.integers(3, size=len(states)).tolist()

        ref = [episode(StaticPolicy(), trace_seed=s, env_seed=s) for s in (1, 2, 3)]
        mixed = [episode(random_policy, trace_seed=s, env_seed=s) for s in (1, 2, 3)]
        report = compute_metrics(mixed, ref)
        for r in report.per_run:
            assert 0.0 <= r.dmr <= 100.0
            assert r.tts <= 100.0
            assert r.tp > 0.0

    def test_sample_std_over_runs(self):
        ref = [episode(StaticPolicy(), trace_seed=s, env_seed=s) for s in (1, 2, 3)]
        skip = [
            episode(always(Action.SKIP_TESTS), trace_seed=s, env_seed=s) for s in (1, 2, 3)
        ]
        report = compute_metrics(skip, ref)
        tps = [r.tp for r in report.per_run]
        assert report.tp.std == pytest.approx(np.std(tps, ddof=1))


class TestComparePolicies:
    def test_static_against_static_deltas_zero(self):
        report, _ = compare_policies(
            {"static": StaticPolicy(), "static_again": StaticPolicy()},
            EnvConfig(),
            escape_penalty=5.0,
            n_runs=3,
            base_seed=10,
        )
        for delta in report.deltas.values():
            assert delta.tp_improvement_pct == 0.0
            assert delta.dmr_delta_pp == 0.0

    def test_partial_everywhere_saves_seventy_percent(self):
        report, _ = compare_policies(
            {"partial": always(Action.PARTIAL_TESTS)},
            EnvConfig(),
            escape_penalty=5.0,
            n_runs=3,
            base_seed=10,
        )
        assert report.reports["partial"].tts.mean == 70.0
        assert {r.tts for r in report.reports["partial"].per_run} == {70.0}

    def test_trace_fairness(self):
        # every policy must see the identical commits in each run
        _, stats = compare_policies(
            {"a": HeuristicPolicy(), "b": always(Action.SKIP_TESTS)},
            EnvConfig(),
            escape_penalty=5.0,
            n_runs=4,
            base_seed=11,
        )
        for sa, sb in zip(stats["a"], stats["b"]):
            assert sa.bugs_introduced == sb.bugs_introduced

    def test_no_policies_rejected(self):
        with pytest.raises(ValueError):
            compare_policies({}, EnvConfig(), escape_penalty=5.0)

    def test_bad_env_rejected_before_any_trace(self, monkeypatch):
        # unchecked, the heuristic policy's runs report tts = -inf, std = nan
        monkeypatch.setattr(evaluation, "generate_trace", refuse_traces)
        env = EnvConfig(test_minutes=(10.0, float("inf"), 0.0))
        with pytest.raises(ConfigError, match="env.partial_test_minutes: must be finite"):
            compare_policies({"heuristic": HeuristicPolicy()}, env, escape_penalty=5.0, n_runs=2)
        with pytest.raises(ConfigError, match="env.partial_test_minutes: must be finite"):
            adversarial_eval(HeuristicPolicy(), env, escape_penalty=5.0, n_runs=2)

    def test_classifier_fitted_under_other_caps_scores_under_its_own(self):
        # the env encodes its state under the default caps; the classifier
        # encodes each trace's columns under the caps it was fitted with
        fitted = StateConfig(diff_cap=50, files_cap=3)
        model = make_classifier(dataclasses.replace(EnvConfig(), state=fitted))
        policy = ClassifierPolicy(model)
        env = EnvConfig()

        def tier(features) -> int:
            at = predict_risk(model, features)
            return Action.SKIP_TESTS if at < policy.tau_skip else (
                Action.PARTIAL_TESTS if at < policy.tau_partial else Action.FULL_TESTS
            )

        for cfg, play in [
            (env, lambda p: compare_policies({"classifier": p}, env, 5.0, n_runs=2, base_seed=1)),
            (adversarial(env), lambda p: adversarial_eval(p, env, 5.0, n_runs=2, base_seed=1)),
        ]:
            recorder = recording(policy)
            play(recorder)
            seen = [
                c
                for i in range(2)
                for c in observe(generate_trace(
                    cfg, cfg.commits_per_episode, seed=derive_seed(derive_seed(1, i), 0)
                ))
            ]
            assert recorder.actions == [tier(commit_features(c, fitted)) for c in seen]
            # under the env's caps some commit would get another tier
            assert recorder.actions != [tier(commit_features(c, env.state)) for c in seen]

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, monkeypatch, penalty):
        # unchecked, a NaN penalty reports beta NaN, which json.dumps writes as NaN
        monkeypatch.setattr(evaluation, "generate_trace", refuse_traces)
        match = "escape penalties must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            compare_policies({"heuristic": HeuristicPolicy()}, EnvConfig(), penalty, n_runs=2)
        with pytest.raises(ValueError, match=match):
            adversarial_eval(HeuristicPolicy(), EnvConfig(), penalty, n_runs=2)

    @pytest.mark.parametrize("penalty", [True, False, np.True_, "5", "5.0", None])
    def test_a_penalty_that_is_not_a_number_rejected(self, monkeypatch, penalty):
        # unchecked, float() priced True as 1.0 and "5" as 5.0, and such a
        # penalty trained and evaluated; a replica at the source's penalty
        # in value, as True is of 1.0, was not checked at all
        cfg = EnvConfig(commits_per_episode=20)
        trace = generate_trace(cfg, 20, seed=1)
        monkeypatch.setattr(agent, "generate_trace", refuse_traces)
        monkeypatch.setattr(evaluation, "generate_trace", refuse_traces)
        match = "escape penalties must be numbers, got " + re.escape(repr([penalty]))
        with pytest.raises(ValueError, match=match):
            PipelineEnv(trace, cfg, penalty)
        for source in (0.0, 1.0):
            with pytest.raises(ValueError, match=match):
                PipelineEnv(trace, cfg, source).replicas([source, penalty])
        with pytest.raises(ValueError, match=match):
            train_agents(cfg, TrainConfig(), (1.0, penalty))
        with pytest.raises(ValueError, match=match):
            compare_policies({"heuristic": HeuristicPolicy()}, cfg, penalty, n_runs=2)
        with pytest.raises(ValueError, match=match):
            adversarial_eval(HeuristicPolicy(), cfg, penalty, n_runs=2)

    def test_an_int_penalty_plays_as_its_float(self):
        cfg = EnvConfig(commits_per_episode=20)
        train_cfg = TrainConfig(episodes=3, minibatch_size=8, hidden_sizes=(8,), seed=4)
        (as_int,), (as_float,) = (train_agents(cfg, train_cfg, (p,)) for p in (500, 500.0))
        assert as_int[0].flat.tobytes() == as_float[0].flat.tobytes()
        assert as_int[1] == as_float[1]
        policies = {"heuristic": HeuristicPolicy(), "rl": GreedyPolicy(as_int[0])}
        (_, by_int), (_, by_float) = (compare_policies(policies, cfg, p, n_runs=2) for p in (7, 7.0))
        assert by_int == by_float

    def test_an_int_penalty_reports_as_its_float(self):
        # the report keeps the float that the penalty check returns, so 7
        # and 7.0 write the same bytes; unchecked, 7 wrote "beta": 7
        cfg = EnvConfig(commits_per_episode=20)
        train_cfg = TrainConfig(episodes=2, minibatch_size=8, hidden_sizes=(8,), seed=4)
        texts = []
        for penalties in ((7, 0), (7.0, 0.0)):
            report, _ = compare_policies({"heuristic": HeuristicPolicy()}, cfg, penalties[0], n_runs=2)
            assert report.escape_penalty.hex() == (7.0).hex()
            sweep = penalty_sweep(cfg, train_cfg, penalties, n_runs=2, eval_seed=3)
            assert [type(entry.escape_penalty) for entry in sweep] == [float, float]
            texts.append([
                json_text(comparison_to_dict(report)),
                rows_to_csv(comparison_rows(report), REPORT_COLUMNS),
                json_text(sweep_to_dict(sweep)),
                rows_to_csv(sweep_rows(sweep), REPORT_COLUMNS),
            ])
        assert '"beta": 7.0' in texts[0][0]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "name, value", [("n_runs", True), ("n_runs", 2.0), ("n_runs", "2"), ("n_runs", None),
                        ("base_seed", 1.5), ("base_seed", False), ("base_seed", "1")]
    )
    def test_a_run_count_or_seed_that_is_not_an_int_rejected(self, monkeypatch, name, value):
        # unchecked, n_runs=True played one run and wrote "n_runs": true,
        # and 2.0, "2" or a base seed of 1.5 failed with a bare TypeError
        monkeypatch.setattr(evaluation, "generate_trace", refuse_traces)
        runs = {"n_runs": 2, "base_seed": 1, name: value}
        match = f"{name} must be an int, got " + re.escape(repr(value))
        with pytest.raises(ValueError, match=match):
            compare_policies({"heuristic": HeuristicPolicy()}, EnvConfig(), 5.0, **runs)
        with pytest.raises(ValueError, match=match):
            adversarial_eval(HeuristicPolicy(), EnvConfig(), 5.0, **runs)

    def test_report_rows_schema(self):
        report, _ = compare_policies(
            {"static": StaticPolicy()}, EnvConfig(), escape_penalty=5.0, n_runs=2, base_seed=3
        )
        rows = comparison_rows(report)
        # 2 runs + mean + std
        assert len(rows) == 4
        assert [r["run"] for r in rows] == [0, 1, "mean", "std"]
        csv_text = rows_to_csv(rows, REPORT_COLUMNS, ["snapshot line"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "# snapshot line"
        assert lines[1] == "policy,beta,run,seed,tp,dmr,tts,si"
        assert len(lines) == 2 + len(rows)


class TestAdversarialEval:
    def test_static_policy_is_immune(self):
        report = adversarial_eval(StaticPolicy(), EnvConfig(), escape_penalty=5.0, n_runs=2)
        assert report.metrics.dmr.mean == 0.0
        assert report.low_diff_partial_fraction == 0.0

    def test_heuristic_partials_every_streak_commit(self):
        report = adversarial_eval(HeuristicPolicy(), EnvConfig(), escape_penalty=5.0, n_runs=3)
        assert report.low_diff_cutoff == 19
        assert report.low_diff_partial_fraction == 1.0

    def test_heuristic_leaks_hidden_low_diff_bugs(self):
        # partial tests miss ~30% of the streak bugs, so some leakage shows up
        report = adversarial_eval(HeuristicPolicy(), EnvConfig(), escape_penalty=5.0, n_runs=5)
        assert report.metrics.dmr.mean > 0.0

    @pytest.mark.parametrize("index", [1, 2, 3], ids=["heuristic", "classifier", "greedy"])
    def test_matches_a_recount_on_regenerated_traces(self, index):
        policy = four_policies()[index]
        cfg, n_runs, base_seed = EnvConfig(), 4, 21
        report = adversarial_eval(policy, cfg, escape_penalty=5.0, n_runs=n_runs, base_seed=base_seed)

        stress = adversarial(cfg)
        low_total = low_partial = 0
        for i in range(n_runs):
            run_seed = derive_seed(base_seed, i)
            trace = generate_trace(stress, stress.commits_per_episode, seed=derive_seed(run_seed, 0))
            recorder = recording(policy)
            run_episode(recorder, trace, 5.0, stress, seed=derive_seed(run_seed, 1))
            for diff, action in zip(trace.diff_size.tolist(), recorder.actions, strict=True):
                if diff <= report.low_diff_cutoff:
                    low_total += 1
                    low_partial += action == Action.PARTIAL_TESTS
        assert low_total > 0
        assert report.low_diff_partial_fraction == low_partial / low_total

        comparison, _ = compare_policies(
            {"policy": policy}, stress, 5.0, n_runs=n_runs, base_seed=base_seed
        )
        assert report.metrics == comparison.reports["policy"]


class TestPenaltySweep:
    def test_single_entry(self):
        env = dataclasses.replace(EnvConfig(), commits_per_episode=20)
        from testscope.config import TrainConfig

        train = TrainConfig(
            episodes=3, minibatch_size=8, buffer_capacity=100, hidden_sizes=(8, 8), seed=1
        )
        sweep = penalty_sweep(env, train, penalties=(5.0,), n_runs=2, eval_seed=4)
        assert [entry.escape_penalty for entry in sweep] == [5.0]

    def test_empty_penalties_rejected(self):
        from testscope.config import TrainConfig

        with pytest.raises(ValueError):
            penalty_sweep(EnvConfig(), TrainConfig(), penalties=())


class TestConvergenceStats:
    def test_constant_rewards_converge_at_window(self):
        report = convergence_stats(np.full(300, -42.0), window=100)
        assert report.converged_episode == 100

    def test_noisy_rewards_never_converge(self):
        # std/|mean| of Uniform(-100, -1) sits near 0.57, far above 3%
        rewards = np.random.default_rng(0).uniform(-100, -1, 400)
        report = convergence_stats(rewards, window=100, threshold=0.03)
        assert report.converged_episode is None

    def test_zero_mean_window_not_converged(self):
        rewards = np.concatenate([np.zeros(100), np.full(100, -5.0)])
        report = convergence_stats(rewards, window=100)
        assert report.converged_episode == 200

    def test_short_log_rejected(self):
        with pytest.raises(ValueError):
            convergence_stats(np.zeros(50), window=100)

    @pytest.mark.parametrize("window", [0, -3])
    def test_empty_or_negative_window_rejected(self, window):
        # a window of -3 would report convergence at episode -3
        with pytest.raises(ValueError, match=f"window {window} is outside 1..300"):
            convergence_stats(np.full(300, -42.0), window=window)

    def test_training_log_input(self):
        import testscope.agent as agent_mod

        records = [
            agent_mod.EpisodeRecord(i, -10.0, 0.5, 0.0, (1, 1, 1)) for i in range(120)
        ]
        rewards = [r.total_reward for r in records]
        assert convergence_stats(rewards, window=100).converged_episode == 100


class TestExplorationCorrectedCurve:
    def test_fewer_kept_episodes_than_the_window_rejected(self):
        # np.convolve swaps a kernel longer than the signal: 0 episodes, 71 values
        import testscope.agent as agent_mod

        records = [agent_mod.EpisodeRecord(i, -10.0, 0.5, 0.0, (1, 1, 1)) for i in range(30)]
        with pytest.raises(ValueError, match="window 100 is outside 1..30"):
            exploration_corrected_curve(records, -20.0, window=100)
        episodes, curve = exploration_corrected_curve(records, -20.0, window=30)
        assert episodes.tolist() == [30] and curve.tolist() == [0.0]


class MixedPolicy:
    """Plain ints that depend on each commit's diff, the history and its
    position in the episode, counted from the calls (one per commit index)."""

    def __init__(self, commits_per_episode: int):
        self.commits_per_episode = commits_per_episode
        self.calls = 0

    def __call__(self, states):
        position = self.calls % self.commits_per_episode
        self.calls += 1
        return [int(7 * s[0] + 5 * s[5] + 3 * s[9] + position) % 3 for s in states]


def fractional_cfg(mode: str) -> EnvConfig:
    """Minutes that are not whole numbers, so the order of every sum shows in its bits."""
    return dataclasses.replace(
        EnvConfig(),
        test_minutes=(9.7, 3.1, 0.0),
        build_minutes=1.9,
        deploy_minutes=0.7,
        escape_delay_minutes=15.3,
        trace_mode=mode,
    )


def stats_digest(stats: list[environment.EpisodeStats]) -> str:
    """sha256 of every field of every entry, as one float64 table."""
    table = np.array(
        [
            [
                s.commits,
                s.total_pipeline_minutes,
                s.total_test_minutes,
                s.bugs_introduced,
                s.bugs_caught,
                s.bugs_escaped,
                *s.action_counts,
                s.total_reward,
            ]
            for s in stats
        ],
        dtype=np.float64,
    )
    return hashlib.sha256(table.tobytes()).hexdigest()


# sha256 of the ``EpisodeStats`` of ``run_episode`` over one trace (each
# policy in turn) and of ``compare_policies`` over two runs (every policy, by
# name), per trace mode, seed and number of policies, at escape penalty 4.9.
# Recorded before the step table existed, when each loop added every step's
# outcome to its own running totals.
PINNED_EVAL_DIGESTS = {
    ("standard", 0, 1): (
        "3963ad67d89befb66c03fb8289816bdc7fa8141afaedbb7060ef1ce7b991bfb4",
        "d7c9f406cccc25295b7fc838f1415481250c815bc48d0e1fe6fb8d8b1701d278",
    ),
    ("standard", 0, 4): (
        "642d05dc6f536678934da84e661ba5dd9b2c27dbc143b33f5ccf7d1751d15862",
        "6e78dd49df179a524f989cf574762b8be884e53bfdff4e57f959c72a5f23e4b5",
    ),
    ("standard", 1, 1): (
        "39dea0ae6a6552e02239418994d906948167537a170318590ff3f19a753481ce",
        "6667896c20009069eea4c3070d70ceb3f03e5bf6960726e1e50fd0fc5e0b751f",
    ),
    ("standard", 1, 4): (
        "4968b6f0ed74656be0517f344ca5eaf63b9b39b3a4b7c3c96785848fae0d47b2",
        "1fec89c295f2485e4226e4b0af1f7bebd875ffa54598bda9a8108c79812fa1d0",
    ),
    ("standard", 2, 1): (
        "648532e816afd50a14be9764e72baf2141142cd87be39cd9fbc92cdf19aab664",
        "31bb34de9f794bc42eb5bab956a17390dd3f2494e94b4a9d8a75310933a782e9",
    ),
    ("standard", 2, 4): (
        "3909a45a5acdb6cc2859f8258ee11c98dff104768be25f7bce75932e16c906d0",
        "8d6c3e0378bd93ddc81f6d7ba3bf3e08ee55edb9863d89101e8e1efa44c0eac9",
    ),
    ("standard", 3, 1): (
        "680b88c4cad40ce7b8453cb5f3ba1fd87fbc66b458fb31bbf91670bba312721d",
        "6ec2d9cfbec908dad17c9cc9e5da0c2f0ebba0e6a9fe4ef654ee0c6027105af7",
    ),
    ("standard", 3, 4): (
        "0ef6207f25f2ed243441274c2b0e9aaffc0bd2691c4cbfe77bf9ecc3b5340c49",
        "084caf0227225fdf7b188c1d89d72986555f0856b579b1aafc63d0f40277338b",
    ),
    ("adversarial", 0, 1): (
        "4e261f73d5f8b705f99e9662961cb11b40b0d495f156fd23cb943f593d4a6c05",
        "dc100e55e5cd6dd638d24b898968bb45ac3303020891d02c355daac30a853955",
    ),
    ("adversarial", 0, 4): (
        "4e940110139b751a733971716027fba1248c735c601470354ec95b9d4cc2ecb0",
        "a5494503b5bb834a3628a8bf65b83c97c0d48fcf0ddc19948b24d34a2bebdadc",
    ),
    ("adversarial", 1, 1): (
        "15e43672c1845b44c65db61d8233db94833b130bc43e352d743e6e938a0cc19e",
        "4940aa6a589576331412e9c4866e3938d7ba99815895c74bfcf69d2e3a32557f",
    ),
    ("adversarial", 1, 4): (
        "43aca88dc5b401f616fa35855e86d9e6facb5414a8c62943cbe05657ea54dada",
        "6818bff8d88af43b23e7b5290a1a9b81f3c11c8505cb3a6e8da40da03acc557d",
    ),
    ("adversarial", 2, 1): (
        "0a68d66c9504e1356a47b35a216f4817f9086b06082f01844dba0d84b702bcca",
        "2497dfc2669af43fb07ee55eff5ce2f8af951dee23fb07a508870c64f6a1e0ef",
    ),
    ("adversarial", 2, 4): (
        "cd3860d957597ab5a7128c993f8a683fd3755a9629812ee88039a02a85c15c56",
        "c229de3e2c898d52b19eab7b0cd654b8ff14ff8b5e4eda7be89ee1ec0bc706aa",
    ),
    ("adversarial", 3, 1): (
        "943a7f1a281dcf3cdb52eddc7fe0cb82d634c4eb7e71a4889499a96b660bd1e6",
        "8748cf3265aa6b7f832b7f4402a9ad4f9d49705586612a80a427493ebdfee420",
    ),
    ("adversarial", 3, 4): (
        "356e872d58dddd8b5c0991ff13a83c3476ed96b5e9821dc5ab3a8b04b93034aa",
        "2e8f12851605dd9e4c9cd5d7b93106403fe7433e7f5bc92e88ff5e31776de700",
    ),
}


class TestPinnedStats:
    @pytest.mark.parametrize("mode, seed, n_policies", list(PINNED_EVAL_DIGESTS))
    def test_stats_match_the_running_totals(self, mode, seed, n_policies):
        cfg = fractional_cfg(mode)
        policies = [MixedPolicy(cfg.commits_per_episode)] if n_policies == 1 else four_policies()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=seed)
        episodes = stats_digest([run_episode(p, trace, 4.9, cfg, seed=seed + 10) for p in policies])
        named = dict(zip("abcd", policies))
        _, stats = compare_policies(named, cfg, 4.9, n_runs=2, base_seed=seed)
        compared = stats_digest([s for name in sorted(stats) for s in stats[name]])
        assert (episodes, compared) == PINNED_EVAL_DIGESTS[(mode, seed, n_policies)]
