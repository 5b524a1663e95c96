"""Evaluation harness: episode stats, metric aggregation, studies."""

import dataclasses

import numpy as np
import pytest

from testscope import evaluation
from testscope.agent import GreedyPolicy
from testscope.baselines import (
    AlwaysPolicy,
    ClassifierPolicy,
    HeuristicPolicy,
    LogisticModel,
    StaticPolicy,
)
from testscope.commits import generate_trace
from testscope.config import ConfigError, EnvConfig, adversarial, derive_seed
from testscope.environment import Action
from testscope.evaluation import (
    adversarial_eval,
    compare_policies,
    compute_metrics,
    convergence_stats,
    comparison_rows,
    penalty_sweep,
    rows_to_csv,
    run_episode,
    run_episodes,
)
from testscope.network import mlp_init


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


class Recording:
    """Plays ``policy`` and records every action it returns, in order."""

    def __init__(self, policy):
        self.policy = policy
        self.actions = []

    def __call__(self, state, commit):
        action = self.policy(state, commit)
        self.actions.append(int(action))
        return action


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
        stats = episode(AlwaysPolicy(Action.SKIP_TESTS))
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

        def random_policy(state, commit):
            return Action(int(rng.integers(3)))

        stats = episode(random_policy, env_seed=9)
        assert stats.bugs_caught + stats.bugs_escaped == stats.bugs_introduced
        assert sum(stats.action_counts) == stats.commits == 100

    def test_policies_never_see_ground_truth(self):
        seen = []

        def probing_policy(state, commit):
            seen.append(commit)
            return Action.FULL_TESTS

        episode(probing_policy)
        assert len(seen) == 100
        for commit in seen:
            assert not hasattr(commit, "has_bug")
            assert not hasattr(commit, "risk_score")

    def test_recorded_actions(self):
        policy = Recording(HeuristicPolicy())
        stats = episode(policy)
        assert len(policy.actions) == stats.commits
        counted = tuple(policy.actions.count(a) for a in range(3))
        assert counted == stats.action_counts

    def test_deterministic(self):
        a = episode(HeuristicPolicy())
        b = episode(HeuristicPolicy())
        assert a == b


class TestRunEpisodes:
    @pytest.mark.parametrize("record_actions", [False, True])
    def test_one_pass_equals_separate_episodes(self, record_actions):
        # recorded, the per-commit actions must agree as well as the totals
        cfg = EnvConfig()
        policies = four_policies()
        wrap = Recording if record_actions else lambda policy: policy
        for trace_seed, env_seed in ((1, 2), (7, 9), (30, 4)):
            trace = generate_trace(cfg, cfg.commits_per_episode, seed=trace_seed)
            played_together = [wrap(p) for p in policies]
            played_alone = [wrap(p) for p in policies]
            together = run_episodes(played_together, trace, 5.0, cfg, seed=env_seed)
            alone = [run_episode(p, trace, 5.0, cfg, seed=env_seed) for p in played_alone]
            assert [dataclasses.asdict(s) for s in together] == [
                dataclasses.asdict(s) for s in alone
            ]
            if record_actions:
                assert [p.actions for p in played_together] == [p.actions for p in played_alone]
                assert all(len(p.actions) == cfg.commits_per_episode for p in played_together)
        # the classifier uses every tier, so interleaving had something to break
        assert all(together[2].action_counts)

    def test_each_commit_observed_once_for_all_policies(self):
        seen = []

        def probing_policy(state, commit):
            seen.append(commit)
            return Action.PARTIAL_TESTS

        cfg = EnvConfig()
        trace = generate_trace(cfg, cfg.commits_per_episode, seed=3)
        run_episodes([probing_policy, probing_policy], trace, 5.0, cfg)
        assert [c.id for c in seen[::2]] == [c.id for c in trace]
        assert all(a is b for a, b in zip(seen[::2], seen[1::2]))


class TestComputeMetrics:
    def test_static_against_itself(self):
        ref = [episode(StaticPolicy(), trace_seed=s, env_seed=s) for s in (1, 2, 3)]
        report = compute_metrics(ref, ref)
        assert report.tts.mean == 0.0 and report.tts.std == 0.0
        assert report.si.mean == 0.0
        assert report.dmr.mean == 0.0

    def test_skip_against_static(self):
        ref = [episode(StaticPolicy(), trace_seed=s, env_seed=s) for s in (1, 2)]
        skip = [episode(AlwaysPolicy(Action.SKIP_TESTS), trace_seed=s, env_seed=s) for s in (1, 2)]
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

        def random_policy(state, commit):
            return Action(int(rng.integers(3)))

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
            episode(AlwaysPolicy(Action.SKIP_TESTS), trace_seed=s, env_seed=s) for s in (1, 2, 3)
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
            {"partial": AlwaysPolicy(Action.PARTIAL_TESTS)},
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
            {"a": HeuristicPolicy(), "b": AlwaysPolicy(Action.SKIP_TESTS)},
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
        def refuse(*args, **kwargs):
            raise AssertionError("a trace was generated")

        monkeypatch.setattr(evaluation, "generate_trace", refuse)
        env = EnvConfig(test_minutes=(10.0, float("inf"), 0.0))
        with pytest.raises(ConfigError, match="env.partial_test_minutes: must be finite"):
            compare_policies({"heuristic": HeuristicPolicy()}, env, escape_penalty=5.0, n_runs=2)
        with pytest.raises(ConfigError, match="env.partial_test_minutes: must be finite"):
            adversarial_eval(HeuristicPolicy(), env, escape_penalty=5.0, n_runs=2)

    def test_report_rows_schema(self):
        report, _ = compare_policies(
            {"static": StaticPolicy()}, EnvConfig(), escape_penalty=5.0, n_runs=2, base_seed=3
        )
        rows = comparison_rows(report)
        # 2 runs + mean + std
        assert len(rows) == 4
        assert [r["run"] for r in rows] == [0, 1, "mean", "std"]
        csv_text = rows_to_csv(rows, ["snapshot line"])
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

    @pytest.mark.parametrize("index", [1, 2], ids=["heuristic", "classifier"])
    def test_matches_a_recount_on_regenerated_traces(self, index):
        policy = four_policies()[index]
        cfg, n_runs, base_seed = EnvConfig(), 4, 21
        report = adversarial_eval(policy, cfg, escape_penalty=5.0, n_runs=n_runs, base_seed=base_seed)

        stress = adversarial(cfg)
        low_total = low_partial = 0
        for i in range(n_runs):
            run_seed = derive_seed(base_seed, i)
            trace = generate_trace(stress, stress.commits_per_episode, seed=derive_seed(run_seed, 0))
            recording = Recording(policy)
            run_episode(recording, trace, 5.0, stress, seed=derive_seed(run_seed, 1))
            for commit, action in zip(trace, recording.actions, strict=True):
                if commit.diff_size <= report.low_diff_cutoff:
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
        assert len(sweep.entries) == 1
        assert sweep.entry(5.0).escape_penalty == 5.0
        with pytest.raises(KeyError):
            sweep.entry(3.0)

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

    def test_training_log_input(self):
        import testscope.agent as agent_mod

        records = [
            agent_mod.EpisodeRecord(i, -10.0, 0.5, 0.0, (1, 1, 1)) for i in range(120)
        ]
        log = agent_mod.TrainingLog(records)
        assert convergence_stats(log, window=100).converged_episode == 100
