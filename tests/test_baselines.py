"""Baseline policies: static, diff heuristic, and the logistic risk classifier."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testscope import baselines
from testscope.baselines import (
    HEURISTIC_DIFF_CUTOFF,
    ClassifierPolicy,
    HeuristicPolicy,
    LogisticModel,
    StaticPolicy,
    _labeled_arrays,
    _newton_iterates,
    _sigmoid,
    commit_features,
    make_classifier,
    predict_risk,
    train_classifier,
)
from testscope.commits import Trace, generate_trace, observe
from testscope.config import ClassifierConfig, ConfigError, EnvConfig, StateConfig, derive_seed
from testscope.environment import Action, PipelineEnv, metadata_features

from test_environment import make_commit
from trace_helpers import as_trace, next_state, records


def brute_force_auc(scores, labels) -> float:
    """All-pairs ranking oracle: P(score_pos > score_neg), ties half-credit."""
    scores = np.asarray(scores)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    greater = (pos[:, None] > neg[None, :]).sum()
    equal = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * equal) / (len(pos) * len(neg)))


def flat_model(bias: float = 0.0) -> LogisticModel:
    return LogisticModel(weights=np.zeros(5), bias=bias)


def risk(model: LogisticModel, commit) -> float:
    """The commit form of ``predict_risk``."""
    return predict_risk(model, commit_features(commit, model.state_cfg))


def planned(policy, commits) -> list[int]:
    """The actions ``policy`` plans for a trace, or for the trace of a list
    of records, from the trace's raw columns."""
    trace = commits if isinstance(commits, Trace) else as_trace(commits)
    return policy.plan(trace.metadata()).tolist()


def per_row_action(policy, commit) -> Action:
    """The decision a baseline's plan must make for one commit, from the
    commit's metadata: the reference for the array form."""
    if isinstance(policy, StaticPolicy):
        return Action.FULL_TESTS
    if isinstance(policy, HeuristicPolicy):
        return Action.PARTIAL_TESTS if commit.diff_size < HEURISTIC_DIFF_CUTOFF else Action.FULL_TESTS
    at = risk(policy.model, commit)
    if at < policy.tau_skip:
        return Action.SKIP_TESTS
    if at < policy.tau_partial:
        return Action.PARTIAL_TESTS
    return Action.FULL_TESTS


def separable_toy_set():
    # 200 commits labeled by diff_size > 50
    rng = np.random.default_rng(5)
    base = records(EnvConfig(), 200, seed=33)
    return [
        dataclasses.replace(c, diff_size=int(d), has_bug=bool(d > 50))
        for c, d in zip(base, rng.integers(0, 501, 200))
    ]


def default_history():
    opts = ClassifierConfig()
    return records(EnvConfig(), opts.train_size, seed=opts.train_seed, mode="standard")


def regularized_gradient(model: LogisticModel, commits, l2_penalty: float) -> np.ndarray:
    """Gradient of mean log-loss + 0.5 * l2 * |w|^2 in (weights, bias)."""
    x = np.stack([commit_features(c, model.state_cfg) for c in commits])
    y = np.array([1.0 if c.has_bug else 0.0 for c in commits])
    p = np.exp(-np.logaddexp(0.0, -(x @ model.weights + model.bias)))
    return np.append(x.T @ (p - y) / len(y) + l2_penalty * model.weights, np.mean(p - y))


def thresholds(tau_skip: float, tau_partial: float) -> ClassifierConfig:
    return ClassifierConfig(tau_skip=tau_skip, tau_partial=tau_partial)


class TestStaticPolicy:
    def test_always_full(self):
        assert planned(StaticPolicy(), [make_commit()]) == [Action.FULL_TESTS]

    def test_zero_diff_still_full(self):
        assert planned(StaticPolicy(), [make_commit(diff_size=0)]) == [Action.FULL_TESTS]

    def test_full_on_every_adversarial_commit(self):
        trace = generate_trace(EnvConfig(), 100, seed=3, mode="adversarial")
        assert planned(StaticPolicy(), trace) == [Action.FULL_TESTS] * 100


class TestHeuristicPolicy:
    def test_small_diff_runs_partial(self):
        assert planned(HeuristicPolicy(), [make_commit(diff_size=19)]) == [Action.PARTIAL_TESTS]

    def test_cutoff_diff_runs_full(self):
        assert planned(HeuristicPolicy(), [make_commit(diff_size=20)]) == [Action.FULL_TESTS]

    def test_zero_diff_runs_partial(self):
        assert planned(HeuristicPolicy(), [make_commit(diff_size=0)]) == [Action.PARTIAL_TESTS]

    def test_never_skips(self):
        actions = planned(HeuristicPolicy(), generate_trace(EnvConfig(), 1000, seed=4))
        assert len(actions) == 1000 and Action.SKIP_TESTS not in actions

    def test_depends_on_diff_size_alone(self):
        base = make_commit(diff_size=10)
        mutated = dataclasses.replace(
            base,
            files_changed=19,
            source_fraction=0.01,
            developer_defect_rate=0.99,
            developer_experience=0.01,
            has_bug=True,
            risk_score=0.99,
        )
        assert planned(HeuristicPolicy(), [base]) == planned(HeuristicPolicy(), [mutated])


class TestPredictRisk:
    def test_zero_model_predicts_half(self):
        assert risk(flat_model(), make_commit()) == 0.5

    def test_saturated_bias(self):
        assert risk(flat_model(bias=30.0), make_commit()) > 0.999

    def test_prediction_inside_open_interval(self):
        for bias in (-1000.0, 0.0, 1000.0):
            p = risk(flat_model(bias=bias), make_commit())
            assert 0.0 < p < 1.0

    def test_monotone_in_diff_with_positive_weight(self):
        model = LogisticModel(weights=np.array([2.0, 0, 0, 0, 0]), bias=-1.0)
        risks = [risk(model, make_commit(diff_size=d)) for d in range(0, 600, 25)]
        assert all(a <= b for a, b in zip(risks, risks[1:]))


    def test_matches_the_array_sigmoid_bit_for_bit(self):
        def array_path(z: float) -> float:
            return float(np.clip(float(_sigmoid(np.array([z]))[0]), 1e-15, 1.0 - 1e-15))

        commit = make_commit()
        logits = np.concatenate(
            [np.linspace(-40.0, 40.0, 20_001), [0.0, -0.0, 745.0, -745.0, 746.0, -746.0]]
        )
        for z in logits:
            assert risk(flat_model(bias=float(z)), commit) == array_path(float(z))
        model = LogisticModel(weights=np.array([6.0, 1.0, 0.8, 5.0, -1.8]), bias=-3.0)
        for commit in observe(generate_trace(EnvConfig(), 2000, seed=12, mode="adversarial")):
            z = float(commit_features(commit) @ model.weights + model.bias)
            assert risk(model, commit) == array_path(z)

    def test_pinned_risks(self):
        # the bits of 5000 risks, 210 of them from a logit >= 0; a change to
        # the feature products or the sigmoid moves this digest
        model = LogisticModel(weights=np.array([6.0, 1.0, 0.8, 5.0, -1.8]), bias=-3.0)
        commits = observe(generate_trace(EnvConfig(), 5000, seed=21))
        risks = np.array([risk(model, c) for c in commits])
        assert int((risks >= 0.5).sum()) == 210
        assert hashlib.sha256(risks.tobytes()).hexdigest() == (
            "5d59c8d0bb91efecde570fb02fe81242976aed0605435f02d09c0a57c48ce321"
        )


class TestTrainClassifier:
    def test_separable_toy_set(self):
        # a convex problem any convergent optimizer separates almost perfectly
        toy = separable_toy_set()
        model = train_classifier(toy, ClassifierConfig())
        accuracy = np.mean([(risk(model, c) >= 0.5) == c.has_bug for c in toy])
        assert accuracy >= 0.99

    def test_single_class_rejected(self):
        commits = [make_commit(has_bug=True) for _ in range(10)]
        with pytest.raises(ValueError):
            train_classifier(commits, ClassifierConfig())

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError):
            train_classifier([make_commit()], ClassifierConfig())

    def test_deterministic(self):
        commits = records(EnvConfig(), 300, seed=8)
        a = train_classifier(commits, ClassifierConfig())
        b = train_classifier(commits, ClassifierConfig())
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_loss_decreases_monotonically(self):
        # the damped Newton iterates must never increase the regularized objective
        opts = ClassifierConfig()
        for commits in (records(EnvConfig(), 300, seed=8), separable_toy_set()):
            losses = []
            x, y = _labeled_arrays(commits, StateConfig())
            for weights, bias, grad_norm in _newton_iterates(x, y, opts.l2_penalty):
                losses.append(baselines._objective(x @ weights + bias, y, weights, opts.l2_penalty))
                if grad_norm <= opts.tolerance:
                    break
            assert len(losses) >= 4
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("history", [default_history, separable_toy_set])
    def test_fit_is_stationary_within_ten_iterations(self, history):
        # the fit raises unless it converges within max_iterations Newton steps
        commits = history()
        opts = dataclasses.replace(ClassifierConfig(), max_iterations=10)
        model = train_classifier(commits, opts)
        grad = regularized_gradient(model, commits, opts.l2_penalty)
        assert np.linalg.norm(grad) <= opts.tolerance

    def test_iteration_cap_raises_with_count_and_gradient_norm(self):
        commits = records(EnvConfig(), 300, seed=8)
        opts = dataclasses.replace(ClassifierConfig(), max_iterations=1)
        with pytest.raises(ValueError, match=r"did not converge.*; 1 Newton iteration\(s\), gradient norm \d\.\d{3}e-\d+"):
            train_classifier(commits, opts)

    def test_singular_hessian_raises(self):
        # identical features with mixed labels and no penalty: rank-1 Hessian
        commits = [make_commit(has_bug=i % 3 == 0) for i in range(10)]
        opts = dataclasses.replace(ClassifierConfig(), l2_penalty=0.0)
        with pytest.raises(ValueError, match=r"Hessian is singular; 0 Newton iteration\(s\), gradient norm"):
            train_classifier(commits, opts)

    @pytest.mark.parametrize(
        "bad, key",
        [
            ({"train_size": 2.5}, "classifier.train_size"),
            ({"l2_penalty": math.inf}, "classifier.l2_penalty"),
            ({"tolerance": 0.0}, "classifier.tolerance"),
        ],
        ids=["train_size", "l2_penalty", "tolerance"],
    )
    def test_options_checked_at_entry(self, bad, key):
        # unchecked, train_size 2.5 ended in a bare TypeError from NumPy and
        # an infinite l2_penalty in RuntimeWarnings, then "the line search stalled"
        opts = dataclasses.replace(ClassifierConfig(train_size=300), **bad)
        commits = records(EnvConfig(), 300, seed=8)
        with pytest.raises(ConfigError, match=key):
            train_classifier(commits, opts)
        with pytest.raises(ConfigError, match=key):
            make_classifier(EnvConfig(), opts)
        with pytest.raises(ConfigError, match="env.bug_probability"):
            make_classifier(dataclasses.replace(EnvConfig(), bug_probability=1.5))

    def test_rejected_step_is_halved(self, monkeypatch):
        # the first full Newton step is made to look worse; its half is taken
        objective, calls = baselines._objective, []

        def worse_first_step(z, y, weights, l2_penalty):
            calls.append(None)
            value = objective(z, y, weights, l2_penalty)
            return np.inf if len(calls) == 2 else value

        commits = records(EnvConfig(), 300, seed=8)
        monkeypatch.setattr(baselines, "_objective", worse_first_step)
        iterates = _newton_iterates(*_labeled_arrays(commits, StateConfig()), 1e-4)
        start, _, _ = next(iterates)
        halved, _, _ = next(iterates)
        monkeypatch.undo()
        plain = _newton_iterates(*_labeled_arrays(commits, StateConfig()), 1e-4)
        next(plain)
        full, _, _ = next(plain)
        assert not start.any()
        np.testing.assert_array_equal(halved, 0.5 * full)
        assert len(calls) == 3  # start, rejected full step, accepted half step

    def test_stalled_line_search_raises(self, monkeypatch):
        objective = baselines._objective
        monkeypatch.setattr(baselines, "_objective", lambda z, y, w, l2: objective(z, y, w, l2) + float(np.any(w)))
        with pytest.raises(ValueError, match=r"line search stalled; 0 Newton iteration\(s\)"):
            train_classifier(records(EnvConfig(), 300, seed=8))

    def test_log_loss_is_exact_for_confident_models(self):
        # log(1 + e^z) - y z stays exact where a clipped probability saturates
        x, y = _labeled_arrays([make_commit(has_bug=True), make_commit(has_bug=False)], StateConfig())
        weights = np.zeros(5)
        assert baselines._objective(x @ weights - 800.0, y, weights, 0.0) == 400.0
        loss = baselines._objective(x @ weights, y, weights, 0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_labeled_arrays_match_commit_features_bit_for_bit(self):
        # small caps so that both clamps are hit
        cfg = StateConfig(diff_cap=37, files_cap=3)
        for mode in ("standard", "adversarial"):
            commits = records(EnvConfig(), 500, seed=14, mode=mode)
            x, y = _labeled_arrays(commits, cfg)
            expected = np.stack([commit_features(c, cfg) for c in commits])
            assert x.dtype == expected.dtype and x.shape == expected.shape
            assert x.tobytes() == expected.tobytes()
            assert y.tolist() == [float(c.has_bug) for c in commits]

    def test_out_of_range_commits_encode_as_in_the_state(self):
        # the classifier sees features 1-5 of the state, clipped to [0, 1]
        nan = float("nan")
        commits = [
            make_commit(diff_size=-7, source_fraction=1.5),
            make_commit(files_changed=-2, developer_defect_rate=-0.25, developer_experience=3.0),
            make_commit(diff_size=10**6, files_changed=10**4, source_fraction=-0.0),
            make_commit(diff_size=nan, developer_defect_rate=nan, developer_experience=-nan),
        ]
        cfg = StateConfig(diff_cap=37, files_cap=3)
        env = PipelineEnv(as_trace(commits), dataclasses.replace(EnvConfig(), state=cfg), 5.0)
        states = [env.state] + [next_state(env, Action.FULL_TESTS) for _ in commits[1:]]
        x, _ = _labeled_arrays(commits, cfg)
        for state, row, commit in zip(states, x, commits, strict=True):
            assert commit_features(commit, cfg).tobytes() == state[:5].tobytes() == row.tobytes()
        assert states[0][:5].tolist() == [0.0, 1.0, 1.0, 0.2, 0.7]

    def test_held_out_auc_band(self):
        # the generator must stay learnable but imperfect
        cfg = EnvConfig()
        train = records(cfg, 5000, seed=101)
        held_out = records(cfg, 5000, seed=202)
        model = train_classifier(train, ClassifierConfig())
        auc = brute_force_auc(
            [risk(model, c) for c in held_out],
            [c.has_bug for c in held_out],
        )
        assert 0.70 <= auc <= 0.90

    @pytest.mark.parametrize(
        "env_cfg, opts",
        [
            (EnvConfig(), ClassifierConfig()),
            (EnvConfig(), ClassifierConfig(train_size=300)),
            (
                dataclasses.replace(
                    EnvConfig(), bug_probability=0.3, state=StateConfig(diff_cap=37, files_cap=3)
                ),
                ClassifierConfig(train_size=700, train_seed=5),
            ),
        ],
    )
    def test_make_classifier_equals_train_classifier_on_its_history(self, env_cfg, opts):
        # make_classifier never builds the commit records of its history; the model keeps every bit
        history = records(env_cfg, opts.train_size, seed=opts.train_seed, mode="standard")
        expected = train_classifier(history, opts, env_cfg.state)
        model = make_classifier(dataclasses.replace(env_cfg, trace_mode="adversarial"), opts)
        assert model.weights.tobytes() == expected.weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(expected.bias).tobytes()
        assert model.state_cfg == expected.state_cfg == env_cfg.state

    def test_make_classifier_uses_dedicated_history(self):
        model = make_classifier(EnvConfig(), ClassifierConfig(train_size=500, train_seed=7))
        assert model.weights.shape == (5,)
        again = make_classifier(EnvConfig(), ClassifierConfig(train_size=500, train_seed=7))
        np.testing.assert_array_equal(model.weights, again.weights)


class TestClassifierPolicy:
    def test_default_thresholds(self):
        low = flat_model(bias=math.log(0.01 / 0.99))  # risk ~ 0.01
        high = flat_model(bias=math.log(0.90 / 0.10))  # risk ~ 0.90
        commit = make_commit()
        assert planned(ClassifierPolicy(low), [commit]) == [Action.SKIP_TESTS]
        assert planned(ClassifierPolicy(high), [commit]) == [Action.FULL_TESTS]

    def test_thresholds_come_from_the_config(self):
        defaults = ClassifierPolicy(flat_model())
        assert (defaults.tau_skip, defaults.tau_partial) == (0.05, 0.30)
        policy = ClassifierPolicy(flat_model(), thresholds(0.1, 0.4))
        assert (policy.tau_skip, policy.tau_partial) == (0.1, 0.4)

    def test_boundary_goes_to_more_thorough_tier(self):
        # sigmoid(0) is exactly 0.5: at tau_skip the policy must not skip,
        # and at tau_partial it must go full
        commit = make_commit()
        model = flat_model(bias=0.0)
        assert planned(ClassifierPolicy(model, thresholds(0.5, 0.8)), [commit]) == [Action.PARTIAL_TESTS]
        assert planned(ClassifierPolicy(model, thresholds(0.1, 0.5)), [commit]) == [Action.FULL_TESTS]

    def test_strict_thresholds_at_computed_risks(self):
        # a risk equal to a threshold goes to the more thorough tier; one ulp
        # above it goes to the less thorough one
        model = LogisticModel(weights=np.array([6.0, 1.0, 0.8, 5.0, -1.8]), bias=-3.0)
        for commit in records(EnvConfig(), 50, seed=4):
            at = risk(model, commit)
            above = float(np.nextafter(at, 1.0))
            cases = [
                (thresholds(at, at), Action.FULL_TESTS),
                (thresholds(at, 1.0), Action.PARTIAL_TESTS),
                (thresholds(above, above), Action.SKIP_TESTS),
                (thresholds(0.0, above), Action.PARTIAL_TESTS),
            ]
            for cfg, expected in cases:
                assert planned(ClassifierPolicy(model, cfg), [commit]) == [expected]

    def test_monotone_in_risk(self):
        commit = make_commit()
        thoroughness = {Action.SKIP_TESTS: 0, Action.PARTIAL_TESTS: 1, Action.FULL_TESTS: 2}
        previous = -1
        for bias in np.linspace(-8, 8, 200):
            (action,) = planned(ClassifierPolicy(flat_model(bias=float(bias))), [commit])
            assert thoroughness[action] >= previous
            previous = thoroughness[action]

    @pytest.mark.parametrize("mode", ["standard", "adversarial"])
    def test_state_scoring_equals_the_commit_form(self, mode):
        # the policy encodes the trace's columns under the model's caps, as
        # the env encodes its state's features 1-5 and the commit form the commit
        cfg = dataclasses.replace(EnvConfig(), state=StateConfig(diff_cap=300, files_cap=8))
        fitted = make_classifier(cfg, ClassifierConfig(train_size=1000))
        hand_made = LogisticModel(np.array([6.0, 1.0, 0.8, 5.0, -1.8]), -3.0, cfg.state)
        trace = generate_trace(cfg, 400, seed=23, mode=mode)
        for model in (fitted, hand_made):
            policy = ClassifierPolicy(model, thresholds(0.1, 0.3))
            env = PipelineEnv(trace, cfg, 5.0, seed=24)
            actions = policy.plan(trace.metadata()).tolist()
            state = env.state
            for commit, action in zip(observe(trace), actions, strict=True):
                at = risk(model, commit)
                assert predict_risk(model, state[:5]) == at
                tier = 0 if at < 0.1 else 1 if at < 0.3 else 2
                assert action == (Action.SKIP_TESTS, Action.PARTIAL_TESTS, Action.FULL_TESTS)[tier]
                env.step(action)
                state = env.state
            assert len(set(actions)) == 3

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="classifier.tau_skip"):
            ClassifierPolicy(flat_model(), thresholds(0.5, 0.2))
        with pytest.raises(ConfigError, match="classifier.tau_skip"):
            ClassifierPolicy(flat_model(), thresholds(-0.1, 0.2))
        with pytest.raises(ConfigError, match="classifier.tau_partial"):
            ClassifierPolicy(flat_model(), thresholds(0.5, 1.2))
        assert issubclass(ConfigError, ValueError)


# (env config, trace mode) of each kind of trace a plan is checked on
TRACE_KINDS = {
    "standard": (EnvConfig(), "standard"),
    "adversarial": (EnvConfig(), "adversarial"),
    "all-buggy": (dataclasses.replace(EnvConfig(), bug_probability=1.0), "standard"),
    "all-clean": (dataclasses.replace(EnvConfig(), bug_probability=0.0), "standard"),
}


class TestPlans:
    @pytest.mark.parametrize("kind", list(TRACE_KINDS))
    @settings(max_examples=10, deadline=None)
    @given(
        trace_seed=st.integers(0, 2**32 - 1),
        taus=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    )
    def test_plan_equals_the_per_row_decision_on_each_commit(self, kind, trace_seed, taus):
        cfg, mode = TRACE_KINDS[kind]
        trace = generate_trace(cfg, cfg.commits_per_episode, trace_seed, mode)
        hand_made = LogisticModel(np.array([6.0, 1.0, 0.8, 5.0, -1.8]), -3.0)
        policies = [
            StaticPolicy(),
            HeuristicPolicy(),
            ClassifierPolicy(hand_made, thresholds(0.1, 0.3)),
            ClassifierPolicy(hand_made, thresholds(*taus)),
        ]
        for policy in policies:
            actions = policy.plan(trace.metadata())
            assert actions.shape == (len(trace),)
            assert actions.tolist() == [per_row_action(policy, c) for c in observe(trace)]

    def test_a_risk_on_a_threshold_is_decided_by_the_exact_risk(self):
        # tau_partial is one row's exact risk, which the batched product puts
        # an ulp or so below it: the plan must still run that row's full suite
        model = LogisticModel(np.array([6.0, 1.0, 0.8, 5.0, -1.8]), -3.0)
        trace = generate_trace(EnvConfig(), 100, seed=12)
        features = metadata_features(trace.metadata(), model.state_cfg)
        batched = np.clip(_sigmoid(features @ model.weights + model.bias), 1e-15, 1.0 - 1e-15)
        exact = np.array([predict_risk(model, row) for row in features])
        (below, *_) = np.flatnonzero(batched < exact)
        policy = ClassifierPolicy(model, thresholds(0.0, float(exact[below])))
        actions = policy.plan(trace.metadata()).tolist()
        assert actions[below] == Action.FULL_TESTS
        assert actions == [per_row_action(policy, c) for c in observe(trace)]
        assert Action.PARTIAL_TESTS in actions

    @pytest.mark.parametrize("mode", ["standard", "adversarial"])
    @pytest.mark.parametrize("n_traces", [1, 2, 30])
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        row=st.integers(0, 2**16),
        taus=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    )
    def test_a_stack_plans_each_trace_as_when_planned_alone(self, mode, n_traces, seed, row, taus):
        # one plan of the traces' (B, T, 5) stacked columns equals the B
        # per-trace plans, stacked; two classifiers put a threshold on one
        # row's exact risk, which the batched product may miss by an ulp
        cfg = EnvConfig()
        traces = [
            generate_trace(cfg, cfg.commits_per_episode, derive_seed(seed, i), mode)
            for i in range(n_traces)
        ]
        metadata = np.stack([trace.metadata() for trace in traces])
        model = LogisticModel(np.array([6.0, 1.0, 0.8, 5.0, -1.8]), -3.0)
        rows = metadata_features(metadata, model.state_cfg).reshape(-1, 5)
        row %= len(rows)
        on_row = predict_risk(model, rows[row])
        policies = [
            StaticPolicy(),
            HeuristicPolicy(),
            ClassifierPolicy(model, thresholds(0.1, 0.3)),
            ClassifierPolicy(model, thresholds(*taus)),
            ClassifierPolicy(model, thresholds(0.0, on_row)),
            ClassifierPolicy(model, thresholds(on_row, on_row)),
        ]
        for policy in policies:
            stacked = policy.plan(metadata)
            assert stacked.shape == (n_traces, cfg.commits_per_episode)
            alone = np.stack([policy.plan(trace.metadata()) for trace in traces])
            assert stacked.tolist() == alone.tolist()
        for policy in policies[-2:]:
            assert policy.plan(metadata).reshape(-1)[row] == Action.FULL_TESTS
