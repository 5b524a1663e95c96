"""Commit generator: distributions, determinism, stress traces, trace files."""

import dataclasses

import numpy as np
import pytest

from testscope.commits import (
    generate_trace,
    parse_trace_text,
    trace_to_text,
)
from testscope.config import EnvConfig


def make_cfg(**kwargs) -> EnvConfig:
    return dataclasses.replace(EnvConfig(), **kwargs)


class TestGenerateCommit:
    def test_zero_bug_probability_never_buggy(self):
        trace = generate_trace(make_cfg(bug_probability=0.0), 500, seed=1)
        assert not any(c.has_bug for c in trace)

    def test_unit_bug_probability_always_buggy(self):
        trace = generate_trace(make_cfg(bug_probability=1.0), 500, seed=1)
        assert all(c.has_bug for c in trace)

    def test_bug_rate_matches_configured_probability(self):
        # Monte Carlo check of the Bernoulli(0.15) marginal at N=100,000
        trace = generate_trace(EnvConfig(), 100_000, seed=7)
        rate = np.mean([c.has_bug for c in trace])
        assert abs(rate - 0.15) <= 0.01

    def test_field_invariants(self):
        trace = generate_trace(EnvConfig(), 20_000, seed=3)
        for c in trace:
            assert c.diff_size >= 0
            assert c.files_changed >= 1
            assert 0.0 <= c.source_fraction <= 1.0
            assert 0.0 <= c.developer_defect_rate <= 1.0
            assert 0.0 <= c.developer_experience <= 1.0
            assert 0.0 <= c.risk_score <= 1.0

    def test_ids_are_sequential(self):
        trace = generate_trace(EnvConfig(), 50, seed=5)
        assert [c.id for c in trace] == list(range(50))


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        a = generate_trace(EnvConfig(), 100, seed=42)
        b = generate_trace(EnvConfig(), 100, seed=42)
        assert trace_to_text(a) == trace_to_text(b)

    def test_different_seed_differs(self):
        a = generate_trace(EnvConfig(), 100, seed=42)
        b = generate_trace(EnvConfig(), 100, seed=43)
        assert trace_to_text(a) != trace_to_text(b)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(EnvConfig(), 0, seed=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(EnvConfig(), 10, seed=1, mode="chaotic")


class TestAdversarialTraces:
    def test_block_structure(self):
        cfg = EnvConfig()
        gen = cfg.generator
        trace = generate_trace(cfg, 100, seed=9, mode="adversarial")
        period = gen.streak_length + gen.burst_length
        for i, c in enumerate(trace):
            if i % period < gen.streak_length:
                assert gen.streak_diff_min <= c.diff_size <= gen.streak_diff_max
            else:
                assert gen.burst_diff_min <= c.diff_size <= gen.burst_diff_max

    def test_contains_low_diff_buggy_commit(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=9, mode="adversarial")
        low_buggy = [
            c for c in trace if c.diff_size <= cfg.generator.streak_diff_max and c.has_bug
        ]
        assert low_buggy, "stress trace must hide bugs inside small diffs"

    def test_burst_block_mean_diff_exceeds_streak_block(self):
        cfg = EnvConfig()
        gen = cfg.generator
        trace = generate_trace(cfg, 100, seed=9, mode="adversarial")
        period = gen.streak_length + gen.burst_length
        streak = [c.diff_size for i, c in enumerate(trace) if i % period < gen.streak_length]
        burst = [c.diff_size for i, c in enumerate(trace) if i % period >= gen.streak_length]
        assert np.mean(burst) > np.mean(streak)

    def test_low_diff_buggy_commits_are_marked_low_risk(self):
        # the nominal risk scorer must underrate small risky diffs
        cfg = EnvConfig()
        trace = generate_trace(cfg, 2000, seed=11, mode="adversarial")
        low_buggy = [
            c.risk_score
            for c in trace
            if c.diff_size <= cfg.generator.streak_diff_max and c.has_bug
        ]
        assert low_buggy
        assert np.median(low_buggy) < cfg.bug_probability


class TestRiskScore:
    def test_mean_risk_matches_bug_rate(self):
        trace = generate_trace(EnvConfig(), 50_000, seed=13)
        assert abs(np.mean([c.risk_score for c in trace]) - 0.15) <= 0.01

    def test_risk_is_calibrated(self):
        # commits binned by risk score show matching empirical bug rates
        trace = generate_trace(EnvConfig(), 50_000, seed=13)
        risk = np.array([c.risk_score for c in trace])
        bugs = np.array([c.has_bug for c in trace], dtype=float)
        for lo, hi in [(0.0, 0.05), (0.05, 0.15), (0.15, 0.3), (0.3, 0.5), (0.5, 1.0)]:
            mask = (risk >= lo) & (risk < hi)
            if mask.sum() < 500:
                continue
            assert abs(bugs[mask].mean() - risk[mask].mean()) < 0.03

    def test_degenerate_probabilities(self):
        zero = generate_trace(make_cfg(bug_probability=0.0), 100, seed=1)
        assert all(c.risk_score == 0.0 for c in zero)
        one = generate_trace(make_cfg(bug_probability=1.0), 100, seed=1)
        assert all(c.risk_score == 1.0 for c in one)


class TestTraceFiles:
    def test_round_trip_exact(self):
        trace = generate_trace(EnvConfig(), 200, seed=21)
        text = trace_to_text(trace)
        assert parse_trace_text(text) == trace
        assert trace_to_text(parse_trace_text(text)) == text

    def test_header_row_present(self):
        text = trace_to_text(generate_trace(EnvConfig(), 5, seed=1))
        assert text.splitlines()[0] == (
            "id,diff_size,files_changed,source_fraction,developer_defect_rate,"
            "developer_experience,has_bug,risk_score"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_trace_text("id,diff\n1,2\n")

    def test_truncated_record_rejected(self):
        text = trace_to_text(generate_trace(EnvConfig(), 5, seed=1))
        lines = text.splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        with pytest.raises(ValueError):
            parse_trace_text("\n".join(lines))
