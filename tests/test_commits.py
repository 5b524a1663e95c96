"""Commit generator: distributions, determinism, stress traces, trace files."""

import dataclasses
import hashlib

import numpy as np
import pytest

from testscope.commits import (
    TRACE_COLUMNS, Commit, ObservedCommit, Trace, generate_trace, observe, trace_records, trace_to_text
)
from testscope.config import EnvConfig
from trace_helpers import records


def make_cfg(**kwargs) -> EnvConfig:
    return dataclasses.replace(EnvConfig(), **kwargs)


def parse_trace_text(text: str) -> list[Commit]:
    """Read a trace back from its on-disk CSV form, checking header and record widths."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise ValueError("not a trace file: bad or missing header row")
    commits = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"bad trace record: {line!r}")
        commits.append(
            Commit(
                id=int(parts[0]),
                diff_size=int(parts[1]),
                files_changed=int(parts[2]),
                source_fraction=float(parts[3]),
                developer_defect_rate=float(parts[4]),
                developer_experience=float(parts[5]),
                has_bug=bool(int(parts[6])),
                risk_score=float(parts[7]),
            )
        )
    return commits


class TestGenerateCommit:
    def test_zero_bug_probability_never_buggy(self):
        trace = generate_trace(make_cfg(bug_probability=0.0), 500, seed=1)
        assert not trace.has_bug.any()

    def test_unit_bug_probability_always_buggy(self):
        trace = generate_trace(make_cfg(bug_probability=1.0), 500, seed=1)
        assert trace.has_bug.all()

    def test_bug_rate_matches_configured_probability(self):
        # Monte Carlo check of the Bernoulli(0.15) marginal at N=100,000
        trace = generate_trace(EnvConfig(), 100_000, seed=7)
        assert abs(trace.has_bug.mean() - 0.15) <= 0.01

    def test_field_invariants(self):
        trace = generate_trace(EnvConfig(), 20_000, seed=3)
        assert len(trace) == 20_000
        assert (trace.diff_size >= 0).all()
        assert (trace.files_changed >= 1).all()
        for fraction in (trace.source_fraction, trace.developer_defect_rate, trace.developer_experience):
            assert ((0.0 <= fraction) & (fraction <= 1.0)).all()
        risk = np.array([c.risk_score for c in trace_records(trace, EnvConfig())])
        assert ((0.0 <= risk) & (risk <= 1.0)).all()

    def test_ids_are_sequential(self):
        trace = generate_trace(EnvConfig(), 50, seed=5)
        assert [c.id for c in trace_records(trace, EnvConfig())] == list(range(50))
        assert [c.id for c in observe(trace)] == list(range(50))


class TestTrace:
    def test_columns_of_different_lengths_rejected(self):
        columns = [np.zeros(3) for _ in range(5)]
        with pytest.raises(ValueError, match="'diff_size': 3.*'has_bug': 2"):
            Trace(*columns, has_bug=np.zeros(2, dtype=bool))

    def test_length_is_the_commit_count_and_the_columns_are_not_walked(self):
        trace = generate_trace(EnvConfig(), 7, seed=2)
        assert len(trace) == 7
        with pytest.raises(TypeError):
            list(trace)
        with pytest.raises(TypeError):
            for _ in trace:
                pass

    @pytest.mark.parametrize("mode", ["standard", "adversarial"])
    def test_observe_is_the_policy_view_of_each_record(self, mode):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 300, seed=17, mode=mode)
        seen = observe(trace)
        # each record's policy-visible fields, read one commit at a time
        expected = [
            tuple(getattr(c, name) for name in ObservedCommit._fields)
            for c in trace_records(trace, cfg)
        ]
        assert len(seen) == len(expected) == 300
        for view, fields in zip(seen, expected):
            assert type(view) is ObservedCommit and view._fields == ObservedCommit._fields
            assert [(type(v), v) for v in view] == [(type(v), v) for v in fields]
            assert not hasattr(view, "has_bug") and not hasattr(view, "risk_score")


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        a = records(EnvConfig(), 100, seed=42)
        b = records(EnvConfig(), 100, seed=42)
        assert trace_to_text(a) == trace_to_text(b)

    def test_different_seed_differs(self):
        a = records(EnvConfig(), 100, seed=42)
        b = records(EnvConfig(), 100, seed=43)
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
        for i, diff in enumerate(trace.diff_size.tolist()):
            if i % period < gen.streak_length:
                assert gen.streak_diff_min <= diff <= gen.streak_diff_max
            else:
                assert gen.burst_diff_min <= diff <= gen.burst_diff_max

    def test_contains_low_diff_buggy_commit(self):
        cfg = EnvConfig()
        trace = generate_trace(cfg, 100, seed=9, mode="adversarial")
        low_buggy = (trace.diff_size <= cfg.generator.streak_diff_max) & trace.has_bug
        assert low_buggy.any(), "stress trace must hide bugs inside small diffs"

    def test_burst_block_mean_diff_exceeds_streak_block(self):
        cfg = EnvConfig()
        gen = cfg.generator
        trace = generate_trace(cfg, 100, seed=9, mode="adversarial")
        period = gen.streak_length + gen.burst_length
        streak = np.arange(len(trace)) % period < gen.streak_length
        assert trace.diff_size[~streak].mean() > trace.diff_size[streak].mean()

    def test_low_diff_buggy_commits_are_marked_low_risk(self):
        # the nominal risk scorer must underrate small risky diffs
        cfg = EnvConfig()
        trace = records(cfg, 2000, seed=11, mode="adversarial")
        low_buggy = [
            c.risk_score
            for c in trace
            if c.diff_size <= cfg.generator.streak_diff_max and c.has_bug
        ]
        assert low_buggy
        assert np.median(low_buggy) < cfg.bug_probability


class TestRiskScore:
    def test_mean_risk_matches_bug_rate(self):
        trace = records(EnvConfig(), 50_000, seed=13)
        assert abs(np.mean([c.risk_score for c in trace]) - 0.15) <= 0.01

    def test_risk_is_calibrated(self):
        # commits binned by risk score show matching empirical bug rates
        trace = records(EnvConfig(), 50_000, seed=13)
        risk = np.array([c.risk_score for c in trace])
        bugs = np.array([c.has_bug for c in trace], dtype=float)
        for lo, hi in [(0.0, 0.05), (0.05, 0.15), (0.15, 0.3), (0.3, 0.5), (0.5, 1.0)]:
            mask = (risk >= lo) & (risk < hi)
            if mask.sum() < 500:
                continue
            assert abs(bugs[mask].mean() - risk[mask].mean()) < 0.03

    def test_degenerate_probabilities(self):
        zero = records(make_cfg(bug_probability=0.0), 100, seed=1)
        assert all(c.risk_score == 0.0 for c in zero)
        one = records(make_cfg(bug_probability=1.0), 100, seed=1)
        assert all(c.risk_score == 1.0 for c in one)


# sha256 of trace_to_text(trace_records(generate_trace(EnvConfig(), n, seed, mode),
# EnvConfig())), recorded before the generator built its commits column by column
PINNED_TRACES = {
    ("standard", 0, 1): "82b8c91577a0774d4c53d13ebed75f19d8a32eb9db54248b15526f78464072ab",
    ("standard", 0, 100): "803b986587b3b06b151fd2e9bed0971ab83e39a9af86186b4e705070b8d59c1d",
    ("standard", 0, 5000): "0da8452cd99138ece35340f831d7134fc7b8f2ed0bff3996442232709c7ee267",
    ("standard", 1, 1): "18c49963e17b54bd5ea3e12b520055882b63f7f65d5b403d014760a41b11f0b1",
    ("standard", 1, 100): "382d49e2abaf9cdcbef4ebddc0954f5ffbbdbbd1cdc279b2555836d62ee1d840",
    ("standard", 1, 5000): "79403194bbd2d0e2aff505f7e5c4f250cf37f598c979f133a1bf1c8044fd1064",
    ("standard", 7, 1): "81cf956c2dfd6d89babd5f6641c2fcf92580d2495bb3ab9485ecba61f8b57f7b",
    ("standard", 7, 100): "42c60ebb8595fd0c4b9803d6879faddbadb4edb9f984ee02c707d337a42a2c73",
    ("standard", 7, 5000): "102ad21fe851341157ad5f29a486a1de8090853a6a39b4f77a5d54f6a52d2125",
    ("adversarial", 0, 1): "eff1610c29caf734a0878f1698e57ece4a0faf0eadcdbb976d063ad97f58f5a7",
    ("adversarial", 0, 100): "b62a8d00b78d030243dc7a0cc23be51791ea14f1614b1fecf06239dc179cf06a",
    ("adversarial", 0, 5000): "92d8289ccf017b53b903e541a91d1e8f7e7584e975af8d09f5da8d4a154e2969",
    ("adversarial", 1, 1): "d8df1e06726ff04f6aedcdc4723eb24704e2211448df95f1eea9a36c9a89d5d2",
    ("adversarial", 1, 100): "aef14e52b096750bafd1d4a1514f0c8b21c2cffad047c14a84aef2d3ed7787f6",
    ("adversarial", 1, 5000): "a28e2f032fed47e1fc9588c260bb33706d4e2d75ad78b73521ccb1951233fe7c",
    ("adversarial", 7, 1): "58202c2f3da5a1166822cfc01832e551cea520f5b82eb50028085a79fa01e7fe",
    ("adversarial", 7, 100): "6cee372e737f8739efa5740e0d2577011e5d467509cd591c504b88ea7e5b1292",
    ("adversarial", 7, 5000): "a1bd84f688f9d7ea45eb744152db0d85fb8165850e35cc94054f5a756053433b",
}

FIELD_TYPES = {
    "id": int,
    "diff_size": int,
    "files_changed": int,
    "source_fraction": float,
    "developer_defect_rate": float,
    "developer_experience": float,
    "has_bug": bool,
    "risk_score": float,
}


class TestPinnedTraces:
    @pytest.mark.parametrize("mode, seed, n", sorted(PINNED_TRACES))
    def test_trace_bytes_are_pinned(self, mode, seed, n):
        trace = trace_records(generate_trace(EnvConfig(), n, seed=seed, mode=mode), EnvConfig())
        digest = hashlib.sha256(trace_to_text(trace).encode()).hexdigest()
        assert digest == PINNED_TRACES[mode, seed, n]
        # the text hides int vs NumPy int; the fields must be plain Python values
        for c in trace:
            assert {f: type(getattr(c, f)) for f in FIELD_TYPES} == FIELD_TYPES


class TestTraceFiles:
    def test_round_trip_exact(self):
        trace = records(EnvConfig(), 200, seed=21)
        text = trace_to_text(trace)
        assert parse_trace_text(text) == trace
        assert trace_to_text(parse_trace_text(text)) == text

    def test_header_row_present(self):
        text = trace_to_text(records(EnvConfig(), 5, seed=1))
        assert text.splitlines()[0] == (
            "id,diff_size,files_changed,source_fraction,developer_defect_rate,"
            "developer_experience,has_bug,risk_score"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_trace_text("id,diff\n1,2\n")

    def test_truncated_record_rejected(self):
        text = trace_to_text(records(EnvConfig(), 5, seed=1))
        lines = text.splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        with pytest.raises(ValueError):
            parse_trace_text("\n".join(lines))
