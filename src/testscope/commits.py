"""Synthetic commit traces.

Each commit carries observable metadata (diff size, files changed, source
fraction, author history) plus a latent ``has_bug`` flag that policies must
never read. Observable features are drawn from class-conditional
distributions, so metadata predicts defects imperfectly: large diffs by
authors with poor track records are more likely to be buggy, but small clean
looking commits still break things sometimes.

:func:`generate_trace` draws a trace as a :class:`Trace` of NumPy columns,
which the simulator runs on. :func:`observe` turns it into the per-commit
views a policy sees, and :func:`trace_records` into :class:`Commit` records
for trace files and diagnostics.

Two trace modes exist:

* ``standard``  - independent commits, defect probability ``bug_probability``.
* ``adversarial`` - repeating blocks of many small-diff commits followed by a
  burst of large-diff commits. Defect probability is unchanged, so some bugs
  hide inside small diffs that every diff-based heuristic scores as low risk.

``risk_score`` is the generator's own posterior bug probability given the
observable features, computed from the class-conditional densities. It exists
for diagnostics and histograms only, so only :func:`trace_records` computes
it; the simulator never does, and policies never see it. Adversarial
traces reuse the standard-mode scorer unchanged, which is the point: their
small risky diffs are *marked* low-risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .config import EnvConfig, GeneratorConfig
from .fileio import rows_to_csv

# ``atomic_write`` is not called here, but perfbench traces it under this
# module's name as well
from .fileio import atomic_write  # noqa: F401

__all__ = [
    "Commit",
    "ObservedCommit",
    "Trace",
    "observe",
    "METADATA_FIELDS",
    "TRACE_COLUMNS",
    "generate_trace",
    "trace_records",
    "trace_to_text",
]

@dataclass
class Commit:
    """One code change entering the pipeline.

    ``has_bug`` and ``risk_score`` are generator-internal: simulation ground
    truth and diagnostics. Policies only ever receive the
    :class:`ObservedCommit` view.
    """

    id: int
    diff_size: int
    files_changed: int
    source_fraction: float
    developer_defect_rate: float
    developer_experience: float
    has_bug: bool
    risk_score: float


class ObservedCommit(NamedTuple):
    """The policy-visible commit metadata: no ground truth, no risk oracle."""

    id: int
    diff_size: int
    files_changed: int
    source_fraction: float
    developer_defect_rate: float
    developer_experience: float


# a trace file's columns, in record order
TRACE_COLUMNS = tuple(f.name for f in fields(Commit))
# the observable metadata that the state's features 1-5 and the risk classifier encode
METADATA_FIELDS = ObservedCommit._fields[1:]


@dataclass(frozen=True, eq=False)
class Trace:
    """An ordered trace of commits as NumPy columns: entry ``i`` of each
    column belongs to commit ``i``, whose id is ``i``.

    This is what the simulator runs on. ``has_bug`` is ground truth that
    policies never read: :func:`observe` gives their per-commit view, and
    :func:`trace_records` the full records with risk scores. A trace is not
    iterable; loop over ``observe(trace)`` or ``range(len(trace))``.
    """

    diff_size: np.ndarray
    files_changed: np.ndarray
    source_fraction: np.ndarray
    developer_defect_rate: np.ndarray
    developer_experience: np.ndarray
    has_bug: np.ndarray

    def __post_init__(self):
        lengths = {name: len(column) for name, column in vars(self).items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"trace columns differ in length: {lengths}")

    def __len__(self) -> int:
        return len(self.has_bug)

    def __iter__(self):
        raise TypeError("a Trace is columns; loop over observe(trace) or range(len(trace))")

    def metadata(self) -> np.ndarray:
        """The ``(n, 5)`` raw fields that the state's features 1-5 encode, in
        ``METADATA_FIELDS`` order."""
        return np.column_stack([getattr(self, name) for name in METADATA_FIELDS])


# --------------------------------------------------------------------------
# class-conditional draws
# --------------------------------------------------------------------------

def _draw_conditional_features(
    rng: np.random.Generator, gen: GeneratorConfig, has_bug: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw (log_diff, defect_rate, source_fraction, experience) given the bug flags."""
    n = has_bug.shape[0]
    mu = np.where(has_bug, gen.buggy_diff_log_mean, gen.clean_diff_log_mean)
    log_diff = mu + gen.diff_log_sigma * rng.standard_normal(n)

    defect_rate = rng.beta(gen.defect_rate_alpha, gen.defect_rate_beta, n)
    defect_rate = np.clip(defect_rate + gen.buggy_defect_rate_shift * has_bug, 0.0, 1.0)

    source_clean = rng.beta(gen.clean_source_alpha, gen.clean_source_beta, n)
    source_buggy = rng.beta(gen.buggy_source_alpha, gen.buggy_source_beta, n)
    source = np.where(has_bug, source_buggy, source_clean)

    exp_clean = rng.beta(gen.clean_experience_alpha, gen.clean_experience_beta, n)
    exp_buggy = rng.beta(gen.buggy_experience_alpha, gen.buggy_experience_beta, n)
    experience = np.where(has_bug, exp_buggy, exp_clean)

    return log_diff, defect_rate, source, experience


def _log_beta_pdfs(x: np.ndarray, params: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Log Beta densities of the rows of ``x``, row ``i`` under ``params[i] = (alpha, beta)``;
    -inf outside the open unit interval."""
    alpha, beta = (np.array(p)[:, None] for p in zip(*params))
    ln_norm = np.array([math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b) for a, b in params])
    inside = (x > 0.0) & (x < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (alpha - 1.0) * np.log(x) + (beta - 1.0) * np.log(1.0 - x) - ln_norm[:, None]
    return np.where(inside, log_pdf, -np.inf)


def risk_scores(
    gen: GeneratorConfig,
    bug_probability: float,
    diff_size: np.ndarray,
    defect_rate: np.ndarray,
    source_fraction: np.ndarray,
    experience: np.ndarray,
) -> np.ndarray:
    """Posterior bug probability under the standard-mode generative model.

    Uses the log-density ratio of the buggy vs clean feature distributions.
    ``files_changed`` contributes nothing: its distribution given the diff is
    the same for both classes.
    """
    if bug_probability <= 0.0:
        return np.zeros_like(np.asarray(diff_size, dtype=np.float64))
    if bug_probability >= 1.0:
        return np.ones_like(np.asarray(diff_size, dtype=np.float64))

    # rounded diffs of 0 are scored at half a line to keep the log defined
    x = np.log(np.maximum(np.asarray(diff_size, dtype=np.float64), 0.5))
    two_var = 2.0 * gen.diff_log_sigma**2
    log_lr = ((x - gen.clean_diff_log_mean) ** 2 - (x - gen.buggy_diff_log_mean) ** 2) / two_var

    # buggy minus clean log density of each Beta-distributed field: the six
    # densities in one pass, added in this order
    defect_rate = np.asarray(defect_rate, dtype=np.float64)
    shifted = defect_rate - gen.buggy_defect_rate_shift
    values = np.stack([shifted, defect_rate, source_fraction, source_fraction, experience, experience])
    terms = _log_beta_pdfs(values, (
        (gen.defect_rate_alpha, gen.defect_rate_beta),
        (gen.defect_rate_alpha, gen.defect_rate_beta),
        (gen.buggy_source_alpha, gen.buggy_source_beta),
        (gen.clean_source_alpha, gen.clean_source_beta),
        (gen.buggy_experience_alpha, gen.buggy_experience_beta),
        (gen.clean_experience_alpha, gen.clean_experience_beta),
    ))
    for buggy, clean in zip(terms[0::2], terms[1::2]):
        log_lr += buggy
        log_lr -= clean

    log_odds = math.log(bug_probability / (1.0 - bug_probability)) + log_lr
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-log_odds))


def generate_trace(cfg: EnvConfig, n: int, seed: int, mode: str | None = None) -> Trace:
    """Generate an ordered trace of ``n`` commits, deterministic given ``seed``.

    ``mode`` defaults to ``cfg.trace_mode``. The trace holds no risk scores:
    :func:`trace_records` adds them.
    """
    if n < 1:
        raise ValueError(f"trace length must be >= 1, got {n}")
    mode = cfg.trace_mode if mode is None else mode
    if mode not in ("standard", "adversarial"):
        raise ValueError(f"unknown trace mode {mode!r}")
    rng = np.random.default_rng(seed)
    gen = cfg.generator
    has_bug = rng.random(n) < cfg.bug_probability
    log_diff, defect_rate, source, experience = _draw_conditional_features(rng, gen, has_bug)
    diff = np.maximum(np.rint(np.exp(log_diff)), 0.0).astype(np.int64)

    if mode == "adversarial":
        period = gen.streak_length + gen.burst_length
        in_streak = (np.arange(n) % period) < gen.streak_length
        streak_diff = rng.integers(gen.streak_diff_min, gen.streak_diff_max + 1, n)
        burst_diff = rng.integers(gen.burst_diff_min, gen.burst_diff_max + 1, n)
        diff = np.where(in_streak, streak_diff, burst_diff)

    files = 1 + rng.poisson(diff / gen.lines_per_file)
    return Trace(diff, files, source, defect_rate, experience, has_bug)


def observe(trace: Trace) -> list[ObservedCommit]:
    """Redact a trace down to what a policy is allowed to see, one view per commit."""
    # one tolist() per column gives plain Python ints and floats
    columns = [getattr(trace, name).tolist() for name in METADATA_FIELDS]
    return list(map(ObservedCommit._make, zip(range(len(trace)), *columns)))


def trace_records(trace: Trace, cfg: EnvConfig) -> list[Commit]:
    """The commits of ``trace`` as records, with the generator's risk scores
    under ``cfg``: for trace files and diagnostics, never for a policy."""
    risk = risk_scores(
        cfg.generator, cfg.bug_probability, trace.diff_size, trace.developer_defect_rate,
        trace.source_fraction, trace.developer_experience,
    )
    # the record columns between the id and the risk score are the trace's
    columns = [*(getattr(trace, name) for name in TRACE_COLUMNS[1:-1]), risk]
    return [Commit(*row) for row in zip(range(len(trace)), *(col.tolist() for col in columns))]


# --------------------------------------------------------------------------
# trace files: one CSV record per commit, header row first
# --------------------------------------------------------------------------

def trace_to_text(commits: list[Commit]) -> str:
    """Render a trace in its on-disk CSV form (floats keep full precision)."""
    return rows_to_csv(map(vars, commits), TRACE_COLUMNS)
