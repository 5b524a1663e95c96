"""Comparison policies: always-full, diff-size heuristic, and a risk classifier.

The classifier is a from-scratch logistic regression over the observable
commit metadata, fitted by damped Newton steps (IRLS) on labeled historical
commits until the gradient of its L2-regularised log-loss is within tolerance;
a fit that does not get there raises instead of returning a half-fitted model.
Predicted risk maps to a test scope through two thresholds: very low risk
skips tests, moderate risk runs the partial suite, everything else runs the
full suite.

Each baseline's action depends on the commit's metadata alone, so each
*plans* a whole trace at once: ``plan(metadata)`` returns the ``(T,)``
actions of a trace from its raw ``(T, 5)`` observable columns
(:meth:`~testscope.commits.Trace.metadata`), which hold neither the bug flag
nor the generator's risk score. The classifier encodes those columns itself,
under the caps of the ``state_cfg`` it was fitted with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .commits import METADATA_FIELDS, Commit, ObservedCommit, generate_trace
from .config import ClassifierConfig, EnvConfig, StateConfig, validate_classifier
from .environment import Action, metadata_features

__all__ = [
    "StaticPolicy",
    "HeuristicPolicy",
    "commit_features",
    "LogisticModel",
    "predict_risk",
    "train_classifier",
    "ClassifierPolicy",
    "make_classifier",
]

HEURISTIC_DIFF_CUTOFF = 20  # strictly below runs partial tests

_FULL_TESTS, _PARTIAL_TESTS, _SKIP_TESTS = Action

# a risk within this of a threshold is scored again by predict_risk: far
# wider than the last-bit difference between the batched and per-row product
_RESCORE_MARGIN = 1e-9


class StaticPolicy:
    """The always-full baseline: run the entire suite on every commit."""

    def plan(self, metadata: np.ndarray) -> np.ndarray:
        return np.full(len(metadata), _FULL_TESTS)


class HeuristicPolicy:
    """Partial tests for diffs under ``HEURISTIC_DIFF_CUTOFF`` lines, else full tests; never skips."""

    def plan(self, metadata: np.ndarray) -> np.ndarray:
        return np.where(metadata[:, 0] < HEURISTIC_DIFF_CUTOFF, _PARTIAL_TESTS, _FULL_TESTS)


# --------------------------------------------------------------------------
# logistic risk model
# --------------------------------------------------------------------------

def _raw_metadata(commits: list[Commit] | list[ObservedCommit]) -> np.ndarray:
    """The ``(n, 5)`` raw fields of ``commits`` that :func:`metadata_features` encodes."""
    raw_fields = attrgetter(*METADATA_FIELDS)
    return np.array(list(map(raw_fields, commits)), dtype=np.float64).reshape(-1, 5)


def commit_features(commit: ObservedCommit | Commit, state_cfg: StateConfig | None = None) -> np.ndarray:
    """Features 1-5 of the commit's state, in ``METADATA_FIELDS`` order."""
    return metadata_features(_raw_metadata([commit]), state_cfg or StateConfig())[0]


@dataclass
class LogisticModel:
    """Logistic regression over normalized commit metadata."""

    weights: np.ndarray
    bias: float
    state_cfg: StateConfig = field(default_factory=StateConfig)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # evaluated piecewise to stay finite for large |z|
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict_risk(model: LogisticModel, features: np.ndarray) -> float:
    """Predicted bug probability of one commit's features 1-5, strictly inside (0, 1).

    ``features`` must be encoded with ``model.state_cfg``'s caps, as
    ``commit_features(commit, model.state_cfg)`` or a row of
    ``metadata_features(metadata, model.state_cfg)``.
    """
    z = float(np.dot(features, model.weights) + model.bias)
    # _sigmoid on the scalar, with NumPy's exp: math.exp differs in the last bit
    if z >= 0:
        p = 1.0 / (1.0 + float(np.exp(-z)))
    else:
        ez = float(np.exp(z))
        p = ez / (1.0 + ez)
    return min(max(p, 1e-15), 1.0 - 1e-15)


def _labeled_arrays(commits: list[Commit], state_cfg: StateConfig) -> tuple[np.ndarray, np.ndarray]:
    x = metadata_features(_raw_metadata(commits), state_cfg)
    y = np.array([float(c.has_bug) for c in commits])
    return x, y


def _objective(z: np.ndarray, y: np.ndarray, weights: np.ndarray, l2_penalty: float) -> float:
    # mean log-loss from the logits z, log(1 + e^z) - y z, plus the L2 term
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return loss + 0.5 * l2_penalty * float(weights @ weights)


def _not_converged(reason: str, iterations: int, grad_norm: float) -> ValueError:
    return ValueError(
        f"risk classifier fit did not converge: {reason}; "
        f"{iterations} Newton iteration(s), gradient norm {grad_norm:.3e}"
    )


# step halvings before a Newton line search gives up (step scale 2**-40)
_MAX_HALVINGS = 41


def _newton_iterates(x: np.ndarray, y: np.ndarray, l2_penalty: float):
    """Damped Newton (IRLS) iterates for the regularised log-loss, from zero.

    Yields ``(weights, bias, grad_norm)`` at each iterate, the first being the
    zero model. Each step solves ``H delta = g`` on the features with a column
    of ones appended for the unpenalised bias, then halves the step until the
    objective does not increase. Raises :class:`ValueError` when ``H`` is
    singular or halving finds no such step.
    """
    n = len(y)
    x = np.hstack([x, np.ones((n, 1))])
    penalty = np.full(x.shape[1], l2_penalty)
    penalty[-1] = 0.0
    theta = np.zeros(x.shape[1])
    z = x @ theta
    objective = _objective(z, y, theta[:-1], l2_penalty)
    for iteration in itertools.count():
        p = _sigmoid(z)
        grad = x.T @ (p - y) / n + penalty * theta
        grad_norm = float(np.sqrt(grad @ grad))
        yield theta[:-1], float(theta[-1]), grad_norm
        hessian = (x.T * (p * (1.0 - p))) @ x / n + np.diag(penalty)
        # H delta = g through H's eigenvalues, which also give its numerical
        # rank (the tolerance numpy.linalg.matrix_rank uses)
        curvature, axes = np.linalg.eigh(hessian)
        if curvature[0] <= len(theta) * np.finfo(float).eps * curvature[-1]:
            raise _not_converged("the Hessian is singular", iteration, grad_norm)
        step = axes @ (axes.T @ grad / curvature)
        for _ in range(_MAX_HALVINGS):
            candidate = theta - step
            z_candidate = x @ candidate
            value = _objective(z_candidate, y, candidate[:-1], l2_penalty)
            if value <= objective:
                break
            step = 0.5 * step
        else:
            raise _not_converged("the line search stalled", iteration, grad_norm)
        theta, z, objective = candidate, z_candidate, value


def _fit_logistic(
    x: np.ndarray, y: np.ndarray, opts: ClassifierConfig, state_cfg: StateConfig
) -> LogisticModel:
    """Fit the risk model on features ``x`` (encoded under ``state_cfg``) and
    0/1 labels ``y``; see :func:`train_classifier`."""
    if len(y) < 2:
        raise ValueError("need at least 2 labeled commits")
    if y.min() == y.max():
        raise ValueError("training set must contain both buggy and clean commits")

    iterates = _newton_iterates(x, y, opts.l2_penalty)
    for _ in range(opts.max_iterations + 1):
        weights, bias, grad_norm = next(iterates)
        if grad_norm <= opts.tolerance:
            return LogisticModel(weights, bias, state_cfg=state_cfg)
    raise _not_converged(
        f"gradient norm above classifier.tolerance = {opts.tolerance:g} at classifier.max_iterations",
        opts.max_iterations,
        grad_norm,
    )


def train_classifier(
    commits: list[Commit],
    opts: ClassifierConfig | None = None,
    state_cfg: StateConfig | None = None,
) -> LogisticModel:
    """Fit the risk model on labeled commits by damped Newton steps (IRLS).

    Minimizes mean log-loss plus ``0.5 * l2_penalty * |w|^2`` (the bias is
    not penalised) and stops at the first iterate whose gradient norm is at
    most ``opts.tolerance``. Raises :class:`ValueError` naming the iteration
    count and gradient norm if ``opts.max_iterations`` Newton steps do not get
    there, the Hessian is singular or the line search stalls. Deterministic:
    zero init, no sampling. Requires both classes present.
    """
    cfg = state_cfg or StateConfig()
    return _fit_logistic(*_labeled_arrays(commits, cfg), opts or ClassifierConfig(), cfg)


class ClassifierPolicy:
    """Maps predicted risk to a test scope through ``cfg``'s two thresholds.

    Risk below ``tau_skip`` skips the tests, below ``tau_partial`` runs the
    partial suite, and anything else the full suite, so a risk on a threshold
    goes to the more thorough tier. ``cfg`` defaults to ``ClassifierConfig()``
    and must pass :func:`~testscope.config.validate_classifier`.

    The risk is scored from the trace's columns encoded under the model's own
    ``state_cfg``, whatever caps the environment encodes its state under.
    Every action equals the tier of the commit's :func:`predict_risk`.
    """

    def __init__(self, model: LogisticModel, cfg: ClassifierConfig | None = None):
        cfg = cfg or ClassifierConfig()
        validate_classifier(cfg)
        self.model = model
        self.tau_skip = cfg.tau_skip
        self.tau_partial = cfg.tau_partial

    def plan(self, metadata: np.ndarray) -> np.ndarray:
        model = self.model
        features = metadata_features(metadata, model.state_cfg)
        risk = np.clip(_sigmoid(features @ model.weights + model.bias), 1e-15, 1.0 - 1e-15)
        # the product differs from predict_risk's per-row np.dot in the last
        # bits, so a risk that near a threshold is scored again row by row
        near = np.abs(risk - self.tau_skip) <= _RESCORE_MARGIN
        near |= np.abs(risk - self.tau_partial) <= _RESCORE_MARGIN
        for i in np.flatnonzero(near).tolist():
            risk[i] = predict_risk(model, features[i])
        partial_or_full = np.where(risk < self.tau_partial, _PARTIAL_TESTS, _FULL_TESTS)
        return np.where(risk < self.tau_skip, _SKIP_TESTS, partial_or_full)


def make_classifier(env_cfg: EnvConfig, opts: ClassifierConfig | None = None) -> LogisticModel:
    """Train the risk model on a dedicated labeled history.

    The history is a standard-mode trace of ``opts.train_size`` commits
    drawn with ``opts.train_seed``, standing in for labeled historical
    commits whatever the evaluation trace mode. Its columns are encoded
    without building commit records, and the model equals
    ``train_classifier`` on that trace's records bit for bit.
    """
    opts = opts or ClassifierConfig()
    history = generate_trace(env_cfg, opts.train_size, opts.train_seed, mode="standard")
    x = metadata_features(history.metadata(), env_cfg.state)
    return _fit_logistic(x, history.has_bug.astype(np.float64), opts, env_cfg.state)
