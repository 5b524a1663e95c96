"""Versioned policy weight files.

A weight file is a JSON document with a format version, a model-kind tag, the
layer geometry, an optional training-config snapshot, every parameter array as
base64-encoded little-endian float64 bytes in row-major order, and a SHA-256
checksum over the raw parameter bytes. Loading verifies the version, the kind,
the checksum and that every parameter is finite before any model object is
constructed, and round-trips are bit-exact.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from .baselines import CLASSIFIER_FEATURES, LogisticModel
from .config import StateConfig, TrainConfig
from .fileio import atomic_write
from .network import QNetwork

__all__ = ["WeightFileError", "WEIGHT_FORMAT_VERSION", "save_policy", "load_policy"]

WEIGHT_FORMAT_VERSION = 1

KIND_QNETWORK = "q_network"
KIND_LOGISTIC = "logistic"


class WeightFileError(Exception):
    """Raised for unreadable, corrupted, or mismatched weight files."""


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(entry: dict, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"].encode("ascii"), validate=True)
        shape = tuple(int(s) for s in entry["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFileError(f"malformed array {name!r}: {exc}") from None
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise WeightFileError(
            f"array {name!r} has {len(raw)} bytes, expected {expected} for shape {shape}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _checksum(arrays: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        digest.update(name.encode("utf-8"))
        digest.update(repr(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _non_finite(arrays: dict[str, np.ndarray]) -> str:
    """The sorted names of the arrays holding a non-finite value, comma-separated."""
    return ", ".join(sorted(name for name, arr in arrays.items() if not np.isfinite(arr).all()))


def _train_snapshot(cfg: TrainConfig) -> dict:
    return {
        "beta": cfg.escape_penalty,
        "gamma": cfg.discount,
        "learning_rate": cfg.learning_rate,
        "seed": cfg.seed,
        "episodes": cfg.episodes,
    }


def save_policy(
    path: str | Path,
    model: QNetwork | LogisticModel,
    train_cfg: TrainConfig | None = None,
) -> None:
    """Write a model to a weight file atomically.

    Raises :class:`ValueError` naming the arrays, and writes nothing, when a
    parameter is not finite.
    """
    if isinstance(model, QNetwork):
        arrays: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        document = {
            "format_version": WEIGHT_FORMAT_VERSION,
            "model_kind": KIND_QNETWORK,
            "byte_order": "little",
            "dtype": "float64",
            "layer_sizes": [model.input_dim, *model.hidden_sizes, model.output_dim],
            "hidden_sizes": list(model.hidden_sizes),
        }
    elif isinstance(model, LogisticModel):
        arrays = {"weights": model.weights, "bias": np.array([model.bias])}
        document = {
            "format_version": WEIGHT_FORMAT_VERSION,
            "model_kind": KIND_LOGISTIC,
            "byte_order": "little",
            "dtype": "float64",
            "feature_names": list(CLASSIFIER_FEATURES),
            "diff_cap": model.state_cfg.diff_cap,
            "files_cap": model.state_cfg.files_cap,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    # load_policy would reject the file, so do not write it
    bad = _non_finite(arrays)
    if bad:
        raise ValueError(f"cannot save {path}: non-finite values in {bad}")

    if train_cfg is not None:
        document["train_config"] = _train_snapshot(train_cfg)
    document["arrays"] = {name: _encode_array(arr) for name, arr in arrays.items()}
    document["checksum"] = _checksum(arrays)
    atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_policy(path: str | Path, expect_kind: str | None = None) -> QNetwork | LogisticModel:
    """Read a weight file back into a model.

    ``expect_kind`` (``"q_network"`` or ``"logistic"``) guards call sites that
    require one model type. Corruption anywhere fails before any model object
    exists.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise WeightFileError(f"cannot read weight file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise WeightFileError(f"{path} is not a valid weight file (truncated?): {exc}") from None
    if not isinstance(document, dict):
        raise WeightFileError(f"{path} is not a weight file: expected a JSON object")

    version = document.get("format_version")
    if version != WEIGHT_FORMAT_VERSION:
        raise WeightFileError(
            f"{path}: format version {version!r} unsupported (expected {WEIGHT_FORMAT_VERSION})"
        )
    kind = document.get("model_kind")
    if expect_kind is not None and kind != expect_kind:
        raise WeightFileError(f"{path}: contains a {kind!r} model, expected {expect_kind!r}")

    raw_arrays = document.get("arrays")
    if not isinstance(raw_arrays, dict):
        raise WeightFileError(f"{path}: missing parameter arrays")
    arrays = {name: _decode_array(entry, name) for name, entry in raw_arrays.items()}
    if _checksum(arrays) != document.get("checksum"):
        raise WeightFileError(f"{path}: checksum mismatch, file is corrupted")
    # a diverged model would otherwise act: argmax of a NaN row is action 0
    bad = _non_finite(arrays)
    if bad:
        raise WeightFileError(f"{path}: non-finite values in {bad}")

    if kind == KIND_QNETWORK:
        layer_sizes = document.get("layer_sizes")
        if not layer_sizes or len(layer_sizes) < 2:
            raise WeightFileError(f"{path}: bad layer_sizes {layer_sizes!r}")
        n_layers = len(layer_sizes) - 1
        try:
            weights = [arrays[f"w{i}"] for i in range(n_layers)]
            biases = [arrays[f"b{i}"] for i in range(n_layers)]
        except KeyError as exc:
            raise WeightFileError(f"{path}: missing array {exc}") from None
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (layer_sizes[i], layer_sizes[i + 1]) or b.shape != (layer_sizes[i + 1],):
                raise WeightFileError(f"{path}: layer {i} shape mismatch")
        return QNetwork(weights=weights, biases=biases)

    if kind == KIND_LOGISTIC:
        try:
            weights = arrays["weights"]
            bias = float(arrays["bias"][0])
        except (KeyError, IndexError):
            raise WeightFileError(f"{path}: missing logistic parameters") from None
        feature_names = tuple(document.get("feature_names", ()))
        if feature_names != CLASSIFIER_FEATURES:
            raise WeightFileError(
                f"{path}: feature_names {list(feature_names)} differ from {list(CLASSIFIER_FEATURES)}"
            )
        if weights.shape != (len(CLASSIFIER_FEATURES),):
            raise WeightFileError(
                f"{path}: {weights.size} logistic weights, expected {len(CLASSIFIER_FEATURES)}"
            )
        caps = {}
        for name in ("diff_cap", "files_cap"):
            cap = document.get(name, getattr(StateConfig(), name))
            if type(cap) is not int or cap < 1:
                raise WeightFileError(f"{path}: {name} must be an integer >= 1, got {cap!r}")
            caps[name] = cap
        return LogisticModel(weights=weights, bias=bias, state_cfg=StateConfig(**caps))

    raise WeightFileError(f"{path}: unknown model kind {kind!r}")
