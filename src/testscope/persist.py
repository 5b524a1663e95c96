"""Versioned policy weight files.

A weight file is a JSON document with a format version, a model-kind tag, the
layer geometry, an optional training-config snapshot, every parameter array as
base64-encoded little-endian float64 bytes in row-major order, and a SHA-256
checksum over the raw parameter bytes. Loading verifies the version, the kind,
the checksum, that every parameter is finite, that layer widths are integers
>= 1 and that the arrays are exactly the ones the kind's layout names, with
its shapes, before any model object is constructed, and round-trips are
bit-exact.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .baselines import LogisticModel
from .commits import METADATA_FIELDS
from .config import StateConfig, TrainConfig
from .fileio import atomic_write, json_text
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


def _decode_array(entry: dict, name: str, path: Path) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"], validate=True)  # a str, else TypeError
        shape = entry["shape"]
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFileError(f"{path}: malformed array {name!r}: {exc}") from None
    # a 10.7, "10" or true is no dimension, though int() reads them as 10, 10 and 1
    if not isinstance(shape, list) or not all(type(s) is int for s in shape):
        raise WeightFileError(
            f"{path}: malformed array {name!r}: shape {shape!r} is not a list of ints"
        )
    shape = tuple(shape)
    if any(s < 0 for s in shape):
        raise WeightFileError(f"{path}: malformed array {name!r}: negative dimension in {shape}")
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise WeightFileError(
            f"{path}: array {name!r} has {len(raw)} bytes, expected {expected} for shape {shape}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _layout_arrays(
    arrays: dict[str, np.ndarray], names: list[str], kind: str, path: Path
) -> list[np.ndarray]:
    """The arrays a kind's layout names, in its order; a missing or an unnamed array raises."""
    unnamed = sorted(arrays.keys() - set(names))
    if unnamed:
        raise WeightFileError(f"{path}: arrays {', '.join(unnamed)} are not in the {kind} layout")
    try:
        return [arrays[name] for name in names]
    except KeyError as exc:
        raise WeightFileError(f"{path}: missing array {exc}") from None


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

    Raises :class:`ValueError`, and writes nothing, for a file that
    :func:`load_policy` would reject: when a parameter is not finite (naming
    the arrays), ``model`` is a stack of networks (a file holds one network;
    save each of ``model.unstack()``), or a logistic model has other than
    one weight per metadata field or a cap that is not an int >= 1.
    """
    if isinstance(model, QNetwork):
        if model.stack:
            raise ValueError(f"cannot save {path}: a stack of {model.stack[0]} networks, not one")
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
        if np.shape(model.weights) != (len(METADATA_FIELDS),):
            raise ValueError(
                f"cannot save {path}: logistic weights of shape {np.shape(model.weights)}, "
                f"expected ({len(METADATA_FIELDS)},)"
            )
        for name in ("diff_cap", "files_cap"):
            cap = getattr(model.state_cfg, name)
            if type(cap) is not int or cap < 1:
                raise ValueError(f"cannot save {path}: {name} must be an integer >= 1, got {cap!r}")
        arrays = {"weights": model.weights, "bias": np.array([model.bias])}
        document = {
            "format_version": WEIGHT_FORMAT_VERSION,
            "model_kind": KIND_LOGISTIC,
            "byte_order": "little",
            "dtype": "float64",
            "feature_names": list(METADATA_FIELDS),
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
    atomic_write(path, json_text(document))


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
    arrays = {name: _decode_array(entry, name, path) for name, entry in raw_arrays.items()}
    if _checksum(arrays) != document.get("checksum"):
        raise WeightFileError(f"{path}: checksum mismatch, file is corrupted")
    # a diverged model would otherwise act: argmax of a NaN row is action 0
    bad = _non_finite(arrays)
    if bad:
        raise WeightFileError(f"{path}: non-finite values in {bad}")

    if kind == KIND_QNETWORK:
        layer_sizes = document.get("layer_sizes")
        # widths as mlp_init takes them: a zero-width layer would ignore the state
        sizes_ok = isinstance(layer_sizes, list) and len(layer_sizes) >= 2
        if not sizes_ok or not all(type(size) is int and size >= 1 for size in layer_sizes):
            raise WeightFileError(f"{path}: bad layer_sizes {layer_sizes!r}")
        # the checksum covers the arrays alone, so an edit of either key
        # would otherwise pass; a 64.0 equals 64 but is no width
        hidden = document.get("hidden_sizes")
        if not isinstance(hidden, list) or hidden != layer_sizes[1:-1] or (
            not all(type(size) is int for size in hidden)
        ):
            raise WeightFileError(
                f"{path}: hidden_sizes {hidden!r} do not match layer_sizes {layer_sizes!r}"
            )
        n_layers = len(layer_sizes) - 1
        names = [f"{p}{i}" for p in "wb" for i in range(n_layers)]
        params = _layout_arrays(arrays, names, kind, path)
        weights, biases = params[:n_layers], params[n_layers:]
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (layer_sizes[i], layer_sizes[i + 1]) or b.shape != (layer_sizes[i + 1],):
                raise WeightFileError(f"{path}: layer {i} shape mismatch")
        return QNetwork(weights=weights, biases=biases)

    if kind == KIND_LOGISTIC:
        weights, bias = _layout_arrays(arrays, ["weights", "bias"], kind, path)
        if bias.shape != (1,):
            raise WeightFileError(f"{path}: logistic bias has shape {bias.shape}, expected (1,)")
        feature_names = document.get("feature_names", [])
        if not isinstance(feature_names, list) or tuple(feature_names) != METADATA_FIELDS:
            raise WeightFileError(
                f"{path}: feature_names must be {list(METADATA_FIELDS)}, got {feature_names!r}"
            )
        if weights.shape != (len(METADATA_FIELDS),):
            raise WeightFileError(
                f"{path}: {weights.size} logistic weights, expected {len(METADATA_FIELDS)}"
            )
        caps = {}
        for name in ("diff_cap", "files_cap"):
            cap = document.get(name, getattr(StateConfig(), name))
            if type(cap) is not int or cap < 1:
                raise WeightFileError(f"{path}: {name} must be an integer >= 1, got {cap!r}")
            caps[name] = cap
        return LogisticModel(weights=weights, bias=float(bias[0]), state_cfg=StateConfig(**caps))

    raise WeightFileError(f"{path}: unknown model kind {kind!r}")
