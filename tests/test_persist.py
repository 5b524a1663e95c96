"""Weight files: bit-exact round trips, checksums, version and kind guards."""

import base64
import hashlib
import json

import numpy as np
import pytest

from testscope.baselines import LogisticModel
from testscope.config import StateConfig, TrainConfig
from testscope.network import mlp_forward, mlp_init
from testscope.persist import (
    KIND_LOGISTIC,
    KIND_QNETWORK,
    WeightFileError,
    load_policy,
    save_policy,
)


def rewrite_array(path, name: str, values: np.ndarray) -> None:
    """Replace one array of a weight file and its checksum, as a writer that
    skipped the finiteness check would have written them."""
    document = json.loads(path.read_text())
    document["arrays"][name]["data"] = base64.b64encode(values.astype("<f8").tobytes()).decode()
    digest = hashlib.sha256()
    for key in sorted(document["arrays"]):
        entry = document["arrays"][key]
        digest.update(key.encode())
        digest.update(repr(tuple(entry["shape"])).encode())
        digest.update(base64.b64decode(entry["data"]))
    document["checksum"] = digest.hexdigest()
    path.write_text(json.dumps(document))


@pytest.fixture
def trained_net():
    net = mlp_init((16, 8), seed=9)
    # perturb away from init so round trips exercise arbitrary values
    rng = np.random.default_rng(1)
    for p in net.params:
        p += rng.normal(scale=0.3, size=p.shape)
    return net


class TestQNetworkFiles:
    def test_round_trip_bit_exact(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net, TrainConfig())
        loaded = load_policy(path, expect_kind=KIND_QNETWORK)
        for a, b in zip(trained_net.params, loaded.params):
            np.testing.assert_array_equal(a, b)

    def test_identical_q_values_after_reload(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        loaded = load_policy(path)
        states = np.random.default_rng(3).random((1000, 10))
        np.testing.assert_array_equal(
            mlp_forward(trained_net, states), mlp_forward(loaded, states)
        )

    def test_save_is_deterministic(self, tmp_path, trained_net):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_policy(a, trained_net, TrainConfig())
        save_policy(b, trained_net, TrainConfig())
        assert a.read_bytes() == b.read_bytes()

    def test_train_snapshot_embedded(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net, TrainConfig(escape_penalty=7.0, seed=3))
        document = json.loads(path.read_text())
        snap = document["train_config"]
        assert snap["beta"] == 7.0
        assert snap["seed"] == 3
        assert snap["gamma"] == 0.99
        assert snap["episodes"] == 2000
        assert document["byte_order"] == "little"
        assert document["format_version"] == 1


class TestLogisticFiles:
    def test_round_trip(self, tmp_path):
        model = LogisticModel(
            weights=np.array([0.5, -1.25, 3.0, 0.0, 2.5e-17]),
            bias=-2.75,
            state_cfg=StateConfig(diff_cap=300, files_cap=10),
        )
        path = tmp_path / "clf.json"
        save_policy(path, model)
        loaded = load_policy(path, expect_kind=KIND_LOGISTIC)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.state_cfg.diff_cap == 300
        assert loaded.state_cfg.files_cap == 10


class TestGuards:
    def test_logistic_feature_names_checked_at_load(self, tmp_path):
        path = tmp_path / "clf.json"
        save_policy(path, LogisticModel(weights=np.zeros(5), bias=0.0))
        document = json.loads(path.read_text())
        document["feature_names"] = ["diff_size", "files_changed", "source_fraction", "a", "b"]
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError, match="feature_names"):
            load_policy(path)

    @pytest.mark.parametrize("kind", [KIND_QNETWORK, KIND_LOGISTIC])
    def test_non_finite_parameters_rejected_at_load(self, tmp_path, trained_net, kind):
        # a NaN row's argmax is action 0, so a diverged agent would act as the static baseline
        path = tmp_path / "diverged.json"
        if kind == KIND_QNETWORK:
            save_policy(path, trained_net)
            bias = trained_net.biases[1].copy()
            bias[2] = np.nan
            rewrite_array(path, "b1", bias)
        else:
            save_policy(path, LogisticModel(weights=np.zeros(5), bias=0.0))
            rewrite_array(path, "bias", np.array([-np.inf]))
        name = "b1" if kind == KIND_QNETWORK else "bias"
        with pytest.raises(WeightFileError, match=f"non-finite values in {name}$"):
            load_policy(path, expect_kind=kind)

    @pytest.mark.parametrize("kind", [KIND_QNETWORK, KIND_LOGISTIC])
    def test_non_finite_parameters_rejected_at_save(self, tmp_path, trained_net, kind):
        path = tmp_path / "diverged.json"
        if kind == KIND_QNETWORK:
            trained_net.weights[0][3, 1] = np.inf
            trained_net.biases[1][2] = np.nan
            model, names = trained_net, "b1, w0"
        else:
            model, names = LogisticModel(weights=np.full(5, np.nan), bias=0.0), "weights"
        with pytest.raises(ValueError, match=f"non-finite values in {names}$"):
            save_policy(path, model)
        assert list(tmp_path.iterdir()) == []

    def test_logistic_weight_length_checked_at_load(self, tmp_path):
        path = tmp_path / "clf.json"
        # the checksum covers the arrays, so a well-formed file with six
        # weights passes every integrity check and fails only on the length
        save_policy(path, LogisticModel(weights=np.zeros(6), bias=0.0))
        with pytest.raises(WeightFileError, match="6 logistic weights, expected 5"):
            load_policy(path)

    @pytest.mark.parametrize("name", ["diff_cap", "files_cap"])
    @pytest.mark.parametrize("cap", [0, "abc", 2.5])
    def test_logistic_caps_checked_at_load(self, tmp_path, name, cap):
        # the caps divide the features at every prediction; the checksum
        # covers only the arrays, so an edited cap reaches this check
        path = tmp_path / "clf.json"
        save_policy(path, LogisticModel(weights=np.zeros(5), bias=0.0))
        document = json.loads(path.read_text())
        document[name] = cap
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError, match=f"{name} must be an integer >= 1, got {cap!r}"):
            load_policy(path)

    @pytest.mark.parametrize("document", [[1, 2], "q_network", 3, None])
    def test_json_that_is_not_an_object(self, tmp_path, document):
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError, match="expected a JSON object"):
            load_policy(path)

    def test_kind_mismatch(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        with pytest.raises(WeightFileError, match="expected 'logistic'"):
            load_policy(path, expect_kind=KIND_LOGISTIC)

    def test_corrupted_payload_fails_checksum(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        document = json.loads(path.read_text())
        entry = document["arrays"]["w0"]
        clean = np.zeros(tuple(entry["shape"]))
        import base64

        entry["data"] = base64.b64encode(clean.astype("<f8").tobytes()).decode()
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError, match="checksum mismatch"):
            load_policy(path)

    def test_truncated_file(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        path.write_text(path.read_text()[:-120])
        with pytest.raises(WeightFileError, match="not a valid weight file"):
            load_policy(path)

    def test_version_mismatch(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        document = json.loads(path.read_text())
        document["format_version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError, match="format version"):
            load_policy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WeightFileError, match="cannot read"):
            load_policy(tmp_path / "ghost.json")

    def test_unsupported_model_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_policy(tmp_path / "x.json", object())

    def test_wrong_array_length(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        document = json.loads(path.read_text())
        document["arrays"]["w0"]["shape"] = [1, 1]
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError):
            load_policy(path)
