"""Weight files: bit-exact round trips, checksums, version and kind guards."""

import base64
import hashlib
import json
import re

import numpy as np
import pytest

from testscope.baselines import LogisticModel
from testscope.cli import run_command
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
    """Replace or add one array of a weight file and rewrite its checksum, as
    a writer that skipped the load checks would have written them."""
    document = json.loads(path.read_text())
    document["arrays"][name] = {
        "shape": list(values.shape),
        "data": base64.b64encode(values.astype("<f8").tobytes()).decode(),
    }
    digest = hashlib.sha256()
    for key in sorted(document["arrays"]):
        entry = document["arrays"][key]
        digest.update(key.encode())
        digest.update(repr(tuple(entry["shape"])).encode())
        digest.update(base64.b64decode(entry["data"]))
    document["checksum"] = digest.hexdigest()
    path.write_text(json.dumps(document))


def write_layers(path, layer_sizes) -> None:
    """Write a q_network file that declares ``layer_sizes`` and, when they are
    a list, holds zero arrays of exactly the shapes they name."""
    save_policy(path, mlp_init((8,), seed=0))
    document = json.loads(path.read_text())
    document["layer_sizes"] = layer_sizes
    path.write_text(json.dumps(document))
    if isinstance(layer_sizes, list):
        sizes = [int(s) for s in layer_sizes]
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            rewrite_array(path, f"w{i}", np.zeros((fan_in, fan_out)))
            rewrite_array(path, f"b{i}", np.zeros(fan_out))


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
        # a list of other names, and values that are no list at all
        for names in (["diff_size", "files_changed", "source_fraction", "a", "b"], None, 5):
            document["feature_names"] = names
            path.write_text(json.dumps(document))
            with pytest.raises(WeightFileError, match=f"{re.escape(str(path))}: feature_names"):
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

    def test_stacked_network_rejected_at_save(self, tmp_path):
        # unchecked, the file held (3, 10, 4) weights that load_policy refused
        # with "layer 0 shape mismatch"
        stack = mlp_init((4, 4)).stacked(3)
        with pytest.raises(ValueError, match="a stack of 3 networks, not one"):
            save_policy(tmp_path / "stack.json", stack)
        assert list(tmp_path.iterdir()) == []
        for i, net in enumerate(stack.unstack()):
            save_policy(tmp_path / f"agent{i}.json", net)
            assert load_policy(tmp_path / f"agent{i}.json").flat.tobytes() == net.flat.tobytes()

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
        match = f"^{re.escape(str(path))}: array 'w0' has 1280 bytes, expected 8 for shape"
        with pytest.raises(WeightFileError, match=match):
            load_policy(path)

    def test_array_data_that_is_not_a_string(self, tmp_path, trained_net):
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        document = json.loads(path.read_text())
        document["arrays"]["w0"]["data"] = 12
        path.write_text(json.dumps(document))
        with pytest.raises(WeightFileError, match=f"^{re.escape(str(path))}: malformed array 'w0'"):
            load_policy(path)

    def test_negative_dimensions(self, tmp_path, trained_net):
        # the byte count matches the product of the dimensions, (-10) * (-16)
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        document = json.loads(path.read_text())
        assert document["arrays"]["w0"]["shape"] == [10, 16]
        document["arrays"]["w0"]["shape"] = [-10, -16]
        path.write_text(json.dumps(document))
        match = f"^{re.escape(str(path))}: malformed array 'w0': negative dimension"
        with pytest.raises(WeightFileError, match=match):
            load_policy(path)

    @pytest.mark.parametrize(
        "name, shape",
        [("w0", [10.7, 16]), ("w0", ["10", 16]), ("bias", [True])],
        ids=["float", "str", "bool"],
    )
    def test_shape_entries_that_are_not_ints(self, tmp_path, trained_net, name, shape):
        # each passed through int() once, so these loaded as (10, 16) and (1,),
        # the shapes that the checksum and the byte count were computed for
        path = tmp_path / "model.json"
        save_policy(path, trained_net if name == "w0" else LogisticModel(np.zeros(5), 0.0))
        document = json.loads(path.read_text())
        document["arrays"][name]["shape"] = shape
        path.write_text(json.dumps(document))
        match = re.escape(f"{path}: malformed array {name!r}: shape {shape!r} is not a list of ints")
        with pytest.raises(WeightFileError, match=f"^{match}$"):
            load_policy(path)

    def test_logistic_bias_of_more_than_one_value(self, tmp_path):
        # the model would otherwise load and use the first value alone
        path = tmp_path / "clf.json"
        save_policy(path, LogisticModel(weights=np.zeros(5), bias=0.0))
        rewrite_array(path, "bias", np.array([0.5, 1.0, 2.0]))
        with pytest.raises(WeightFileError, match=r"logistic bias has shape \(3,\), expected \(1,\)"):
            load_policy(path)

    def test_array_that_the_layout_does_not_name(self, tmp_path, trained_net):
        # its three layers name w0-w2 and b0-b2 only; a w7 would otherwise be ignored
        path = tmp_path / "agent.json"
        save_policy(path, trained_net)
        rewrite_array(path, "w7", np.zeros((3, 3)))
        with pytest.raises(WeightFileError, match="arrays w7 are not in the q_network layout"):
            load_policy(path)

    @pytest.mark.parametrize(
        "layer_sizes", [3, [10, 0, 3], [10.0, 64, 3]], ids=["int", "zero-width", "float-width"]
    )
    def test_layer_sizes_that_are_not_a_list(self, tmp_path, layer_sizes):
        # a zero-width layer would load as a network whose Q-values ignore the state
        path = tmp_path / "agent.json"
        write_layers(path, layer_sizes)
        with pytest.raises(WeightFileError, match=re.escape(f"bad layer_sizes {layer_sizes!r}")):
            load_policy(path)

    @pytest.mark.parametrize(
        "hidden", [[8, 8], [], [8.0], "8", None], ids=["extra", "empty", "float", "str", "missing"]
    )
    def test_hidden_sizes_must_match_layer_sizes(self, tmp_path, hidden):
        # the checksum covers only the arrays, so a plain JSON edit of the
        # second copy of the geometry would pass it
        path = tmp_path / "agent.json"
        save_policy(path, mlp_init((8,), seed=0))
        document = json.loads(path.read_text())
        assert document["hidden_sizes"] == [8] and document["layer_sizes"] == [10, 8, 3]
        if hidden is None:
            del document["hidden_sizes"]
        else:
            document["hidden_sizes"] = hidden
        path.write_text(json.dumps(document))
        match = re.escape(f"hidden_sizes {hidden!r} do not match layer_sizes [10, 8, 3]")
        with pytest.raises(WeightFileError, match=match):
            load_policy(path)

    def test_cli_refuses_a_zero_width_layer(self, tmp_path, capsys):
        path = tmp_path / "agent.json"
        write_layers(path, [10, 0, 3])
        out = tmp_path / "r"
        assert run_command(["eval", "--policy", "rl", "--weights", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: bad layer_sizes [10, 0, 3]\n"
        assert not out.exists()
