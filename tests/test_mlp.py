"""Dense-net forward/backward against scalar and finite-difference oracles."""

import itertools
import json

import numpy as np
import pytest

from gradcheck import central_diff, max_rel_err
from srat.errors import DomainError, IngestionError, TrainingError
from srat.losses import ClassWeights, PredictionLoss, prediction_loss
from srat.mlp import (
    MlpModel,
    backward,
    build_mlp,
    forward,
    load_model,
    save_model,
    sgd_step,
)
from srat.rand import derive_rng

CE = PredictionLoss()


def _random_model(rng, sizes):
    return MlpModel.from_layers(
        [(rng.normal(size=(fi, fo)), rng.normal(size=fo)) for fi, fo in zip(sizes, sizes[1:])]
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_model_gives_zero_logits():
    model = MlpModel.from_layers(
        [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))]
    )
    trace = forward(model, np.ones((5, 3)))
    assert np.array_equal(trace.logits, np.zeros((5, 2)))


def test_identity_single_layer_passes_batch_through():
    model = MlpModel.from_layers([(np.eye(3), np.zeros(3))])
    batch = derive_rng(1).normal(size=(4, 3))
    trace = forward(model, batch)
    assert np.array_equal(trace.logits, batch)


def test_forward_matches_scalar_reimplementation():
    rng = derive_rng(2)
    model = _random_model(rng, [3, 4, 2])
    x = rng.normal(size=(1, 3))

    # independent scalar-by-scalar affine+relu chain
    h = [float(v) for v in x[0]]
    for l_idx, layer in enumerate(model.layers):
        out = []
        for j in range(layer.fan_out):
            acc = float(layer.bias[j])
            for i in range(layer.fan_in):
                acc += h[i] * float(layer.weights[i, j])
            if l_idx < len(model.layers) - 1 and acc < 0:  # ReLU except on the logits
                acc = 0.0
            out.append(acc)
        h = out

    trace = forward(model, x)
    np.testing.assert_allclose(trace.logits[0], h, rtol=1e-12)


def test_relu_trace_identity():
    rng = derive_rng(3)
    model = _random_model(rng, [4, 6, 5, 3])
    trace = forward(model, rng.normal(size=(7, 4)))
    acts = trace.activations
    assert len(acts) == len(model.layers) + 1
    *hidden, logit_layer = model.layers
    for a, out, layer in zip(acts, acts[1:], hidden):
        assert np.array_equal(out, np.maximum(a @ layer.weights + layer.bias, 0.0))
    assert np.array_equal(trace.logits, acts[-2] @ logit_layer.weights + logit_layer.bias)
    assert trace.logits is acts[-1] and trace.features is acts[-2]
    for a, b in itertools.combinations(acts, 2):
        assert not np.shares_memory(a, b)


def test_forward_is_pure():
    rng = derive_rng(4)
    model = _random_model(rng, [3, 5, 2])
    x = rng.normal(size=(6, 3))
    a = forward(model, x)
    b = forward(model, x)
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.features, b.features)


def test_model_validation():
    good = (np.zeros((3, 4)), np.zeros(4))
    for layers, named in [
        ([(np.zeros(3), np.zeros(3))], "2-D"),
        ([(np.zeros((3, 4)), np.zeros(3))], "bias shape"),
        ([(np.zeros((3, 4)), np.full(4, np.nan))], "finite"),
        ([good, (np.zeros((5, 2)), np.zeros(2))], "compose"),
    ]:
        with pytest.raises(DomainError, match=named):
            MlpModel.from_layers(layers)
    with pytest.raises(DomainError, match="entries"):
        MlpModel(((3, 4),), np.zeros(15))
    # a negative fan_in whose slice sizes still add up
    with pytest.raises(DomainError, match="widths"):
        MlpModel(((-1, 2),), np.zeros(0))
    with pytest.raises(DomainError, match="compose"):
        MlpModel(((3, 4), (5, 2)), np.zeros(16 + 12))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_grads():
    rng = derive_rng(5)
    model = _random_model(rng, [3, 4, 2])
    trace = forward(model, rng.normal(size=(5, 3)))
    grads, input_grads = backward(model, trace, np.zeros_like(trace.logits))
    assert np.array_equal(input_grads, np.zeros((5, 3)))
    assert grads.shape == model.params.shape and not grads.any()


def test_linear_softmax_input_gradient_closed_form():
    # single identity layer + CE: d loss/d x = (softmax - onehot) @ W.T / n
    rng = derive_rng(6)
    w = rng.normal(size=(4, 2))
    model = MlpModel.from_layers([(w, np.zeros(2))])
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)
    trace = forward(model, x)
    _, d_logits = prediction_loss(trace.logits, y, ClassWeights.uniform(2), CE)
    _, input_grads = backward(model, trace, d_logits)

    z = trace.logits - trace.logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.eye(2)[y]
    expected = ((p - onehot) / 6) @ w.T
    np.testing.assert_allclose(input_grads, expected, atol=1e-12)


def test_backward_matches_finite_differences():
    rng = derive_rng(7)
    for case in range(8):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)] + [int(rng.integers(2, 4))]
        model = _random_model(rng, sizes)
        x = rng.normal(size=(4, sizes[0]))
        y = rng.integers(0, sizes[-1], size=4)
        weights = ClassWeights.uniform(sizes[-1])

        trace = forward(model, x)
        _, d_logits = prediction_loss(trace.logits, y, weights, CE)
        grads, input_grads = backward(model, trace, d_logits)

        def loss_from_params(flat):
            t = forward(MlpModel(model.shapes, flat), x)
            return prediction_loss(t.logits, y, weights, CE)[0]

        fd = central_diff(loss_from_params, model.params)
        assert max_rel_err(grads, fd) <= 1e-5

        def loss_from_inputs(flat):
            t = forward(model, flat.reshape(x.shape))
            return prediction_loss(t.logits, y, weights, CE)[0]

        fd_x = central_diff(loss_from_inputs, x.ravel())
        assert max_rel_err(input_grads.ravel(), fd_x) <= 1e-5


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------


def test_sgd_zero_lr_keeps_model():
    model = build_mlp(3, (4,), 2, seed=1)
    stepped = sgd_step(model, np.ones_like(model.params), 0.0)
    assert np.array_equal(stepped.params, model.params)


def test_sgd_scalar_arithmetic():
    model = MlpModel.from_layers([(np.array([[1.0]]), np.zeros(1))])
    stepped = sgd_step(model, np.array([2.0, 0.0]), 0.1)
    assert stepped.layers[0].weights[0, 0] == pytest.approx(0.8)


def test_sgd_two_steps_equal_summed_displacement():
    model = build_mlp(2, (3,), 2, seed=2)
    rng = derive_rng(8)
    grads = rng.normal(size=model.params.shape)
    twice = sgd_step(sgd_step(model, grads, 0.05), grads, 0.05)
    summed = sgd_step(model, 2 * grads, 0.05)
    np.testing.assert_allclose(twice.params, summed.params, rtol=0, atol=1e-15)


def test_sgd_rejects_non_finite_grads():
    model = build_mlp(2, (3,), 2, seed=3)
    grads = np.zeros_like(model.params)
    grads[: 2 * 3] = np.nan
    with pytest.raises(TrainingError):
        sgd_step(model, grads, 0.1)


def test_sgd_rejects_overflowing_update():
    model = build_mlp(2, (3,), 2, seed=3)
    grads = np.full_like(model.params, 1e300)
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match="non-finite"):
        sgd_step(model, grads, 1e10)


# ---------------------------------------------------------------------------
# initialization and checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MlpModel((), np.zeros(0)), "at least one layer"),
        (lambda: build_mlp(0, (4,), 2, seed=0), "input_dim and num_classes must be >= 1"),
        (lambda: build_mlp(3, (4,), 0, seed=0), "input_dim and num_classes must be >= 1"),
    ],
    ids=["no_layer", "input_dim_0", "num_classes_0"],
)
def test_model_shape_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_build_mlp_is_seeded_and_bounded():
    a = build_mlp(5, (8, 8), 3, seed=11)
    b = build_mlp(5, (8, 8), 3, seed=11)
    c = build_mlp(5, (8, 8), 3, seed=12)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)
    for layer in a.layers:
        bound = np.sqrt(6.0 / layer.fan_in)
        assert np.abs(layer.weights).max() <= bound
        assert not layer.bias.any()


def test_checkpoint_round_trip(tmp_path):
    model = build_mlp(4, (6, 5), 3, seed=9)
    path = tmp_path / "model.ckpt"
    save_model(model, path, seed=9)
    loaded = load_model(path)
    assert np.array_equal(loaded.params, model.params)
    assert loaded.penultimate_index == model.penultimate_index


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: b"not json\n" + raw.split(b"\n", 1)[1],  # bad header
        lambda raw: b'{"format": "srat-mlp-f64le-v1"}\n' + raw.split(b"\n", 1)[1],
        lambda raw: raw[:300],  # blob of the wrong size
        lambda raw: raw.replace(b'"relu", "relu"', b'"identity", "identity"', 1),
        lambda raw: raw.replace(b"srat-mlp-f64le-v1", b"srat-mlp-f32le-v1", 1),
    ],
    ids=[
        "bad_header", "missing_header_keys", "truncated_blob", "foreign_architecture",
        "other_format",
    ],
)
def test_corrupt_checkpoint_raises_ingestion_error(tmp_path, corrupt):
    path = tmp_path / "model.ckpt"
    save_model(build_mlp(4, (6, 5), 3, seed=9), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(IngestionError, match="model.ckpt"):
        load_model(path)


def test_checkpoint_layout(tmp_path):
    model = build_mlp(2, (3,), 2, seed=10)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    raw = path.read_bytes()
    header_line, blob = raw.split(b"\n", 1)
    header = json.loads(header_line)
    assert header["shapes"] == [[2, 3], [3, 2]]
    assert header["activations"] == ["relu", "identity"]
    n_params = 2 * 3 + 3 + 3 * 2 + 2
    assert len(blob) == 8 * n_params
    # little-endian blob matches the flattened parameters
    np.testing.assert_array_equal(np.frombuffer(blob, dtype="<f8"), model.params)
