"""Dense-net forward/backward against scalar and finite-difference oracles."""

import json

import numpy as np
import pytest

from gradcheck import central_diff, max_rel_err
from srat.errors import DomainError, IngestionError, TrainingError
from srat.losses import ClassWeights, cross_entropy
from srat.mlp import (
    DenseLayer,
    MlpModel,
    backward,
    build_mlp,
    flatten_params,
    forward,
    load_model,
    save_model,
    sgd_step,
    unflatten_params,
    zero_grads,
)
from srat.rand import derive_rng


def _random_model(rng, sizes):
    layers = []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        act = "identity" if i == len(sizes) - 2 else "relu"
        layers.append(
            DenseLayer(rng.normal(size=(fi, fo)), rng.normal(size=fo), act)
        )
    return MlpModel(tuple(layers), penultimate_index=max(len(layers) - 2, 0))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_model_gives_zero_logits():
    layers = (
        DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu"),
        DenseLayer(np.zeros((4, 2)), np.zeros(2), "identity"),
    )
    model = MlpModel(layers, penultimate_index=0)
    trace = forward(model, np.ones((5, 3)))
    assert np.array_equal(trace.logits, np.zeros((5, 2)))


def test_identity_single_layer_passes_batch_through():
    model = MlpModel(
        (DenseLayer(np.eye(3), np.zeros(3), "identity"),), penultimate_index=0
    )
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
            if layer.activation == "relu" and acc < 0:
                acc = 0.0
            out.append(acc)
        h = out

    trace = forward(model, x)
    np.testing.assert_allclose(trace.logits[0], h, rtol=1e-12)


def test_relu_trace_identity():
    rng = derive_rng(3)
    model = _random_model(rng, [4, 6, 5, 3])
    trace = forward(model, rng.normal(size=(7, 4)))
    for layer, pre, post in zip(model.layers, trace.pre, trace.post):
        if layer.activation == "relu":
            assert np.array_equal(post, np.maximum(pre, 0.0))
        else:
            assert np.array_equal(post, pre)


def test_forward_is_pure():
    rng = derive_rng(4)
    model = _random_model(rng, [3, 5, 2])
    x = rng.normal(size=(6, 3))
    a = forward(model, x)
    b = forward(model, x)
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.features, b.features)


def test_forward_shape_mismatch():
    model = build_mlp(3, (4,), 2, seed=0)
    with pytest.raises(DomainError):
        forward(model, np.zeros((5, 7)))


def test_model_validation():
    good = DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu")
    final = DenseLayer(np.zeros((4, 2)), np.zeros(2), "identity")
    with pytest.raises(DomainError):
        MlpModel((good, DenseLayer(np.zeros((5, 2)), np.zeros(2), "identity")), 0)
    with pytest.raises(DomainError):
        MlpModel((good, DenseLayer(np.zeros((4, 2)), np.zeros(2), "relu")), 0)
    with pytest.raises(DomainError):
        MlpModel((good, final), 5)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_grads():
    rng = derive_rng(5)
    model = _random_model(rng, [3, 4, 2])
    trace = forward(model, rng.normal(size=(5, 3)))
    grads, input_grads = backward(model, trace, np.zeros_like(trace.logits))
    assert np.array_equal(input_grads, np.zeros((5, 3)))
    for dw, db in grads:
        assert not dw.any() and not db.any()


def test_linear_softmax_input_gradient_closed_form():
    # single identity layer + CE: d loss/d x = (softmax - onehot) @ W.T / n
    rng = derive_rng(6)
    w = rng.normal(size=(4, 2))
    model = MlpModel((DenseLayer(w, np.zeros(2), "identity"),), penultimate_index=0)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)
    trace = forward(model, x)
    _, d_logits = cross_entropy(trace.logits, y, ClassWeights.uniform(2))
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
        _, d_logits = cross_entropy(trace.logits, y, weights)
        grads, input_grads = backward(model, trace, d_logits)
        flat_grad = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])

        def loss_from_params(flat):
            t = forward(unflatten_params(model, flat), x)
            return cross_entropy(t.logits, y, weights)[0]

        fd = central_diff(loss_from_params, flatten_params(model))
        assert max_rel_err(flat_grad, fd) <= 1e-5

        def loss_from_inputs(flat):
            t = forward(model, flat.reshape(x.shape))
            return cross_entropy(t.logits, y, weights)[0]

        fd_x = central_diff(loss_from_inputs, x.ravel())
        assert max_rel_err(input_grads.ravel(), fd_x) <= 1e-5


def test_backward_shape_mismatch():
    model = build_mlp(3, (4,), 2, seed=0)
    trace = forward(model, np.zeros((5, 3)))
    with pytest.raises(DomainError):
        backward(model, trace, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------


def test_sgd_zero_lr_keeps_model():
    model = build_mlp(3, (4,), 2, seed=1)
    grads = [(np.ones_like(l.weights), np.ones_like(l.bias)) for l in model.layers]
    stepped = sgd_step(model, grads, 0.0)
    assert np.array_equal(flatten_params(stepped), flatten_params(model))


def test_sgd_scalar_arithmetic():
    model = MlpModel(
        (DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),), penultimate_index=0
    )
    stepped = sgd_step(model, [(np.array([[2.0]]), np.zeros(1))], 0.1)
    assert stepped.layers[0].weights[0, 0] == pytest.approx(0.8)


def test_sgd_two_steps_equal_summed_displacement():
    model = build_mlp(2, (3,), 2, seed=2)
    rng = derive_rng(8)
    grads = [
        (rng.normal(size=l.weights.shape), rng.normal(size=l.bias.shape))
        for l in model.layers
    ]
    twice = sgd_step(sgd_step(model, grads, 0.05), grads, 0.05)
    summed = sgd_step(model, [(2 * gw, 2 * gb) for gw, gb in grads], 0.05)
    np.testing.assert_allclose(
        flatten_params(twice), flatten_params(summed), rtol=0, atol=1e-15
    )


def test_sgd_rejects_non_finite_grads():
    model = build_mlp(2, (3,), 2, seed=3)
    grads = zero_grads(model)
    grads[0] = (np.full_like(grads[0][0], np.nan), grads[0][1])
    with pytest.raises(TrainingError):
        sgd_step(model, grads, 0.1)


def test_sgd_rejects_overflowing_update():
    model = build_mlp(2, (3,), 2, seed=3)
    grads = [(np.full_like(dw, 1e300), db) for dw, db in zero_grads(model)]
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match="non-finite"):
        sgd_step(model, grads, 1e10)


# ---------------------------------------------------------------------------
# initialization and checkpoints
# ---------------------------------------------------------------------------


def test_build_mlp_is_seeded_and_bounded():
    a = build_mlp(5, (8, 8), 3, seed=11)
    b = build_mlp(5, (8, 8), 3, seed=11)
    c = build_mlp(5, (8, 8), 3, seed=12)
    assert np.array_equal(flatten_params(a), flatten_params(b))
    assert not np.array_equal(flatten_params(a), flatten_params(c))
    for layer in a.layers:
        bound = np.sqrt(6.0 / layer.fan_in)
        assert np.abs(layer.weights).max() <= bound
        assert not layer.bias.any()


def test_checkpoint_round_trip(tmp_path):
    model = build_mlp(4, (6, 5), 3, seed=9)
    path = tmp_path / "model.ckpt"
    save_model(model, path, seed=9)
    loaded = load_model(path)
    assert np.array_equal(flatten_params(loaded), flatten_params(model))
    assert loaded.penultimate_index == model.penultimate_index
    assert [l.activation for l in loaded.layers] == [l.activation for l in model.layers]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: b"not json\n" + raw.split(b"\n", 1)[1],  # bad header
        lambda raw: b'{"format": "srat-mlp-f64le-v1"}\n' + raw.split(b"\n", 1)[1],
        lambda raw: raw[:300],  # blob of the wrong size
    ],
    ids=["bad_header", "missing_header_keys", "truncated_blob"],
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
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype="<f8"), flatten_params(model)
    )
