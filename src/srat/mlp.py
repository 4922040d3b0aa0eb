"""Minimal dense networks with manual forward/backward passes.

Everything is float64 numpy. Models are immutable values: forward and
backward never mutate parameters, and ``sgd_step`` returns a fresh model.
Every model is a ReLU MLP with identity logits: ReLU follows every layer
but the last. The last hidden layer's output is the feature vector
consumed by the feature-separation objective; input gradients are exposed
for adversarial example generation.
"""

from dataclasses import dataclass
import json

import numpy as np

from srat.errors import DomainError, IngestionError, TrainingError
from srat.rand import derive_rng

_CHECKPOINT_FORMAT = "srat-mlp-f64le-v1"


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """One affine layer: weights (fan_in, fan_out), bias (fan_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise DomainError("layer weights must be 2-D")
        if b.shape != (w.shape[1],):
            raise DomainError(
                f"bias shape {b.shape} does not match fan_out {w.shape[1]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DomainError("layer parameters must be finite")
        w = w.copy()
        b = b.copy()
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class MlpModel:
    """A stack of DenseLayers with ReLU after every layer but the last,
    whose output is the logits."""

    layers: tuple

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise DomainError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise DomainError(
                    f"layer shapes do not compose: {prev.fan_out} -> {nxt.fan_in}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def penultimate_index(self) -> int:
        """The layer whose output is the feature representation: the last
        hidden layer, or the logit layer of a model without one."""
        return max(len(self.layers) - 2, 0)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def num_classes(self) -> int:
        return self.layers[-1].fan_out


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Per-layer pre/post activations for one batch."""

    inputs: np.ndarray
    pre: tuple
    post: tuple
    logits: np.ndarray
    features: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    """Architecture knobs: hidden widths, ReLU throughout, identity logits."""

    hidden: tuple[int, ...] = (32, 32)

    def __post_init__(self) -> None:
        hidden = tuple(int(h) for h in self.hidden)
        if any(h < 1 for h in hidden):
            raise DomainError("hidden widths must be >= 1")
        object.__setattr__(self, "hidden", hidden)


def build_mlp(input_dim: int, hidden, num_classes: int, seed) -> MlpModel:
    """Seeded fan-in-uniform initialization: W ~ U(+-sqrt(6/fan_in)), b = 0.

    ``seed`` may be an int or a tuple of ints (a derived stream key).
    """
    if input_dim < 1 or num_classes < 1:
        raise DomainError("input_dim and num_classes must be >= 1")
    sizes = [int(input_dim), *(int(h) for h in hidden), int(num_classes)]
    rng = derive_rng(seed)
    layers = []
    for fi, fo in zip(sizes, sizes[1:]):
        bound = np.sqrt(6.0 / fi)
        w = rng.uniform(-bound, bound, size=(fi, fo))
        layers.append(DenseLayer(w, np.zeros(fo)))
    return MlpModel(tuple(layers))


def forward(model: MlpModel, batch: np.ndarray) -> ForwardTrace:
    """Run the batch through the model, keeping every intermediate."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DomainError(
            f"batch shape {x.shape} does not match model input width {model.input_dim}"
        )
    pre, post = [], []
    h = x
    last = len(model.layers) - 1
    for l, layer in enumerate(model.layers):
        z = h @ layer.weights + layer.bias
        pre.append(z)
        h = np.maximum(z, 0.0) if l < last else z
        post.append(h)
    return ForwardTrace(
        inputs=x,
        pre=tuple(pre),
        post=tuple(post),
        logits=post[-1],
        features=post[model.penultimate_index],
    )


def backward(
    model: MlpModel,
    trace: ForwardTrace,
    d_logits: np.ndarray,
    d_features: np.ndarray | None = None,
    param_grads: bool = True,
):
    """Backpropagate loss gradients through the trace.

    ``d_logits`` is dLoss/dlogits; ``d_features``, when given, is an extra
    dLoss/dfeatures injected at the penultimate layer's post-activation
    (used by objectives with a feature head). Returns
    (param_grads, input_grads) where param_grads is a list of (dW, db) in
    layer order. The ReLU derivative at exactly 0 is 0.

    With ``param_grads=False`` only the input gradient is computed (the
    same floats) and the first element is None: an attack needs nothing
    else, and dW/db are half of the matrix products.
    """
    g = np.asarray(d_logits, dtype=np.float64)
    if g.shape != trace.logits.shape:
        raise DomainError(
            f"d_logits shape {g.shape} does not match logits {trace.logits.shape}"
        )
    if d_features is not None:
        d_features = np.asarray(d_features, dtype=np.float64)
        if d_features.shape != trace.features.shape:
            raise DomainError("d_features shape does not match features")

    n_layers = len(model.layers)
    grads = [None] * n_layers
    layer_inputs = (trace.inputs, *trace.post[:-1])
    for l in range(n_layers - 1, -1, -1):
        if d_features is not None and l == model.penultimate_index:
            g = g + d_features
        layer = model.layers[l]
        g_pre = g * (trace.pre[l] > 0.0) if l < n_layers - 1 else g
        if param_grads:
            grads[l] = (layer_inputs[l].T @ g_pre, g_pre.sum(axis=0))
        g = g_pre @ layer.weights.T
    return (grads if param_grads else None), g


def sgd_step(model: MlpModel, param_grads, lr: float) -> MlpModel:
    """new_param = old_param - lr * grad, as a fresh model. A non-finite
    gradient or an overflowing step raises TrainingError."""
    if lr < 0:
        raise DomainError(f"lr must be >= 0, got {lr}")
    if len(param_grads) != len(model.layers):
        raise DomainError("gradient list length does not match model")
    new_layers = []
    for layer, (dw, db) in zip(model.layers, param_grads):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise DomainError("gradient shapes do not match model")
        w = layer.weights - lr * dw
        b = layer.bias - lr * db
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise TrainingError("non-finite parameters after the update")
        new_layers.append(_fresh_layer(w, b))
    return MlpModel(tuple(new_layers))


def _fresh_layer(weights: np.ndarray, bias: np.ndarray) -> DenseLayer:
    """A DenseLayer owning arrays the caller just computed and checked,
    without ``__post_init__``'s copies and rescans."""
    weights.setflags(write=False)
    bias.setflags(write=False)
    layer = object.__new__(DenseLayer)
    object.__setattr__(layer, "weights", weights)
    object.__setattr__(layer, "bias", bias)
    return layer


def flatten_params(model: MlpModel) -> np.ndarray:
    """All parameters as one vector: per layer, W row-major then b."""
    return np.concatenate(
        [np.concatenate([l.weights.ravel(), l.bias]) for l in model.layers]
    )


def _assemble(shapes, flat: np.ndarray) -> MlpModel:
    """Slice a flat parameter vector into layers of the given
    (fan_in, fan_out) shapes, in ``flatten_params`` order."""
    needed = sum(fi * fo + fo for fi, fo in shapes)
    if flat.size != needed:
        raise DomainError(f"flat vector has {flat.size} entries, model needs {needed}")
    layers = []
    offset = 0
    for fi, fo in shapes:
        w = flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        layers.append(DenseLayer(w, flat[offset : offset + fo]))
        offset += fo
    return MlpModel(tuple(layers))


def unflatten_params(model: MlpModel, flat: np.ndarray) -> MlpModel:
    """Rebuild a model with the same shapes from a flat parameter vector."""
    return _assemble(
        [l.weights.shape for l in model.layers], np.asarray(flat, dtype=np.float64)
    )


def zero_grads(model: MlpModel):
    return [
        (np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers
    ]


def _architecture(n_layers: int) -> dict:
    """The checkpoint header keys that follow from the layer count: ReLU
    after every layer but the last, features from the last hidden layer."""
    return {
        "activations": ["relu"] * (n_layers - 1) + ["identity"],
        "penultimate_index": max(n_layers - 2, 0),
    }


def save_model(model: MlpModel, path, seed: int | None = None) -> None:
    """Checkpoint: one JSON header line, then the flat little-endian
    float64 parameter blob in ``flatten_params`` order."""
    header = {
        "format": _CHECKPOINT_FORMAT,
        "shapes": [list(l.weights.shape) for l in model.layers],
        **_architecture(len(model.layers)),
        "seed": seed,
    }
    blob = flatten_params(model).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_model(path) -> MlpModel:
    """Read a ``save_model`` checkpoint. A malformed header, a blob of the
    wrong size, invalid layers or a header of another architecture than
    ``save_model`` writes raise IngestionError naming the path."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
        if header["format"] != _CHECKPOINT_FORMAT:
            raise IngestionError(f"{path}: unrecognized checkpoint format")
        shapes = [(int(fi), int(fo)) for fi, fo in header["shapes"]]
        architecture = {k: header[k] for k in ("activations", "penultimate_index")}
    except (ValueError, TypeError, KeyError) as exc:
        raise IngestionError(f"{path}: bad checkpoint header ({exc})") from exc
    if architecture != _architecture(len(shapes)):
        raise IngestionError(
            f"{path}: not a ReLU MLP with identity logits ({architecture})"
        )
    if len(blob) % 8:
        raise IngestionError(f"{path}: blob of {len(blob)} bytes is not whole float64s")
    try:
        return _assemble(shapes, np.frombuffer(blob, dtype="<f8"))
    except ValueError as exc:  # DomainError, or shapes NumPy cannot reshape to
        raise IngestionError(f"{path}: {exc}") from exc
