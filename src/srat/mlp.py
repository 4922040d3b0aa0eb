"""Minimal dense networks with manual forward/backward passes.

Everything is float64 numpy. Models are immutable values: forward and
backward never mutate parameters, and ``sgd_step`` returns a fresh model.
Each model designates a penultimate layer whose post-activation output is
the feature vector consumed by the feature-separation objective; input
gradients are exposed for adversarial example generation.
"""

from dataclasses import dataclass
import json

import numpy as np

from srat.errors import DomainError, IngestionError, TrainingError
from srat.rand import derive_rng

_ACTIVATIONS = ("relu", "identity")
_CHECKPOINT_FORMAT = "srat-mlp-f64le-v1"


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """One affine layer: weights (fan_in, fan_out), bias (fan_out,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise DomainError("layer weights must be 2-D")
        if b.shape != (w.shape[1],):
            raise DomainError(
                f"bias shape {b.shape} does not match fan_out {w.shape[1]}"
            )
        if self.activation not in _ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
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
    """A stack of DenseLayers ending in an identity-activated logit layer.

    ``penultimate_index`` selects the layer whose post-activation output is
    the feature representation.
    """

    layers: tuple
    penultimate_index: int

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise DomainError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise DomainError(
                    f"layer shapes do not compose: {prev.fan_out} -> {nxt.fan_in}"
                )
        if layers[-1].activation != "identity":
            raise DomainError("final layer must be identity-activated")
        if not 0 <= self.penultimate_index < len(layers):
            raise DomainError("penultimate_index out of range")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def num_classes(self) -> int:
        return self.layers[-1].fan_out

    @property
    def feature_dim(self) -> int:
        return self.layers[self.penultimate_index].fan_out


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
    key = seed if isinstance(seed, (tuple, list)) else (seed,)
    rng = derive_rng(*key)
    layers = []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        bound = np.sqrt(6.0 / fi)
        w = rng.uniform(-bound, bound, size=(fi, fo))
        act = "identity" if i == len(sizes) - 2 else "relu"
        layers.append(DenseLayer(w, np.zeros(fo), act))
    return MlpModel(tuple(layers), penultimate_index=max(len(layers) - 2, 0))


def forward(model: MlpModel, batch: np.ndarray) -> ForwardTrace:
    """Run the batch through the model, keeping every intermediate."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DomainError(
            f"batch shape {x.shape} does not match model input width {model.input_dim}"
        )
    pre, post = [], []
    h = x
    for layer in model.layers:
        z = h @ layer.weights + layer.bias
        pre.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
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
):
    """Backpropagate loss gradients through the trace.

    ``d_logits`` is dLoss/dlogits; ``d_features``, when given, is an extra
    dLoss/dfeatures injected at the penultimate layer's post-activation
    (used by objectives with a feature head). Returns
    (param_grads, input_grads) where param_grads is a list of (dW, db) in
    layer order. The ReLU derivative at exactly 0 is 0.
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
        if layer.activation == "relu":
            g_pre = g * (trace.pre[l] > 0.0)
        else:
            g_pre = g
        grads[l] = (layer_inputs[l].T @ g_pre, g_pre.sum(axis=0))
        g = g_pre @ layer.weights.T
    return grads, g


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
        new_layers.append(DenseLayer(w, b, layer.activation))
    return MlpModel(tuple(new_layers), model.penultimate_index)


def flatten_params(model: MlpModel) -> np.ndarray:
    """All parameters as one vector: per layer, W row-major then b."""
    return np.concatenate(
        [np.concatenate([l.weights.ravel(), l.bias]) for l in model.layers]
    )


def _assemble(shapes, activations, flat: np.ndarray, penultimate_index: int) -> MlpModel:
    """Slice a flat parameter vector into layers of the given
    (fan_in, fan_out) shapes, in ``flatten_params`` order."""
    needed = sum(fi * fo + fo for fi, fo in shapes)
    if flat.size != needed:
        raise DomainError(f"flat vector has {flat.size} entries, model needs {needed}")
    layers = []
    offset = 0
    for (fi, fo), act in zip(shapes, activations, strict=True):
        w = flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        layers.append(DenseLayer(w, flat[offset : offset + fo], act))
        offset += fo
    return MlpModel(tuple(layers), penultimate_index)


def unflatten_params(model: MlpModel, flat: np.ndarray) -> MlpModel:
    """Rebuild a model with the same shapes from a flat parameter vector."""
    return _assemble(
        [l.weights.shape for l in model.layers],
        [l.activation for l in model.layers],
        np.asarray(flat, dtype=np.float64),
        model.penultimate_index,
    )


def zero_grads(model: MlpModel):
    return [
        (np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers
    ]


def save_model(model: MlpModel, path, seed: int | None = None) -> None:
    """Checkpoint: one JSON header line, then the flat little-endian
    float64 parameter blob in ``flatten_params`` order."""
    header = {
        "format": _CHECKPOINT_FORMAT,
        "shapes": [list(l.weights.shape) for l in model.layers],
        "activations": [l.activation for l in model.layers],
        "penultimate_index": model.penultimate_index,
        "seed": seed,
    }
    blob = flatten_params(model).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_model(path) -> MlpModel:
    """Read a ``save_model`` checkpoint. A malformed header, a blob of the
    wrong size or invalid layers raise IngestionError naming the path."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
        if header["format"] != _CHECKPOINT_FORMAT:
            raise IngestionError(f"{path}: unrecognized checkpoint format")
        shapes = [(int(fi), int(fo)) for fi, fo in header["shapes"]]
        activations = header["activations"]
        penultimate_index = int(header["penultimate_index"])
    except (ValueError, TypeError, KeyError) as exc:
        raise IngestionError(f"{path}: bad checkpoint header ({exc})") from exc
    if len(blob) % 8:
        raise IngestionError(f"{path}: blob of {len(blob)} bytes is not whole float64s")
    try:
        return _assemble(shapes, activations, np.frombuffer(blob, dtype="<f8"), penultimate_index)
    except ValueError as exc:  # DomainError, or shapes and activations of unequal length
        raise IngestionError(f"{path}: {exc}") from exc
