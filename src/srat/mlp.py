"""Minimal dense networks with manual forward/backward passes.

Everything is float64 numpy. Models are immutable values: forward and
backward never mutate parameters, and ``sgd_step`` returns a fresh model.
Every model is a ReLU MLP with identity logits: ReLU follows every layer
but the last. A forward pass returns the inputs and each layer's output,
and backward reads its ReLU masks from those outputs. The last hidden
layer's output is the feature vector consumed by the feature-separation
objective; input gradients are exposed for adversarial example generation.
"""

from dataclasses import dataclass, field
from decimal import Decimal
import json
from typing import NamedTuple

import numpy as np

from srat.errors import DomainError, IngestionError, TrainingError
from srat.rand import derive_rng

_CHECKPOINT_FORMAT = "srat-mlp-f64le-v1"


class Layer(NamedTuple):
    """One affine layer's read-only views into its model's parameter
    vector: weights (fan_in, fan_out), bias (fan_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


def _split(shapes, flat: np.ndarray) -> tuple:
    """Views of a parameter-layout vector as one Layer per (fan_in,
    fan_out) shape: per layer, W row-major then b. Parameters, gradients
    and SGD velocities all use this layout, as does the checkpoint blob."""
    layers = []
    offset = 0
    for fi, fo in shapes:
        w = flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        layers.append(Layer(w, flat[offset : offset + fo]))
        offset += fo
    return tuple(layers)


@dataclass(frozen=True, eq=False)
class MlpModel:
    """A ReLU MLP with identity logits: layer shapes and one read-only
    float64 parameter vector in checkpoint order. ``layers`` holds views
    of that vector, one Layer per shape."""

    shapes: tuple
    params: np.ndarray
    layers: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shapes = tuple((int(fi), int(fo)) for fi, fo in self.shapes)
        if not shapes:
            raise DomainError("model needs at least one layer")
        if any(fi < 1 or fo < 1 for fi, fo in shapes):
            raise DomainError(f"layer widths must be >= 1, got {shapes}")
        for (_, prev), (nxt, _) in zip(shapes, shapes[1:]):
            if prev != nxt:
                raise DomainError(f"layer shapes do not compose: {prev} -> {nxt}")
        params = np.array(self.params, dtype=np.float64)
        needed = sum(fi * fo + fo for fi, fo in shapes)
        if params.shape != (needed,):
            raise DomainError(
                f"parameter vector of shape {params.shape}, model needs {needed} entries"
            )
        if not np.isfinite(params).all():
            raise DomainError("layer parameters must be finite")
        params.setflags(write=False)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "layers", _split(shapes, params))

    @classmethod
    def from_layers(cls, layers) -> "MlpModel":
        """A model from (weights, bias) pairs in layer order: weights
        (fan_in, fan_out), bias (fan_out,)."""
        parts, shapes = [], []
        for w, b in layers:
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2:
                raise DomainError("layer weights must be 2-D")
            if b.shape != (w.shape[1],):
                raise DomainError(
                    f"bias shape {b.shape} does not match fan_out {w.shape[1]}"
                )
            parts += [w.ravel(), b]
            shapes.append(w.shape)
        return cls(tuple(shapes), np.concatenate(parts) if parts else np.empty(0))

    @property
    def penultimate_index(self) -> int:
        """The layer whose output is the feature representation: the last
        hidden layer, or the logit layer of a model without one."""
        return max(len(self.shapes) - 2, 0)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def num_classes(self) -> int:
        return self.shapes[-1][1]


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """One batch's inputs, then each layer's output; ``features`` is the
    penultimate layer's output (the logits without a hidden layer)."""

    activations: tuple
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
    Raises DomainError when the parameter vector has more bytes than
    NumPy can index.
    """
    if input_dim < 1 or num_classes < 1:
        raise DomainError("input_dim and num_classes must be >= 1")
    sizes = [int(input_dim), *(int(h) for h in hidden), int(num_classes)]
    # NumPy refuses an array of more bytes (8 per float64) than intp holds
    needed = sum(fi * fo + fo for fi, fo in zip(sizes, sizes[1:]))
    if needed * 8 > np.iinfo(np.intp).max:
        raise DomainError(
            f"layer widths {sizes} need {Decimal(needed):.4g} parameters, "
            "more than NumPy's array size limit"
        )
    rng = derive_rng(seed)
    layers = []
    for fi, fo in zip(sizes, sizes[1:]):
        bound = np.sqrt(6.0 / fi)
        layers.append((rng.uniform(-bound, bound, size=(fi, fo)), np.zeros(fo)))
    return MlpModel.from_layers(layers)


def forward(model: MlpModel, batch: np.ndarray) -> ForwardTrace:
    """Run the batch through the model, keeping each layer's output.

    This is an inner-loop step and checks nothing. Its caller guarantees
    that ``batch`` is a float64 n x ``model.input_dim`` matrix; it becomes
    the trace's first activation as is.
    """
    activations = [batch]
    last = len(model.layers) - 1
    for l, layer in enumerate(model.layers):
        h = activations[-1] @ layer.weights
        h += layer.bias
        if l < last:
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    return ForwardTrace(
        tuple(activations), logits=h, features=activations[model.penultimate_index + 1]
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
    dLoss/dfeatures injected at the penultimate layer's output (used by
    objectives with a feature head). Returns (param_grads, input_grads)
    where param_grads is one vector in the layout of ``model.params``. A
    ReLU passes gradient where its output is > 0, so its derivative at
    exactly 0 is 0.

    With ``param_grads=False`` only the input gradient is computed (the
    same floats) and the first element is None: an attack needs nothing
    else, and dW/db are half of the matrix products.

    This is an inner-loop step and checks nothing. Its caller guarantees
    that ``trace`` is ``forward(model, ...)``'s and that ``d_logits`` and
    ``d_features`` are float64 arrays of the shapes of ``trace.logits``
    and ``trace.features``.
    """
    g = d_logits
    n_layers = len(model.layers)
    grads = np.empty_like(model.params) if param_grads else None
    grad_layers = _split(model.shapes, grads) if param_grads else None
    acts = trace.activations
    for l in range(n_layers - 1, -1, -1):
        if d_features is not None and l == model.penultimate_index:
            g = g + d_features
        if l < n_layers - 1:  # g is a fresh product or sum here, never d_logits
            g *= acts[l + 1] > 0.0
        if param_grads:
            dw, db = grad_layers[l]
            np.matmul(acts[l].T, g, out=dw)
            np.sum(g, axis=0, out=db)
        g = g @ model.layers[l].weights.T
    return grads, g


def sgd_step(model: MlpModel, grad: np.ndarray, lr: float) -> MlpModel:
    """new_params = params - lr * grad, as a fresh model. A non-finite
    gradient or an overflowing step raises TrainingError.

    This is an inner-loop step and checks only the new parameters'
    finiteness. Its caller guarantees that ``lr`` is >= 0 and that
    ``grad`` has the shape and layout of ``model.params``.
    """
    try:
        return MlpModel(model.shapes, model.params - lr * grad)
    except DomainError as exc:  # the shapes are the model's: only finiteness fails
        raise TrainingError("non-finite parameters after the update") from exc


def _architecture(n_layers: int) -> dict:
    """The checkpoint header keys that follow from the layer count: ReLU
    after every layer but the last, features from the last hidden layer."""
    return {
        "activations": ["relu"] * (n_layers - 1) + ["identity"],
        "penultimate_index": max(n_layers - 2, 0),
    }


def save_model(model: MlpModel, path, seed: int | None = None) -> None:
    """Checkpoint: one JSON header line, then the flat little-endian
    float64 parameter blob, ``model.params``."""
    header = {
        "format": _CHECKPOINT_FORMAT,
        "shapes": [list(s) for s in model.shapes],
        **_architecture(len(model.shapes)),
        "seed": seed,
    }
    blob = model.params.astype("<f8").tobytes()
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
        return MlpModel(shapes, np.frombuffer(blob, dtype="<f8"))
    except DomainError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
