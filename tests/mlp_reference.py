"""Reference implementation the forward/backward property test compares
against: ``srat.mlp``'s trace, ``forward`` and ``backward`` as they were
when a trace kept every layer's pre- and post-activation and backward
took its ReLU masks from the pre-activations, kept as written originally.
The current pass must match it bit for bit."""

from dataclasses import dataclass

import numpy as np

from srat.errors import DomainError
from srat.mlp import MlpModel, _split


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Per-layer pre/post activations for one batch."""

    inputs: np.ndarray
    pre: tuple
    post: tuple
    logits: np.ndarray
    features: np.ndarray


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
    (param_grads, input_grads) where param_grads is one vector in the
    layout of ``model.params``. The ReLU derivative at exactly 0 is 0.

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
    grads = np.empty_like(model.params) if param_grads else None
    grad_layers = _split(model.shapes, grads) if param_grads else None
    layer_inputs = (trace.inputs, *trace.post[:-1])
    for l in range(n_layers - 1, -1, -1):
        if d_features is not None and l == model.penultimate_index:
            g = g + d_features
        g_pre = g * (trace.pre[l] > 0.0) if l < n_layers - 1 else g
        if param_grads:
            dw, db = grad_layers[l]
            np.matmul(layer_inputs[l].T, g_pre, out=dw)
            np.sum(g_pre, axis=0, out=db)
        g = g_pre @ model.layers[l].weights.T
    return grads, g
