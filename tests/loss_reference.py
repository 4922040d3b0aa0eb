"""Reference implementations the prediction-loss property tests compare
against: the cross-entropy, focal and margin-loss cores of ``srat.losses``
as they were before they merged into one softmax core, kept as written
originally apart from their names. ``srat.losses.prediction_loss`` must
match them bit for bit."""

import numpy as np

from srat.errors import DomainError
from srat.losses import ClassWeights


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits, labels, weights: ClassWeights):
    if weights.weights.size != logits.shape[1]:
        raise DomainError("class weight count does not match logit width")
    n = logits.shape[0]
    rows = np.arange(n)
    logp = _log_softmax(logits)
    w = weights.weights[labels]
    loss = float((w * (-logp[rows, labels])).sum() / n)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad *= (w / n)[:, None]
    return loss, grad


def focal_loss(logits, labels, weights: ClassWeights, gamma: float):
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    if weights.weights.size != logits.shape[1]:
        raise DomainError("class weight count does not match logit width")
    n = logits.shape[0]
    rows = np.arange(n)
    logp = _log_softmax(logits)
    p = np.exp(logp)
    pt = p[rows, labels]
    logpt = logp[rows, labels]
    w = weights.weights[labels]

    modulator = (1.0 - pt) ** gamma
    loss = float((w * modulator * (-logpt)).sum() / n)

    # d/dlogits = (p - onehot) * (modulator - gamma*(1-pt)^(gamma-1)*pt*logpt)
    factor = modulator
    if gamma != 0.0:
        one_minus = 1.0 - pt
        safe = np.where(one_minus > 0.0, one_minus, 1.0)
        extra = np.where(
            one_minus > 0.0, gamma * safe ** (gamma - 1.0) * pt * logpt, 0.0
        )
        factor = modulator - extra
    grad = p
    grad[rows, labels] -= 1.0
    grad *= (w * factor / n)[:, None]
    return loss, grad


def ldam_margins(class_counts, max_margin: float) -> np.ndarray:
    """Per-class margins max_margin * n_c^(-1/4) / max_j n_j^(-1/4)."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise DomainError("class_counts must be a non-empty vector")
    if (counts < 1).any():
        raise DomainError("every class count must be >= 1")
    inv_quartic = counts ** (-0.25)
    return max_margin * inv_quartic / inv_quartic.max()


def ldam_loss(logits, labels, class_counts, max_margin, scale, weights):
    if max_margin < 0:
        raise DomainError("max_margin must be >= 0")
    if scale <= 0:
        raise DomainError("scale must be > 0")
    margins = ldam_margins(class_counts, max_margin)
    if margins.size != logits.shape[1]:
        raise DomainError("class_counts length does not match logit width")
    adjusted = logits.copy()
    adjusted[np.arange(len(labels)), labels] -= margins[labels]
    adjusted *= scale
    loss, grad = cross_entropy(adjusted, labels, weights)
    return loss, scale * grad
