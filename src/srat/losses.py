"""Scalar training objectives and their logit/feature gradients.

Prediction losses (cross-entropy, focal, margin-adjusted) share one
log-softmax core so that the documented reductions are bit-exact:
focal with gamma=0 and the margin loss with margin=0/scale=1 produce
the identical floats as plain cross-entropy. Class weights are kept
normalized to mean one so the feature-separation tradeoff keeps the same
meaning under every weighting scheme.

The feature-separation loss pulls same-class feature vectors of a batch
together: for each anchor i with positive set P(i) (same-class, not i)
and candidate set A(i) (everyone but i),

    loss_i = -(1/|P(i)|) * sum_{p in P(i)} log softmax_{a in A(i)}(z_i.z_a / tau)[p]

computed on L2-normalized features by default. Anchors with an empty
positive set contribute nothing and are excluded from the batch mean.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from srat.errors import DomainError

_LOSS_KINDS = ("ce", "focal", "ldam")


@dataclass(frozen=True)
class LossConfig:
    """All objective knobs.

    ``lam`` balances the prediction loss against the feature-separation
    term; ``tau`` is the separation temperature; ``cb_beta`` parameterizes
    the effective-number class weights.
    """

    kind: str = "ce"
    focal_gamma: float = 2.0
    ldam_max_margin: float = 0.5
    ldam_scale: float = 30.0
    tau: float = 0.1
    lam: float = 1.0
    cb_beta: float = 0.9999

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if self.focal_gamma < 0:
            raise DomainError("focal_gamma must be >= 0")
        if self.ldam_max_margin < 0:
            raise DomainError("ldam_max_margin must be >= 0")
        if self.ldam_scale <= 0:
            raise DomainError("ldam_scale must be > 0")
        if not self.tau > 0:
            raise DomainError("tau must be > 0")
        if self.lam < 0:
            raise DomainError("lam must be >= 0")
        if not 0.0 <= self.cb_beta < 1.0:
            raise DomainError("cb_beta must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class ClassWeights:
    """One positive weight per class, normalized to mean 1."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("class weights must be a non-empty vector")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise DomainError("class weights must be positive and finite")
        if abs(w.mean() - 1.0) > 1e-9:
            raise DomainError("class weights must be normalized to mean 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def normalized(cls, raw) -> "ClassWeights":
        raw = np.asarray(raw, dtype=np.float64)
        # __post_init__ checks the rest; all-negative input would pass it
        # once divided by its own (negative) mean.
        if (raw <= 0).any():
            raise DomainError("class weights must be positive")
        return cls(raw / raw.mean())

    @classmethod
    def uniform(cls, num_classes: int) -> "ClassWeights":
        return cls(np.ones(num_classes))

    def per_example(self, labels: np.ndarray) -> np.ndarray:
        return self.weights[labels]


def _check_batch(logits: np.ndarray, labels: np.ndarray) -> tuple:
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise DomainError("logits must be a non-empty n x C matrix")
    if labels.shape != (logits.shape[0],):
        raise DomainError("labels must be one integer per row of logits")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DomainError("labels must be integers")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise DomainError("labels out of range for the logit width")
    return logits, labels.astype(np.int64)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits, labels, weights: ClassWeights):
    """Weighted softmax cross-entropy.

    Returns (loss, dLoss/dlogits) with
    loss = (1/n) * sum_i w_{y_i} * (-log softmax(logits_i)[y_i]).
    """
    logits, labels = _check_batch(logits, labels)
    if weights.weights.size != logits.shape[1]:
        raise DomainError("class weight count does not match logit width")
    n = logits.shape[0]
    rows = np.arange(n)
    logp = _log_softmax(logits)
    w = weights.per_example(labels)
    loss = float((w * (-logp[rows, labels])).sum() / n)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad *= (w / n)[:, None]
    return loss, grad


def focal_loss(logits, labels, weights: ClassWeights, gamma: float):
    """Cross-entropy modulated by (1 - p_t)^gamma per example.

    gamma = 0 reproduces ``cross_entropy`` bit for bit; larger gamma
    suppresses well-classified examples faster.
    """
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    logits, labels = _check_batch(logits, labels)
    if weights.weights.size != logits.shape[1]:
        raise DomainError("class weight count does not match logit width")
    n = logits.shape[0]
    rows = np.arange(n)
    logp = _log_softmax(logits)
    p = np.exp(logp)
    pt = p[rows, labels]
    logpt = logp[rows, labels]
    w = weights.per_example(labels)

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


def ldam_loss(
    logits,
    labels,
    class_counts,
    max_margin: float,
    scale: float,
    weights: ClassWeights,
):
    """Cross-entropy on scale * (logits - margin at the label column),
    with rarer classes receiving larger margins.

    max_margin = 0 with scale = 1 reproduces ``cross_entropy`` bit for bit.
    """
    if max_margin < 0:
        raise DomainError("max_margin must be >= 0")
    if scale <= 0:
        raise DomainError("scale must be > 0")
    logits, labels = _check_batch(logits, labels)
    margins = ldam_margins(class_counts, max_margin)
    if margins.size != logits.shape[1]:
        raise DomainError("class_counts length does not match logit width")
    adjusted = logits.copy()
    adjusted[np.arange(len(labels)), labels] -= margins[labels]
    adjusted *= scale
    loss, grad = cross_entropy(adjusted, labels, weights)
    return loss, scale * grad


def effective_number_weights(class_counts, beta: float) -> ClassWeights:
    """Class weights inversely proportional to the effective number
    (1 - beta^n_c) / (1 - beta), normalized to mean 1."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise DomainError("class_counts must be a non-empty vector")
    if (counts < 1).any():
        raise DomainError("every class count must be >= 1")
    if not 0.0 <= beta < 1.0:
        raise DomainError("beta must lie in [0, 1)")
    if beta == 0.0:
        raw = np.ones_like(counts)
    else:
        raw = (1.0 - beta) / (1.0 - beta**counts)
    return ClassWeights.normalized(raw)


def separation_loss(features, labels, tau: float, normalize: bool = True):
    """Feature-separation loss over one batch (see module docstring).

    Returns (loss, dLoss/dfeatures) where the gradient is taken with
    respect to the raw, pre-normalization features.
    """
    feats = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise DomainError("separation loss needs at least two feature rows")
    if labels.shape != (feats.shape[0],):
        raise DomainError("labels must be one integer per feature row")
    if not tau > 0:
        raise DomainError("tau must be > 0")
    n = feats.shape[0]

    if normalize:
        norms = np.linalg.norm(feats, axis=1)
        safe_norms = np.where(norms > 0.0, norms, 1.0)
        z = feats / safe_norms[:, None]
    else:
        z = feats

    logits = (z @ z.T) / tau
    eye = np.eye(n, dtype=bool)
    same = labels[:, None] == labels[None, :]
    positives = same & ~eye

    pos_counts = positives.sum(axis=1)
    valid = pos_counts > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(feats)

    masked = np.where(eye, -np.inf, logits)
    row_max = masked.max(axis=1, keepdims=True)
    exp = np.exp(masked - row_max)
    lse = np.log(exp.sum(axis=1)) + row_max[:, 0]
    log_prob = logits - lse[:, None]

    per_anchor = np.zeros(n)
    per_anchor[valid] = -(
        (positives * log_prob).sum(axis=1)[valid] / pos_counts[valid]
    )
    loss = float(per_anchor[valid].sum() / n_valid)

    # dLoss/dlogits: softmax over A(i) minus the positive-average indicator
    q = exp / exp.sum(axis=1, keepdims=True)
    g = np.zeros((n, n))
    g[valid] = (
        q[valid] - positives[valid] / pos_counts[valid][:, None]
    ) / n_valid
    d_z = ((g + g.T) @ z) / tau

    if normalize:
        # project out the radial component, then undo the 1/|f| scaling
        radial = (d_z * z).sum(axis=1, keepdims=True)
        d_feats = (d_z - radial * z) / safe_norms[:, None]
        d_feats[norms == 0.0] = 0.0
    else:
        d_feats = d_z
    return loss, d_feats


def prediction_loss(
    logits,
    labels,
    weights: ClassWeights,
    config: LossConfig,
    class_counts=None,
):
    """Dispatch to the configured prediction loss; returns (loss, dlogits)."""
    if config.kind == "ce":
        return cross_entropy(logits, labels, weights)
    if config.kind == "focal":
        return focal_loss(logits, labels, weights, config.focal_gamma)
    if class_counts is None:
        raise DomainError("the margin loss needs per-class training counts")
    return ldam_loss(
        logits,
        labels,
        class_counts,
        config.ldam_max_margin,
        config.ldam_scale,
        weights,
    )


class ObjectiveValue(NamedTuple):
    total: float
    d_logits: np.ndarray
    d_features: np.ndarray
    prediction: float
    separation: float


def combined_objective(
    logits,
    features,
    labels,
    weights: ClassWeights,
    config: LossConfig,
    class_counts=None,
) -> ObjectiveValue:
    """prediction_loss + lam * separation_loss, with both gradients.

    Class weights enter only the prediction term. With lam = 0, or a
    batch of fewer than two rows (no pairs to separate), the separation
    head is skipped entirely: its term and the feature gradient are zero.
    A non-finite total is returned as is; ``train_srat`` stops on it.
    """
    pred, d_logits = prediction_loss(logits, labels, weights, config, class_counts)
    feats = np.asarray(features, dtype=np.float64)
    if config.lam != 0.0 and feats.shape[0] >= 2:
        sep, d_feats = separation_loss(feats, labels, config.tau)
        d_feats = config.lam * d_feats
    else:
        sep = 0.0
        d_feats = np.zeros_like(feats)
    return ObjectiveValue(pred + config.lam * sep, d_logits, d_feats, pred, sep)
