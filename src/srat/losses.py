"""Scalar training objectives and their logit/feature gradients.

``softmax_direction`` holds the package's one softmax, and the PGD attack
and all three prediction losses share it. The focal loss of Lin et al.
2017 weights each example's cross-entropy by (1 - p_t)^gamma, so
cross-entropy is its gamma=0 case; the LDAM margin loss of Cao et al.
2019 shifts each label's logit by its class margin and scales the logits
around the softmax at gamma=0. So the documented reductions are
bit-exact: focal with gamma=0 and LDAM with margin=0/scale=1 produce the
identical floats as plain cross-entropy. ``prediction_loss`` is the one
entry to all three; it takes a ``PredictionLoss`` resolved once per run
from the ``LossConfig`` and the training class counts. Class weights are
kept normalized to mean one so the feature-separation tradeoff keeps the
same meaning under every weighting scheme.

The feature-separation loss pulls same-class feature vectors of a batch
together: for each anchor i with positive set P(i) (same-class, not i)
and candidate set A(i) (everyone but i),

    loss_i = -(1/|P(i)|) * sum_{p in P(i)} log softmax_{a in A(i)}(z_i.z_a / tau)[p]

computed on L2-normalized features. Anchors with an empty
positive set contribute nothing and are excluded from the batch mean.
"""

from dataclasses import dataclass
import functools
import math
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

    kind: str
    tau: float
    lam: float
    focal_gamma: float = 2.0
    ldam_max_margin: float = 0.5
    ldam_scale: float = 30.0
    cb_beta: float = 0.9999

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        # a chained comparison with inf also refuses NaN
        if not 0 <= self.focal_gamma < math.inf:
            raise DomainError("focal_gamma must be >= 0 and finite")
        if not 0 <= self.ldam_max_margin < math.inf:
            raise DomainError("ldam_max_margin must be >= 0 and finite")
        if not 0 < self.ldam_scale < math.inf:
            raise DomainError("ldam_scale must be > 0 and finite")
        if not 0 < self.tau < math.inf:
            raise DomainError("tau must be > 0 and finite")
        if not 0 <= self.lam < math.inf:
            raise DomainError("lam must be >= 0 and finite")
        if not 0.0 <= self.cb_beta < 1.0:
            raise DomainError("cb_beta must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class ClassWeights:
    """One positive weight per class: the given weights over their mean."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("class weights must be a non-empty vector")
        # checked before the division: all-negative input would pass once
        # divided by its own (negative) mean, and an infinite weight would
        # reach it as NaN after a NumPy warning
        if not np.isfinite(w).all() or (w <= 0).any():
            raise DomainError("class weights must be positive and finite")
        with np.errstate(over="ignore"):  # an overflowing mean is refused below
            w = w / w.mean()
        # a weight that underflows to 0, or all of them when the mean overflows
        if not (w > 0).all():
            raise DomainError("class weights must stay positive once divided by their mean")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    @functools.cache  # the value is immutable: one per class count
    def uniform(cls, num_classes: int) -> "ClassWeights":
        return cls(np.ones(num_classes))


def softmax_direction(logits: np.ndarray, onehot: np.ndarray):
    """The softmax of ``logits`` (n x C) against the labels' ``onehot``
    (C x n floats): returns (log p as a C x n array, p - onehot as a
    C-contiguous n x C array). p - onehot is cross-entropy's dLoss/dlogits
    up to each row's class weight over n, all that PGD's sign step needs.

    The work runs class-major, so a reduction over a few classes is an
    elementwise pass over rows. numpy sums 8 or more contiguous values
    pairwise, so from 8 classes on the class sum is taken row-major, as a
    row-major softmax takes it.
    """
    logp = logits.T.copy()  # a fresh C-contiguous classes x rows array
    logp -= logp.max(axis=0)
    exp = np.exp(logp)
    total = exp.sum(axis=0) if len(exp) < 8 else np.ascontiguousarray(exp.T).sum(axis=1)
    logp -= np.log(total)
    direction = np.exp(logp, out=exp)
    direction -= onehot
    return logp, np.ascontiguousarray(direction.T)


def _check_counts(class_counts) -> np.ndarray:
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise DomainError("class_counts must be a non-empty vector")
    if (counts < 1).any():
        raise DomainError("every class count must be >= 1")
    return counts


def ldam_margins(class_counts, max_margin: float) -> np.ndarray:
    """Per-class margins max_margin * n_c^(-1/4) / max_j n_j^(-1/4)."""
    inv_quartic = _check_counts(class_counts) ** (-0.25)
    return max_margin * inv_quartic / inv_quartic.max()


def effective_number_weights(class_counts, beta: float) -> ClassWeights:
    """Class weights inversely proportional to the effective number
    (1 - beta^n_c) / (1 - beta), normalized to mean 1."""
    counts = _check_counts(class_counts)
    if not 0.0 <= beta < 1.0:
        raise DomainError("beta must lie in [0, 1)")
    # every count is >= 1, so beta = 0 gives (1 - 0) / (1 - 0) = 1 exactly
    return ClassWeights((1.0 - beta) / (1.0 - beta**counts))


@dataclass(frozen=True, eq=False)
class PredictionLoss:
    """A prediction loss with its settings resolved: the focal loss at
    ``gamma`` (0 is cross-entropy, so ``PredictionLoss()`` is plain
    cross-entropy) or, when ``margins`` holds one margin per class, the
    LDAM margin loss with logit ``scale``."""

    gamma: float = 0.0
    margins: np.ndarray | None = None
    scale: float = 1.0

    @classmethod
    def resolve(cls, config: LossConfig, class_counts) -> "PredictionLoss":
        """The loss ``config`` names; rarer classes get larger margins
        from ``class_counts``, which only ldam reads."""
        if config.kind == "ldam":
            margins = ldam_margins(class_counts, config.ldam_max_margin)
            return cls(margins=margins, scale=config.ldam_scale)
        return cls(gamma=config.focal_gamma if config.kind == "focal" else 0.0)


def separation_loss(features, labels, tau: float):
    """Feature-separation loss over one batch (see module docstring).

    Returns (loss, dLoss/dfeatures) where the gradient is taken with
    respect to the raw, pre-normalization features.

    This is an inner-loop entry and checks nothing: ``features`` must be a
    float64 n x k matrix, ``labels`` n non-negative integers and ``tau``
    > 0, as ``LossConfig`` guarantees. A batch without two rows of one
    class has no pair to pull together and gives (0.0, zeros).
    """
    norms = np.linalg.norm(features, axis=1)
    safe_norms = np.where(norms > 0.0, norms, 1.0)
    z = features / safe_norms[:, None]

    counts = np.bincount(labels)
    pos_counts = counts[labels] - 1.0
    valid = pos_counts > 0
    n_valid = np.count_nonzero(valid)
    if n_valid == 0:
        return 0.0, np.zeros_like(features)
    # an anchor's positives are the other rows of its class: their feature
    # sum is its class sum, gathered by label, minus itself (no n x n mask)
    onehot = (labels[:, None] == np.arange(counts.size)).astype(np.float64)
    pos_z = (onehot.T @ z)[labels]
    pos_z -= z

    # Column j holds anchor j's logits, so every per-anchor reduction runs
    # along rows. A plain product of two operands (not z @ z.T, which numpy
    # sends to the slower syrk) is the only n x n matrix, reused in place.
    logits = (z / tau) @ np.ascontiguousarray(z.T)
    np.fill_diagonal(logits, -np.inf)  # an anchor is not its own candidate
    col_max = logits.max(axis=0)
    exp = logits
    exp -= col_max
    np.exp(exp, out=exp)
    exp_sum = exp.sum(axis=0)
    lse = np.log(exp_sum) + col_max
    per_pos = valid / np.maximum(pos_counts, 1.0)
    pos_logit = (z * pos_z).sum(axis=1) / tau
    loss = float((lse - per_pos * pos_logit)[valid].sum() / n_valid)

    # dLoss/dlogits g is, per valid anchor column, its softmax over A(i)
    # minus its positive-average indicator, over n_valid. With r the
    # softmax scale valid / (n_valid exp_sum), (g + g.T) @ z is
    # exp @ (r z) + r (exp.T @ z) - (2 / n_valid) per_pos pos_z.
    r = (valid / (n_valid * exp_sum))[:, None]
    d_z = exp @ (r * z)
    d_z += r * (exp.T @ z)
    d_z -= (2.0 / n_valid) * per_pos[:, None] * pos_z
    d_z /= tau

    # project out the radial component, then undo the 1/|f| scaling
    radial = (d_z * z).sum(axis=1, keepdims=True)
    d_feats = (d_z - radial * z) / safe_norms[:, None]
    d_feats[norms == 0.0] = 0.0
    return loss, d_feats


def prediction_loss(logits, labels, weights: ClassWeights, loss: PredictionLoss):
    """The resolved prediction loss; returns (loss, dlogits) with
    loss = (1/n) * sum_i w_{y_i} * (1 - p_t)^gamma * (-log p_t).

    gamma = 0 skips the modulator, so cross-entropy is exactly the focal
    loss at gamma = 0: w * 1.0 is w. With margins each label's margin is
    subtracted from its logit and the logits are scaled by ``loss.scale``
    before the softmax, ``loss.gamma`` is not read, and the gradient is
    scaled back.

    This is an inner-loop entry and checks nothing: ``logits`` must be a
    float64 n x C matrix, ``labels`` int64 indices in [0, C) and the
    weights and margins C wide; n = 0 gives a NaN loss (0/0) and an empty
    gradient. ``train_srat`` and the evaluation pass check that once per
    run.
    """
    n = len(labels)
    rows = np.arange(n)
    ldam = loss.margins is not None
    gamma = 0.0 if ldam else loss.gamma
    if ldam:
        logits = logits.copy()
        logits[rows, labels] -= loss.margins[labels]
        logits *= loss.scale
    onehot = (labels == np.arange(logits.shape[1])[:, None]).astype(np.float64)
    logp, grad = softmax_direction(logits, onehot)
    logpt = logp[labels, rows]
    w = weights.weights[labels]
    w_loss = w_grad = w
    if gamma != 0.0:
        # d/dlogits = (p - onehot) * (modulator - gamma*(1-pt)^(gamma-1)*pt*logpt)
        pt = np.exp(logpt)
        one_minus = 1.0 - pt
        modulator = one_minus**gamma
        safe = np.where(one_minus > 0.0, one_minus, 1.0)
        extra = np.where(one_minus > 0.0, gamma * safe ** (gamma - 1.0) * pt * logpt, 0.0)
        w_loss = w * modulator
        w_grad = w * (modulator - extra)
    value = float((w_loss * (-logpt)).sum() / n)
    grad *= (w_grad / n)[:, None]
    if ldam:
        grad *= loss.scale
    return value, grad


class ObjectiveValue(NamedTuple):
    total: float
    d_logits: np.ndarray
    d_features: np.ndarray | None
    prediction: float
    separation: float


def combined_objective(
    logits,
    features,
    labels,
    weights: ClassWeights,
    config: LossConfig,
    loss: PredictionLoss,
) -> ObjectiveValue:
    """prediction_loss + lam * separation_loss, with both gradients.

    ``config`` gives lam and tau; ``loss`` is the resolved prediction loss.
    Class weights enter only the prediction term. With lam = 0 the
    separation head is skipped: its term is zero and ``d_features`` is
    None. A batch with no same-class pair gives zeros (``separation_loss``).
    A non-finite total is returned as is; ``train_srat`` stops on it.
    The inputs are those of ``prediction_loss`` and ``separation_loss``,
    unchecked here.
    """
    pred, d_logits = prediction_loss(logits, labels, weights, loss)
    sep, d_feats = 0.0, None
    if config.lam != 0.0:
        sep, d_feats = separation_loss(features, labels, config.tau)
        d_feats = config.lam * d_feats
    return ObjectiveValue(pred + config.lam * sep, d_logits, d_feats, pred, sep)
