"""Reference implementation the separation-loss property tests compare
against; kept as written originally, allocation for allocation."""

import numpy as np

from srat.errors import DomainError


def reference_separation_loss(features, labels, tau: float, normalize: bool = True):
    """``srat.losses.separation_loss`` as it was before its n x n work
    moved into reused buffers: boolean masks, a second exponential sum and
    row-indexed assignment. The current version must match it bit for bit.

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
