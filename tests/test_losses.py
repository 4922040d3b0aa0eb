"""Objective values and gradients against independent oracles."""

import math

import numpy as np
import pytest

from gradcheck import central_diff, max_rel_err
from srat.errors import DomainError
from srat.losses import (
    ClassWeights,
    LossConfig,
    PredictionLoss,
    combined_objective,
    effective_number_weights,
    ldam_margins,
    prediction_loss,
    separation_loss,
)
from srat.rand import derive_rng

CE = PredictionLoss()


def _loss(kind, logits, labels, weights, counts=None, **knobs):
    """``prediction_loss`` under the loss that ``LossConfig(kind=kind,
    **knobs)`` resolves to on the training class ``counts``; the separation
    knobs ``tau`` and ``lam`` do not enter it."""
    loss = PredictionLoss.resolve(LossConfig(kind=kind, tau=0.1, lam=1.0, **knobs), counts)
    return prediction_loss(logits, labels, weights, loss)


def _random_batch(rng, n=6, c=4, spread=2.0):
    logits = spread * rng.normal(size=(n, c))
    labels = rng.integers(0, c, size=n)
    return logits, labels


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_is_log_num_classes():
    logits = np.zeros((5, 2))
    labels = np.array([0, 1, 0, 1, 1])
    loss, _ = _loss("ce", logits, labels, ClassWeights.uniform(2))
    assert loss == pytest.approx(math.log(2.0))


def test_ce_saturates_to_zero_when_confident():
    labels = np.array([0, 1, 2])
    logits = 40.0 * np.eye(3)[labels]
    loss, _ = _loss("ce", logits, labels, ClassWeights.uniform(3))
    assert 0.0 <= loss < 1e-12


def test_ce_weights_scale_per_example_terms():
    rng = derive_rng(21)
    logits, labels = _random_batch(rng, n=8, c=3)
    uniform, _ = _loss("ce", logits, labels, ClassWeights.uniform(3))
    weighted, _ = _loss("ce", logits, labels, ClassWeights(np.array([0.5, 1.0, 1.5])))
    # recompute by hand from per-example CE terms
    per_example = []
    for row, y in zip(logits, labels):
        z = row - row.max()
        per_example.append(-(z[y] - np.log(np.exp(z).sum())))
    w = np.array([0.5, 1.0, 1.5])[labels]
    assert weighted == pytest.approx(float(np.mean(w * per_example)))
    assert uniform == pytest.approx(float(np.mean(per_example)))


def test_ce_gradient_matches_finite_differences():
    rng = derive_rng(22)
    logits, labels = _random_batch(rng)
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=4))
    _, grad = _loss("ce", logits, labels, weights)
    fd = central_diff(
        lambda flat: _loss("ce", flat.reshape(logits.shape), labels, weights)[0],
        logits.ravel(),
    )
    assert max_rel_err(grad.ravel(), fd) <= 1e-5


# ---------------------------------------------------------------------------
# focal
# ---------------------------------------------------------------------------


def test_focal_gamma_zero_is_ce_bit_for_bit():
    rng = derive_rng(23)
    for _ in range(20):
        logits, labels = _random_batch(rng, n=5, c=3)
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
        l_ce, g_ce = _loss("ce", logits, labels, weights)
        l_f, g_f = _loss("focal", logits, labels, weights, focal_gamma=0.0)
        assert l_ce == l_f
        assert np.array_equal(g_ce, g_f)


def test_focal_vanishes_faster_than_ce_when_confident():
    labels = np.array([0])
    weights = ClassWeights.uniform(2)
    ratios = []
    for margin in (2.0, 4.0, 6.0):
        logits = np.array([[margin, 0.0]])
        ce, _ = _loss("ce", logits, labels, weights)
        focal, _ = _loss("focal", logits, labels, weights, focal_gamma=2.0)
        ratios.append(focal / ce)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-4


def test_focal_gradient_matches_finite_differences():
    rng = derive_rng(24)
    for gamma in (0.5, 2.0):
        logits, labels = _random_batch(rng)
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=4))
        _, grad = _loss("focal", logits, labels, weights, focal_gamma=gamma)
        fd = central_diff(
            lambda flat: _loss(
                "focal", flat.reshape(logits.shape), labels, weights, focal_gamma=gamma
            )[0],
            logits.ravel(),
        )
        assert max_rel_err(grad.ravel(), fd) <= 1e-5


# ---------------------------------------------------------------------------
# margin (LDAM-style) loss
# ---------------------------------------------------------------------------


def test_margin_loss_reduces_to_ce_bit_for_bit():
    rng = derive_rng(25)
    for _ in range(20):
        logits, labels = _random_batch(rng, n=5, c=3)
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
        l_ce, g_ce = _loss("ce", logits, labels, weights)
        l_m, g_m = _loss(
            "ldam", logits, labels, weights, (7, 3, 11), ldam_max_margin=0.0, ldam_scale=1.0
        )
        assert l_ce == l_m
        assert np.array_equal(g_ce, g_m)


def test_margin_ratio_follows_quartic_root_rule():
    margins = ldam_margins((10_000, 10), 0.5)
    assert margins[1] / margins[0] == pytest.approx((10_000 / 10) ** 0.25)
    assert margins[1] / margins[0] == pytest.approx(5.623413251903491)
    assert margins[1] == pytest.approx(0.5)  # rarest class gets the full margin


def test_margins_shrink_with_count():
    margins = ldam_margins((1, 10, 100, 1000), 0.5)
    assert (np.diff(margins) < 0).all()


def test_margin_loss_gradient_matches_finite_differences():
    rng = derive_rng(26)
    logits, labels = _random_batch(rng, spread=0.5)
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=4))
    counts = (50, 10, 200, 5)
    knobs = dict(ldam_max_margin=0.5, ldam_scale=10.0)
    _, grad = _loss("ldam", logits, labels, weights, counts, **knobs)
    fd = central_diff(
        lambda flat: _loss(
            "ldam", flat.reshape(logits.shape), labels, weights, counts, **knobs
        )[0],
        logits.ravel(),
    )
    assert max_rel_err(grad.ravel(), fd) <= 1e-5


def test_margin_loss_rejects_zero_counts():
    with pytest.raises(DomainError, match="every class count must be >= 1"):
        _loss("ldam", np.zeros((2, 2)), np.array([0, 1]), ClassWeights.uniform(2), (5, 0))


@pytest.mark.parametrize("counts", [(), ((5, 7),)])
def test_class_counts_must_be_a_non_empty_vector(counts):
    with pytest.raises(DomainError, match="class_counts must be a non-empty vector"):
        ldam_margins(counts, 0.5)
    with pytest.raises(DomainError, match="class_counts must be a non-empty vector"):
        effective_number_weights(counts, 0.9)


# ---------------------------------------------------------------------------
# effective-number weights
# ---------------------------------------------------------------------------


def test_effective_number_beta_zero_is_uniform():
    w = effective_number_weights((100, 5, 1000), 0.0)
    assert np.array_equal(w.weights, np.ones(3))


def test_effective_number_all_singletons_is_uniform():
    w = effective_number_weights((1, 1, 1, 1), 0.7)
    np.testing.assert_allclose(w.weights, np.ones(4), atol=1e-12)


def test_effective_number_direct_substitution():
    # counts (2, 5) at beta 0.9: effective numbers 1.9 and 4.0951
    w = effective_number_weights((2, 5), 0.9)
    e2 = (1 - 0.9**2) / 0.1
    e5 = (1 - 0.9**5) / 0.1
    assert e2 == pytest.approx(1.9)
    assert w.weights[0] / w.weights[1] == pytest.approx(e5 / e2)
    assert w.weights.mean() == pytest.approx(1.0)


def test_effective_number_monotone():
    rng = derive_rng(27)
    for _ in range(20):
        counts = rng.integers(1, 10_000, size=6)
        w = effective_number_weights(counts, float(rng.uniform(0.0, 0.9999)))
        order = np.argsort(counts)
        sorted_weights = w.weights[order]
        assert (np.diff(sorted_weights) <= 1e-12).all()


def test_effective_number_rejects_bad_beta():
    with pytest.raises(DomainError):
        effective_number_weights((1, 2), 1.0)
    with pytest.raises(DomainError):
        effective_number_weights((0, 2), 0.9)


# ---------------------------------------------------------------------------
# feature separation
# ---------------------------------------------------------------------------


def _naive_separation(feats, labels, tau):
    """Independent double-loop evaluation on normalized features."""
    z = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    n = len(feats)
    total, valid = 0.0, 0
    for i in range(n):
        pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not pos:
            continue
        valid += 1
        denom = sum(math.exp(z[i] @ z[a] / tau) for a in range(n) if a != i)
        anchor = 0.0
        for p in pos:
            anchor += -math.log(math.exp(z[i] @ z[p] / tau) / denom)
        total += anchor / len(pos)
    return total / valid if valid else 0.0


def test_separation_two_identical_same_class_vectors():
    feats = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, _ = separation_loss(feats, np.array([0, 0]), 1.0)
    assert loss == 0.0


def test_separation_two_different_classes_is_zero():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, grad = separation_loss(feats, np.array([0, 1]), 1.0)
    assert loss == 0.0
    assert not grad.any()


def test_separation_matches_naive_double_loop():
    rng = derive_rng(28)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        feats = rng.normal(size=(n, 5))
        labels = rng.integers(0, 3, size=n)
        ours, _ = separation_loss(feats, labels, 0.3)
        assert ours == pytest.approx(_naive_separation(feats, labels, 0.3), abs=1e-12)


def test_separation_clustered_beats_shuffled():
    # two tight same-class pairs, cross-class orthogonal
    feats = np.array(
        [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    clustered = np.array([0, 0, 1, 1])
    shuffled = np.array([0, 1, 0, 1])
    l_clustered, _ = separation_loss(feats, clustered, 0.5)
    l_shuffled, _ = separation_loss(feats, shuffled, 0.5)
    assert l_clustered < l_shuffled
    assert l_clustered == pytest.approx(_naive_separation(feats, clustered, 0.5))
    assert l_shuffled == pytest.approx(_naive_separation(feats, shuffled, 0.5))


def test_separation_decreases_as_within_class_similarity_grows():
    # 4 points in 4-D: within-class cosine cos(2t), cross-class cosine
    # exactly 0 for every t
    def config(t):
        c, s = math.cos(t), math.sin(t)
        return np.array(
            [[c, s, 0, 0], [c, -s, 0, 0], [0, 0, c, s], [0, 0, c, -s]]
        )

    labels = np.array([0, 0, 1, 1])
    losses = [
        separation_loss(config(t), labels, 0.4)[0]
        for t in (1.2, 0.9, 0.6, 0.3, 0.1)
    ]
    assert (np.diff(losses) < 0).all()


def test_separation_invariances():
    rng = derive_rng(29)
    feats = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    base, _ = separation_loss(feats, labels, 0.2)

    # (a) common orthogonal transform
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated, _ = separation_loss(feats @ q, labels, 0.2)
    assert rotated == pytest.approx(base, abs=1e-9)

    # (b) relabeling permutation of class identities
    perm = np.array([2, 0, 1])
    relabeled, _ = separation_loss(feats, perm[labels], 0.2)
    assert relabeled == pytest.approx(base, abs=1e-9)

    # (c) positive per-example scaling of raw features
    scales = rng.uniform(0.1, 10.0, size=6)
    scaled, _ = separation_loss(feats * scales[:, None], labels, 0.2)
    assert scaled == pytest.approx(base, abs=1e-9)


def test_separation_gradient_matches_finite_differences():
    rng = derive_rng(30)
    feats = rng.normal(size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    _, grad = separation_loss(feats, labels, 0.5)
    fd = central_diff(
        lambda flat: separation_loss(flat.reshape(feats.shape), labels, 0.5)[0],
        feats.ravel(),
    )
    assert max_rel_err(grad.ravel(), fd) <= 1e-5


def test_separation_of_fewer_than_two_rows_is_zero():
    # no pair to separate: nothing to check, and a zero gradient
    for n in (0, 1):
        loss, grad = separation_loss(np.ones((n, 3)), np.zeros(n, dtype=np.int64), 0.5)
        assert loss == 0.0
        assert grad.shape == (n, 3) and not grad.any()


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


def test_combined_lambda_zero_is_prediction_alone():
    rng = derive_rng(31)
    logits, labels = _random_batch(rng)
    feats = rng.normal(size=(6, 5))
    weights = ClassWeights.uniform(4)
    cfg = LossConfig(kind="ce", tau=0.5, lam=0.0)
    obj = combined_objective(logits, feats, labels, weights, cfg, CE)
    pred, d_logits = _loss("ce", logits, labels, weights)
    assert obj.total == pred
    assert np.array_equal(obj.d_logits, d_logits)
    assert obj.d_features is None


def test_combined_is_additive():
    rng = derive_rng(32)
    logits, labels = _random_batch(rng)
    feats = rng.normal(size=(6, 5))
    weights = ClassWeights.uniform(4)
    cfg = LossConfig(kind="ce", tau=0.5, lam=1.0)
    obj = combined_objective(logits, feats, labels, weights, cfg, CE)
    pred, _ = _loss("ce", logits, labels, weights)
    sep, _ = separation_loss(feats, labels, 0.5)
    assert obj.total == pytest.approx(pred + sep, rel=1e-15)
    assert obj.prediction == pred and obj.separation == sep


def test_combined_single_row_batch_has_zero_separation():
    rng = derive_rng(33)
    logits, labels = _random_batch(rng)
    weights = ClassWeights.uniform(4)
    cfg = LossConfig(kind="ce", tau=0.5, lam=1.0)
    obj = combined_objective(logits[:1], rng.normal(size=(1, 5)), labels[:1], weights, cfg, CE)
    pred, _ = _loss("ce", logits[:1], labels[:1], weights)
    assert obj.separation == 0.0 and obj.total == pred
    assert obj.d_features.shape == (1, 5) and not obj.d_features.any()


def test_combined_gradients_match_finite_differences():
    rng = derive_rng(33)
    for kind in ("ce", "focal", "ldam"):
        logits, labels = _random_batch(rng, n=5, c=3, spread=0.8)
        feats = rng.normal(size=(5, 4))
        weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))
        cfg = LossConfig(kind=kind, tau=0.4, lam=0.8, ldam_scale=5.0)
        counts = (20, 7, 55)
        loss = PredictionLoss.resolve(cfg, counts)
        obj = combined_objective(logits, feats, labels, weights, cfg, loss)

        fd_logits = central_diff(
            lambda flat: combined_objective(
                flat.reshape(logits.shape), feats, labels, weights, cfg, loss
            ).total,
            logits.ravel(),
        )
        assert max_rel_err(obj.d_logits.ravel(), fd_logits) <= 1e-5

        fd_feats = central_diff(
            lambda flat: combined_objective(
                logits, flat.reshape(feats.shape), labels, weights, cfg, loss
            ).total,
            feats.ravel(),
        )
        assert max_rel_err(obj.d_features.ravel(), fd_feats) <= 1e-5


def test_loss_config_validation():
    def config(**knobs):
        return LossConfig(**{"kind": "ce", "tau": 0.1, "lam": 1.0, **knobs})

    with pytest.raises(DomainError):
        config(kind="mse")
    with pytest.raises(DomainError):
        config(tau=0.0)
    with pytest.raises(DomainError):
        config(cb_beta=1.0)
    with pytest.raises(DomainError):
        config(lam=-0.5)
    # the only guards of these three: the loss cores do not check them
    with pytest.raises(DomainError, match="focal_gamma must be >= 0"):
        config(focal_gamma=-1)
    with pytest.raises(DomainError, match="ldam_max_margin must be >= 0"):
        config(ldam_max_margin=-0.1)
    with pytest.raises(DomainError, match="ldam_scale must be > 0"):
        config(ldam_scale=0)
    # nor the finiteness of any of the five: a NaN or inf would train and
    # diverge, or, as tau = inf, give a constant separation term
    for key in ("focal_gamma", "ldam_max_margin", "ldam_scale", "tau", "lam"):
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"{key} must be .* and finite"):
                config(**{key: value})


def test_class_weights_invariants():
    assert np.array_equal(ClassWeights(np.array([2.0, 2.0])).weights, [1.0, 1.0])
    with pytest.raises(DomainError):
        ClassWeights(np.array([1.0, -1.0]))
    with np.errstate(all="raise"), pytest.raises(DomainError, match="finite"):
        ClassWeights(np.array([1.0, np.inf]))
    w = ClassWeights(np.array([1.0, 3.0]))
    assert w.weights.mean() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "raw, message",
    [
        (np.ones((2, 2)), "non-empty vector"),
        (np.array([]), "non-empty vector"),
        (np.array([1.0, np.nan]), "positive and finite"),
        (np.array([0.0, 1.0]), "positive and finite"),
        # positive and finite, but the smaller weight underflows to 0 once
        # divided by the mean
        (np.array([5e-324, 1e300]), "stay positive once divided"),
        # the mean overflows to inf, refused without a NumPy warning
        (np.array([1e308, 1e308]), "stay positive once divided"),
    ],
    ids=["matrix", "empty", "nan", "zero", "underflow", "mean_overflows"],
)
def test_class_weights_refusals(raw, message):
    with pytest.raises(DomainError, match=message):
        ClassWeights(raw)
