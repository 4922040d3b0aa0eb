"""Hypothesis properties of the training inner loop: the in-place
separation loss against its reference, the input-only backward pass
against the full one, and PGD containment."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from separation_reference import reference_separation_loss
from srat.attack import AttackConfig, pgd_attack
from srat.losses import LossConfig, separation_loss
from srat.mlp import backward, build_mlp, forward
from srat.rand import derive_rng

# derandomized and without an example database: the suite stays
# repeatable and writes nothing into the checkout
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def separation_batches(draw):
    n = draw(st.one_of(st.sampled_from([2, 127, 128, 129, 200]), st.integers(2, 200)))
    k = draw(st.integers(1, 40))
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.normal(size=(n, k)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    feats[rng.choice(n, size=min(n, draw(st.integers(0, 3))), replace=False)] = 0.0
    mode = draw(st.sampled_from(["classes", "singletons", "distinct"]))
    if mode == "distinct":  # no anchor has a positive
        labels = rng.permutation(n)
    else:
        labels = rng.integers(0, draw(st.integers(1, 6)), size=n)
        if mode == "singletons":  # anchors without positives among valid ones
            lone = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
            labels[lone] = 100 + np.arange(lone.size)
    tau = draw(st.sampled_from([0.05, 0.1, 1.0, 2.5]))
    return feats, labels, tau, draw(st.booleans())


@PROPERTY
@given(separation_batches())
def test_separation_loss_matches_reference_bit_for_bit(batch):
    feats, labels, tau, normalize = batch
    loss, grad = separation_loss(feats, labels, tau, normalize)
    ref_loss, ref_grad = reference_separation_loss(feats, labels, tau, normalize)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert _same_bits(grad, ref_grad)


@PROPERTY
@given(
    st.integers(1, 6),
    st.lists(st.integers(1, 12), min_size=0, max_size=3),
    st.integers(1, 4),
    st.one_of(st.just(1), st.integers(1, 40)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_input_only_backward_matches_full_backward(dim, hidden, classes, n, with_features, seed):
    rng = derive_rng(seed)
    model = build_mlp(dim, hidden, classes, seed=seed)
    trace = forward(model, rng.normal(size=(n, dim)))
    d_logits = rng.normal(size=trace.logits.shape)
    d_feats = rng.normal(size=trace.features.shape) if with_features else None
    none, input_grads = backward(model, trace, d_logits, d_feats, param_grads=False)
    assert none is None
    assert _same_bits(input_grads, backward(model, trace, d_logits, d_feats)[1])


@PROPERTY
@given(
    st.integers(1, 5),
    st.integers(2, 4),
    st.integers(1, 20),
    st.sampled_from(["ce", "focal", "ldam"]),
    st.floats(0.0, 0.5),
    st.floats(0.01, 0.3),
    st.integers(0, 6),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_pgd_stays_in_the_ball_and_the_box(
    dim, classes, n, kind, eps, step, steps, random_start, box, seed
):
    rng = derive_rng(seed)
    model = build_mlp(dim, (8,), classes, seed=seed)
    x = rng.uniform(0.0, 1.0, size=(n, dim))
    y = rng.integers(0, classes, size=n)
    cfg = AttackConfig(
        epsilon=eps,
        step_size=step,
        num_steps=steps,
        random_start=random_start,
        clip_min=0.0 if box else None,
        clip_max=1.0 if box else None,
    )
    loss = LossConfig(kind=kind, tau=0.1, lam=0.0)
    adv = pgd_attack(model, loss, x, y, cfg, seed=seed, class_counts=range(1, classes + 1))
    assert adv.shape == x.shape
    assert np.abs(adv - x).max() <= eps + 4 * np.finfo(np.float64).eps
    if box:
        assert adv.min() >= 0.0 and adv.max() <= 1.0
