"""Hypothesis properties of the training inner loop (the prediction losses
and the class-sum separation loss against their references, the prediction
losses' reductions to cross-entropy and their gradients, the forward and
backward passes against their reference, the input-only backward pass
against the full one, and PGD containment), of the
checkpoint and dataset CSV round trips, of the one-pass evaluation and
feature export against their reference across chunk seams, of the blocked
and bounded theory oracles against their whole-array references, of the
grid search's points against ``np.linspace``, and of the monotonicity of
``normal_cdf`` that the bounded grid search relies on."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

import evaluation_reference
import loss_reference
import mlp_reference
import theory_reference
from gradcheck import central_diff, max_rel_err
from separation_reference import reference_separation_loss
from srat import evaluation, theory
from srat.attack import AttackConfig, pgd_attack
from srat.data import LabeledDataset, load_csv, save_csv
from srat.losses import (
    ClassWeights,
    LossConfig,
    PredictionLoss,
    prediction_loss,
    separation_loss,
    softmax_direction,
)
from srat.mlp import MlpModel, backward, build_mlp, forward, load_model, save_model
from srat.rand import derive_rng
from srat.theory import GaussianMixtureSpec, LinearClassifier, StdConvention

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
    return feats, labels, tau


# Stated before any run. The class-sum rewrite reorders the reference's
# sums, so the floats differ by rounding. Row i of the gradient sums terms
# of size up to 1/(tau |f_i|) that can cancel exactly (a batch of two rows
# of one class has gradient 0), so its error is bounded in that scale,
# not relative to the result. Over 4000 draws like separation_batches the
# worst errors were 1.8e-15 (loss, relative to max(1, |loss|)) and 4.7e-16
# (gradient, times tau |f_i|).
SEPARATION_LOSS_RTOL = 1e-13
SEPARATION_GRAD_RTOL = 1e-13


def _assert_separation_matches_reference(features, labels, tau):
    loss, grad = separation_loss(features, labels, tau)
    assert grad.shape == features.shape and grad.dtype == np.float64
    if np.count_nonzero(np.bincount(labels) > 1) == 0:  # no anchor has a positive
        assert loss == 0.0 and not grad.any()
        return
    ref_loss, ref_grad = reference_separation_loss(features, labels, tau)
    assert abs(loss - ref_loss) <= SEPARATION_LOSS_RTOL * max(1.0, abs(ref_loss))
    norms = np.linalg.norm(features, axis=1)
    assert not grad[norms == 0.0].any()
    row_err = np.abs(grad - ref_grad).max(axis=1, initial=0.0) * tau * norms
    assert row_err.max() <= SEPARATION_GRAD_RTOL


@PROPERTY
@given(separation_batches())
def test_separation_loss_matches_reference_within_tolerance(batch):
    _assert_separation_matches_reference(*batch)


@pytest.mark.parametrize(
    "n,labels",
    [
        (0, []),
        (1, [0]),
        (6, [3] * 6),  # a single-class batch
        (5, [0, 1, 2, 3, 4]),  # all singletons
        (7, [0, 7, 7, 0, 0, 7, 0]),  # label ids with a gap
        (7, [0, 7, 9, 0, 4, 7, 0]),  # singletons among pairs
    ],
    ids=["empty", "one_row", "one_class", "singletons", "gap", "mixed"],
)
@pytest.mark.parametrize("zero_rows", [0, 2], ids=["no_zero_rows", "two_zero_rows"])
def test_separation_loss_on_degenerate_batches(n, labels, zero_rows):
    features = derive_rng(n).normal(size=(n, 3))
    features[: min(n, zero_rows)] = 0.0
    _assert_separation_matches_reference(features, np.array(labels, dtype=np.int64), 0.1)


@st.composite
def prediction_batches(
    draw, max_rows=40, max_classes=12, scales=(1e-3, 1.0, 30.0, 1e3), min_classes=1
):
    """(logits, labels, weights, counts): float64 logits up to the largest
    of ``scales`` in magnitude, with ties in some draws, int64 labels,
    normalized class weights and per-class counts in [1, 1000]."""
    n = draw(st.integers(1, max_rows))
    c = draw(st.integers(min_classes, max_classes))
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-1.0, 1.0, size=(n, c)) * draw(st.sampled_from(scales))
    ties = draw(st.sampled_from(["none", "rounded", "equal_rows"]))
    if ties == "rounded":  # few distinct values: ties within and across rows
        logits = np.round(logits)
    elif ties == "equal_rows":  # every class scores the same
        logits[:, :] = logits[:, :1]
    labels = rng.integers(0, c, size=n)
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=c))
    counts = tuple(int(v) for v in rng.integers(1, 1001, size=c))
    return logits, labels, weights, counts


_GAMMAS = st.one_of(st.just(0.0), st.floats(0.1, 4.0))


@PROPERTY
@given(
    prediction_batches(), _GAMMAS, st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 10.0, 30.0])
)
def test_prediction_loss_matches_reference_bit_for_bit(batch, gamma, max_margin, scale):
    logits, labels, weights, counts = batch

    def ours(kind, **knobs):
        resolved = PredictionLoss.resolve(LossConfig(kind=kind, tau=0.1, lam=1.0, **knobs), counts)
        loss, grad = prediction_loss(logits, labels, weights, resolved)
        return np.float64(loss).tobytes(), grad

    ce = ours("ce")
    ref = loss_reference.cross_entropy(logits, labels, weights)
    assert ce[0] == np.float64(ref[0]).tobytes() and _same_bits(ce[1], ref[1])

    focal = ours("focal", focal_gamma=gamma)
    ref = loss_reference.focal_loss(logits, labels, weights, gamma)
    assert focal[0] == np.float64(ref[0]).tobytes() and _same_bits(focal[1], ref[1])

    ldam = ours("ldam", ldam_max_margin=max_margin, ldam_scale=scale)
    ref = loss_reference.ldam_loss(logits, labels, counts, max_margin, scale, weights)
    assert ldam[0] == np.float64(ref[0]).tobytes() and _same_bits(ldam[1], ref[1])

    # the documented reductions: focal at gamma 0 and LDAM at margin 0 and
    # scale 1 are cross-entropy, float for float
    reductions = (ours("focal", focal_gamma=0.0), ours("ldam", ldam_max_margin=0.0, ldam_scale=1.0))
    for reduced in reductions:
        assert reduced[0] == ce[0] and _same_bits(reduced[1], ce[1])


@PROPERTY
@given(
    prediction_batches(max_rows=8, max_classes=6, scales=(0.1, 1.0, 2.0)),
    st.sampled_from(["ce", "focal", "ldam"]),
    _GAMMAS,
    st.floats(0.0, 1.0),
    st.sampled_from([0.5, 1.0, 5.0]),
)
def test_prediction_loss_gradients_match_finite_differences(batch, kind, gamma, max_margin, scale):
    logits, labels, weights, counts = batch
    cfg = LossConfig(
        kind=kind, tau=0.1, lam=1.0, focal_gamma=gamma, ldam_max_margin=max_margin,
        ldam_scale=scale,
    )
    loss = PredictionLoss.resolve(cfg, counts)
    _, grad = prediction_loss(logits, labels, weights, loss)
    fd = central_diff(
        lambda flat: prediction_loss(flat.reshape(logits.shape), labels, weights, loss)[0],
        logits.ravel(),
    )
    assert max_rel_err(grad.ravel(), fd) <= 1e-5


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
@given(prediction_batches(max_rows=200, min_classes=2))
def test_ce_attack_direction_is_the_cross_entropy_gradient_up_to_row_scale(batch):
    # PGD reads only the sign of the input gradient, and each input row
    # depends only on its logit row: a positive scale per row may go
    logits, labels, weights, _ = batch
    onehot = (labels == np.arange(logits.shape[1])[:, None]).astype(np.float64)
    _, direction = softmax_direction(logits, onehot)
    _, grad = prediction_loss(logits, labels, weights, PredictionLoss())
    assert direction.flags.c_contiguous and direction.shape == logits.shape
    direction *= (weights.weights[labels] / len(labels))[:, None]
    assert _same_bits(direction, grad)


@st.composite
def relu_nets(draw):
    """(model, batch, seed): 1-4 layers of widths 1-6 and 1-20 rows, with
    exact-zero pre-activations: small-integer inputs and parameters, or
    weight columns zeroed with a +0 or -0 bias, or both."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    n = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    integers, dead_columns = draw(
        st.sampled_from([(True, False), (False, True), (True, True)])
    )
    rng = derive_rng(seed)

    def values(shape):
        if integers:
            return rng.integers(-2, 3, size=shape).astype(np.float64)
        return rng.normal(size=shape)

    layers = []
    for fi, fo in zip(sizes, sizes[1:]):
        w, b = values((fi, fo)), values(fo)
        if dead_columns:
            dead = rng.random(fo) < 0.4
            w[:, dead] = 0.0
            b[dead] = rng.choice([0.0, -0.0], size=int(dead.sum()))
        layers.append((w, b))
    return MlpModel.from_layers(layers), values((n, sizes[0])), seed


@PROPERTY
@given(relu_nets(), st.booleans(), st.booleans())
def test_forward_backward_match_reference_bit_for_bit(net, with_features, param_grads):
    model, batch, seed = net
    trace, ref = forward(model, batch), mlp_reference.forward(model, batch)
    assert _same_bits(trace.logits, ref.logits) and _same_bits(trace.features, ref.features)
    rng = derive_rng((seed, 1))
    d_logits = rng.normal(size=ref.logits.shape)
    d_feats = rng.normal(size=ref.features.shape) if with_features else None
    passed = d_logits.copy()
    grads, input_grads = backward(model, trace, d_logits, d_feats, param_grads=param_grads)
    ref_grads, ref_input_grads = mlp_reference.backward(
        model, ref, d_logits, d_feats, param_grads=param_grads
    )
    assert _same_bits(input_grads, ref_input_grads)
    assert _same_bits(grads, ref_grads) if param_grads else grads is None
    assert _same_bits(d_logits, passed)  # the in-place masks leave the caller's array


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
    loss = PredictionLoss.resolve(LossConfig(kind=kind, tau=0.1, lam=1.0), range(1, classes + 1))
    adv = pgd_attack(model, loss, x, y, cfg, seed=seed)
    assert adv.shape == x.shape
    assert np.abs(adv - x).max() <= eps + 4 * np.finfo(np.float64).eps
    if box:
        assert adv.min() >= 0.0 and adv.max() <= 1.0


# ---------------------------------------------------------------------------
# checkpoint and dataset CSV files: bit-exact round trips
# ---------------------------------------------------------------------------

# values whose bits a careless format would lose: signed zero, the
# subnormal and normal extremes, and a value shortest repr must get exact
SPECIAL_FLOATS = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]


def _random_floats(rng, size, n_special):
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    flat = values.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, n_special), replace=False)
    flat[picks] = rng.choice(SPECIAL_FLOATS, size=picks.size)
    return values


@PROPERTY
@given(
    st.integers(1, 6),
    st.lists(st.integers(1, 9), min_size=0, max_size=3),
    st.integers(1, 5),
    st.integers(0, 6),
    st.one_of(st.none(), st.integers(0, 2**31)),
    st.integers(0, 2**32 - 1),
)
def test_checkpoint_round_trip_is_bit_exact(dim, hidden, classes, n_special, ckpt_seed, seed):
    shape = build_mlp(dim, hidden, classes, seed=seed)
    flat = _random_floats(derive_rng(seed), shape.params.size, n_special)
    model = MlpModel(shape.shapes, flat)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.ckpt"), Path(tmp, "second.ckpt")
        save_model(model, first, seed=ckpt_seed)
        loaded = load_model(first)
        save_model(loaded, second, seed=ckpt_seed)
        assert second.read_bytes() == first.read_bytes()
    assert _same_bits(loaded.params, flat)
    sizes = [dim, *hidden, classes]
    assert [l.weights.shape for l in loaded.layers] == list(zip(sizes, sizes[1:]))
    assert loaded.penultimate_index == max(len(hidden) - 1, 0)


@PROPERTY
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 3),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_dataset_csv_round_trip_is_bit_exact(
    n, dim, used_classes, unused_classes, n_special, seed
):
    rng = derive_rng(seed)
    num_classes = used_classes + unused_classes
    features = _random_floats(rng, (n, dim), n_special)
    ds = LabeledDataset(features, rng.integers(0, used_classes, size=n), num_classes)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        save_csv(ds, first)
        loaded = load_csv(first, num_classes)
        save_csv(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    assert _same_bits(loaded.features, ds.features)
    assert _same_bits(loaded.labels, ds.labels)
    assert loaded.num_classes == num_classes
    assert loaded.class_counts == ds.class_counts


# ---------------------------------------------------------------------------
# theory oracles: blocked and in place, bit for bit as the references
# ---------------------------------------------------------------------------

BLOCK = theory._BLOCK
SUB_BLOCK = theory._SUB_BLOCK


def _neighbours(z: float, ulps: int = 3) -> list[float]:
    """z and the ``ulps`` floats on either side of it."""
    out = [z]
    for direction in (np.inf, -np.inf):
        v = z
        for _ in range(ulps):
            v = float(np.nextafter(v, direction))
            out.append(v)
    return out


# the regime edges |z| = 0.46875*sqrt(2) and 4*sqrt(2) (erfc's argument is
# |z|/sqrt(2)), the saturated tails and values whose square overflows.
# Above |z| ~ 1.6e307 the reference returns NaN; see the saturation test.
_EDGES = np.array(
    [
        v * sign
        for edge in (0.46875 * np.sqrt(2.0), 4.0 * np.sqrt(2.0), 38.5)
        for v in _neighbours(float(edge))
        for sign in (1.0, -1.0)
    ]
    + [0.0, -0.0, 5e-324, -5e-324, 1e-17, 40.0, -40.0, 1e200, -1e200, 1e307, -1e307]
)


def _reference_cdf(z):
    with np.errstate(over="ignore"):  # the reference warns where |z| squares to inf
        return theory_reference.normal_cdf(z)


@PROPERTY
@given(
    st.integers(2, 7),
    st.integers(1, 40),
    st.integers(1, 3),
    st.integers(0, 2),
    st.lists(st.integers(0, 4), max_size=3),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
# four full chunks and a partial one, class 2 absent: an empty partition,
# then one holding only the absent class
@example(5, 23, 2, 1, [], 2, 0)
@example(5, 23, 2, 1, [2], 2, 0)
def test_one_pass_evaluation_matches_reference(
    chunk, n, used_classes, unused_classes, partition, num_steps, seed
):
    rng = derive_rng(seed)
    classes = used_classes + unused_classes
    partition = [c for c in partition if c < classes]
    ds = LabeledDataset(
        rng.normal(size=(n, 3)), rng.integers(0, used_classes, size=n), classes
    )
    model = build_mlp(3, (5,), classes, seed=seed)
    cfg = AttackConfig(epsilon=0.3, step_size=0.1, num_steps=num_steps)
    ref = evaluation_reference.evaluate(model, ds, cfg, partition, 7, chunk)
    with mock.patch.object(evaluation, "_EVAL_CHUNK", chunk):
        got = evaluation.evaluate(model, ds, cfg, partition, seed=7)
        with tempfile.TemporaryDirectory() as tmp:
            for attack in (None, cfg):
                new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
                evaluation.export_features(model, ds, new, attack, seed=7)
                evaluation_reference.export_features(model, ds, old, attack, 7, chunk)
                assert new.read_bytes() == old.read_bytes()
    assert repr(got) == repr(ref)
    assert set(range(used_classes, classes)) <= set(got.empty_classes)


@st.composite
def cdf_inputs(draw):
    shape = draw(
        st.one_of(
            st.sampled_from([(), (0,), (0, 3), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,)]),
            st.tuples(st.integers(1, 3 * BLOCK)),
            st.tuples(st.integers(1, 60), st.integers(1, 60)),
        )
    )
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.3, 1.0, 4.0, 12.0, 60.0]))
    z = rng.normal(size=shape) * scale
    if z.size:
        flat = z.reshape(-1)
        picks = rng.integers(0, flat.size, size=min(flat.size, _EDGES.size))
        flat[picks] = rng.choice(_EDGES, size=picks.size)
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if z.ndim == 2 and layout == "strided":  # every other column of a wider array
        wide = np.zeros((z.shape[0], 2 * z.shape[1]))
        wide[:, ::2] = z
        z = wide[:, ::2]
    elif z.ndim == 2 and layout == "transposed":
        z = np.ascontiguousarray(z.T).T
    return z


@PROPERTY
@given(cdf_inputs())
def test_normal_cdf_matches_reference_bit_for_bit(z):
    got, ref = theory.normal_cdf(z), _reference_cdf(z)
    if z.ndim == 0:
        assert type(got) is float and np.float64(got).tobytes() == np.float64(ref).tobytes()
    else:
        assert _same_bits(got, ref)


def test_normal_cdf_matches_reference_on_every_edge_value():
    got, ref = theory.normal_cdf(_EDGES), _reference_cdf(_EDGES)
    assert _same_bits(got, ref)
    for v in _EDGES:  # as Python floats, one at a time
        assert np.float64(theory.normal_cdf(float(v))).tobytes() == np.float64(
            _reference_cdf(float(v))
        ).tobytes()


def test_normal_cdf_saturates_up_to_the_largest_float():
    # the reference's exponent split overflows to inf * 0 = NaN here
    top = np.finfo(np.float64).max
    z = np.array([2e307, -2e307, top, -top])
    assert theory.normal_cdf(z).tolist() == [1.0, 0.0, 1.0, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(theory_reference.normal_cdf(z)).all()


@PROPERTY
@given(
    st.sampled_from([0.5, 1.0, 2.0, 10.0, 1e-3, 1e-300, 1e100]),
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0, 1e-100]),
    st.sampled_from([1, 5, 20]),
    st.sampled_from([1.0, 20.0, 500.0]),
    st.sampled_from([-3.0, -1.5, 0.0, 1.5, 3.0]),
    st.sampled_from(list(StdConvention)),
    st.one_of(
        st.sampled_from(
            [3, SUB_BLOCK - 1, SUB_BLOCK, SUB_BLOCK + 1, BLOCK - 1, BLOCK, BLOCK + 1,
             BLOCK + SUB_BLOCK + 1, 2 * BLOCK + 1, 100_000]
        ),
        st.integers(3, 3 * BLOCK),
    ),
)
# the lemma defaults (K 20, 100,000 points) on the README grid
@example(1.0, 1.0, 5, 20.0, 1.5, StdConvention.SUMMED, 100_000)
@example(0.5, 4.0, 20, 20.0, -1.5, StdConvention.EXACT, 100_000)
# risk curves that are flat or saturated at float resolution, where bounds
# tie with the minimum; at eta 1e-300 and log rho/K -1.5 blocks with unequal
# bounds hold the same minimum, and the lowest grid index must win
@example(1e-300, 1.0, 1, 20.0, 1.5, StdConvention.SUMMED, 100_000)
@example(1e-300, 1.0, 1, 20.0, -1.5, StdConvention.SUMMED, 100_000)
@example(1e100, 1.0, 1, 20.0, -1.5, StdConvention.EXACT, 100_000)
@example(1.0, 1e-100, 5, 20.0, 0.0, StdConvention.SUMMED, 100_000)
# a risk of exactly 0 everywhere, one kept run past the _BLOCK cap by a
# sub-block and a point
@example(10.0, 0.1, 1, 20.0, 0.0, StdConvention.SUMMED, BLOCK + SUB_BLOCK + 1)
# one kept run of 14,176 points from mid-grid, cut at the _BLOCK cap
@example(0.5, 4.0, 1, 20.0, 0.0, StdConvention.SUMMED, 100_000)
# the minimum risk, about 5e-313, is subnormal and lies mid-grid, far below
# the floor of the prune threshold
@example(3.78, 0.1, 1, 20.0, -1.5, StdConvention.SUMMED, 100_000)
def test_grid_search_bias_matches_reference(eta, sigma, dim, k, log_ratio, conv, num_points):
    # eta 10 with sigma 0.1 gives a risk of exactly 0 over many blocks: the
    # first grid point of the minimum must win, as in np.argmin
    spec = GaussianMixtureSpec(eta, sigma, dim, k)
    rho = k * float(np.exp(log_ratio))
    got = theory.grid_search_bias(spec, rho, conv, num_points)
    with np.errstate(over="ignore"):  # the reference squares huge Z-scores
        ref = theory_reference.grid_search_bias(spec, rho, conv, num_points)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


@PROPERTY
@given(
    st.floats(-1e300, 1e300),
    st.floats(-1e300, 1e300),
    st.sampled_from([3, 4, SUB_BLOCK + 1, BLOCK + 1, 100_001]),
    st.lists(st.floats(0.0, 1.0), max_size=16),
)
# brackets near -1e300 and 1e300; in the first the last index's
# idx * step + lo falls short of hi, which linspace sets it to
@example(-1e300, 9.9e299, 4, [])
@example(-1e300, -9.99e299, 8193, [0.5])
@example(9.99e299, 1e300, 100_001, [0.25, 0.75])
def test_grid_points_are_linspace_points(a, b, num_points, fractions):
    lo, hi = sorted((a, b))
    # linspace divides another way once the step underflows to 0, which the
    # grid search's brackets, at least 2 wide, never reach
    assume((hi - lo) / (num_points - 1) > 0.0)
    idx = np.array([0, *(int(f * (num_points - 1)) for f in fractions), num_points - 1])
    got = theory._grid_points(lo, hi, num_points, idx)
    assert _same_bits(got, np.linspace(lo, hi, num_points)[idx])


def _float_sweep(center: float, n: int, stride: int) -> np.ndarray:
    """About n sorted floats around ``center``, ``stride`` ULPs apart, on
    the side of zero that ``center`` is on."""
    bits = np.abs(np.float64(center)).view(np.int64) + stride * np.arange(-(n // 2), n - n // 2)
    bits = bits[(bits >= 0) & (bits < np.float64(np.inf).view(np.int64))]
    return np.sort(np.copysign(bits.view(np.float64), center))


def _assert_cdf_drops_inside_prune_slack(z: np.ndarray) -> None:
    # the bounded grid search assumes Phi never falls between increasing
    # inputs by more than a small part of its slack
    p = theory.normal_cdf(z)
    drop = p[:-1] - p[1:]
    allowed = 1e-6 * (theory._PRUNE_SLACK * p[:-1] + np.finfo(np.float64).tiny)
    assert (drop <= allowed).all(), float(np.max(drop / np.maximum(p[:-1], 1e-300)))


# Phi's regime cuts (|z| = 0.46875*sqrt(2) and 4*sqrt(2)), its subnormal
# tail and saturation, and the Phi ~ 0.16 region with the largest drops
@pytest.mark.parametrize(
    "center", [0.46875 * np.sqrt(2.0), 4.0 * np.sqrt(2.0), 37.5, 38.5, 1.0]
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("stride", [1, 2**12, 2**24, 2**36])
def test_normal_cdf_is_monotone_to_within_the_prune_slack(center, sign, stride):
    _assert_cdf_drops_inside_prune_slack(_float_sweep(sign * center, 200_000, stride))


@PROPERTY
@given(
    st.floats(-45.0, 45.0),
    st.sampled_from([1, 3, 2**10, 2**20, 2**30, 2**40]),
)
def test_normal_cdf_is_monotone_in_random_windows(center, stride):
    _assert_cdf_drops_inside_prune_slack(_float_sweep(center, 20_000, stride))


@PROPERTY
@given(
    st.sampled_from([1, 3, 20]),
    st.integers(1, 3),
    st.integers(-1, 1),
    st.sampled_from([1, -1]),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_monte_carlo_matches_reference(dim, chunks, offset, label, bias, seed):
    # n_samples one below, at and one above a multiple of half a chunk:
    # a chunk holds BLOCK // dim pairs, so this crosses seams and odd tails
    n_samples = chunks * (BLOCK // dim) + offset
    spec = GaussianMixtureSpec(0.4, 1.3, dim, 5.0)
    clf = LinearClassifier.all_ones(dim, bias)
    got = theory.monte_carlo_classwise_error(clf, spec, label, n_samples, seed)
    ref = theory_reference.monte_carlo_classwise_error(clf, spec, label, n_samples, seed)
    assert got == ref
