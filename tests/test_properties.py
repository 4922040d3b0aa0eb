"""Hypothesis properties of the training inner loop (the in-place
separation loss against its reference, the input-only backward pass
against the full one, and PGD containment) and of the blocked theory
oracles against their whole-array references."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import theory_reference
from separation_reference import reference_separation_loss
from srat import theory
from srat.attack import AttackConfig, pgd_attack
from srat.losses import LossConfig, separation_loss
from srat.mlp import backward, build_mlp, forward
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


# ---------------------------------------------------------------------------
# theory oracles: blocked and in place, bit for bit as the references
# ---------------------------------------------------------------------------

BLOCK = theory._BLOCK


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
    st.sampled_from([0.5, 1.0, 2.0, 10.0, 1e-3]),
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0]),
    st.sampled_from([1, 5, 20]),
    st.sampled_from([1.0, 20.0, 500.0]),
    st.sampled_from([-3.0, -1.5, 0.0, 1.5, 3.0]),
    st.sampled_from(list(StdConvention)),
    st.one_of(
        st.sampled_from([3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
        st.integers(3, 3 * BLOCK),
    ),
)
def test_grid_search_bias_matches_reference(eta, sigma, dim, k, log_ratio, conv, num_points):
    # eta 10 with sigma 0.1 gives a risk of exactly 0 over many blocks: the
    # first grid point of the minimum must win, as in np.argmin
    spec = GaussianMixtureSpec(eta, sigma, dim, k)
    rho = k * float(np.exp(log_ratio))
    got = theory.grid_search_bias(spec, rho, conv, num_points)
    ref = theory_reference.grid_search_bias(spec, rho, conv, num_points)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


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
    # n_samples one below, at and one above a whole number of chunks
    n_samples = chunks * (BLOCK // dim) + offset
    spec = GaussianMixtureSpec(0.4, 1.3, dim, 5.0)
    clf = LinearClassifier.all_ones(dim, bias)
    got = theory.monte_carlo_classwise_error(clf, spec, label, n_samples, seed)
    ref = theory_reference.monte_carlo_classwise_error(clf, spec, label, n_samples, seed)
    assert got == ref
