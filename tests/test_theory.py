"""Gaussian-mixture theory: closed forms against brute-force oracles."""

import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from srat.errors import DomainError
from srat.rand import derive_rng
import srat.theory
from srat.theory import (
    GaussianMixtureSpec,
    LinearClassifier,
    StdConvention,
    classwise_error,
    grid_search_bias,
    monte_carlo_classwise_error,
    normal_cdf,
    optimal_bias,
    verify_theorem1,
    verify_theorem2,
)
from theory_reference import reweighted_risk

BOTH = (StdConvention.SUMMED, StdConvention.EXACT)


# ---------------------------------------------------------------------------
# normal_cdf
# ---------------------------------------------------------------------------


def test_cdf_at_zero_is_exactly_half():
    assert normal_cdf(0.0) == 0.5


def test_cdf_saturates():
    assert abs(normal_cdf(40.0) - 1.0) <= 1e-15
    assert normal_cdf(-40.0) == 0.0


def test_cdf_matches_monte_carlo_at_minus_one():
    # Oracle: 1e7 standard-normal draws on the Philox stream keyed 20260809
    # gave Pr(z < -1) = 0.1588254 with 3 binomial stderr = 3.47e-4.
    assert abs(normal_cdf(-1.0) - 0.1588254) <= 3.47e-4


def test_cdf_symmetry():
    z = np.linspace(-8.0, 8.0, 20001)
    assert np.abs(normal_cdf(z) + normal_cdf(-z) - 1.0).max() <= 1e-14


def test_cdf_monotone():
    z = np.linspace(-12.0, 12.0, 50001)
    assert (np.diff(normal_cdf(z)) >= 0.0).all()


def test_cdf_derivative_matches_density():
    # Phi'(z) = exp(-z^2/2)/sqrt(2*pi); central differences across all
    # approximation branches, including the boundaries near 0.66 and 5.66.
    z = np.concatenate(
        [np.linspace(-7.5, 7.5, 3001), [-5.657, -0.663, 0.0, 0.663, 5.657]]
    )
    h = 1e-6
    fd = (normal_cdf(z + h) - normal_cdf(z - h)) / (2 * h)
    density = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    assert np.abs(fd - density).max() <= 1e-9


def test_cdf_matches_quadrature_oracle():
    # independent oracle: Phi(z) = 0.5 + integral of the density over
    # [0, z], composite Simpson with 20000 panels (error well under 1e-13)
    def simpson_cdf(z, panels=20000):
        t = np.linspace(0.0, z, 2 * panels + 1)
        f = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        h = (z - 0.0) / (2 * panels)
        integral = (h / 3.0) * (
            f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
        )
        return 0.5 + integral

    for z in (-8.0, -5.0, -2.5, -0.7, -0.1, 0.3, 1.0, 2.0, 4.5, 6.0, 8.0):
        assert abs(normal_cdf(z) - simpson_cdf(z)) <= 1e-12


def test_cdf_matches_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(-40.0, 40.0, 200_001)
    assert np.abs(normal_cdf(z) - special.ndtr(z)).max() <= 1e-15
    # relative error in the left tail, down to Phi(-37) ~ 6e-300
    z = np.linspace(-37.0, 0.0, 100_001)
    ref = special.ndtr(z)
    assert (np.abs(normal_cdf(z) - ref) / ref).max() <= 1e-12


def test_cdf_rejects_non_finite():
    with pytest.raises(DomainError):
        normal_cdf(float("nan"))
    with pytest.raises(DomainError):
        normal_cdf(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# Spec and classifier validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(DomainError):
        GaussianMixtureSpec(0.0, 1.0, 1, 1.0)
    with pytest.raises(DomainError):
        GaussianMixtureSpec(1.0, -1.0, 1, 1.0)
    with pytest.raises(DomainError):
        GaussianMixtureSpec(1.0, 1.0, 0, 1.0)
    with pytest.raises(DomainError):
        GaussianMixtureSpec(1.0, 1.0, 1, 0.5)


@pytest.mark.parametrize(
    "eta,sigma",
    [(1e200, 1.0), (1.0, 1e200), (1.0, 1e-200), (1e10, 1e-150), (1e-300, 1e100)],
    ids=["eta_squared_overflows", "sigma_squared_overflows", "sigma_squared_is_zero",
         "separability_overflows", "separability_is_zero"],
)
def test_spec_rejects_squares_and_separability_out_of_range(eta, sigma):
    with pytest.raises(DomainError):
        GaussianMixtureSpec(eta, sigma, 2, 4.0)


def test_separability_definition():
    spec = GaussianMixtureSpec(1.5, 2.0, 3, 4.0)
    assert spec.separability == 1.5 / 4.0


def test_classifier_validation():
    with pytest.raises(DomainError):
        LinearClassifier(0, 0.0)
    with pytest.raises(DomainError):
        LinearClassifier(2.0, 0.0)
    with pytest.raises(DomainError):
        LinearClassifier(2, np.nan)


# ---------------------------------------------------------------------------
# optimal_bias and the grid-search oracle
# ---------------------------------------------------------------------------


def test_bias_zero_at_rho_equal_k():
    for conv in BOTH:
        for spec in (
            GaussianMixtureSpec(1.0, 1.0, 1, 7.0),
            GaussianMixtureSpec(0.5, 2.0, 9, 123.0),
        ):
            assert optimal_bias(spec, spec.imbalance_ratio, conv) == 0.0


def test_bias_closed_form_examples():
    spec1 = GaussianMixtureSpec(1.0, 1.0, 1, math.e**2)
    assert optimal_bias(spec1, 1.0, StdConvention.SUMMED) == pytest.approx(-1.0)
    spec4 = GaussianMixtureSpec(1.0, 1.0, 4, math.e**2)
    assert optimal_bias(spec4, 1.0, StdConvention.EXACT) == pytest.approx(-1.0)
    assert optimal_bias(spec4, 1.0, StdConvention.SUMMED) == pytest.approx(-4.0)


def test_bias_examples_confirmed_by_grid_search():
    spec1 = GaussianMixtureSpec(1.0, 1.0, 1, math.e**2)
    spec4 = GaussianMixtureSpec(1.0, 1.0, 4, math.e**2)
    for spec, conv in (
        (spec1, StdConvention.SUMMED),
        (spec4, StdConvention.EXACT),
        (spec4, StdConvention.SUMMED),
    ):
        searched, res = grid_search_bias(spec, 1.0, conv, 100_000)
        assert abs(searched - optimal_bias(spec, 1.0, conv)) <= 2 * res


def test_grid_argmin_matches_closed_form_on_small_grid():
    for conv in BOTH:
        for eta in (0.5, 2.0):
            for sigma in (1.0, 2.0):
                for d in (1, 5):
                    for log_ratio in (-1.0, 0.0, 1.0):
                        spec = GaussianMixtureSpec(eta, sigma, d, 10.0)
                        rho = 10.0 * math.exp(log_ratio)
                        searched, res = grid_search_bias(spec, rho, conv, 20001)
                        assert abs(searched - optimal_bias(spec, rho, conv)) <= 2 * res


def test_a_flat_risk_is_scored_as_one_run(monkeypatch):
    # at rho = K the risk is pi+ * (Phi(-b/s) + Phi(b/s)) once eta
    # vanishes: flat, so every sub-block is kept, and the kept sub-blocks,
    # all adjacent, are scored as one run in blocks of _BLOCK points
    sizes = []
    real = srat.theory._weighted_risk

    def spy(b_minus, b_plus, *args):
        sizes.append(len(b_minus))
        return real(b_minus, b_plus, *args)

    monkeypatch.setattr(srat.theory, "_weighted_risk", spy)
    grid_search_bias(GaussianMixtureSpec(1e-300, 1.0, 1, 2.0), 2.0, StdConvention.SUMMED, 20_000)
    block = srat.theory._BLOCK
    # the sub-block bounds, the best sub-block, then the run
    assert sizes == [625, 32, block, block, 20_000 - 2 * block]


def test_grid_search_holds_no_grid_long_array():
    # the bound pass holds ceil(n/32) points and each scan at most _BLOCK,
    # about 18 MB at 10^7 points; the whole grid alone takes 80 MB
    spec = GaussianMixtureSpec(1, 1, 5, 20)
    tracemalloc.start()
    try:
        searched, res = grid_search_bias(spec, 20, StdConvention.EXACT, 10_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(searched - optimal_bias(spec, 20, StdConvention.EXACT)) <= 2 * res
    assert peak < 40e6


def test_bias_antisymmetric_in_log_rho_over_k():
    spec = GaussianMixtureSpec(1.3, 0.8, 6, 5.0)
    for conv in BOTH:
        for r in (1.7, 4.0, 20.0):
            plus = optimal_bias(spec, spec.imbalance_ratio * r, conv)
            minus = optimal_bias(spec, spec.imbalance_ratio / r, conv)
            assert plus == pytest.approx(-minus, abs=1e-12)


def test_bias_rejects_bad_rho():
    spec = GaussianMixtureSpec(1.0, 1.0, 1, 2.0)
    with pytest.raises(DomainError):
        optimal_bias(spec, 0.0, StdConvention.SUMMED)
    with pytest.raises(DomainError):
        optimal_bias(spec, -1.0, StdConvention.SUMMED)


def test_bias_and_grid_reject_an_overflowing_bias():
    spec = GaussianMixtureSpec(1e-10, 1e150, 5, 20.0)  # sigma^2/eta = 1e310
    with pytest.raises(DomainError, match="overflows"):
        optimal_bias(spec, 1.0, StdConvention.SUMMED)
    with pytest.raises(DomainError, match="overflows"):
        grid_search_bias(spec, 1.0, StdConvention.SUMMED, 100_000)
    # a finite bias whose 20-fold bracket is not
    spec = GaussianMixtureSpec(1.0, 1e154, 1, 2.0)
    with pytest.raises(DomainError, match="bracket"):
        grid_search_bias(spec, 1.0, StdConvention.EXACT, 100_000)


# ---------------------------------------------------------------------------
# classwise_error
# ---------------------------------------------------------------------------


def test_classwise_error_basic_value():
    clf = LinearClassifier.all_ones(1, 0.0)
    spec = GaussianMixtureSpec(1.0, 1.0, 1, 1.0)
    err = classwise_error(clf, spec, 1, StdConvention.SUMMED)
    assert err == pytest.approx(normal_cdf(-1.0))
    # Oracle: 1e7 draws from N(eta, sigma^2) with seed 42 misclassified at
    # rate 0.1586881 (3 binomial stderr = 3.47e-4).
    assert abs(err - 0.1586881) <= 3.47e-4


def test_classwise_error_symmetric_at_zero_bias():
    for conv in BOTH:
        clf = LinearClassifier.all_ones(5, 0.0)
        spec = GaussianMixtureSpec(0.7, 1.4, 5, 50.0)
        assert classwise_error(clf, spec, 1, conv) == classwise_error(
            clf, spec, -1, conv
        )


def test_classwise_error_limits_in_bias():
    spec = GaussianMixtureSpec(1.0, 1.0, 2, 1.0)
    far = LinearClassifier.all_ones(2, 1e6)
    assert classwise_error(far, spec, 1, StdConvention.SUMMED) == pytest.approx(1.0)
    assert classwise_error(far, spec, -1, StdConvention.SUMMED) == pytest.approx(0.0)


def test_classwise_error_monotone_in_bias():
    spec = GaussianMixtureSpec(1.0, 2.0, 3, 4.0)
    biases = np.linspace(-6.0, 6.0, 101)
    for conv in BOTH:
        plus = [classwise_error(LinearClassifier.all_ones(3, b), spec, 1, conv) for b in biases]
        minus = [classwise_error(LinearClassifier.all_ones(3, b), spec, -1, conv) for b in biases]
        assert (np.diff(plus) >= 0).all()
        assert (np.diff(minus) <= 0).all()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: classwise_error(
                LinearClassifier.all_ones(2, 0.0), GaussianMixtureSpec(1.0, 1.0, 2, 1.0), 0,
                StdConvention.SUMMED,
            ),
            "label must be",
        ),
        (
            lambda: monte_carlo_classwise_error(
                LinearClassifier.all_ones(2, 0.0), GaussianMixtureSpec(1.0, 1.0, 3, 1.0), 1, 10,
                seed=0,
            ),
            "dimension mismatch",
        ),
    ],
    ids=["label_0", "monte_carlo_dim"],
)
def test_theory_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_classwise_error_dimension_mismatch():
    spec = GaussianMixtureSpec(1.0, 1.0, 3, 1.0)
    with pytest.raises(DomainError):
        classwise_error(LinearClassifier.all_ones(2, 0.0), spec, 1, StdConvention.SUMMED)


# ---------------------------------------------------------------------------
# reweighted_risk
# ---------------------------------------------------------------------------


def test_risk_balanced_symmetric_case():
    spec = GaussianMixtureSpec(1.0, 1.0, 2, 1.0)
    clf = LinearClassifier.all_ones(2, 0.0)
    risk = reweighted_risk(clf, spec, 1.0, StdConvention.SUMMED)
    assert risk == pytest.approx(classwise_error(clf, spec, 1, StdConvention.SUMMED))


def test_risk_grid_argmin_is_closed_form_bias():
    spec = GaussianMixtureSpec(1.0, 1.5, 3, 8.0)
    for conv in BOTH:
        for rho in (1.0, 8.0, 20.0):
            searched, res = grid_search_bias(spec, rho, conv, 100_000)
            assert abs(searched - optimal_bias(spec, rho, conv)) <= 2 * res


def test_risk_argmin_zero_at_rho_k():
    spec = GaussianMixtureSpec(1.0, 1.0, 5, 12.0)
    for conv in BOTH:
        searched, res = grid_search_bias(spec, 12.0, conv, 100_000)
        assert abs(searched) <= 2 * res


def test_risk_rejects_nonpositive_rho():
    spec = GaussianMixtureSpec(1.0, 1.0, 1, 1.0)
    clf = LinearClassifier.all_ones(1, 0.0)
    with pytest.raises(DomainError):
        reweighted_risk(clf, spec, 0.0, StdConvention.SUMMED)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_monte_carlo_is_deterministic_per_seed():
    clf = LinearClassifier.all_ones(3, 0.2)
    spec = GaussianMixtureSpec(1.0, 1.0, 3, 2.0)
    a = monte_carlo_classwise_error(clf, spec, 1, 10_000, seed=5)
    b = monte_carlo_classwise_error(clf, spec, 1, 10_000, seed=5)
    assert a == b
    # another seed is another stream; two seeds may still tie by chance
    # (about 1 % at these counts), eight all alike would not
    others = {monte_carlo_classwise_error(clf, spec, 1, 10_000, seed=s) for s in range(5, 13)}
    assert len(others) > 1


@pytest.mark.parametrize("label", [1, -1])
def test_monte_carlo_pair_straddles_the_class_mean(label):
    # with the bias on the class mean, w.x - b is sigma*sum(z) for a sample
    # and -sigma*sum(z) for its reflection: exactly one of the two errs
    spec = GaussianMixtureSpec(0.7, 1.3, 4, 2.0)
    clf = LinearClassifier.all_ones(4, label * spec.eta * spec.dim)
    for seed in range(64):
        assert monte_carlo_classwise_error(clf, spec, label, 2, seed=seed) == 0.5


def test_monte_carlo_spread_is_below_the_binomial_bound():
    # antithetic pairs have covariance -min(p, 1-p)^2, so the variance of
    # the estimate is (p(1-p) - min(p, 1-p)^2)/n, about 0.57 of the
    # binomial p(1-p)/n at p = 0.3; a spread of 400 seeds resolves that
    # to about 7 %
    spec = GaussianMixtureSpec(0.5, 1.0, 5, 3.0)
    clf = LinearClassifier.all_ones(5, 1.33)
    p = classwise_error(clf, spec, 1, StdConvention.EXACT)
    assert 0.28 < p < 0.32
    n, seeds = 2000, 400
    est = np.array([monte_carlo_classwise_error(clf, spec, 1, n, seed=s) for s in range(seeds)])
    assert est.var(ddof=1) < p * (1 - p) / n
    assert abs(est.mean() - p) <= 3 * math.sqrt(p * (1 - p) / (n * seeds))


def test_monte_carlo_draws_one_full_dimensional_normal_per_pair(monkeypatch):
    draws = []

    class Spy:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *, out):
            draws.append(out.shape)
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(srat.theory, "derive_rng", lambda seed: Spy(derive_rng(seed)))
    spec = GaussianMixtureSpec(1.0, 1.0, 3, 2.0)
    pairs = srat.theory._BLOCK // 3  # one chunk
    n = 4 * pairs + 5  # two full chunks and three pairs, the last one cut
    monte_carlo_classwise_error(LinearClassifier.all_ones(3, 0.2), spec, 1, n, seed=0)
    assert draws == [(pairs, 3), (pairs, 3), (3, 3)]


@pytest.mark.parametrize("label", [1, -1])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_monte_carlo_counts_a_score_on_the_bias_as_an_error(monkeypatch, label, dim):
    # all-zero draws put every sample and reflection on the class mean,
    # whose score label*eta*d is exact for eta 0.5 and d <= 4: sign(0)
    # errs for both labels
    class Zeros:
        def standard_normal(self, *, out):
            out[...] = 0.0

    monkeypatch.setattr(srat.theory, "derive_rng", lambda seed: Zeros())
    spec = GaussianMixtureSpec(0.5, 1.0, dim, 2.0)
    clf = LinearClassifier.all_ones(dim, label * spec.eta * dim)
    assert monte_carlo_classwise_error(clf, spec, label, 7, seed=0) == 1.0


def test_monte_carlo_single_sample_is_binary():
    clf = LinearClassifier.all_ones(2, 0.0)
    spec = GaussianMixtureSpec(1.0, 1.0, 2, 1.0)
    for seed in range(8):
        assert monte_carlo_classwise_error(clf, spec, 1, 1, seed=seed) in (0.0, 1.0)


def test_monte_carlo_rejects_bad_inputs():
    clf = LinearClassifier.all_ones(2, 0.0)
    spec = GaussianMixtureSpec(1.0, 1.0, 2, 1.0)
    with pytest.raises(DomainError):
        monte_carlo_classwise_error(clf, spec, 1, 0, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_classwise_error(clf, spec, 2, 10, seed=0)


def test_analytic_matches_monte_carlo_random_cases():
    # Smaller sibling of the acceptance check: 6 random pairs at 2e5 draws.
    rng = derive_rng(77)
    for case in range(6):
        d = int(rng.integers(1, 7))
        spec = GaussianMixtureSpec(
            float(rng.uniform(0.4, 1.5)),
            float(rng.uniform(0.6, 2.5)),
            d,
            float(np.exp(rng.uniform(0, 4))),
        )
        clf = LinearClassifier.all_ones(d, float(rng.uniform(-2, 2)))
        label = int(rng.choice([-1, 1]))
        p = classwise_error(clf, spec, label, StdConvention.EXACT)
        mc = monte_carlo_classwise_error(clf, spec, label, 200_000, seed=1000 + case)
        se = math.sqrt(max(p * (1 - p), 1e-12) / 200_000)
        assert abs(p - mc) <= 3 * se


# ---------------------------------------------------------------------------
# Theorems
# ---------------------------------------------------------------------------


def _example_pair(k=math.e**4):
    return (
        GaussianMixtureSpec(1.0, 1.0, 5, k),
        GaussianMixtureSpec(1.0, 2.0, 5, k),
    )


def test_theorem1_reference_pair_holds():
    spec1, spec2 = _example_pair()
    r_summed = verify_theorem1(spec1, spec2, StdConvention.SUMMED)
    assert r_summed.holds and r_summed.precondition_met
    # log K = 4 clears 2*eta^2/(s1*s2) = 1 but not the EXACT analogue
    # 2*d*eta^2/(s1*s2) = 5; the ordering still holds there.
    r_exact = verify_theorem1(spec1, spec2, StdConvention.EXACT)
    assert r_exact.holds and not r_exact.precondition_met


def test_theorem1_gaps_cross_checked_by_monte_carlo():
    spec1, spec2 = _example_pair()
    report = verify_theorem1(spec1, spec2, StdConvention.EXACT)

    def mc_gap(spec, seed):
        clf = LinearClassifier.all_ones(spec.dim, optimal_bias(spec, 1.0, StdConvention.EXACT))
        em = monte_carlo_classwise_error(clf, spec, -1, 400_000, seed=seed)
        ep = monte_carlo_classwise_error(clf, spec, 1, 400_000, seed=seed + 1)
        return em - ep

    assert report.lhs == pytest.approx(mc_gap(spec1, 50), abs=4e-3)
    assert report.rhs == pytest.approx(mc_gap(spec2, 60), abs=4e-3)


def test_theorem1_margin_resolves_saturated_gaps():
    # at log K = 40 both gaps round to 1.0; the margin comes from the tails:
    # err(-1) sits at z = 19 and 39.5 (reflected difference), err(+1) at
    # z = -21 and -40.5 (direct difference), and Phi(-39.5) = Phi(-40.5) = 0
    k = math.exp(40.0)
    report = verify_theorem1(
        GaussianMixtureSpec(1.0, 1.0, 5, k),
        GaussianMixtureSpec(1.0, 2.0, 5, k),
        StdConvention.SUMMED,
    )
    assert report.lhs == report.rhs == 1.0
    expected = normal_cdf(-19.0) + normal_cdf(-21.0)
    assert report.margin == pytest.approx(expected, rel=1e-9)
    assert report.holds and report.precondition_met


def test_theorem1_rejects_degenerate_pairs():
    k = math.e**3
    a = GaussianMixtureSpec(1.0, 1.0, 4, k)
    with pytest.raises(DomainError):
        verify_theorem1(a, GaussianMixtureSpec(1.0, 1.0, 4, k), StdConvention.SUMMED)
    with pytest.raises(DomainError):
        verify_theorem1(a, GaussianMixtureSpec(1.0, 2.0, 3, k), StdConvention.SUMMED)
    with pytest.raises(DomainError):
        verify_theorem1(a, GaussianMixtureSpec(1.0, 2.0, 4, math.e**2), StdConvention.SUMMED)


@pytest.mark.parametrize("verify", [verify_theorem1, verify_theorem2])
@pytest.mark.parametrize("conv", list(StdConvention))
def test_precondition_needs_the_canonical_deviations_in_order(verify, conv):
    # spec2 rescaled to eta 1 has sigma 3 * 1 / 4 = 0.75 < 1; log K = 13.8
    # clears both thresholds 2 * d * eta^2 / (s1 * s2c) = 2.67 at d = 1
    spec1 = GaussianMixtureSpec(1.0, 1.0, 1, 1e6)
    spec2 = GaussianMixtureSpec(4.0, 3.0, 1, 1e6)
    assert not verify(spec1, spec2, conv).precondition_met


@pytest.mark.parametrize("verify", [verify_theorem1, verify_theorem2])
@pytest.mark.parametrize("conv, threshold", [(StdConvention.SUMMED, 4.0), (StdConvention.EXACT, 12.0)])
def test_precondition_threshold_grows_with_eta_squared(verify, conv, threshold):
    # eta 2, sigmas 1 and 2, d 3: 2 * eta^2 / (s1 * s2) = 4 under SUMMED,
    # times d = 12 under EXACT; the precondition flips as log K crosses it
    spec = functools.partial(GaussianMixtureSpec, 2.0, dim=3)
    for log_k, met in ((threshold - 0.5, False), (threshold + 0.5, True)):
        k = math.exp(log_k)
        assert verify(spec(1.0, imbalance_ratio=k), spec(2.0, imbalance_ratio=k), conv
                      ).precondition_met is met


def test_theorem1_precondition_flips_over_k_scan():
    # The sufficient condition under SUMMED is log K > 2*eta^2/(s1*s2) = 1.
    flips = []
    for log_k in np.linspace(0.2, 2.0, 10):
        k = math.exp(log_k)
        r = verify_theorem1(
            GaussianMixtureSpec(1.0, 1.0, 5, k),
            GaussianMixtureSpec(1.0, 2.0, 5, k),
            StdConvention.SUMMED,
        )
        flips.append(r.precondition_met)
    assert flips[0] is False and flips[-1] is True
    assert flips == sorted(flips)  # single flip


def test_theorem2_reference_pair_holds():
    spec1, spec2 = _example_pair()
    for conv in BOTH:
        r = verify_theorem2(spec1, spec2, conv)
        assert r.holds
        # the fully reweighted classifier sits at exactly zero bias
        assert optimal_bias(spec1, spec1.imbalance_ratio, conv) == 0.0
        assert optimal_bias(spec2, spec2.imbalance_ratio, conv) == 0.0


def test_theorem2_identical_specs_rejected():
    spec = GaussianMixtureSpec(1.0, 1.0, 5, math.e**4)
    with pytest.raises(DomainError):
        verify_theorem2(spec, spec, StdConvention.SUMMED)


@pytest.mark.parametrize("conv", BOTH)
def test_a_tie_holds_for_neither_theorem(conv):
    # at K = 1 the rho = 1 bias is 0, so err(-1) = err(+1) on each mixture
    # (Theorem 1), and the rho = K classifier is the rho = 1 one (Theorem
    # 2): both sides and the margin are exactly 0, and a tie is no strict
    # ordering
    spec1 = GaussianMixtureSpec(1.0, 0.5, 5, 1.0)
    spec2 = GaussianMixtureSpec(1.0, 2.0, 5, 1.0)
    for verify in (verify_theorem1, verify_theorem2):
        r = verify(spec1, spec2, conv)
        assert (r.lhs, r.rhs, r.margin, r.holds) == (0.0, 0.0, 0.0, False), verify.__name__


@pytest.mark.parametrize("conv", BOTH)
def test_theorem_margins_match_50_digit_tails(conv):
    # each verifier's margin against Phi at 50 digits on the same Z-scores;
    # the stable tail differences agree to within 1e-12 relative, down to
    # margins near 1e-40 and up to K = 1e6, where err(-1) sits in the right
    # tail. The pairs share eta (a power of 2), so spec2 is its own
    # canonical form.
    mpmath = pytest.importorskip("mpmath")
    for eta, (s1, s2), d, k in itertools.product(
        (0.5, 1.0, 2.0), ((0.5, 1.0), (1.0, 2.0), (1.0, 4.0)), (1, 5, 20), (1.5, 20.0, 1e3, 1e6)
    ):
        spec1, spec2 = GaussianMixtureSpec(eta, s1, d, k), GaussianMixtureSpec(eta, s2, d, k)

        def err(spec, rho, label):
            z = srat.theory._zscore(optimal_bias(spec, rho, conv), label, spec, conv)
            return mpmath.ncdf(z)

        with mpmath.workdps(50):
            exact = {
                verify_theorem1: (err(spec2, 1.0, -1) - err(spec1, 1.0, -1))
                - (err(spec2, 1.0, 1) - err(spec1, 1.0, 1)),
                verify_theorem2: (err(spec2, k, 1) - err(spec2, 1.0, 1))
                - (err(spec1, k, 1) - err(spec1, 1.0, 1)),
            }
        for verify, margin in exact.items():
            got = verify(spec1, spec2, conv).margin
            assert math.isclose(got, float(margin), rel_tol=1e-9), (verify.__name__, spec1, spec2)


def test_the_abstracts_observations_are_theorem_instances():
    # The worst l-inf shift of budget eps < eta against the all-ones rule
    # moves each class mean eps toward the other, so robust accuracy is
    # clean accuracy on the mixture with mean eta - eps: the same sigma and
    # a lower separability. Both theorems then compare the clean mixture
    # with its attacked one. Theorem 2 holds on the whole grid. Theorem 1
    # holds wherever its margin resolves; elsewhere Phi saturates at large
    # K, both gaps round to 1.0 and the margin underflows to 0.
    for conv, eta, sigma, d, eps_frac, k in itertools.product(
        BOTH,
        (0.25, 0.5, 1.0, 2.0),
        (0.5, 1.0, 2.0, 4.0),
        (1, 5, 10, 50),
        (0.1, 0.3, 0.5, 0.9),
        (1.5, 2.0, 5.0, 10.0, 20.0, 100.0, 1000.0, 1e6),
    ):
        clean = GaussianMixtureSpec(eta, sigma, d, k)
        attacked = GaussianMixtureSpec(eta - eps_frac * eta, sigma, d, k)
        assert verify_theorem2(clean, attacked, conv).holds, (clean, attacked, conv)
        r = verify_theorem1(clean, attacked, conv)
        if r.margin != 0.0:
            assert r.holds, r
        else:
            assert r.lhs == r.rhs and k >= 1000, r


def test_adversarial_minority_keeps_no_more_of_its_accuracy():
    # Observation 1 as a fraction: the minority's accuracy at imbalance K
    # over its accuracy at K = 1, for the rho = 1 rule. The natural rule is
    # optimal for the clean mixture, the adversarial rule for the attacked
    # one (mean eta - eps, as above); the latter is scored clean and under
    # the attack. Neither of its fractions may exceed the natural one, and
    # a tie is allowed only where Phi saturates and both are 0 or 1.
    conv = StdConvention.EXACT

    def minority_accuracy(trained, scored, k):
        rule = GaussianMixtureSpec(trained.eta, trained.sigma, trained.dim, k)
        clf = LinearClassifier(scored.dim, optimal_bias(rule, 1.0, conv))
        return 1.0 - classwise_error(clf, scored, -1, conv)

    def kept(trained, scored, k):
        return minority_accuracy(trained, scored, k) / minority_accuracy(trained, scored, 1.0)

    ties = 0
    for eta, sigma, d, eps_frac, k in itertools.product(
        (0.25, 0.5, 1.0, 2.0),
        (0.5, 1.0, 2.0, 4.0),
        (1, 5, 10, 50),
        (0.1, 0.3, 0.5, 0.9),
        (1.5, 2.0, 5.0, 10.0, 20.0, 100.0, 1000.0),
    ):
        clean = GaussianMixtureSpec(eta, sigma, d, k)
        attacked = GaussianMixtureSpec(eta - eps_frac * eta, sigma, d, k)
        natural = kept(clean, clean, k)
        for adversarial in (kept(attacked, clean, k), kept(attacked, attacked, k)):
            assert adversarial <= natural, (clean, attacked, adversarial, natural)
            if adversarial == natural:
                assert natural in (0.0, 1.0), (clean, attacked, natural)
                ties += 1
    assert ties < 3584 // 4  # most points resolve the two fractions apart


def test_theorems_hold_on_reduced_grid():
    sigmas = (0.5, 1.0, 2.0, 4.0)
    for conv in BOTH:
        for eta in (0.5, 1.0, 2.0):
            for d in (1, 5):
                for log_k in (3.0, 6.0):
                    k = math.exp(log_k)
                    for i, s1 in enumerate(sigmas):
                        for s2 in sigmas[i + 1 :]:
                            spec1 = GaussianMixtureSpec(eta, s1, d, k)
                            spec2 = GaussianMixtureSpec(eta, s2, d, k)
                            for verify in (verify_theorem1, verify_theorem2):
                                r = verify(spec1, spec2, conv)
                                if r.precondition_met:
                                    assert r.holds


def test_report_serializes_to_json():
    spec1, spec2 = _example_pair()
    report = verify_theorem1(spec1, spec2, StdConvention.SUMMED)
    doc = json.loads(json.dumps(report.to_dict()))
    assert set(doc) == {
        "theorem",
        "lhs",
        "rhs",
        "margin",
        "holds",
        "precondition_met",
        "spec1",
        "spec2",
        "convention",
    }
    assert doc["convention"] == "summed"
    assert doc["spec1"]["dim"] == 5
