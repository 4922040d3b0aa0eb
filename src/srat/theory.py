"""Closed-form analysis of reweighted linear classification on a symmetric
binary Gaussian mixture, plus Monte Carlo and grid-search oracles.

Model
-----
Labels y ∈ {-1, +1} with Pr(y=+1) = K * Pr(y=-1) for an imbalance ratio
K >= 1. Features are x ~ N(y*mu, sigma^2 I) in d dimensions with
mu = (eta, ..., eta). A linear classifier predicts sign(w.x - b). The
reweighted risk multiplies the minority ("-1") class error by rho > 0.
Separability is defined as S = eta / sigma^2.

For the all-ones weight vector, w.x is a sum of d independent normals,
so every class-conditional error is a single standard-normal CDF value.
Two Z-score conventions are implemented side by side:

* ``StdConvention.SUMMED``   scales by d*sigma, i.e. it treats the standard
  deviation of the coordinate sum as the *sum* of the per-coordinate
  deviations. The matching minimizing bias is 0.5*log(rho/K)*d*sigma^2/eta.
* ``StdConvention.EXACT``   scales by sqrt(d)*sigma, the true standard
  deviation of the sum. The same stationarity derivation then yields
  0.5*log(rho/K)*sigma^2/eta, with no d factor.

Both conventions describe the same one-dimensional family of classifiers;
they differ in which risk surface the bias minimizes. Every theorem check
here runs under a caller-chosen convention and reports the sufficient
"K large enough" precondition derived for that convention, so reports are
never asserted outside their hypothesis.

The normal CDF is computed from a rational-approximation erfc accurate to
a few ULPs. The test suite validates it against Monte Carlo sampling,
symmetry identities and quadrature, and, where SciPy is installed,
against ``scipy.special.ndtr``: absolute error at most 1e-15 on
[-40, 40] and relative error at most 1e-12 on [-37, 0].

The brute-force oracles stream through fixed buffers: ``normal_cdf`` and
the risk in ``grid_search_bias`` work in blocks of ``_BLOCK`` elements,
and ``monte_carlo_classwise_error`` draws its samples into one reused
buffer of that size, so their temporaries come from the allocator's free
lists rather than fresh pages from the OS.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from srat.errors import DomainError
from srat.rand import derive_rng

__all__ = [
    "GaussianMixtureSpec",
    "LinearClassifier",
    "StdConvention",
    "TheoremReport",
    "classwise_error",
    "grid_search_bias",
    "monte_carlo_classwise_error",
    "normal_cdf",
    "optimal_bias",
    "optimal_classifier",
    "reweighted_risk",
    "verify_theorem1",
    "verify_theorem2",
]


class StdConvention(Enum):
    """Which standard deviation enters the Z-scores (see module docstring)."""

    SUMMED = "summed"
    EXACT = "exact"


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """The binary mixture: per-coordinate mean eta, deviation sigma,
    dimension dim, and imbalance ratio K = Pr(y=+1)/Pr(y=-1)."""

    eta: float
    sigma: float
    dim: int
    imbalance_ratio: float

    def __post_init__(self) -> None:
        for name in ("eta", "sigma", "imbalance_ratio"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(float(v))):
                raise DomainError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.eta <= 0:
            raise DomainError(f"eta must be > 0, got {self.eta}")
        if self.sigma <= 0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DomainError(f"dim must be an integer >= 1, got {self.dim!r}")
        if self.imbalance_ratio < 1:
            raise DomainError(
                f"imbalance_ratio must be >= 1, got {self.imbalance_ratio}"
            )
        # the closed forms square eta and divide by sigma^2
        if not self.eta * self.eta < math.inf:
            raise DomainError(f"eta^2 must be finite, got eta = {self.eta}")
        if not 0.0 < self.sigma * self.sigma < math.inf:
            raise DomainError(
                f"sigma^2 must be a positive finite float, got sigma = {self.sigma}"
            )
        if not 0.0 < self.separability < math.inf:
            raise DomainError(
                f"separability eta/sigma^2 must be a positive finite float, "
                f"got eta = {self.eta}, sigma = {self.sigma}"
            )

    @property
    def separability(self) -> float:
        return self.eta / self.sigma**2

    @property
    def majority_prior(self) -> float:
        return self.imbalance_ratio / (self.imbalance_ratio + 1.0)

    @property
    def minority_prior(self) -> float:
        return 1.0 / (self.imbalance_ratio + 1.0)

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "sigma": self.sigma,
            "dim": self.dim,
            "imbalance_ratio": self.imbalance_ratio,
        }


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """sign(w.x - b) with a real weight vector w and bias b."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a non-empty 1-D vector")
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
        if not math.isfinite(float(self.bias)):
            raise DomainError("bias must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @classmethod
    def all_ones(cls, dim: int, bias: float) -> "LinearClassifier":
        return cls(np.ones(dim), bias)


# ---------------------------------------------------------------------------
# Standard normal CDF via a rational-approximation erfc (Cody's ranges).
# Three regimes on |x|: a direct erf polynomial below 0.46875, an erfc
# rational with a split exp(-x^2) up to 4, and the asymptotic expansion
# beyond. Coefficients are the classic double-precision set.
# ---------------------------------------------------------------------------

_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERFC_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERFC_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERFC_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERFC_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_ONE_OVER_SQRT_PI = 5.6418958354775628695e-1
_INV_SQRT2 = 0.7071067811865476


# Arrays are evaluated in blocks of this many float64 elements (64 KiB), so
# every temporary is served from the allocator's free lists: glibc gets
# allocations of 128 KiB and more as fresh pages from the OS.
_BLOCK = 8192
# erfc(y) rounds to +0.0 from y ~ 27.3 on; capping y at this value keeps
# y*y and the exponent split finite for every finite y
_Y_SATURATED = 40.0


def _times_exp_neg_square(ys: np.ndarray, r: np.ndarray) -> np.ndarray:
    """exp(-ys^2) * r, with exp(-ys^2) split into an exactly representable
    square plus remainder."""
    ysq = ys * 16.0
    np.floor(ysq, out=ysq)
    ysq /= 16.0
    rem = ys - ysq
    rem *= ys + ysq
    np.negative(rem, out=rem)
    np.exp(rem, out=rem)
    ysq *= ysq
    np.negative(ysq, out=ysq)
    np.exp(ysq, out=ysq)
    ysq *= rem
    ysq *= r
    return ysq


def _rational_parts(t: np.ndarray, a: tuple, b: tuple):
    """Numerator and denominator of one of Cody's rational forms in t.

    With n = len(b) - 1 the numerator is built as a[-1]*t, then n Horner
    steps (num + a[i]) * t, then + a[n]; the denominator starts at t and
    takes b the same way. Each step runs in place: num += c; num *= t.
    """
    n = len(b) - 1
    num = a[-1] * t
    den = t.copy()
    for i in range(n):
        num += a[i]
        num *= t
        den += b[i]
        den *= t
    num += a[n]
    den += b[n]
    return num, den


def _erfc_nonneg(y: np.ndarray, out: np.ndarray) -> None:
    """erfc on y >= 0, elementwise, into ``out``."""
    small = y <= 0.46875
    if small.any():
        ys = y[small]
        num, den = _rational_parts(np.where(ys > 1.11e-16, ys * ys, 0.0), _ERF_A, _ERF_B)
        num *= ys
        num /= den
        out[small] = np.subtract(1.0, num, out=num)

    mid = (y > 0.46875) & (y <= 4.0)
    if mid.any():
        ys = y[mid]
        num, den = _rational_parts(ys, _ERFC_C, _ERFC_D)
        num /= den
        out[mid] = _times_exp_neg_square(ys, num)

    big = y > 4.0
    if big.any():
        ys = np.minimum(y[big], _Y_SATURATED)
        z = ys * ys
        np.divide(1.0, z, out=z)
        num, den = _rational_parts(z, _ERFC_P, _ERFC_Q)
        num *= z
        num /= den
        np.subtract(_ONE_OVER_SQRT_PI, num, out=num)
        num /= ys
        out[big] = _times_exp_neg_square(ys, num)


def normal_cdf(z):
    """Standard normal CDF Phi(z) = erfc(-z/sqrt(2)) / 2.

    Accepts a float or an ndarray; returns the matching type. Raises
    DomainError on non-finite input. Phi(0) is exactly 0.5 and the tails
    saturate to exact 0.0/1.0 once |z| exceeds ~38. Arrays are evaluated
    in blocks of ``_BLOCK`` elements.
    """
    arr = np.asarray(z, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("normal_cdf requires finite input")
    flat = arr.reshape(-1)
    res = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        out = res[start : start + _BLOCK]
        x = np.negative(flat[start : start + _BLOCK])
        x *= _INV_SQRT2
        _erfc_nonneg(np.abs(x), out)
        np.subtract(2.0, out, out=out, where=x < 0.0)  # erfc(x) = 2 - erfc(-x)
        out *= 0.5
    if arr.ndim == 0:
        return float(res[0])
    return res.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Class-conditional errors and the reweighted risk
# ---------------------------------------------------------------------------


def _sum_scale(weights: np.ndarray, spec: GaussianMixtureSpec, conv: StdConvention):
    """Mean multiplier and Z-score scale of w.x under the chosen convention.

    w.x ~ N(y*eta*sum(w), sigma^2*sum(w^2)). EXACT uses the true deviation
    sigma*sqrt(sum(w^2)); SUMMED adds the per-coordinate deviations,
    sigma*sum(|w|), which reduces to d*sigma for the all-ones vector.
    """
    sw = float(weights.sum())
    if conv is StdConvention.SUMMED:
        scale = spec.sigma * float(np.abs(weights).sum())
    else:
        scale = spec.sigma * math.sqrt(float((weights * weights).sum()))
    if scale <= 0.0:
        raise DomainError("weight vector must not be identically zero")
    return sw, scale


def _error_zscores(
    clf: LinearClassifier, spec: GaussianMixtureSpec, conv: StdConvention
):
    """Z-scores (z_minus, z_plus) with err(-1) = Phi(z_minus),
    err(+1) = Phi(z_plus)."""
    sw, scale = _sum_scale(clf.weights, spec, conv)
    z_minus = -(clf.bias + spec.eta * sw) / scale
    z_plus = (clf.bias - spec.eta * sw) / scale
    return z_minus, z_plus


def _cdf_diff(a: float, b: float) -> float:
    """Phi(b) - Phi(a) without catastrophic loss in the right tail.

    When both arguments sit far to the right, Phi saturates to 1.0 and the
    naive difference collapses to 0; the reflected form Phi(-a) - Phi(-b)
    is the same number evaluated on representable tail values.
    """
    if a + b > 0.0:
        return normal_cdf(-a) - normal_cdf(-b)
    return normal_cdf(b) - normal_cdf(a)


def classwise_error(
    clf: LinearClassifier,
    spec: GaussianMixtureSpec,
    label: int,
    conv: StdConvention = StdConvention.SUMMED,
) -> float:
    """Pr(sign(w.x - b) != y | y = label) under the convention's Z-score."""
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label!r}")
    if clf.weights.size != spec.dim:
        raise DomainError(
            f"classifier has {clf.weights.size} weights, distribution dim is {spec.dim}"
        )
    z_minus, z_plus = _error_zscores(clf, spec, conv)
    return normal_cdf(z_plus if label == 1 else z_minus)


def reweighted_risk(
    clf: LinearClassifier,
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention = StdConvention.SUMMED,
) -> float:
    """rho * err(-1) * Pr(y=-1) + err(+1) * Pr(y=+1)."""
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be > 0, got {rho!r}")
    err_minus = classwise_error(clf, spec, -1, conv)
    err_plus = classwise_error(clf, spec, 1, conv)
    return rho * err_minus * spec.minority_prior + err_plus * spec.majority_prior


def optimal_bias(
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention = StdConvention.SUMMED,
) -> float:
    """Bias minimizing the reweighted risk over all-ones-weight classifiers.

    SUMMED: 0.5*log(rho/K)*d*sigma^2/eta. EXACT: 0.5*log(rho/K)*sigma^2/eta.
    At rho = K both give exactly 0.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be > 0, got {rho!r}")
    factor = float(spec.dim) if conv is StdConvention.SUMMED else 1.0
    bias = 0.5 * math.log(rho / spec.imbalance_ratio) * factor * spec.sigma**2 / spec.eta
    if not math.isfinite(bias):
        raise DomainError(f"the optimal bias overflows ({bias})")
    return bias


def optimal_classifier(
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention = StdConvention.SUMMED,
) -> LinearClassifier:
    """The risk-minimizing classifier: all-ones weights, closed-form bias."""
    return LinearClassifier.all_ones(spec.dim, optimal_bias(spec, rho, conv))


def grid_search_bias(
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention = StdConvention.SUMMED,
    num_points: int = 100_000,
) -> tuple[float, float]:
    """Brute-force argmin of the reweighted risk over a dense bias grid.

    The bracket is [-20*|b*|-1, +20*|b*|+1] around the closed-form bias b*,
    wide enough that the optimum cannot sit on the edge. Returns
    (argmin bias, grid resolution). This is the independent oracle for
    ``optimal_bias``; it never trusts the closed form beyond centering.
    """
    if num_points < 3:
        raise DomainError("num_points must be >= 3")
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be > 0, got {rho!r}")
    center = abs(optimal_bias(spec, rho, conv))
    lo, hi = -20.0 * center - 1.0, 20.0 * center + 1.0
    if not math.isfinite(hi):
        raise DomainError(f"the bias bracket [{lo}, {hi}] is not finite")
    biases = np.linspace(lo, hi, num_points)
    sw, scale = _sum_scale(np.ones(spec.dim), spec, conv)
    shift = spec.eta * sw
    # the risk of the all-ones classifier, block by block; the first
    # minimum wins, as in np.argmin over the whole grid
    idx, best = 0, math.inf
    for start in range(0, num_points, _BLOCK):
        block = biases[start : start + _BLOCK]
        z = block + shift
        np.negative(z, out=z)
        z /= scale
        risk = normal_cdf(z)  # err(-1)
        risk *= rho
        risk *= spec.minority_prior
        z = block - shift
        z /= scale
        err_plus = normal_cdf(z)
        err_plus *= spec.majority_prior
        risk += err_plus
        i = int(np.argmin(risk))
        if risk[i] < best:
            idx, best = start + i, risk[i]
    resolution = (hi - lo) / (num_points - 1)
    return float(biases[idx]), resolution


def monte_carlo_classwise_error(
    clf: LinearClassifier,
    spec: GaussianMixtureSpec,
    label: int,
    n_samples: int,
    seed: int,
) -> float:
    """Sampling estimate of the class-conditional error.

    Draws x ~ N(label*mu, sigma^2 I) in full dimension (never using the
    one-dimensional reduction the analytic path relies on) and counts
    sign(w.x - b) != label, with sign(0) counted as an error. The samples
    are drawn chunk by chunk into one reused buffer of about ``_BLOCK``
    elements; the counter-based stream is consumed in the same order
    whatever the chunk size, so the result is reproducible per seed.
    """
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if clf.weights.size != spec.dim:
        raise DomainError("classifier/distribution dimension mismatch")
    rng = derive_rng(seed)
    mean = label * spec.eta
    chunk = max(1, _BLOCK // spec.dim)
    x = np.empty((chunk, spec.dim))
    scores = np.empty(chunk)
    wrong = 0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        xm, sm = x[:m], scores[:m]
        rng.standard_normal(out=xm)
        xm *= spec.sigma
        xm += mean
        np.matmul(xm, clf.weights, out=sm)
        sm -= clf.bias
        if label == 1:
            wrong += int(np.count_nonzero(sm <= 0.0))
        else:
            wrong += int(np.count_nonzero(sm >= 0.0))
        remaining -= m
    return wrong / n_samples


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one ordering check between two mixtures.

    ``holds`` records whether lhs < rhs in exact arithmetic; ``margin`` is
    rhs - lhs evaluated through stable tail differences, so it stays
    meaningful even where the rounded ``lhs``/``rhs`` floats saturate and
    tie (large K pushes both gaps to 1.0 in double precision).
    ``precondition_met`` records the sufficient "K large enough" condition
    of the corresponding proof; callers must not treat a failed ordering
    as a counterexample unless the precondition held.
    """

    theorem: int
    lhs: float
    rhs: float
    margin: float
    holds: bool
    precondition_met: bool
    spec1: GaussianMixtureSpec
    spec2: GaussianMixtureSpec
    convention: StdConvention

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "holds": self.holds,
            "precondition_met": self.precondition_met,
            "spec1": self.spec1.to_dict(),
            "spec2": self.spec2.to_dict(),
            "convention": self.convention.value,
        }


def _canonical_pair(spec1: GaussianMixtureSpec, spec2: GaussianMixtureSpec):
    """Validate a theorem pair and rescale spec2 to spec1's eta.

    Class-conditional errors of optimal classifiers are invariant under a
    positive rescaling of the feature space, so the second mixture can be
    brought to a common per-coordinate mean without changing the compared
    quantities. Returns the rescaled second spec.
    """
    if spec1.dim != spec2.dim:
        raise DomainError("theorem comparison requires equal dimensions")
    if spec1.imbalance_ratio != spec2.imbalance_ratio:
        raise DomainError("theorem comparison requires equal imbalance ratios")
    if not spec1.separability > spec2.separability:
        raise DomainError(
            "spec1 must have strictly higher separability than spec2 "
            f"({spec1.separability} vs {spec2.separability})"
        )
    sigma2c = spec2.sigma * spec1.eta / spec2.eta
    return GaussianMixtureSpec(
        spec1.eta, sigma2c, spec2.dim, spec2.imbalance_ratio
    )


def _precondition(
    spec1: GaussianMixtureSpec, spec2c: GaussianMixtureSpec, conv: StdConvention
) -> bool:
    """Sufficient condition for the +1-error ordering, per convention.

    With both biases written in a common eta, the ordering of the +1
    Z-scores reduces to log(K) > 2*eta^2/(sigma1*sigma2) under SUMMED;
    the EXACT scaling leaves a residual d, giving the d-scaled analogue
    log(K) > 2*d*eta^2/(sigma1*sigma2). The proof additionally needs the
    canonical deviations ordered, which is part of the hypothesis here.
    """
    if not spec1.sigma < spec2c.sigma:
        return False
    d_factor = 1.0 if conv is StdConvention.SUMMED else float(spec1.dim)
    threshold = 2.0 * d_factor * spec1.eta**2 / (spec1.sigma * spec2c.sigma)
    return math.log(spec1.imbalance_ratio) > threshold


def verify_theorem1(
    spec1: GaussianMixtureSpec,
    spec2: GaussianMixtureSpec,
    conv: StdConvention = StdConvention.SUMMED,
) -> TheoremReport:
    """Check that the class-wise error gap of the unweighted (rho=1) optimal
    classifier is smaller on the more separable mixture.

    lhs = err(-1) - err(+1) on spec1, rhs the same on spec2; the claim is
    lhs < rhs whenever the imbalance ratio clears the proof's threshold.
    """
    spec2c = _canonical_pair(spec1, spec2)

    def zscores(s: GaussianMixtureSpec):
        return _error_zscores(optimal_classifier(s, 1.0, conv), s, conv)

    zm1, zp1 = zscores(spec1)
    zm2, zp2 = zscores(spec2c)
    lhs = normal_cdf(zm1) - normal_cdf(zp1)
    rhs = normal_cdf(zm2) - normal_cdf(zp2)
    # rhs - lhs = [err2(-1) - err1(-1)] - [err2(+1) - err1(+1)], each piece
    # a stable same-side CDF difference
    margin = _cdf_diff(zm1, zm2) - _cdf_diff(zp1, zp2)
    return TheoremReport(
        theorem=1,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin > 0.0,
        precondition_met=_precondition(spec1, spec2c, conv),
        spec1=spec1,
        spec2=spec2,
        convention=conv,
    )


def verify_theorem2(
    spec1: GaussianMixtureSpec,
    spec2: GaussianMixtureSpec,
    conv: StdConvention = StdConvention.SUMMED,
) -> TheoremReport:
    """Check that switching from rho=1 to the fully reweighted rho=K
    classifier (whose bias is exactly 0) hurts the majority class less on
    the more separable mixture.

    lhs = err(+1 | rho=K) - err(+1 | rho=1) on spec1, rhs the same on
    spec2; the claim is lhs < rhs under the same precondition as the first
    theorem.
    """
    spec2c = _canonical_pair(spec1, spec2)

    def plus_error_increase(s: GaussianMixtureSpec) -> float:
        base = optimal_classifier(s, rho=1.0, conv=conv)
        rebal = optimal_classifier(s, rho=s.imbalance_ratio, conv=conv)
        _, zp_base = _error_zscores(base, s, conv)
        _, zp_rebal = _error_zscores(rebal, s, conv)
        return _cdf_diff(zp_base, zp_rebal)

    lhs, rhs = plus_error_increase(spec1), plus_error_increase(spec2c)
    return TheoremReport(
        theorem=2,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        holds=lhs < rhs,
        precondition_met=_precondition(spec1, spec2c, conv),
        spec1=spec1,
        spec2=spec2,
        convention=conv,
    )
