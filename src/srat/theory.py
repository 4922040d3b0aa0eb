"""Closed-form analysis of reweighted linear classification on a symmetric
binary Gaussian mixture, plus Monte Carlo and grid-search oracles.

Model
-----
Labels y ∈ {-1, +1} with Pr(y=+1) = K * Pr(y=-1) for an imbalance ratio
K >= 1. Features are x ~ N(y*mu, sigma^2 I) in d dimensions with
mu = (eta, ..., eta). The one classifier family studied is the all-ones
direction with a bias b, which predicts sign(w.x - b) for w = (1, ..., 1);
``LinearClassifier`` holds its dimension and bias. The reweighted risk
multiplies the minority ("-1") class error by rho > 0. Separability is
defined as S = eta / sigma^2.

w.x is a sum of d independent normals, so every class-conditional error
is a single standard-normal CDF value. Two Z-score conventions are
implemented side by side, and every function here takes the convention
from its caller:

* ``StdConvention.SUMMED``   scales by d*sigma, i.e. it treats the standard
  deviation of the coordinate sum as the *sum* of the per-coordinate
  deviations. The matching minimizing bias is 0.5*log(rho/K)*d*sigma^2/eta.
* ``StdConvention.EXACT``   scales by sqrt(d)*sigma, the true standard
  deviation of the sum. The same stationarity derivation then yields
  0.5*log(rho/K)*sigma^2/eta, with no d factor.

Both conventions describe the same one-dimensional family of classifiers;
they differ in which risk surface the bias minimizes. Every theorem check
reports the sufficient "K large enough" precondition derived for its
convention, so reports are never asserted outside their hypothesis.

The normal CDF is computed from a rational-approximation erfc accurate to
a few ULPs. The test suite validates it against Monte Carlo sampling,
symmetry identities and quadrature, and, where SciPy is installed,
against ``scipy.special.ndtr``: absolute error at most 1e-15 on
[-40, 40] and relative error at most 1e-12 on [-37, 0].

The oracles stream through fixed buffers: ``normal_cdf`` and the risk in
``grid_search_bias`` work in blocks of ``_BLOCK`` elements, and
``monte_carlo_classwise_error`` draws its normals into reused buffers of
that size, so their temporaries come from the allocator's free lists
rather than fresh pages from the OS.

``monte_carlo_classwise_error`` draws antithetic pairs: each normal
vector z gives the sample label*mu + sigma*z and its reflection
label*mu - sigma*z, so it draws half as many normals as samples. The two
errors of a pair have covariance -min(p, 1-p)^2 <= 0 for an error rate
p, so the estimate stays unbiased and its variance is at most the
binomial p(1-p)/n that the tests and the benchmark bound it by.

``grid_search_bias`` returns the exact first argmin of its grid, the one
a brute-force scan finds, but skips the blocks that a monotone lower bound
on their risk rules out; the bound, its slack and why the slack is needed
are in its docstring.
"""

from dataclasses import asdict, dataclass
from decimal import Decimal
from enum import Enum
import math
import sys

import numpy as np

from srat.errors import DomainError
from srat.rand import derive_rng


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
        if self.dim > sys.float_info.max:  # the closed forms read dim as a float
            raise DomainError(f"dim must be at most the largest float, got {Decimal(self.dim):.4g}")
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


@dataclass(frozen=True)
class LinearClassifier:
    """sign(w.x - b) with the all-ones weight vector w of dimension ``dim``
    and bias b: the one classifier family the theory compares."""

    dim: int
    bias: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DomainError(f"dim must be an integer >= 1, got {self.dim!r}")
        if not math.isfinite(float(self.bias)):
            raise DomainError("bias must be finite")
        object.__setattr__(self, "bias", float(self.bias))

    @classmethod
    def all_ones(cls, dim: int, bias: float) -> "LinearClassifier":
        return cls(dim, bias)


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
# The bounded grid search skips a block only when its lower bound exceeds
# the best risk found by more than this fraction of that risk, plus a floor
# of the smallest normal float times the risk weights (an err value in the
# subnormal range is exact only to a subnormal ULP). The bound and the risk
# are the same float expression, but float Phi is monotone only to a few
# ULPs: sweeps over consecutive floats found drops of at most about 5e-16
# relative, so a bound may exceed its block's true minimum by that much.
# Any slack from 1e-9 to 1e-4 skips the same blocks of the README lemma grid.
_PRUNE_SLACK = 1e-6
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


def _all_ones_scale(spec: GaussianMixtureSpec, conv: StdConvention):
    """Mean multiplier and Z-score scale of w.x for the all-ones w, as
    (shift, scale): w.x ~ N(y*eta*d, d*sigma^2), so shift = eta*d. EXACT
    uses the true deviation sqrt(d)*sigma; SUMMED adds the per-coordinate
    deviations, d*sigma."""
    d = float(spec.dim)
    return spec.eta * d, spec.sigma * (d if conv is StdConvention.SUMMED else math.sqrt(d))


def _zscore(bias, label, shift, scale):
    """Z-score of the class-``label`` error of sign(w.x - b) at the bias
    ``bias`` (a float or an array): err(label) = Phi(z), where w.x has
    mean label*shift and deviation ``scale``."""
    return (label * bias - shift) / scale


def classwise_error(
    clf: LinearClassifier,
    spec: GaussianMixtureSpec,
    label: int,
    conv: StdConvention,
) -> float:
    """Pr(sign(w.x - b) != y | y = label) under the convention's Z-score."""
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label!r}")
    if clf.dim != spec.dim:
        raise DomainError(f"classifier has dim {clf.dim}, distribution dim is {spec.dim}")
    return normal_cdf(_zscore(clf.bias, label, *_all_ones_scale(spec, conv)))


def optimal_bias(
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention,
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


def _weighted_risk(
    b_minus: np.ndarray,
    b_plus: np.ndarray,
    spec: GaussianMixtureSpec,
    rho: float,
    shift: float,
    scale: float,
) -> np.ndarray:
    """rho * Pr(y=-1) * err(-1) at the biases ``b_minus`` plus
    Pr(y=+1) * err(+1) at the biases ``b_plus``, for the all-ones
    classifier whose w.x has mean multiplier ``shift`` and Z-score
    ``scale``. With one grid block as both it is that block's risk."""
    risk = normal_cdf(_zscore(b_minus, -1, shift, scale))  # err(-1)
    risk *= rho
    risk *= spec.minority_prior
    err_plus = normal_cdf(_zscore(b_plus, 1, shift, scale))
    err_plus *= spec.majority_prior
    risk += err_plus
    return risk


def grid_search_bias(
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention,
    num_points: int,
) -> tuple[float, float]:
    """Exact argmin of the reweighted risk over a dense bias grid.

    The bracket is [-20*|b*|-1, +20*|b*|+1] around the closed-form bias b*,
    wide enough that the optimum cannot sit on the edge. Returns
    (argmin bias, grid resolution). This is the independent oracle for
    ``optimal_bias``; it never trusts the closed form beyond centering.

    The result is the first minimum of the risk over the whole grid, the
    one ``np.argmin`` of a brute-force scan gives, bit for bit; but blocks
    of ``_BLOCK`` points that cannot hold it are skipped. err(-1) falls and
    err(+1) rises with the bias, so the risk of a block is at least the
    weighted err(-1) of its last point plus the weighted err(+1) of its
    first, computed by the same float expression as the risk. Blocks are
    scanned in ascending order of that bound until a bound exceeds the best
    risk found by more than a slack: ``_PRUNE_SLACK`` of that risk plus a
    floor for errors in the subnormal range. The slack is needed because
    float Phi is monotone only to a few ULPs, so a bound can exceed the
    true minimum of its block by that much. A flat or saturated risk curve
    gives equal bounds everywhere and is scanned in full.
    """
    if not 3 <= num_points < 2**60:  # NumPy holds no float64 array of 2^63 bytes
        raise DomainError("num_points must lie in [3, 2^60)")
    center = abs(optimal_bias(spec, rho, conv))
    lo, hi = -20.0 * center - 1.0, 20.0 * center + 1.0
    if not math.isfinite(hi - lo):
        raise DomainError(f"the bias bracket [{lo}, {hi}] or its width is not finite")
    shift, scale = _all_ones_scale(spec, conv)
    # both Z-scores are monotone in the bias, so the bracket's ends bound
    # them over the whole grid
    bracket_z = (_zscore(b, y, shift, scale) for b in (lo, hi) for y in (-1, 1))
    if not all(map(math.isfinite, bracket_z)):
        raise DomainError(
            f"the Z-scores of the bias bracket [{lo}, {hi}] overflow at scale {scale}"
        )
    biases = np.linspace(lo, hi, num_points)
    starts = np.arange(0, num_points, _BLOCK)
    ends = np.minimum(starts + _BLOCK, num_points)
    bounds = _weighted_risk(biases[ends - 1], biases[starts], spec, rho, shift, scale)
    floor = (rho * spec.minority_prior + spec.majority_prior) * sys.float_info.min
    idx, best = 0, math.inf
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] > best + _PRUNE_SLACK * best + floor:
            break  # every later block's bound is at least as large
        start = int(starts[j])
        block = biases[start : ends[j]]
        risk = _weighted_risk(block, block, spec, rho, shift, scale)
        i = int(np.argmin(risk))
        if risk[i] < best or (risk[i] == best and start + i < idx):
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
    """Sampling estimate of the class-conditional error, from antithetic
    pairs.

    Each standard-normal vector z in d dimensions gives two samples of
    N(label*mu, sigma^2 I): x = label*mu + sigma*z and its reflection
    label*mu - sigma*z; an odd ``n_samples`` drops the last reflection.
    Each sample is scored in full dimension (never using the
    one-dimensional reduction the analytic path relies on), counting
    sign(w.x - b) != label with sign(0) as an error.

    The estimate is unbiased, and the pairing never widens it: a sample
    errs when S = sum(z) lies on one side of a threshold t and its
    reflection when -S does, so the two errors have covariance
    Pr(-t <= S <= t) - p^2 = -min(p, 1-p)^2 <= 0 and the variance,
    (p(1-p) - min(p, 1-p)^2)/n for even n, is at most the binomial
    p(1-p)/n of independent draws.

    The pairs are drawn chunk by chunk into reused buffers of ``_BLOCK``
    normals; the counter-based stream is consumed in the same order
    whatever the chunk size, so the result is reproducible per seed.
    """
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if clf.dim != spec.dim:
        raise DomainError("classifier/distribution dimension mismatch")
    rng = derive_rng(seed)
    mean = label * spec.eta
    chunk = max(1, _BLOCK // spec.dim)  # pairs per chunk
    plus = np.empty((chunk, spec.dim))
    minus = np.empty((chunk, spec.dim))
    scores = np.empty(2 * chunk)
    ones = np.ones(spec.dim)
    wrong = 0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, (remaining + 1) // 2)
        k = min(2 * m, remaining)  # an odd remainder drops the last reflection
        pm, mm = plus[:m], minus[:k - m]
        rng.standard_normal(out=pm)
        pm *= spec.sigma
        np.subtract(mean, pm[:k - m], out=mm)
        pm += mean
        sm = scores[:k]
        np.matmul(pm, ones, out=sm[:m])
        np.matmul(mm, ones, out=sm[m:])
        sm -= clf.bias
        if label == 1:
            wrong += int(np.count_nonzero(sm <= 0.0))
        else:
            wrong += int(np.count_nonzero(sm >= 0.0))
        remaining -= k
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
        return {**asdict(self), "convention": self.convention.value}


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


def _cdf_pairs(*pairs: tuple[float, float]) -> list[tuple[float, float, float]]:
    """(Phi(a), Phi(b), Phi(b) - Phi(a)) for each Z-score pair (a, b), from
    one ``normal_cdf`` call over every score and its reflection.

    The difference avoids catastrophic loss in the right tail: when both
    scores sit far to the right (a + b > 0), Phi saturates to 1.0 and the
    naive difference collapses to 0, so it is taken as the same number
    Phi(-a) - Phi(-b) on representable tail values.
    """
    p = normal_cdf(np.array([(a, b, -a, -b) for a, b in pairs])).tolist()
    return [
        (pa, pb, ra - rb if a + b > 0.0 else pb - pa)
        for (a, b), (pa, pb, ra, rb) in zip(pairs, p)
    ]


def verify_theorem1(
    spec1: GaussianMixtureSpec,
    spec2: GaussianMixtureSpec,
    conv: StdConvention,
) -> TheoremReport:
    """Check that the class-wise error gap of the unweighted (rho=1) optimal
    classifier is smaller on the more separable mixture.

    lhs = err(-1) - err(+1) on spec1, rhs the same on spec2; the claim is
    lhs < rhs whenever the imbalance ratio clears the proof's threshold.
    """
    spec2c = _canonical_pair(spec1, spec2)

    def zscore(s: GaussianMixtureSpec, label: int) -> float:
        """err(label) Z-score of the unweighted optimal classifier."""
        return _zscore(optimal_bias(s, 1.0, conv), label, *_all_ones_scale(s, conv))

    (em1, em2, dm), (ep1, ep2, dp) = _cdf_pairs(
        (zscore(spec1, -1), zscore(spec2c, -1)), (zscore(spec1, 1), zscore(spec2c, 1))
    )
    lhs = em1 - ep1
    rhs = em2 - ep2
    # rhs - lhs = [err2(-1) - err1(-1)] - [err2(+1) - err1(+1)], each piece
    # a stable same-side CDF difference
    margin = dm - dp
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
    conv: StdConvention,
) -> TheoremReport:
    """Check that switching from rho=1 to the fully reweighted rho=K
    classifier (whose bias is exactly 0) hurts the majority class less on
    the more separable mixture.

    lhs = err(+1 | rho=K) - err(+1 | rho=1) on spec1, rhs the same on
    spec2; the claim is lhs < rhs under the same precondition as the first
    theorem.
    """
    spec2c = _canonical_pair(spec1, spec2)

    def plus_zscores(s: GaussianMixtureSpec) -> tuple[float, float]:
        """err(+1) Z-scores at rho = 1 and at rho = K."""
        shift, scale = _all_ones_scale(s, conv)
        return tuple(
            _zscore(optimal_bias(s, rho, conv), 1, shift, scale)
            for rho in (1.0, s.imbalance_ratio)
        )

    (_, _, lhs), (_, _, rhs) = _cdf_pairs(plus_zscores(spec1), plus_zscores(spec2c))
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
