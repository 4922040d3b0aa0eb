"""Reference implementations the theory property tests compare against:
``normal_cdf`` (with ``_erfc`` and ``_erfc_nonneg``), ``grid_search_bias``
(with ``_risk_curve``) and ``monte_carlo_classwise_error``, kept as they
were before ``srat.theory`` evaluated them in fixed-size blocks: whole-array
temporaries, one sample array for all Monte Carlo pairs, and a grid search
that scans every point. The blocked versions, and the bounded grid search,
must match them bit for bit. ``reweighted_risk`` is the scalar risk of one
classifier, which only the tests evaluate."""

import math

import numpy as np

from srat.errors import DomainError
from srat.rand import derive_rng
from srat.theory import (
    _ERF_A,
    _ERF_B,
    _ERFC_C,
    _ERFC_D,
    _ERFC_P,
    _ERFC_Q,
    _INV_SQRT2,
    _ONE_OVER_SQRT_PI,
    GaussianMixtureSpec,
    LinearClassifier,
    StdConvention,
    classwise_error,
    optimal_bias,
)

def _erfc_nonneg(y: np.ndarray) -> np.ndarray:
    """erfc on y >= 0, elementwise."""
    out = np.empty_like(y)

    small = y <= 0.46875
    if small.any():
        ys = y[small]
        z = np.where(ys > 1.11e-16, ys * ys, 0.0)
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        out[small] = 1.0 - ys * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (y > 0.46875) & (y <= 4.0)
    if mid.any():
        ys = y[mid]
        num = _ERFC_C[8] * ys
        den = ys
        for i in range(7):
            num = (num + _ERFC_C[i]) * ys
            den = (den + _ERFC_D[i]) * ys
        r = (num + _ERFC_C[7]) / (den + _ERFC_D[7])
        # exp(-y^2) split into an exactly representable square plus remainder
        ysq = np.floor(ys * 16.0) / 16.0
        rem = (ys - ysq) * (ys + ysq)
        out[mid] = np.exp(-ysq * ysq) * np.exp(-rem) * r

    big = y > 4.0
    if big.any():
        ys = y[big]
        z = 1.0 / (ys * ys)
        num = _ERFC_P[5] * z
        den = z
        for i in range(4):
            num = (num + _ERFC_P[i]) * z
            den = (den + _ERFC_Q[i]) * z
        r = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
        r = (_ONE_OVER_SQRT_PI - r) / ys
        ysq = np.floor(ys * 16.0) / 16.0
        rem = (ys - ysq) * (ys + ysq)
        out[big] = np.exp(-ysq * ysq) * np.exp(-rem) * r

    return out


def _erfc(x: np.ndarray) -> np.ndarray:
    y = np.abs(x)
    r = _erfc_nonneg(y)
    return np.where(x < 0.0, 2.0 - r, r)



def normal_cdf(z):
    """Standard normal CDF Phi(z).

    Accepts a float or an ndarray; returns the matching type. Raises
    DomainError on non-finite input. Phi(0) is exactly 0.5 and the tails
    saturate to exact 0.0/1.0 once |z| exceeds ~38.
    """
    arr = np.asarray(z, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("normal_cdf requires finite input")
    res = 0.5 * _erfc(-arr * _INV_SQRT2)
    if arr.ndim == 0:
        return float(res)
    return res



def _risk_curve(
    spec: GaussianMixtureSpec, rho: float, conv: StdConvention, biases: np.ndarray
) -> np.ndarray:
    """Vectorized reweighted risk of the all-ones classifier over a bias grid.

    For the all-ones w, w.x has mean y*eta*d; its Z-score scale is d*sigma
    under SUMMED and sqrt(d)*sigma under EXACT."""
    d = float(spec.dim)
    shift = spec.eta * d
    scale = spec.sigma * (d if conv is StdConvention.SUMMED else math.sqrt(d))
    err_minus = normal_cdf(-(biases + shift) / scale)
    err_plus = normal_cdf((biases - shift) / scale)
    return rho * err_minus * spec.minority_prior + err_plus * spec.majority_prior


def grid_search_bias(
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention,
    num_points: int,
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
    biases = np.linspace(lo, hi, num_points)
    risks = _risk_curve(spec, rho, conv, biases)
    idx = int(np.argmin(risks))
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

    Draws one standard-normal vector z per pair of samples, all pairs in
    one array, and scores x = label*mu + sigma*z and its reflection
    label*mu - sigma*z in full dimension, interleaved as +z, -z and
    truncated to ``n_samples``. Counts sign(w.x - b) != label, with
    sign(0) counted as an error.
    """
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if clf.dim != spec.dim:
        raise DomainError("classifier/distribution dimension mismatch")
    ones = np.ones(spec.dim)
    z = derive_rng(seed).standard_normal(((n_samples + 1) // 2, spec.dim))
    z = np.stack([z, -z], axis=1).reshape(-1, spec.dim)[:n_samples]
    x = label * spec.eta + spec.sigma * z
    scores = x @ ones - clf.bias
    if label == 1:
        wrong = int(np.count_nonzero(scores <= 0.0))
    else:
        wrong = int(np.count_nonzero(scores >= 0.0))
    return wrong / n_samples


def reweighted_risk(
    clf: LinearClassifier,
    spec: GaussianMixtureSpec,
    rho: float,
    conv: StdConvention,
) -> float:
    """rho * err(-1) * Pr(y=-1) + err(+1) * Pr(y=+1)."""
    if not (math.isfinite(rho) and rho > 0):
        raise DomainError(f"rho must be > 0, got {rho!r}")
    err_minus = classwise_error(clf, spec, -1, conv)
    err_plus = classwise_error(clf, spec, 1, conv)
    return rho * err_minus * spec.minority_prior + err_plus * spec.majority_prior
