"""Reference implementations the theory property tests compare against:
``normal_cdf`` (with ``_erfc`` and ``_erfc_nonneg``), ``grid_search_bias``
(with ``_risk_curve``) and ``monte_carlo_classwise_error``, kept as they
were before ``srat.theory`` evaluated them in fixed-size blocks: whole-array
temporaries and one (chunk, dim) sample array per Monte Carlo chunk. The
blocked versions must match them bit for bit."""

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
    _sum_scale,
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
    """Vectorized reweighted risk of the all-ones classifier over a bias grid."""
    ones = np.ones(spec.dim)
    sw, scale = _sum_scale(ones, spec, conv)
    err_minus = normal_cdf(-(biases + spec.eta * sw) / scale)
    err_plus = normal_cdf((biases - spec.eta * sw) / scale)
    return rho * err_minus * spec.minority_prior + err_plus * spec.majority_prior


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
    """Sampling estimate of the class-conditional error.

    Draws x ~ N(label*mu, sigma^2 I) in full dimension (never using the
    one-dimensional reduction the analytic path relies on) and counts
    sign(w.x - b) != label, with sign(0) counted as an error. Chunked,
    counter-based generation keeps the result reproducible per seed.
    """
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if clf.weights.size != spec.dim:
        raise DomainError("classifier/distribution dimension mismatch")
    rng = derive_rng(seed)
    mean = label * spec.eta
    chunk = max(1, 4_000_000 // spec.dim)
    wrong = 0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        x = mean + spec.sigma * rng.standard_normal((m, spec.dim))
        scores = x @ clf.weights - clf.bias
        if label == 1:
            wrong += int(np.count_nonzero(scores <= 0.0))
        else:
            wrong += int(np.count_nonzero(scores >= 0.0))
        remaining -= m
    return wrong / n_samples
