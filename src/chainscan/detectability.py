"""Normal distribution functions, detectability solvers, decision thresholds.

The minimum detectable elevated mean is the smallest mu for which the
per-node significance probability under the shifted normal satisfies the
condition that makes the two-step detector asymptotically powerful. Two
regimes are solved: chain lengths following a power law in the column count
(closed form) and chain lengths logarithmic in the column count (bisection).
Natural logarithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "null_conditional_mean",
    "min_detectable_mean_power_law",
    "min_detectable_mean_log_length",
    "min_detectable_mean_sqrt_length",
    "decision_thresholds",
    "Thresholds",
    "DEFAULT_X_STAR",
    "DEFAULT_EPSILON",
    "DEFAULT_DELTA2",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

DEFAULT_EPSILON = 1e-4
DEFAULT_DELTA2 = 1e-4


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


# Acklam's rational initializer for the inverse normal CDF (~1e-9 relative),
# polished below with Halley steps against normal_cdf.
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)
_P_LOW = 0.02425


def _quantile_seed(q: float) -> float:
    if q < _P_LOW:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((_C[0] * u + _C[1]) * u + _C[2]) * u + _C[3]) * u + _C[4]) * u + _C[5]) / (
            (((_D[0] * u + _D[1]) * u + _D[2]) * u + _D[3]) * u + 1.0
        )
    if q > 1.0 - _P_LOW:
        return -_quantile_seed(1.0 - q)
    u = q - 0.5
    r = u * u
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * u / (
        ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    )


def normal_quantile(q: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1), refined by Halley iteration."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile argument must lie in (0,1), got {q}")
    x = _quantile_seed(q)
    for _ in range(2):
        err = normal_cdf(x) - q
        pdf = _normal_pdf(x)
        if pdf == 0.0:
            break
        step = err / pdf
        x -= step / (1.0 + 0.5 * x * step)
    return x


DEFAULT_X_STAR = normal_quantile(0.9)


def null_conditional_mean(x_star: float) -> float:
    """Mean of a standard normal conditioned above x_star, phi(x*)/(1 - Phi(x*)).

    Step II subtracts this per node: given the significance map, null nodes
    are independent N(0,1) draws truncated to (x*, inf), so chain sums are
    centered at lambda(x*) * length, not at zero.
    """
    tail = 0.5 * math.erfc(x_star / _SQRT2)
    if tail <= 0.0:
        raise ValueError(f"x_star = {x_star:g} leaves no standard normal mass above it")
    return _normal_pdf(x_star) / tail


@dataclass(frozen=True)
class Thresholds:
    """Decision cuts of the two-step detector.

    step1 bounds the longest significant chain; step2 bounds the centered
    normalized scan statistic (see :func:`null_conditional_mean`).
    """

    step1: float
    step2: float
    x_star: float
    epsilon: float
    delta2: float


def min_detectable_mean_power_law(
    n: int,
    m: int,
    C: int,
    run_rate: float,
    alpha: float,
    zeta: float,
    eps: float = DEFAULT_EPSILON,
    x_star: float = DEFAULT_X_STAR,
) -> float:
    """Minimum detectable mean when the embedded chain has length zeta * n^alpha.

    The required significance probability inside the chain is
    ``run_rate ** (alpha * ln(zeta n) / ((1 + eps) ln n))``; the returned
    mean shifts the normal so the node exceedance probability reaches it.
    ``m`` and ``C`` document the provenance of ``run_rate``; they do not
    enter the formula, but a geometry no rate can come from is an error.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if not (0.0 < run_rate < 1.0):
        raise ValueError(f"run rate must lie in (0,1), got {run_rate}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"need 0 < alpha <= 1, got {alpha}")
    if zeta <= 0.0 or n < 2:
        raise ValueError(f"need zeta > 0 and n >= 2, got zeta={zeta}, n={n}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"need eps > 0 and finite, got {eps}")
    exponent = alpha * math.log(zeta * n) / ((1.0 + eps) * math.log(n))
    t = run_rate**exponent
    if t >= 1.0:
        raise ValueError(
            f"degenerate requirement: zeta*n = {zeta * n:g} leaves no detectable mean"
        )
    return x_star - normal_quantile(1.0 - t)


def _solve_min_mean(n: int, m: int, chain_length: float, delta2: float, x_star: float) -> float:
    """Smallest mu with mu * sqrt(log_{1/p1}(chain_length)) above the scan cut,
    where p1 is the node exceedance probability at mean mu.

    Each planted node is credited with mu; the centered Step II statistic
    gains mu + lambda(x* - mu) - lambda(x*) per significant planted node
    (about 0.96 at mu = 2.5, x* = 1.2816).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if chain_length <= 1.0:
        raise ValueError(f"chain length spec must exceed 1, got {chain_length:g}")
    if not (math.isfinite(delta2) and delta2 > 0.0):
        raise ValueError(f"need delta2 > 0 and finite, got {delta2}")
    rhs = math.sqrt((2.0 + delta2) * math.log(m * n))
    log_len = math.log(chain_length)

    def excess(mu: float) -> float:
        p1 = 1.0 - normal_cdf(x_star - mu)
        if p1 >= 1.0:
            return math.inf
        return mu * math.sqrt(log_len / math.log(1.0 / p1)) - rhs

    lo, hi = 0.0, 20.0
    if excess(hi) <= 0.0:
        raise ValueError("no detectable mean in (0, 20] for these parameters")
    for _ in range(64):  # 20 * 2^-64 is far below the 1e-6 target
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def min_detectable_mean_log_length(
    n: int,
    m: int,
    c: float,
    delta2: float = DEFAULT_DELTA2,
    x_star: float = DEFAULT_X_STAR,
) -> float:
    """Minimum detectable mean when the embedded chain has length c * ln(n)."""
    if c <= 0.0 or n < 2:
        raise ValueError(f"need c > 0 and n >= 2, got c={c}, n={n}")
    length = c * math.log(n)
    if length <= 1.0:
        raise ValueError(f"need c*ln(n) > 1, got {length:g}")
    return _solve_min_mean(n, m, length, delta2, x_star)


def min_detectable_mean_sqrt_length(
    n: int,
    m: int,
    c: float,
    delta2: float = DEFAULT_DELTA2,
    x_star: float = DEFAULT_X_STAR,
) -> float:
    """Scan-cut analogue of :func:`min_detectable_mean_log_length` for chains
    of length c * sqrt(n); looser than the power-law bound, kept for completeness."""
    if c <= 0.0 or n < 2:
        raise ValueError(f"need c > 0 and n >= 2, got c={c}, n={n}")
    length = c * math.sqrt(n)
    if length <= 1.0:
        raise ValueError(f"need c*sqrt(n) > 1, got {length:g}")
    return _solve_min_mean(n, m, length, delta2, x_star)


def decision_thresholds(
    n: int,
    m: int,
    run_rate: float,
    epsilon: float = DEFAULT_EPSILON,
    delta2: float = DEFAULT_DELTA2,
    x_star: float = DEFAULT_X_STAR,
) -> Thresholds:
    """Two-step decision cuts for an m-by-n grid.

    step1 = (1 + epsilon/2) * ln(n) / ln(1/run_rate); step2 uses log(m*n)
    (the proved form; for fixed m it differs from log n by lower order).
    """
    if not (0.0 < run_rate < 1.0):
        raise ValueError(f"run rate must lie in (0,1), got {run_rate}")
    if not all(math.isfinite(v) and v > 0.0 for v in (epsilon, delta2)):
        raise ValueError(
            f"epsilon and delta2 must be positive and finite, got {epsilon}, {delta2}"
        )
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    step1 = (1.0 + epsilon / 2.0) * math.log(n) / math.log(1.0 / run_rate)
    step2 = math.sqrt(2.0 * (1.0 + delta2) * math.log(m * n))
    return Thresholds(step1, step2, x_star, epsilon, delta2)
