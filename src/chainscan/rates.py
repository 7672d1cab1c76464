"""Run-rate constant of across significant chains: exact, extrapolated and Monte Carlo.

The chance that an m-row strip preserves across significant chains from one
column to the next converges to a constant in (0,1). It equals the Perron
root of a substochastic transfer operator whose states are the nonempty sets
of rows currently terminating an across chain: from state A, the next state
is the set of significant rows inside the drift neighborhood of A, and rows
outside that neighborhood are marginalized analytically.

The operator has 2^m - 1 states, so it is built up to ``MAX_EXACT_ROWS``.
Past that, the roots converge in m like a confined walk, and the rate is the
least-squares fit rho_inf + a/m^2 + b/m^3 + c/m^4 to the exact roots at
m = 10..15, evaluated at m. The Monte Carlo estimator is a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import CapacityError, ConvergenceError, EstimationError

__all__ = [
    "RunRate",
    "TransferOperator",
    "build_transfer_operator",
    "perron_root",
    "estimate_run_rate",
    "resolve_run_rate",
    "estimate_area_rate",
]

EXACT_METHOD = "exact-spectral"
EXTRAPOLATED_METHOD = "exact-extrapolated"
MC_METHOD = "monte-carlo"

MAX_EXACT_ROWS = 20
# row counts of the exact roots that the rate past MAX_EXACT_ROWS is fitted to
_FIT_ROWS = (10, 11, 12, 13, 14, 15)
_MAX_POWER_ITER = 10**6


@dataclass(frozen=True)
class RunRate:
    """A run-rate constant with the parameters it was computed for."""

    value: float
    m: int
    C: int
    p: float
    method: str

    def __post_init__(self):
        if not (0.0 < self.value < 1.0):
            raise ValueError(f"run rate must lie in (0,1), got {self.value}")

    def log_columns(self, n: int) -> float:
        """log base (1/rate) of n, the natural scale of longest-run growth."""
        return math.log(n) / math.log(1.0 / self.value)


class TransferOperator:
    """Substochastic transfer operator on nonempty row subsets of [1, m].

    Entry(A, A') = p^|A'| (1-p)^(|N(A)|-|A'|) for nonempty A' contained in
    N(A), zero otherwise, where N is the drift neighborhood. States are
    encoded as bitmasks 1..2^m-1; the operator is only applied, by
    ``matvec``, so large m never materializes the dense matrix.
    """

    def __init__(self, m: int, C: int, p: float):
        self.m = m
        self.C = C
        self.p = p
        size = 1 << m
        nb = np.zeros(size, dtype=np.int64)
        pop = np.zeros(size, dtype=np.int64)
        for i in range(m):
            # the masks whose highest row is i are the masks below 2^i plus row i
            window = ((1 << min(m, i + C + 1)) - 1) ^ ((1 << max(0, i - C)) - 1)
            nb[1 << i : 2 << i] = nb[: 1 << i] | window
            pop[1 << i : 2 << i] = pop[: 1 << i] + 1
        self._nb = nb
        self._pop = pop
        # per-state factors of matvec: p^|A'|(1-p)^(|N(A)|-|A'|) split into
        # (p/(1-p))^|A'| on the source and (1-p)^|N(A)| on the target
        self._in_weight = (p / (1.0 - p)) ** pop
        self._out_weight = (1.0 - p) ** pop[nb]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector indexed by all 2^m masks (entry 0 ignored).

        Uses a subset-sum (zeta) transform: O(m 2^m) per application instead
        of the O(4^m) dense product.
        """
        size = 1 << self.m
        if v.shape != (size,):
            raise ValueError(f"vector must have length {size}")
        w = v * self._in_weight
        w[0] = 0.0
        for b in range(self.m):
            half = 1 << b
            if half <= 8:  # short runs: per-offset column adds beat the 3-D view
                blocks = w.reshape(-1, 2 * half)
                for k in range(half):
                    blocks[:, half + k] += blocks[:, k]
            else:
                blocks = w.reshape(-1, 2, half)
                blocks[:, 1, :] += blocks[:, 0, :]
        out = self._out_weight * w[self._nb]
        out[0] = 0.0
        return out

    def across_probability(self, n_cols: int) -> float:
        """Probability of an across significant chain spanning n_cols columns.

        Exact: the Bernoulli(p) first-column law times K^(n_cols - 1) applied
        to the all-ones vector, one ``matvec`` per column, so it holds for
        every m the operator is built for.
        """
        if n_cols < 1:
            raise ValueError(f"need n_cols >= 1, got {n_cols}")
        v = np.ones(1 << self.m)
        v[0] = 0.0
        for _ in range(n_cols - 1):
            v = self.matvec(v)
        law = self.p**self._pop * (1.0 - self.p) ** (self.m - self._pop)
        return float(law @ v)


def build_transfer_operator(m: int, C: int, p: float) -> TransferOperator:
    """Construct the operator; guarded to m <= 20 (state space 2^m - 1)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m > MAX_EXACT_ROWS:
        raise CapacityError(
            f"exact operator guarded to m <= {MAX_EXACT_ROWS}; "
            f"use the monte-carlo estimator for m = {m}"
        )
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"need p in (0,1), got {p}")
    return TransferOperator(m, C, p)


def perron_root(op: TransferOperator, tol: float = 1e-10) -> RunRate:
    """Spectral radius by power iteration from the all-ones vector.

    Stops when successive Rayleigh quotients differ by less than ``tol``.
    The operator is nonnegative and primitive, so the iteration converges
    geometrically. ``tol`` bounds that step, not the error: the error can be
    several times larger when |lambda_2/lambda_1| is near 1 (about 0.914 at
    m = 10, C = 1, p = 0.1).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    size = 1 << op.m
    v = np.ones(size)
    v[0] = 0.0
    lam_prev = -1.0
    for _ in range(_MAX_POWER_ITER):
        w = op.matvec(v)
        lam = float(v @ w / (v @ v))
        norm = float(np.linalg.norm(w))
        if norm == 0.0:  # pragma: no cover - impossible for p in (0,1)
            raise ConvergenceError("operator annihilated the iterate")
        v = w / norm
        if abs(lam - lam_prev) < tol:
            return RunRate(lam, op.m, op.C, op.p, EXACT_METHOD)
        lam_prev = lam
    raise ConvergenceError(f"power iteration did not converge in {_MAX_POWER_ITER} steps")


def estimate_run_rate(
    m: int,
    C: int,
    p: float,
    n_cols: int = 100_000,
    trials: int = 50,
    seed: int = 0,
) -> RunRate:
    """Monte Carlo run rate from the longest-run growth law.

    Simulates Bernoulli nets, computes the longest significant chain per
    trial, and averages the per-trial estimator n^(-1/length). Trials with
    no significant chain are skipped. A cross-check of the exact rates
    (``chainscan rho --method mc``); ``resolve_run_rate`` does not use it.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if n_cols < 1000:
        raise ValueError(f"need n_cols >= 1000 for the growth law, got {n_cols}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"need p in (0,1), got {p}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, m, C]))
    estimates = []
    for t in _kernels.trial_batches(trials, m, n_cols):
        lengths = _kernels.chain_lengths(_kernels.bernoulli_stack(rng, t, m, n_cols, p), C)
        estimates.extend(n_cols ** (-1.0 / float(s)) for s in lengths if s > 0)
    if not estimates:
        raise EstimationError("every trial produced an empty net; cannot estimate")
    return RunRate(float(np.mean(estimates)), m, C, p, MC_METHOD)


def resolve_run_rate(m: int, C: int, p: float) -> RunRate:
    """Exact spectral rate when m <= MAX_EXACT_ROWS, extrapolated past it.

    Past the guard, rho_inf + a/m^2 + b/m^3 + c/m^4 is fitted by least squares
    to the exact roots at m = 10..15 and evaluated at m. Against exact roots
    at m = 17 the fit is off by 1.5e-7 at C = 1, p = 0.2 and by 6.6e-7 at
    C = 2, p = 0.1; the error grows as the drift window 2C + 1 nears the
    ladder's row counts (7.5e-6 at C = 3, p = 0.1). Where the roots lie
    within about 1e-6 of 1 (p >= 0.8 at C = 1, far above the detector's
    p < 1/(2C+1)) the fit can reach 1, which ``RunRate`` rejects.
    """
    if m <= MAX_EXACT_ROWS:
        return perron_root(build_transfer_operator(m, C, p))
    roots = [perron_root(build_transfer_operator(k, C, p)).value for k in _FIT_ROWS]
    powers = np.array([0.0, -2.0, -3.0, -4.0])
    basis = np.array(_FIT_ROWS, dtype=np.float64)[:, None] ** powers
    coef = np.linalg.lstsq(basis, np.array(roots), rcond=None)[0]
    return RunRate(float(m**powers @ coef), m, C, p, EXTRAPOLATED_METHOD)


def estimate_area_rate(
    p: float,
    C: int,
    sizes: Sequence[tuple[int, int]],
    trials: int = 32,
    seed: int = 0,
) -> float:
    """Rate constant of the jointly growing regime, where the longest
    significant chain grows like log(m*n) divided by this constant.

    Requires p < 1/(2C+1), the subcritical guard under which the constant is
    positive. Simulates every requested size (diagnostic sequence) and
    returns the reciprocal of the mean of length/log(m*n) at the largest.
    """
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if not (0.0 < p < 1.0 / (2 * C + 1)):
        raise ValueError(
            f"area rate requires p < 1/(2C+1) = {1.0 / (2 * C + 1):.4f}, got p={p}"
        )
    if not sizes:
        raise ValueError("need at least one (m, n) size")
    if any(m < 2 for m, _ in sizes):
        raise ValueError("joint-growth sizes need m >= 2")
    areas = [m * n for m, n in sizes]
    if any(b <= a for a, b in zip(areas, areas[1:])):
        raise ValueError(f"sizes must strictly increase in area, got {areas}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, C]))
    rate = None
    for m, n in sizes:
        ratios = []
        for t in _kernels.trial_batches(trials, m, n):
            lengths = _kernels.chain_lengths(_kernels.bernoulli_stack(rng, t, m, n, p), C)
            ratios.extend(float(s) / math.log(m * n) for s in lengths)
        mean_ratio = float(np.mean(ratios))
        if mean_ratio <= 0.0:
            raise EstimationError(f"no significant chains at size {m}x{n}")
        rate = 1.0 / mean_ratio
    return rate
