"""Run-rate and area-rate constants of significant chains, from exact Perron roots.

The chance that an m-row strip preserves across significant chains from one
column to the next converges to a constant in (0,1). It equals the Perron
root of a substochastic transfer operator whose states are the nonempty sets
of rows currently terminating an across chain: from state A, the next state
is the set of significant rows inside the drift neighborhood of A, and rows
outside that neighborhood are marginalized analytically.

The operator has 2^m - 1 states, so it is built up to ``MAX_EXACT_ROWS``.
Its root comes from a restarted Arnoldi iteration whose basis lives on the
classes of states that share a drift neighborhood, and it is certified by a
Collatz-Wielandt bracket narrower than the requested tolerance. Past
``MAX_EXACT_ROWS``, the roots converge in m like a confined walk, and the
rate is the least-squares fit rho_inf + a/m^2 + b/m^3 + c/m^4 to the exact
roots at m = 10..15, evaluated at m. The fit's intercept rho_inf, the limit
of the roots in m, gives the area rate -log rho_inf of the jointly growing
regime. The Monte Carlo run-rate estimator is a cross-check that no rate
resolution uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "resolve_area_rate",
]

EXACT_METHOD = "exact-spectral"
EXTRAPOLATED_METHOD = "exact-extrapolated"
MC_METHOD = "monte-carlo"

MAX_EXACT_ROWS = 20
# row counts of the exact roots that the rate past MAX_EXACT_ROWS is fitted to
_FIT_ROWS = (10, 11, 12, 13, 14, 15)
# powers of m in that fit: rho_inf + a/m^2 + b/m^3 + c/m^4
_FIT_POWERS = np.array([0.0, -2.0, -3.0, -4.0])
# Krylov basis size, power steps per restart and restart cap of perron_root
_BASIS = 20
_POWER_STEPS = 4
_MAX_RESTARTS = 20


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
            f"resolve_run_rate extrapolates the rate for m = {m}"
        )
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"need p in (0,1), got {p}")
    return TransferOperator(m, C, p)


def perron_root(op: TransferOperator, tol: float = 1e-10) -> RunRate:
    """Spectral radius by restarted Arnoldi, certified by a Collatz-Wielandt bracket.

    (Kv)(A) depends on A only through N(A), so every iterate from the
    all-ones start is constant on the classes of states with one
    neighborhood, and so is the Perron vector. The Krylov basis is kept in
    that class space (1,973 classes at m = 16, against 65,535 states), and
    each product is one ``matvec`` of the lifted vector. A cycle builds a
    basis of up to ``_BASIS`` vectors, stopping early when it spans an
    invariant subspace, takes the absolute value of the Ritz vector of the
    largest real Ritz value, and runs up to ``_POWER_STEPS`` power steps from
    it. For a nonnegative K and a positive x, min (Kx)_A/x_A <= rho <= max
    (Kx)_A/x_A (Collatz-Wielandt), and the ratios are the same for the full
    operator because x is class-constant. The midpoint is returned once that
    bracket is narrower than ``tol``, so ``tol`` bounds the error; otherwise
    the next cycle restarts from the last iterate. A root within rounding of
    1 (m = 8, C = 1, p = 0.99) returns the largest float below 1 when the
    bracket holds it, and a bracket that lies wholly at or above 1 is a
    ``ValueError``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    _, rep, class_of = np.unique(op._nb[1:], return_index=True, return_inverse=True)
    rep += 1
    lift = np.concatenate(([0], class_of))  # state 0 lands on class 0; matvec ignores it

    def apply(xc: np.ndarray) -> np.ndarray:
        return op.matvec(xc[lift])[rep]

    k = min(_BASIS, rep.size)
    x = np.ones(rep.size)
    width = math.inf
    for _ in range(_MAX_RESTARTS):
        basis = np.zeros((k + 1, rep.size))
        hess = np.zeros((k + 1, k))
        basis[0] = x / np.linalg.norm(x)
        size = k
        for j in range(k):
            w = apply(basis[j])
            for _ in range(2):  # classical Gram-Schmidt, twice for orthogonality
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                hess[: j + 1, j] += h
            hess[j + 1, j] = np.linalg.norm(w)
            if hess[j + 1, j] <= 1e-12 * np.abs(hess[: j + 2, : j + 1]).max():
                size = j + 1  # the basis spans an invariant subspace
                break
            basis[j + 1] = w / hess[j + 1, j]
        ritz, vecs = np.linalg.eig(hess[:size, :size])
        top = np.argmax(np.where(ritz.imag == 0, ritz.real, -np.inf))
        x = np.abs(vecs[:, top].real @ basis[:size])
        for _ in range(_POWER_STEPS):
            y = apply(x)
            if (x > 0).all():
                ratio = y / x
                lo, hi = float(ratio.min()), float(ratio.max())
                width = hi - lo
                if width < tol:
                    return RunRate(_below_one(lo, hi, op), op.m, op.C, op.p, EXACT_METHOD)
            x = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"Arnoldi did not bracket the root within {tol} in {_MAX_RESTARTS} restarts; "
        f"last bracket width {width:.3g}"
    )


def _below_one(lo: float, hi: float, op: TransferOperator) -> float:
    """Midpoint of a certified bracket [lo, hi], or the largest float below 1
    when the midpoint rounds to 1 (that float still lies in the bracket)."""
    mid = 0.5 * (lo + hi)
    if mid < 1.0:
        return mid
    if lo >= 1.0:
        raise ValueError(
            f"Perron root bracket [{lo}, {hi}] does not lie below 1 at m = {op.m}, "
            f"C = {op.C}, p = {op.p}"
        )
    return float(np.nextafter(1.0, 0.0))


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
    lengths = np.concatenate([
        _kernels.chain_lengths(_kernels.bernoulli_stack(rng, t, m, n_cols, p), C)
        for t in _kernels.trial_batches(trials, m, n_cols)])
    estimates = [n_cols ** (-1.0 / float(s)) for s in lengths if s > 0]
    if not estimates:
        raise EstimationError("every trial produced an empty net; cannot estimate")
    return RunRate(float(np.mean(estimates)), m, C, p, MC_METHOD)


def _fit_coefficients(C: int, p: float) -> np.ndarray:
    """Least-squares coefficients (rho_inf, a, b, c) of rho_inf + a/m^2 + b/m^3
    + c/m^4 fitted to the exact roots at m = 10..15."""
    roots = [perron_root(build_transfer_operator(k, C, p)).value for k in _FIT_ROWS]
    basis = np.array(_FIT_ROWS, dtype=np.float64)[:, None] ** _FIT_POWERS
    return np.linalg.lstsq(basis, np.array(roots), rcond=None)[0]


def resolve_run_rate(m: int, C: int, p: float) -> RunRate:
    """Exact spectral rate when m <= MAX_EXACT_ROWS, extrapolated past it.

    Past the guard, rho_inf + a/m^2 + b/m^3 + c/m^4 is fitted by least squares
    to the exact roots at m = 10..15 and evaluated at m. Against exact roots
    at m = 17 the fit is off by 1.5e-7 at C = 1, p = 0.2 and by 6.6e-7 at
    C = 2, p = 0.1; the error grows as the drift window 2C + 1 nears the
    ladder's row counts (7.5e-6 at C = 3, p = 0.1). Where the roots lie
    within about 1e-6 of 1 (p >= 0.8 at C = 1, far above the detector's
    p < 1/(2C+1)) the fit can reach 1, and a ``ValueError`` says so.
    """
    if m <= MAX_EXACT_ROWS:
        return perron_root(build_transfer_operator(m, C, p))
    value = float(m**_FIT_POWERS @ _fit_coefficients(C, p))
    if not value < 1.0:
        raise ValueError(
            f"extrapolated run rate {value} is not below 1 at m = {m}, C = {C}, p = {p}: "
            f"the fit to the exact roots at m = {_FIT_ROWS[0]}..{_FIT_ROWS[-1]} holds only "
            "where those roots stay away from 1"
        )
    return RunRate(value, m, C, p, EXTRAPOLATED_METHOD)


def resolve_area_rate(C: int, p: float) -> float:
    """Rate constant of the jointly growing regime, -log rho_inf.

    The longest significant chain in an m-by-n Bernoulli(p) net grows like
    log(m*n) divided by this constant, the Erdos-Renyi law for long runs
    (Arratia and Waterman, An Erdos-Renyi law with shifts, Adv. Math. 1985):
    a cell starts a chain of at least L nodes with probability about
    c * rho_inf^L, where rho_inf is the limit in m of the run rate. rho_inf is
    the intercept of the fit ``resolve_run_rate`` makes past
    ``MAX_EXACT_ROWS``. Requires p < 1/(2C+1), the subcritical guard under
    which rho_inf <= (2C+1)p stays below 1.
    """
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if not (0.0 < p < 1.0 / (2 * C + 1)):
        raise ValueError(
            f"area rate requires p < 1/(2C+1) = {1.0 / (2 * C + 1):.4f}, got p={p}"
        )
    rho_inf = float(_fit_coefficients(C, p)[0])
    if not (0.0 < rho_inf < 1.0):
        raise ValueError(
            f"fitted limit run rate {rho_inf} does not lie in (0,1) at C = {C}, p = {p}"
        )
    return -math.log(rho_inf)
