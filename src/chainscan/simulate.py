"""Monte Carlo harness: error-rate estimation and alarm calibration.

Trials come in batches of ``_kernels.trial_batches``, and each batch draws
its randomness in turn, so an estimate depends on its seed and on that
partition of the trials. The detector reads a null grid only through its
significance bits and the values on set bits, which in law are i.i.d.
Bernoulli(p) bits and i.i.d. N(0, 1) values truncated to (x*, inf). So
every loop draws the bits with ``_kernels.bernoulli_stack``, one random
byte per cell, and the values on set bits with ``_kernels._normal_tail``,
never a whole normal grid.

A rejection is the union event "longest run above its cut OR centered scan
statistic above its cut", which is exactly the two-step detector's rejection
region. The estimators draw and compute only what that decision reads. Per
batch, on one generator: the bits; for power, the batch's planted chains in
one vectorized draw (``grid._chain_draw``, whose one-chain case on a seed is
``generate_chain``), walked at once (``grid._clamped_walk``), then fresh
N(mu, 1) values on the planted cells, whose bits are recomputed; the run
stage, stopped at the first layer above the Step I cut; and only for the
trials Step I leaves, tail values on the other set bits, then the scan. Alarm
calibration draws every trial's values and takes empirical quantiles of the
exact run lengths and of the raw scan statistic, the scale that frame mode
scores. The seeds drive only these draws: the detector configuration is
resolved without simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .detectability import (
    DEFAULT_DELTA2,
    DEFAULT_EPSILON,
    DEFAULT_X_STAR,
    null_conditional_mean,
)
from .detector import DetectorConfig, _resolve, _score_stacks, make_config
from .grid import ChainPath, _chain_draw, _clamped_walk

__all__ = [
    "LengthLaw",
    "ExperimentSpec",
    "ErrorEstimate",
    "config_for",
    "estimate_type1",
    "estimate_power",
    "calibrate_alarms",
]

_LAW_KINDS = ("linear", "sqrt", "log", "fixed")


@dataclass(frozen=True)
class LengthLaw:
    """Embedded-chain length as a function of the column count."""

    kind: str
    coef: float

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise ValueError(f"unknown length law {self.kind!r}, expected one of {_LAW_KINDS}")
        if not (math.isfinite(self.coef) and self.coef > 0):
            raise ValueError(f"length-law coef must be finite and positive, got {self.coef}")

    def realize(self, n: int) -> int:
        if self.kind == "linear":
            raw = self.coef * n
        elif self.kind == "sqrt":
            raw = self.coef * math.sqrt(n)
        elif self.kind == "log":
            raw = self.coef * math.log(n)
        else:
            raw = self.coef
        length = max(1, int(round(raw)))
        if length > n:
            raise ValueError(f"length law {self.kind}({self.coef:g}) gives {length} > n = {n}")
        return length


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment: grid geometry, detector knobs, signal, trials."""

    m: int
    n: int
    C: int = 1
    x_star: float = DEFAULT_X_STAR
    epsilon: float = DEFAULT_EPSILON
    delta2: float = DEFAULT_DELTA2
    length_law: LengthLaw = field(default_factory=lambda: LengthLaw("linear", 0.1))
    mu: float = 0.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 2:
            raise ValueError(f"need m >= 1 and n >= 2, got {self.m}x{self.n}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"need a finite mu >= 0, got {self.mu}")


@dataclass(frozen=True)
class ErrorEstimate:
    """Binomial rate estimate with its standard error."""

    rate: float
    stderr: float
    trials: int
    kind: str


def _estimate(rate_sum: int, trials: int, kind: str) -> ErrorEstimate:
    rate = rate_sum / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return ErrorEstimate(rate, stderr, trials, kind)


def config_for(spec: ExperimentSpec) -> DetectorConfig:
    """Resolve the detector configuration an experiment runs under."""
    return make_config(spec.m, spec.C, spec.x_star, spec.epsilon, spec.delta2)


def _require_agreement(config: DetectorConfig, want: tuple, source: str) -> None:
    """Raise, naming both tuples, when the config's leading (m, C, x_star,
    epsilon, delta2) differ from ``want``."""
    got = (config.run_rate.m, config.C, config.x_star, config.epsilon, config.delta2)
    if got[: len(want)] != want:
        names = ", ".join(("m", "C", "x_star", "epsilon", "delta2")[: len(want)])
        raise ValueError(f"config disagrees with the {source}: ({names}) = "
                         f"{got[: len(want)]}, {source} has {want}")


def _checked_config(spec: ExperimentSpec, config: DetectorConfig | None) -> DetectorConfig:
    """``config``, or the spec's own when None; a config whose m, C, x_star,
    epsilon or delta2 differ from the spec's is an error."""
    if config is None:
        return config_for(spec)
    _require_agreement(config, (spec.m, spec.C, spec.x_star, spec.epsilon, spec.delta2),
                       "spec")
    return config


def _no_chain(rng: np.random.Generator, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The planted cells of null trials: none, and no draw."""
    none = np.zeros((1, 0), dtype=np.int64)
    return none, none


def _rejection_rate(spec: ExperimentSpec, config: DetectorConfig | None, stream: int,
                    kind: str, chains) -> ErrorEstimate:
    """Fraction of the spec's trials the two-step rule rejects.

    ``chains(rng, t)`` returns the 0-based (rows, cols) of the planted
    cells of a batch's t trials, drawn on the loop's generator, each of
    shape (t, L) or, for one chain shared by every trial, (1, L).
    """
    if spec.trials < 50:
        raise ValueError(f"need trials >= 50 for a rate estimate, got {spec.trials}")
    config = _checked_config(spec, config)
    thr, cap = _resolve(config, spec.m, spec.n)
    center = null_conditional_mean(config.x_star)
    stop = math.floor(thr.step1) + 1  # min(l0, stop) > step1 exactly when l0 > step1
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, stream]))
    hits = 0
    for t in _kernels.trial_batches(spec.trials, spec.m, spec.n):
        z = _kernels.bernoulli_stack(rng, t, spec.m, spec.n, config.p)
        rows, cols = (np.broadcast_to(a, (t, a.shape[1])) for a in chains(rng, t))
        # the planted cells are independent of the noise: fresh values, then their bits
        planted = spec.mu + rng.standard_normal(rows.shape)
        z[np.arange(t)[:, None], rows, cols] = planted > config.x_star
        lengths = _kernels.chain_lengths(z, config.C, stop=stop)
        keep = np.flatnonzero(lengths <= thr.step1)  # the trials Step I leaves to Step II
        hits += t - keep.size
        z, planted = z[keep], planted[keep]
        cells = np.arange(keep.size)[:, None], rows[keep], cols[keep]
        tail = z.copy()
        tail[cells] = False
        x = np.zeros(z.shape)  # only the set bits' entries are read
        x[tail] = _kernels._normal_tail(rng, np.count_nonzero(tail), config.x_star)
        x[cells] = planted
        hits += int((_kernels.scan_values(x, z, config.C, cap, center) > thr.step2).sum())
    return _estimate(hits, spec.trials, kind)


def estimate_type1(spec: ExperimentSpec, config: DetectorConfig | None = None) -> ErrorEstimate:
    """Fraction of pure-noise grids the detector rejects (``spec.mu`` is ignored).

    ``config`` is the resolved :func:`config_for` of the spec, to share one
    run-rate resolution between estimates; it is resolved here when omitted.
    """
    return _rejection_rate(spec, config, 1, "type1", _no_chain)


def estimate_power(
    spec: ExperimentSpec,
    fixed_chain: ChainPath | None = None,
    config: DetectorConfig | None = None,
) -> ErrorEstimate:
    """Fraction of signal grids the detector rejects.

    Each trial plants a fresh random chain of the law's length with mean
    ``spec.mu`` added on its nodes (the composite alternative); pass
    ``fixed_chain`` to hold the placement constant for variance reduction.
    ``mu = 0`` degenerates to the null and is allowed for cross-checks.
    ``config`` is as in :func:`estimate_type1`.
    """
    length = spec.length_law.realize(spec.n)
    if fixed_chain is not None:
        fixed_chain.validate(spec.m, spec.n, spec.C)
        fixed = np.array([fixed_chain.start_col]), np.array([fixed_chain.rows])

    def chains(rng: np.random.Generator, t: int) -> tuple[np.ndarray, np.ndarray]:
        if fixed_chain is None:  # the batch's t chains in one draw, walked at once
            starts, moves = _chain_draw(rng, t, spec.m, spec.n, spec.C, length)
            rows = _clamped_walk(moves, spec.m)
        else:  # one (1, L) chain broadcast over the batch
            starts, rows = fixed
        return rows - 1, starts[:, None] - 1 + np.arange(rows.shape[1])

    return _rejection_rate(spec, config, 2, "power", chains)


def calibrate_alarms(
    m: int,
    n: int,
    C: int,
    x_star: float,
    alpha: float,
    trials: int,
    seed: int,
    config: DetectorConfig | None = None,
) -> tuple[float, float]:
    """Empirical alarm cuts with union false-alarm level about alpha.

    Each statistic gets its empirical (1 - alpha/2)-quantile over null
    frames, so the two-sided union alarm has level <= alpha up to Monte
    Carlo error. The null frames are scored in batches by the same path as
    :func:`chainscan.detector.detect_frames`, so the scan cut is on the raw
    (uncentered) scale that frame mode scores. Pass the detector ``config``
    that will score the frames so calibration and deployment share the same
    scan cap; a config whose m, C or x_star differ from the arguments is an
    error.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0,1], got {alpha}")
    needed = math.ceil(50.0 / alpha)
    if trials < needed:
        raise ValueError(f"need at least {needed} trials for alpha={alpha:g}, got {trials}")
    if config is None:
        config = make_config(m, C, x_star)
    _require_agreement(config, (m, C, x_star), "call")
    _, cap = _resolve(config, m, n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))

    def stacks():  # each batch's bits, then tail values on its set bits
        for t in _kernels.trial_batches(trials, m, n):
            z = _kernels.bernoulli_stack(rng, t, m, n, config.p)
            x = np.zeros(z.shape)  # only the set bits' entries are read
            x[z] = _kernels._normal_tail(rng, np.count_nonzero(z), config.x_star)
            yield x, z

    lengths, values = _score_stacks(stacks(), config.C, cap)
    q = 1.0 - alpha / 2.0
    return float(np.quantile(lengths, q)), float(np.quantile(values, q))
