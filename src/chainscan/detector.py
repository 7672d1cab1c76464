"""Two-step chain detector and the per-frame anomaly mode.

Step I rejects when the longest significant chain exceeds its threshold;
otherwise Step II rejects when the capped normalized scan statistic, centered
at the null conditional mean of a significant node, exceeds its threshold.
The growing-lattice regime swaps the Step I cut and the scan cap for ones
based on the joint-growth rate constant, -log of the limit run rate, so no
configuration is resolved by simulation. Every entry point (detection,
frame mode and the Monte Carlo harness) resolves the cuts and the scan cap
of a configuration on the grid shape once, and so runs all of its checks,
before any stage runs. Frame mode scores the raw (uncentered) scan
statistic against empirical cuts. Frame mode and alarm calibration score
both statistics on stacks of trials through one batched scorer; the Monte
Carlo rejection loop calls the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .detectability import (
    DEFAULT_DELTA2,
    DEFAULT_EPSILON,
    DEFAULT_X_STAR,
    Thresholds,
    decision_thresholds,
    normal_cdf,
    null_conditional_mean,
)
from .grid import ChainPath, ImageGrid, significance_map
from .rates import RunRate, resolve_area_rate, resolve_run_rate
from .runs import longest_run_length
from .scan import scan_statistic

__all__ = ["DetectorConfig", "DetectionResult", "FrameStat", "make_config", "detect",
           "detect_frames"]

FIXED_ROWS = "fixed-m"
GROWING_ROWS = "growing-m"


@dataclass(frozen=True)
class DetectorConfig:
    """Resolved detector parameters.

    ``run_rate`` carries its (m, C, p) provenance; :func:`detect` refuses
    grids whose geometry disagrees with it. ``area_rate`` is only consulted
    in the growing-rows regime; when given, it must be finite and positive.
    """

    C: int
    x_star: float
    epsilon: float
    delta2: float
    run_rate: RunRate
    U_override: int | None = None
    regime: str = FIXED_ROWS
    area_rate: float | None = None

    def __post_init__(self):
        if self.regime not in (FIXED_ROWS, GROWING_ROWS):
            raise ValueError(f"unknown regime {self.regime!r}")
        p = self.p
        bound = 1.0 / (2 * self.C + 1)
        if not (p < bound):
            raise ValueError(
                f"significance threshold too low: p = {p:.4f} must stay below "
                f"1/(2C+1) = {bound:.4f}"
            )
        if abs(self.run_rate.p - p) > 1e-9 or self.run_rate.C != self.C:
            raise ValueError("run_rate provenance disagrees with the configuration")
        if self.regime == GROWING_ROWS and self.area_rate is None:
            raise ValueError("growing-m regime needs an area_rate")
        if self.area_rate is not None and not (math.isfinite(self.area_rate)
                                               and self.area_rate > 0):
            raise ValueError(f"area_rate must be finite and positive, got {self.area_rate}")
        if self.U_override is not None and self.U_override < 1:
            raise ValueError(f"U_override must be >= 1, got {self.U_override}")

    @property
    def p(self) -> float:
        """Per-node significance probability under the null."""
        return 1.0 - normal_cdf(self.x_star)


def make_config(
    m: int,
    C: int = 1,
    x_star: float = DEFAULT_X_STAR,
    epsilon: float = DEFAULT_EPSILON,
    delta2: float = DEFAULT_DELTA2,
    regime: str = FIXED_ROWS,
    U_override: int | None = None,
    seed: int = 0,
) -> DetectorConfig:
    """Resolve a configuration for m-row grids.

    The run rate is computed exactly when the row count permits and
    extrapolated from exact roots otherwise. In the growing-rows regime the
    area rate is -log rho_inf, the limit of those roots in m
    (:func:`chainscan.rates.resolve_area_rate`). Both are deterministic and
    ``seed`` is unused; it is kept so that existing callers still run. To use
    rates already at hand, build a :class:`DetectorConfig` directly.
    """
    p = 1.0 - normal_cdf(x_star)
    if p <= 0.0:
        raise ValueError(
            f"x_star = {x_star:g} leaves no pixel significant under the standard "
            "normal null; standardize intensities or lower the threshold"
        )
    run_rate = resolve_run_rate(m, C, p)
    area_rate = None
    if regime == GROWING_ROWS:
        area_rate = resolve_area_rate(C, p)
    return DetectorConfig(
        C=C,
        x_star=x_star,
        epsilon=epsilon,
        delta2=delta2,
        run_rate=run_rate,
        U_override=U_override,
        regime=regime,
        area_rate=area_rate,
    )


@dataclass(frozen=True)
class FrameStat:
    """Both statistics for one frame and whether an alarm fired.

    ``x_star_s`` is the raw scan statistic (no centering), the scale on which
    :func:`chainscan.simulate.calibrate_alarms` sets empirical cuts.
    """

    index: int
    l0_length: int
    x_star_s: float
    alarm: bool


@dataclass(frozen=True)
class DetectionResult:
    """Decision, the stage that fired, both statistics, and a witness chain.

    ``x_star_s`` is the centered Step II value: the maximum over capped
    significant chains L of (sum over L - lambda(x*) * |L|) / sqrt(|L|), with
    lambda from :func:`chainscan.detectability.null_conditional_mean`. It is
    None when Step I already rejected (the scan never ran) and the -inf
    sentinel when the scan ran over an empty significance map.
    """

    reject_null: bool
    deciding_stage: str  # "step1" | "step2" | "none"
    l0_length: int
    x_star_s: float | None
    thresholds: Thresholds
    witness: ChainPath | None


def _resolve(config: DetectorConfig, m: int, n: int) -> tuple[Thresholds, int]:
    """Decision cuts and scan cap of ``config`` on an m-by-n grid.

    Every detection entry point calls this once, before any stage runs, so
    both regimes share its checks: a fixed-m config must match the grid's
    rows, :func:`decision_thresholds` guards n, m, epsilon and delta2, and a
    ``U_override`` may not exceed n. The cap is 3 log N / rate, clipped to
    [1, n], on the scale of each regime's Step I cut: (log n, log(1/rho))
    for fixed m and (log(mn), area rate) for growing m.
    """
    if config.regime == FIXED_ROWS and m != config.run_rate.m:
        raise ValueError(
            f"configuration was resolved for m = {config.run_rate.m}, grid has m = {m}"
        )
    thr = decision_thresholds(
        n, m, config.run_rate.value, config.epsilon, config.delta2, config.x_star
    )
    if config.regime == GROWING_ROWS:
        log_size, rate = math.log(m * n), config.area_rate
        thr = replace(thr, step1=(1.0 + config.epsilon / 2.0) * log_size / rate)
    else:
        log_size, rate = math.log(n), math.log(1.0 / config.run_rate.value)
    if config.U_override is None:
        return thr, max(1, min(n, math.ceil(3.0 * (log_size / rate))))
    if config.U_override > n:
        raise ValueError(f"U_override {config.U_override} exceeds n = {n}")
    return thr, config.U_override


def detect(grid: ImageGrid, config: DetectorConfig) -> DetectionResult:
    """Run the two-step detector on one grid.

    Deterministic: identical grid and configuration give identical results.
    Every check of the configuration against the grid runs before either
    stage, so a config that disagrees with the grid fails whatever the data.
    The witness is the chain behind whichever statistic decided. The run
    stage runs once per grid: its one pass gives the length and the Step I
    witness. Step II scores values only; the scan's end and witness are
    found only when its value passes the cut.
    """
    thr, U = _resolve(config, grid.m, grid.n)
    sig = significance_map(grid, config.x_star)
    run = longest_run_length(sig, config.C)
    if run.length > thr.step1:
        return DetectionResult(True, "step1", run.length, None, thr, run.witness)
    center = null_conditional_mean(config.x_star)
    value = float(_kernels.scan_values(grid.values, sig.bits, config.C, U, center)[0])
    if value > thr.step2:
        scan = scan_statistic(grid, sig, config.C, U, center=center)
        return DetectionResult(True, "step2", run.length, scan.value, thr, scan.arg_chain)
    return DetectionResult(False, "none", run.length, value, thr, None)


def _score_stacks(stacks, C: int, U: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact longest-run lengths and raw capped scan values of every trial, in order,
    of (x, z) pairs: a (T, m, n) intensity stack and its significance bits. One scan
    pass per stack gives the values and min(l0, U); the run stage scores only the
    trials still live at layer U."""
    lengths, values = [], []
    for x, z in stacks:
        depth = np.empty(len(z), dtype=np.int64)
        values.append(_kernels.scan_values(x, z, C, U, lengths=depth))
        deep = np.flatnonzero(depth == U)
        if deep.size:
            depth[deep] = _kernels.chain_lengths(z[deep], C)
        lengths.append(depth)
    return np.concatenate(lengths), np.concatenate(values)


def detect_frames(
    frames,
    config: DetectorConfig,
    l0_alarm: float,
    scan_alarm: float,
) -> list[FrameStat]:
    """Per-frame statistics with alarms at fixed cuts.

    Frames are independent; an alarm fires when either statistic strictly
    exceeds its cut. The scan statistic is the raw one, so ``scan_alarm``
    belongs on the scale of :func:`chainscan.simulate.calibrate_alarms`, not
    on that of the asymptotic Step II cut. Frames are scored by
    :func:`_score_stacks` in stacks of about ``_kernels._BATCH_CELLS`` cells
    (larger stacks scan faster but hold more memory at once), with the same
    values as the single-grid statistics, in input order.
    A NaN cut is an error; an infinite one is allowed, and +inf switches its
    statistic's alarm off.
    """
    for name, cut in (("l0_alarm", l0_alarm), ("scan_alarm", scan_alarm)):
        if math.isnan(cut):
            raise ValueError(f"{name} must not be NaN")
    frames = list(frames)
    if not frames:
        return []
    m, n = frames[0].m, frames[0].n
    for k, frame in enumerate(frames):
        if (frame.m, frame.n) != (m, n):
            raise ValueError(f"frame {k} is {frame.m}x{frame.n}, expected {m}x{n}")
    _, U = _resolve(config, m, n)
    bounds = np.cumsum([0, *_kernels.trial_batches(len(frames), m, n)]).tolist()
    stacks = (np.stack([g.values for g in frames[a:b]]) for a, b in zip(bounds, bounds[1:]))
    lengths, values = _score_stacks(((x, x > config.x_star) for x in stacks), config.C, U)
    alarms = (lengths > l0_alarm) | (values > scan_alarm)
    return [FrameStat(k, int(length), float(value), bool(alarm))
            for k, (length, value, alarm) in enumerate(zip(lengths, values, alarms))]
