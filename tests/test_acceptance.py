"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances are frozen
here, next to the reference values they guard. Two criteria fail and are kept
as specified:

- the run-rate table: the exact Perron roots sit above the frozen values,
  for a reason the repository does not record;
- the error rates: Step I alone rejects about 0.8 of null grids at the
  default epsilon = 1e-4, because its cut (1 + epsilon/2) log_{1/rho} n is
  the typical null longest run, not a bound above it.

Step II is not a cause: it thresholds the chain sums centered at the null
conditional mean, and that statistic stays below its cut on null grids.
The README's acceptance-suite section carries the full analysis.
"""

import math
import time

import numpy as np
import pytest

from chainscan import (
    UNREACHABLE,
    build_transfer_operator,
    detect,
    detect_frames,
    calibrate_alarms,
    embed_chain,
    generate_chain,
    generate_null_grid,
    longest_run_bruteforce,
    longest_run_length,
    make_config,
    min_detectable_mean_log_length,
    min_detectable_mean_power_law,
    perron_root,
    scan_bruteforce,
    scan_statistic,
    significance_map,
)
from chainscan import ExperimentSpec, LengthLaw, estimate_power, estimate_type1
from conftest import random_instance

X_STAR = 1.2816
RATE_10 = 0.2691  # frozen reference run rate, m=10 C=1 p=0.1


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# frozen reference tables -----------------------------------------------------

RUN_RATE_TABLE = {
    4: (0.2444, 0.4564, 0.6341, 0.7758, 0.8804, 0.9482),
    8: (0.2654, 0.4955, 0.6869, 0.8363, 0.9383, 0.9876),
    10: (0.2691, 0.5022, 0.6958, 0.8467, 0.9486, 0.9930),
}
RUN_RATE_PS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

POWER_LAW_ZETAS = (0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0)
POWER_LAW_TABLE = {
    200: (1.2216, 1.0307, 0.9745, 0.9052, 0.8126, 0.6661),
    300: (1.1740, 1.0017, 0.9504, 0.8869, 0.8017, 0.6661),
    500: (1.1247, 0.9710, 0.9249, 0.8675, 0.7901, 0.6661),
    10**3: (1.0716, 0.9375, 0.8969, 0.8461, 0.7772, 0.6661),
    2 * 10**3: (1.0296, 0.9107, 0.8743, 0.8288, 0.7668, 0.6661),
    5 * 10**3: (0.9860, 0.8824, 0.8506, 0.8105, 0.7556, 0.6661),
    10**4: (0.9594, 0.8650, 0.8359, 0.7991, 0.7487, 0.6661),
    10**5: (0.8960, 0.8232, 0.8004, 0.7716, 0.7319, 0.6661),
    10**6: (0.8553, 0.7959, 0.7772, 0.7535, 0.7207, 0.6661),
}

SQRT_LAW_CS = (1 / 3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 50.0)
SQRT_LAW_TABLE = {
    10**3: (1.4729, 1.4176, 1.3287, 1.2458, 1.1997, 1.1439, 1.0716, 0.9171),
    10**4: (1.4352, 1.3948, 1.3287, 1.2660, 1.2307, 1.1876, 1.1313, 1.0090),
    10**5: (1.4131, 1.3813, 1.3287, 1.2783, 1.2497, 1.2146, 1.1685, 1.0671),
    10**6: (1.3986, 1.3723, 1.3287, 1.2866, 1.2626, 1.2329, 1.1938, 1.1073),
    10**7: (1.3884, 1.3660, 1.3287, 1.2925, 1.2718, 1.2462, 1.2122, 1.1367),
    10**8: (1.3807, 1.3613, 1.3287, 1.2970, 1.2788, 1.2562, 1.2262, 1.1592),
}

LOG_LENGTH_CS = (1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
LOG_LENGTH_TABLE = {
    10**3: (1.83, 1.70, 1.58, 1.51, 1.39, 1.35),
    10**4: (1.86, 1.75, 1.64, 1.57, 1.46, 1.41),
    10**5: (1.89, 1.79, 1.70, 1.63, 1.51, 1.47),
    10**6: (1.92, 1.83, 1.73, 1.67, 1.56, 1.52),
    10**7: (1.95, 1.87, 1.77, 1.71, 1.60, 1.57),
    10**8: (1.98, 1.90, 1.81, 1.75, 1.64, 1.61),
}


def test_criterion_run_rate_table():
    """Every frozen run-rate value reproduced to 5e-4 by the exact operator.

    Known to fail, cause undetermined. The operator matches exhaustive
    enumeration of the chain model exactly
    (``test_rates.py::TestAcrossProbabilityOracle``), yet its Perron roots sit
    8e-4 .. 1.6e-2 above the frozen value in all 18 cells. It is not a
    convergence artefact: the ratios P_{n+1}/P_n settle onto the roots, and
    no single n reproduces the table (at m=10, p=0.1 no ratio comes below
    0.2724, against the frozen 0.2691). The same frozen 0.2691 drives the
    passing detectability tables, so the table probably shares their
    provenance, which the repository does not record. Regenerating it from
    the program would only snapshot today's output.
    """
    t0 = time.time()
    worst = 0.0
    rows = []
    for m, refs in RUN_RATE_TABLE.items():
        for p, ref in zip(RUN_RATE_PS, refs):
            value = perron_root(build_transfer_operator(m, 1, p), tol=1e-10).value
            worst = max(worst, abs(value - ref))
            rows.append((m, p, value, ref))
    elapsed = time.time() - t0
    ok = worst <= 5e-4 and elapsed < 10.0
    report(
        "run-rate table",
        ok,
        f"worst |computed - reference| = {worst:.2e} (tolerance 5e-4), {elapsed:.1f}s",
    )


def test_criterion_power_law_table():
    t0 = time.time()
    worst = 0.0
    for n, refs in POWER_LAW_TABLE.items():
        for zeta, ref in zip(POWER_LAW_ZETAS, refs):
            mu = min_detectable_mean_power_law(n, 10, 1, RATE_10, 1.0, zeta,
                                               eps=1e-4, x_star=X_STAR)
            worst = max(worst, abs(mu - ref))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    report("power-law mean table (54 cells)", ok,
           f"worst error {worst:.2e} (tolerance 1e-3), {elapsed:.2f}s")


def test_criterion_sqrt_law_table():
    t0 = time.time()
    worst = 0.0
    for n, refs in SQRT_LAW_TABLE.items():
        for c, ref in zip(SQRT_LAW_CS, refs):
            mu = min_detectable_mean_power_law(n, 10, 1, RATE_10, 0.5, c,
                                               eps=1e-4, x_star=X_STAR)
            worst = max(worst, abs(mu - ref))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    report("sqrt-law mean table (48 cells)", ok,
           f"worst error {worst:.2e} (tolerance 1e-3), {elapsed:.2f}s")


def test_criterion_log_length_table():
    t0 = time.time()
    worst = 0.0
    for n, refs in LOG_LENGTH_TABLE.items():
        for c, ref in zip(LOG_LENGTH_CS, refs):
            mu = min_detectable_mean_log_length(n, 10, c, delta2=1e-4, x_star=X_STAR)
            worst = max(worst, abs(mu - ref))
    elapsed = time.time() - t0
    ok = worst <= 0.02 and elapsed < 1.0
    report("log-length mean table (36 cells)", ok,
           f"worst error {worst:.2e} (tolerance 0.02), {elapsed:.2f}s")


def test_criterion_oracle_equivalence():
    """Dynamic programs match exhaustive enumeration on 10^4 small instances."""
    t0 = time.time()
    rng = np.random.default_rng(1234)
    instances = 10_000
    worst_scan = 0.0
    for _ in range(instances):
        grid, sig, C = random_instance(rng, max_m=4, max_n=10, Cs=(1, 2))
        fast_len = longest_run_length(sig, C).length
        brute_len = longest_run_bruteforce(sig, C)
        assert fast_len == brute_len, (sig.bits, C)
        fast_scan = scan_statistic(grid, sig, C, U=sig.n).value
        brute_scan = scan_bruteforce(grid, sig, C)
        if fast_scan == UNREACHABLE or brute_scan == UNREACHABLE:
            assert fast_scan == brute_scan
        else:
            worst_scan = max(worst_scan, abs(fast_scan - brute_scan))
    elapsed = time.time() - t0
    ok = worst_scan <= 1e-9 and elapsed < 60.0
    report("oracle equivalence (10^4 instances)", ok,
           f"run lengths exact, worst scan gap {worst_scan:.1e}, {elapsed:.0f}s")


def test_criterion_run_length_laws():
    """Longest-run growth over 100 seeds against log-rate predictions."""
    t0 = time.time()
    n = 10**5
    results = []
    # single row, p = 0.3
    x_star_1 = 0.5244005127080409  # 70th percentile: p = 0.3
    target1 = math.log(n) / math.log(1 / 0.3)
    ratios = []
    for seed in range(100):
        grid = generate_null_grid(1, n, seed=seed)
        sig = significance_map(grid, x_star_1)
        ratios.append(longest_run_length(sig, 1).length / target1)
    results.append(("single-row", float(np.mean(ratios))))
    # ten rows, p = 0.1, frozen reference rate 0.2691
    target10 = math.log(n) / math.log(1 / RATE_10)
    ratios = []
    for seed in range(100):
        grid = generate_null_grid(10, n, seed=seed + 7000)
        sig = significance_map(grid, X_STAR)
        ratios.append(longest_run_length(sig, 1).length / target10)
    results.append(("ten-row", float(np.mean(ratios))))
    elapsed = time.time() - t0
    ok = all(0.85 <= r <= 1.15 for _, r in results) and elapsed < 120.0
    report("run-length growth laws", ok,
           "; ".join(f"{k} mean ratio {r:.3f} in [0.85, 1.15]" for k, r in results)
           + f", {elapsed:.0f}s")


def test_criterion_monotonicity():
    """Exact run rate nondecreasing in the row count and in p."""
    ms = (1, 2, 4, 8)
    ps = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    values = {
        (m, p): perron_root(build_transfer_operator(m, 1, p)).value
        for m in ms for p in ps
    }
    ok = True
    for p in ps:
        for lo, hi in zip(ms, ms[1:]):
            ok &= values[(lo, p)] <= values[(hi, p)]
    for m in ms:
        for lo, hi in zip(ps, ps[1:]):
            ok &= values[(m, lo)] <= values[(m, hi)]
    report("run-rate monotonicity", ok,
           f"{len(values)} exact values, nondecreasing in rows and in p")


def test_criterion_error_rates():
    """Null rejection rate, power, and the error-sum trend.

    The type-I band is known to fail, and Step I is the only remaining cause.
    On the trend-check null grids (seed 103) Step I alone rejects 0.835, 0.82
    and 0.88 at n = 500, 2000 and 8000; the centered Step II statistic
    rejects none of them. At epsilon = 1e-4 the cut
    (1 + epsilon/2) log_{1/rho} n sits at the typical null longest run, so
    the null rejection rate is about 1 - exp(-K n^(-epsilon/2)), which does
    not fall over any testable n. Reaching 0.10 at n = 2000 would need
    epsilon of about 0.7 or more; the paper's abstract fixes no finite-n
    epsilon, and the frozen detectability tables pass with 1e-4, so epsilon
    stays. Observed: type-I 0.800, power 1.000, error sums 0.835, 0.82,
    0.88; the trend check passes.
    """
    t0 = time.time()
    type1 = estimate_type1(ExperimentSpec(m=10, n=2000, x_star=X_STAR, trials=200,
                                          seed=101))
    power = estimate_power(
        ExperimentSpec(m=10, n=300, x_star=X_STAR,
                       length_law=LengthLaw("linear", 0.2), mu=2.5, trials=100,
                       seed=102)
    )
    sums = []
    for n in (500, 2000, 8000):
        t1 = estimate_type1(ExperimentSpec(m=10, n=n, x_star=X_STAR, trials=200,
                                           seed=103))
        pw = estimate_power(
            ExperimentSpec(m=10, n=n, x_star=X_STAR,
                           length_law=LengthLaw("linear", 0.2), mu=2.5, trials=200,
                           seed=104)
        )
        sums.append((n, t1.rate + (1 - pw.rate),
                     math.sqrt(t1.stderr**2 + pw.stderr**2)))
    trend_ok = all(
        b_sum <= a_sum + 2.0 * math.sqrt(a_se**2 + b_se**2)
        for (_, a_sum, a_se), (_, b_sum, b_se) in zip(sums, sums[1:])
    )
    elapsed = time.time() - t0
    detail = (
        f"type-I {type1.rate:.3f} (band <= 0.10), power {power.rate:.3f} "
        f"(band >= 0.95), error sums {[round(s, 3) for _, s, _ in sums]} "
        f"non-increasing within 2 sigma: {trend_ok}, {elapsed:.0f}s"
    )
    ok = type1.rate <= 0.10 and power.rate >= 0.95 and trend_ok and elapsed < 600.0
    report("error rates", ok, detail)


def test_criterion_complexity():
    """Doubling the columns at most 2.5x the wall time (near-linear scaling).

    Seeds are pinned so the longest run stays below the step-one cut at both
    sizes and the scan stage runs in full.
    """
    config = make_config(10)
    grids = {
        10**6: generate_null_grid(10, 10**6, seed=22),
        2 * 10**6: generate_null_grid(10, 2 * 10**6, seed=200),
    }
    medians = {}
    for n, grid in grids.items():
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = detect(grid, config)
            times.append(time.perf_counter() - t0)
            assert res.x_star_s is not None  # both stages ran
        medians[n] = sorted(times)[2]
    ratio = medians[2 * 10**6] / medians[10**6]
    ok = ratio <= 2.5
    report("complexity scaling", ok,
           f"median {medians[10**6]:.2f}s -> {medians[2 * 10**6]:.2f}s, "
           f"ratio {ratio:.2f} (limit 2.5)")


def test_criterion_frame_mode():
    """Calibrated alarms flag a synthetic burst and stay quiet elsewhere.

    50 frames of 50x50, burst on frames 20..25 (chain length 30, mean 3),
    alarms calibrated on null frames at level 0.01; averaged over 20 seeds
    the burst window must collect at least 5 alarms and the 44 quiet frames
    at most 1.
    """
    t0 = time.time()
    config = make_config(50)
    alpha = 0.01
    cuts = calibrate_alarms(50, 50, 1, config.x_star, alpha=alpha, trials=5000,
                            seed=18, config=config)
    burst = set(range(20, 26))
    inside_counts, outside_counts = [], []
    for rep in range(20):
        frames = []
        for k in range(50):
            g = generate_null_grid(50, 50, seed=30_000 + rep * 100 + k)
            if k in burst:
                chain = generate_chain(50, 50, 1, 30, seed=60_000 + rep * 100 + k)
                g = embed_chain(g, chain, 3.0)
            frames.append(g)
        stats = detect_frames(frames, config, *cuts)
        alarmed = {s.index for s in stats if s.alarm}
        inside_counts.append(len(alarmed & burst))
        outside_counts.append(len(alarmed - burst))
    inside = float(np.mean(inside_counts))
    outside = float(np.mean(outside_counts))
    elapsed = time.time() - t0
    ok = inside >= 5.0 and outside <= 1.0
    report("frame mode", ok,
           f"cuts l0 > {cuts[0]:.0f}, scan > {cuts[1]:.2f}; mean alarms "
           f"inside {inside:.2f} (needs >= 5), outside {outside:.2f} "
           f"(needs <= 1), {elapsed:.0f}s")
