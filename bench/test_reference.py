"""Tests of the benchmark's reference DPs and output checkers.

    PYTHONPATH=src python -m pytest -q bench/test_reference.py

The reference DPs are compared with the program's exhaustive oracles
(``longest_run_bruteforce``, ``scan_bruteforce``) on small random grids, and
the checkers must reject a corrupted l0, witness and scan value.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import chainscan as cs  # noqa: E402
import reference as ref  # noqa: E402
from reference import CheckFailed  # noqa: E402


def _instances(count, max_m, max_n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(1, max_n + 1))
        # shift some grids up so that long significant chains occur
        yield rng.standard_normal((m, n)) + rng.choice([0.0, 1.0, 2.0]), int(rng.integers(0, 3))


@pytest.mark.parametrize("seed", range(3))
def test_longest_chain_matches_bruteforce(seed):
    for x, C in _instances(60, 5, 12, seed):
        if x.size > 64:
            continue
        sig = cs.significance_map(cs.ImageGrid(x), ref.X_STAR)
        assert ref.longest_chain(x > ref.X_STAR, C) == cs.longest_run_bruteforce(sig, C)
    # the batched form agrees with the single-grid form
    x = np.random.default_rng(seed).standard_normal((7, 4, 9)) + 1.0
    assert list(ref.longest_chain(x > ref.X_STAR, 1)) == [
        ref.longest_chain(g > ref.X_STAR, 1) for g in x]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("center", [0.0, ref.null_conditional_mean()])
def test_capped_scan_matches_bruteforce(seed, center):
    for x, C in _instances(60, 4, 12, seed):
        grid = cs.ImageGrid(x)
        sig = cs.significance_map(grid, ref.X_STAR)
        want = cs.scan_bruteforce(grid, sig, C, center=center)
        got = ref.capped_scan(x, C, x.shape[1], center)  # U = n is no cap at all
        assert got == want or abs(got - want) <= 1e-12


def test_capped_scan_respects_the_cap():
    x = np.full((1, 6), 3.0)
    x[0, 0] = 4.0  # each longer chain scores higher, so the cap decides the value
    assert ref.capped_scan(x, 1, 1) == 4.0
    assert math.isclose(ref.capped_scan(x, 1, 2), 7.0 / math.sqrt(2))
    assert math.isclose(ref.capped_scan(x, 1, 6), 19.0 / math.sqrt(6))
    assert ref.capped_scan(np.zeros((2, 3)), 1, 3) == ref.NEG_INF


def test_dense_root_matches_the_program():
    rho = ref.perron_root_dense(6, 1, 0.1)
    assert abs(rho - cs.resolve_run_rate(6, 1, 0.1).value) < 1e-8


def _detect_payload(x, config):
    r = cs.detect(cs.ImageGrid(x), config)
    w = r.witness
    return {"reject": r.reject_null, "stage": r.deciding_stage, "l0": r.l0_length,
            "xs": r.x_star_s,
            "thresholds": {"step1": r.thresholds.step1, "step2": r.thresholds.step2,
                           "x_star": r.thresholds.x_star},
            "witness": None if w is None else {"start_col": w.start_col, "rows": list(w.rows)}}


@pytest.fixture(scope="module")
def config():
    return cs.make_config(6)


@pytest.fixture(scope="module")
def step1_case(config):
    """A grid on which step I fires, with its payload."""
    x = np.random.default_rng(1).standard_normal((6, 400))
    x[2, 100:130] += 5.0
    payload = _detect_payload(x, config)
    assert payload["stage"] == "step1"
    return x, payload


@pytest.fixture(scope="module")
def scan_case(config):
    """A grid on which the scan runs and fires, with its payload."""
    x = np.random.default_rng(2).standard_normal((6, 400))
    x[x > ref.X_STAR] = 0.0  # an empty map outside the planted chain
    x[3, 50:53] = 9.0
    payload = _detect_payload(x, config)
    assert payload["stage"] == "step2"
    return x, payload


def test_checker_accepts_true_outputs(step1_case, scan_case):
    rho = ref.perron_root_dense(6, 1, 1.0 - 0.9)
    for x, payload in (step1_case, scan_case):
        ref.check_detection(x, payload, 1, cs.DEFAULT_EPSILON, cs.DEFAULT_DELTA2, rho=rho)


def test_checker_rejects_corrupted_l0(step1_case):
    x, payload = step1_case
    bad = copy.deepcopy(payload)
    bad["l0"] += 1
    with pytest.raises(CheckFailed, match="l0"):
        ref.check_detection(x, bad, 1, cs.DEFAULT_EPSILON, cs.DEFAULT_DELTA2)


@pytest.mark.parametrize("corrupt", ["drift", "insignificant", "short"])
def test_checker_rejects_corrupted_witness(step1_case, corrupt):
    x, payload = step1_case
    bad = copy.deepcopy(payload)
    rows = bad["witness"]["rows"]
    mid = len(rows) // 2
    if corrupt == "drift":
        r = rows[mid - 1]
        rows[mid] = r + 2 if r + 2 <= x.shape[0] else r - 2
    elif corrupt == "insignificant":
        # move one interior node to a neighbouring row, keeping the drift legal
        start = bad["witness"]["start_col"]
        for i in range(1, len(rows) - 1):
            for r in (rows[i] - 1, rows[i] + 1):
                if (1 <= r <= x.shape[0] and abs(r - rows[i - 1]) <= 1
                        and abs(r - rows[i + 1]) <= 1 and x[r - 1, start - 1 + i] <= ref.X_STAR):
                    rows[i] = r
                    break
            else:
                continue
            break
        else:
            pytest.fail("no legal insignificant detour on this witness")
    else:
        rows.pop()
    with pytest.raises(CheckFailed, match="witness"):
        ref.check_detection(x, bad, 1, cs.DEFAULT_EPSILON, cs.DEFAULT_DELTA2)


def test_checker_rejects_corrupted_scan_value(scan_case):
    x, payload = scan_case
    bad = copy.deepcopy(payload)
    bad["xs"] += 1e-6
    with pytest.raises(CheckFailed, match="scan value"):
        ref.check_detection(x, bad, 1, cs.DEFAULT_EPSILON, cs.DEFAULT_DELTA2)


def test_checker_rejects_wrong_thresholds_and_decision(scan_case):
    x, payload = scan_case
    bad = copy.deepcopy(payload)
    bad["thresholds"]["step2"] *= 1.01
    with pytest.raises(CheckFailed, match="step2"):
        ref.check_detection(x, bad, 1, cs.DEFAULT_EPSILON, cs.DEFAULT_DELTA2)
    bad = copy.deepcopy(payload)
    bad["reject"], bad["stage"] = False, "none"
    with pytest.raises(CheckFailed, match="decision"):
        ref.check_detection(x, bad, 1, cs.DEFAULT_EPSILON, cs.DEFAULT_DELTA2)


def test_check_rate():
    assert ref.check_rate(0.84, math.sqrt(0.84 * 0.16 / 100), 100) == 84
    with pytest.raises(CheckFailed):
        ref.check_rate(0.845, 0.036, 100)
    with pytest.raises(CheckFailed):
        ref.check_rate(0.84, 0.04, 100)
