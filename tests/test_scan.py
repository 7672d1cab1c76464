import math

import numpy as np
import pytest

from chainscan import (
    UNREACHABLE,
    CapacityError,
    ChainPath,
    ImageGrid,
    ScanResult,
    SignificanceMap,
    null_conditional_mean,
    scan_bruteforce,
    scan_statistic,
    significance_map,
)
from chainscan import _kernels
from conftest import check_chain, random_instance

from test_runs import PATTERN_NODES, _map_from_pattern


class TestScanStatistic:
    def test_single_significant_node(self):
        values = np.full((3, 4), -1.0)
        values[1, 2] = 1.9
        g = ImageGrid(values)
        sm = significance_map(g, 0.0)
        res = scan_statistic(g, sm, C=1, U=4)
        assert res.value == pytest.approx(1.9)
        assert res.arg_length == 1
        assert res.arg_chain.nodes() == [(2, 3)]

    def test_single_row_constant_values(self):
        n, v = 9, 0.7
        g = ImageGrid(np.full((1, n), v))
        sm = significance_map(g, 0.0)
        res = scan_statistic(g, sm, C=1, U=n)
        assert res.value == pytest.approx(v * math.sqrt(n), abs=1e-12)
        assert res.arg_length == n

    def test_pattern_instance(self):
        sm = _map_from_pattern(3, 5, PATTERN_NODES)
        values = np.where(sm.bits, 2.0, -1.0)
        g = ImageGrid(values)
        res = scan_statistic(g, sm, C=1, U=5)
        assert res.value == pytest.approx(2.0 * math.sqrt(5), abs=1e-12)
        assert res.value == pytest.approx(scan_bruteforce(g, sm, C=1), abs=1e-12)
        assert check_chain(res.arg_chain, sm, 1) == res.arg_length == 5

    def test_no_significant_node(self):
        g = ImageGrid(np.zeros((3, 5)))
        sm = significance_map(g, 1.0)
        res = scan_statistic(g, sm, C=1, U=5)
        assert res.value == UNREACHABLE
        assert res.arg_chain is None and res.arg_length is None

    def test_negative_single_node(self):
        # a negative threshold can make a negative-valued pixel significant
        values = np.full((2, 3), -5.0)
        values[0, 1] = -0.5
        g = ImageGrid(values)
        sm = significance_map(g, -1.0)
        res = scan_statistic(g, sm, C=1, U=3)
        assert res.value == pytest.approx(-0.5)

    def test_tie_at_one_length_goes_to_row_major_first_end(self):
        values = np.zeros((3, 5))
        values[2, 0:2] = values[0, 3:5] = 2.0
        g = ImageGrid(values)
        res = scan_statistic(g, significance_map(g, 1.0), C=0, U=5)
        assert res == ScanResult(2.82842712474619, ChainPath(4, (1, 1)), 2)

    def test_tie_across_lengths_goes_to_shortest(self):
        # 4 / sqrt(4) equals the single node's 2.0 exactly
        values = np.zeros((2, 6))
        values[0, 0] = 2.0
        values[0, 2:6] = 1.0
        g = ImageGrid(values)
        res = scan_statistic(g, significance_map(g, 0.5), C=0, U=6)
        assert res == ScanResult(2.0, ChainPath(1, (1,)), 1)

    def test_cap_validation(self):
        g = ImageGrid(np.zeros((2, 4)))
        sm = significance_map(g, -1.0)
        with pytest.raises(ValueError):
            scan_statistic(g, sm, C=1, U=5)
        with pytest.raises(ValueError):
            scan_statistic(g, sm, C=1, U=0)

    def test_dimension_mismatch(self):
        g = ImageGrid(np.zeros((2, 4)))
        sm = SignificanceMap(np.zeros((2, 5), dtype=bool))
        with pytest.raises(ValueError):
            scan_statistic(g, sm, C=1, U=2)

    def test_cap_consistency(self, rng):
        for _ in range(100):
            g, sm, C = random_instance(rng)
            prev = None
            for U in range(1, sm.n + 1):
                val = scan_statistic(g, sm, C, U).value
                if prev is not None:
                    assert val >= prev
                prev = val

    def test_witness_rescored(self, rng):
        for _ in range(200):
            g, sm, C = random_instance(rng)
            res = scan_statistic(g, sm, C, U=sm.n)
            if res.arg_chain is None:
                continue
            check_chain(res.arg_chain, sm, C)
            total = sum(g.value_at(i, j) for i, j in res.arg_chain.nodes())
            assert abs(total / math.sqrt(res.arg_chain.length) - res.value) <= 1e-9
            assert res.arg_chain.length == res.arg_length


class TestBruteForce:
    def test_guard(self):
        g = ImageGrid(np.zeros((5, 4)))
        sm = significance_map(g, -1.0)
        with pytest.raises(CapacityError):
            scan_bruteforce(g, sm, C=1)

    def test_all_insignificant(self):
        g = ImageGrid(np.zeros((3, 4)))
        assert scan_bruteforce(g, significance_map(g, 1.0), C=1) == UNREACHABLE

    def test_oracle_equivalence(self, rng):
        # fast slice; the full sweep runs in the acceptance suite
        for _ in range(400):
            g, sm, C = random_instance(rng)
            dp = scan_statistic(g, sm, C, U=sm.n).value
            brute = scan_bruteforce(g, sm, C)
            if brute == UNREACHABLE:
                assert dp == UNREACHABLE
            else:
                assert dp == pytest.approx(brute, abs=1e-9)


class TestCenteredScan:
    """The Step II scale: each node is centered before normalizing."""

    CENTERS = (0.3, null_conditional_mean(1.2816), 2.5)

    def test_oracle_equivalence(self, rng):
        for k in range(300):
            g, sm, C = random_instance(rng)
            center = self.CENTERS[k % len(self.CENTERS)]
            dp = scan_statistic(g, sm, C, U=sm.n, center=center).value
            batched = _kernels.scan_values(g.values, sm.bits, C, sm.n, center)[0]
            brute = scan_bruteforce(g, sm, C, center=center)
            if brute == UNREACHABLE:
                assert dp == batched == UNREACHABLE
            else:
                assert dp == pytest.approx(brute, abs=1e-9)
                assert batched == pytest.approx(brute, abs=1e-9)

    def test_oracle_is_centered_enumeration(self):
        # a single row of constant values: every chain is a window of length L
        n, v, center = 6, 2.0, 1.5
        g = ImageGrid(np.full((1, n), v))
        sm = significance_map(g, 0.0)
        best = max((L * v - center * L) / math.sqrt(L) for L in range(1, n + 1))
        assert scan_bruteforce(g, sm, C=1, center=center) == pytest.approx(best, abs=1e-12)
        assert scan_statistic(g, sm, C=1, U=n, center=center).value == pytest.approx(
            best, abs=1e-12
        )

    def test_witness_rescored(self, rng):
        for k in range(200):
            g, sm, C = random_instance(rng)
            center = self.CENTERS[k % len(self.CENTERS)]
            res = scan_statistic(g, sm, C, U=sm.n, center=center)
            if res.arg_chain is None:
                continue
            check_chain(res.arg_chain, sm, C)
            total = sum(g.value_at(i, j) for i, j in res.arg_chain.nodes())
            length = res.arg_chain.length
            assert abs((total - center * length) / math.sqrt(length) - res.value) <= 1e-9
            assert length == res.arg_length

    def test_centering_favours_short_chains(self):
        # raw scoring prefers the long chain of moderate nodes; centered
        # scoring prefers the single strong node
        values = np.array([[1.8, 1.8, 1.8, 1.8, -1.0, 3.0]])
        g = ImageGrid(values)
        sm = significance_map(g, 1.2816)
        assert scan_statistic(g, sm, C=0, U=6).arg_length == 4
        centered = scan_statistic(g, sm, C=0, U=6, center=null_conditional_mean(1.2816))
        assert centered.arg_length == 1
        assert centered.arg_chain.nodes() == [(1, 6)]


def _truncated_normal_sample(rng, size, x_star):
    """Draws of a standard normal conditioned above x_star, by rejection."""
    out = np.empty(size)
    have = 0
    while have < size:
        draw = rng.standard_normal(size * 3)
        keep = draw[draw > x_star]
        take = min(size - have, keep.size)
        out[have : have + take] = keep[:take]
        have += take
    return out


class TestNullCalibration:
    """Null calibration of Step II.

    Given the significance map, null nodes are independent N(0,1) draws
    truncated to (x*, inf), with mean lambda(x*) = phi(x*)/(1 - Phi(x*)),
    about 1.755 at x* = 1.2816. That law is 1-strongly log-concave, so a
    chain sum centered by lambda(x*) * |L| and divided by sqrt(|L|) has tail
    at most exp(-tau^2/2) (Ledoux, The Concentration of Measure Phenomenon,
    2001). Step II thresholds that centered statistic; the raw one puts the
    longest null chain near lambda * sqrt(log_{1/rho} n), above the cut.
    """

    def test_conditioned_tail_bound(self):
        """Tail of a centered conditioned chain sum against the sub-Gaussian
        bound exp(-tau^2/2), and lambda(x*) against the sample mean.

        Without centering no program can meet the bound: for k = 3 every
        sum/sqrt(3) is at least 1.2816 * sqrt(3) > 2. The mean check keeps a
        too-large centering from passing the tail check.
        """
        x_star = 1.2816
        lam = null_conditional_mean(x_star)
        rng = np.random.default_rng(424242)
        draws = 10**6
        failures = []
        for k in (1, 3, 5):
            nodes = _truncated_normal_sample(rng, draws * k, x_star)
            stderr = float(nodes.std()) / math.sqrt(nodes.size)
            assert abs(float(nodes.mean()) - lam) <= 5.0 * stderr, (k, nodes.mean(), lam)
            sums = nodes.reshape(draws, k).sum(axis=1)
            normalized = (sums - k * lam) / math.sqrt(k)
            for tau in (2.0, 3.0):
                observed = float((normalized > tau).mean())
                bound = math.exp(-tau * tau / 2.0)
                if observed > bound:
                    failures.append((k, tau, observed, bound))
        assert not failures, (
            "conditioned tail exceeds the sub-Gaussian bound at "
            + "; ".join(
                f"len={k} tau={tau}: observed {obs:.4f} > bound {b:.4f}"
                for k, tau, obs, b in failures
            )
        )

    def test_null_scan_exceedance_rate(self):
        """P(Step II statistic > sqrt(2(1+delta2) log(mn))) under the null,
        m=10, n=2000, over 200 seeds.

        Uses the kernel call and centering that the Monte Carlo rejection
        region uses. The raw statistic exceeds the cut at rate 0.87 here.
        """
        m, n, x_star, delta2 = 10, 2000, 1.2816, 1e-4
        cut = math.sqrt(2 * (1 + delta2) * math.log(m * n))
        lam = null_conditional_mean(x_star)
        rng = np.random.default_rng(77)
        U = 18
        hits = 0
        seeds = 200
        for start in range(0, seeds, 50):
            x = rng.standard_normal((50, m, n))
            z = x > x_star
            values = _kernels.scan_values(x, z, 1, U, lam)
            hits += int((values > cut).sum())
        rate = hits / seeds
        assert rate <= 0.10, f"null scan exceedance rate {rate:.3f} > 0.10"
