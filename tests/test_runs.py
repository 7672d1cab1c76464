import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscan import (
    CapacityError,
    ChainPath,
    SignificanceMap,
    _kernels,
    longest_run_bruteforce,
    longest_run_length,
)
from conftest import check_chain, random_instance


def _map_from_pattern(m, n, true_nodes):
    bits = np.zeros((m, n), dtype=bool)
    for i, j in true_nodes:
        bits[i - 1, j - 1] = True
    return SignificanceMap(bits)


# the 3x5 instance whose exhaustive maximum is 5 (verified by the oracle below)
PATTERN_NODES = [(1, 1), (2, 2), (1, 3), (3, 3), (2, 4), (3, 5)]


class TestLongestRun:
    def test_all_false(self):
        sm = SignificanceMap(np.zeros((4, 6), dtype=bool))
        res = longest_run_length(sm, C=1)
        assert res.length == 0 and res.witness is None

    @pytest.mark.parametrize("C", [0, 1, 3])
    def test_all_true_spans_columns(self, C):
        sm = SignificanceMap(np.ones((3, 7), dtype=bool))
        res = longest_run_length(sm, C=C)
        assert res.length == 7
        assert check_chain(res.witness, sm, C) == 7

    def test_pattern_instance(self):
        sm = _map_from_pattern(3, 5, PATTERN_NODES)
        res = longest_run_length(sm, C=1)
        assert res.length == 5
        assert longest_run_bruteforce(sm, C=1) == 5
        assert check_chain(res.witness, sm, 1) == 5

    def test_zero_drift_runs(self):
        bits = np.array([[1, 1, 0, 1, 1, 1], [0, 1, 1, 1, 0, 0]], dtype=bool)
        sm = SignificanceMap(bits)
        assert longest_run_length(sm, C=0).length == 3

    @pytest.mark.parametrize("ratio", [1, 4, 512])
    def test_tie_witness_independent_of_engine(self, ratio, monkeypatch):
        # two disjoint 5-runs: the witness ends at the row-major first endpoint
        # whichever phase finds it. Layer 1 has 14 of 56 cells live, so the
        # switch ratio 1 goes sparse at once, 4 after one dense step, 512 never.
        monkeypatch.setattr(_kernels, "_SPARSE_RATIO", ratio)
        bits = np.zeros((4, 14), dtype=bool)
        bits[0, 8:13] = True
        bits[3, 2:7] = True
        bits[:, 0] = True  # four 1-node runs
        res = longest_run_length(SignificanceMap(bits), C=0)
        assert res.witness == ChainPath(9, (1, 1, 1, 1, 1))

    def test_negative_drift_rejected(self):
        sm = SignificanceMap(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            longest_run_length(sm, C=-1)


class TestBruteForce:
    def test_all_false(self):
        assert longest_run_bruteforce(SignificanceMap(np.zeros((3, 4), bool)), 1) == 0

    def test_single_bit(self):
        for i, j in [(1, 1), (2, 3), (3, 4)]:
            sm = _map_from_pattern(3, 4, [(i, j)])
            assert longest_run_bruteforce(sm, 1) == 1

    def test_guard(self):
        with pytest.raises(CapacityError):
            longest_run_bruteforce(SignificanceMap(np.zeros((5, 13), bool)), 1)
        with pytest.raises(CapacityError):
            longest_run_bruteforce(SignificanceMap(np.zeros((8, 9), bool)), 1)


class TestOracleEquivalence:
    def test_random_instances(self, rng):
        # a fast slice here; the full 10^4-instance sweep runs in the acceptance suite
        for _ in range(500):
            _, sm, C = random_instance(rng)
            res = longest_run_length(sm, C)
            assert res.length == longest_run_bruteforce(sm, C)
            if res.length > 0:
                assert check_chain(res.witness, sm, C) == res.length

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_bits(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 8))
        C = data.draw(st.integers(0, 2))
        bits = np.array(
            data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
        ).reshape(m, n)
        base = longest_run_length(SignificanceMap(bits), C).length
        if bits.all():
            return
        flat = np.flatnonzero(~bits.ravel())
        pick = data.draw(st.sampled_from(list(flat)))
        grown = bits.copy().ravel()
        grown[pick] = True
        grown = grown.reshape(m, n)
        more = longest_run_length(SignificanceMap(grown), C).length
        assert more >= base
