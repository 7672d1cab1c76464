"""Deep-run paths and stack views of the vectorized engines."""

import numpy as np

from chainscan import SignificanceMap, _kernels, longest_run_length
from conftest import check_chain


class TestDeepRunFallbacks:
    def test_batched_lengths_past_propagation_cap(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_PROP_CAP", 8)
        rng = np.random.default_rng(5)
        bits = rng.random((6, 3, 40)) < 0.7  # long runs, several trials
        lengths = _kernels.chain_lengths(bits, C=1)
        monkeypatch.setattr(_kernels, "_PROP_CAP", 512)
        expected = _kernels.chain_lengths(bits, C=1)
        assert np.array_equal(lengths, expected)

    def test_sweep_matches_propagation(self, rng, monkeypatch):
        # caps 1-3 send most trials through the column sweep: lengths and
        # witnesses must not depend on which engine found them
        for _ in range(50):
            T = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            C = int(rng.integers(0, 3))
            bits = rng.random((T, m, n)) < rng.uniform(0.2, 0.9)
            lengths = _kernels.chain_lengths(bits, C)
            witnesses = [_kernels.longest_chain_with_witness(b, C) for b in bits]
            for cap in (1, 2, 3):
                monkeypatch.setattr(_kernels, "_PROP_CAP", cap)
                assert np.array_equal(_kernels.chain_lengths(bits, C), lengths)
                assert [_kernels.longest_chain_with_witness(b, C) for b in bits] == witnesses
            monkeypatch.setattr(_kernels, "_PROP_CAP", 512)

    def test_witness_past_cap(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_PROP_CAP", 4)
        bits = np.ones((2, 20), dtype=bool)
        k, start, rows = _kernels.longest_chain_with_witness(bits, C=1)
        assert k == 20 and start == 0 and len(rows) == 20

    def test_full_width_run(self):
        bits = np.ones((1, 700), dtype=bool)  # exceeds the propagation cap
        assert _kernels.chain_lengths(bits[None], C=1)[0] == 700
        k, start, rows = _kernels.longest_chain_with_witness(bits, C=1)
        assert (k, start) == (700, 0)

    def test_deep_witness_on_tall_map(self):
        sm = SignificanceMap(np.ones((64, 2600), dtype=bool))
        res = longest_run_length(sm, C=1)
        assert res.length == 2600
        assert check_chain(res.witness, sm, 1) == 2600


class TestScanEarlyExit:
    def test_cap_beyond_longest_chain_is_harmless(self, rng):
        x = rng.standard_normal((4, 12))
        z = x > 0.8
        tight = _kernels.scan_values(x, z, 1, U=4)
        loose = _kernels.scan_values(x, z, 1, U=12)
        n_longest = _kernels.chain_lengths(z, 1)[0]
        if n_longest <= 4:
            assert np.array_equal(tight, loose)
        else:
            assert (loose >= tight).all()


class TestStackViews:
    def test_single_grid_calls_are_trials_of_the_stack(self, rng):
        # T = 0 is the stack that _stack_stats scans when Step I rejects every trial
        for T in (0, 1, 3):
            for _ in range(20):
                m, n = int(rng.integers(1, 6)), int(rng.integers(1, 20))
                C, U = int(rng.integers(0, 3)), int(rng.integers(1, n + 1))
                center = float(rng.choice([0.0, 1.755]))
                x = rng.standard_normal((T, m, n))
                z = x > rng.uniform(-0.5, 1.5)
                values = _kernels.scan_values(x, z, C, U, center)
                lengths = _kernels.chain_lengths(z, C)
                assert values.shape == lengths.shape == (T,)
                assert values.tolist() == [_kernels.scan_best_single(x[t], z[t], C, U, center)[0]
                                           for t in range(T)]
                assert lengths.tolist() == [_kernels.longest_chain_with_witness(z[t], C)[0]
                                            for t in range(T)]
