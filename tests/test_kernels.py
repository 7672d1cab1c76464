"""Deep-run paths, the run stage's packed/list phase equivalence and its word
boundaries, the scan loop against a dense oracle, stack views of the engines,
the sparse null sampler's law and the trial batches."""

import math
import subprocess
import sys

import numpy as np
import pytest

from chainscan import (
    DEFAULT_X_STAR,
    ChainPath,
    SignificanceMap,
    _kernels,
    longest_run_bruteforce,
    longest_run_length,
    make_config,
    normal_cdf,
    null_conditional_mean,
)
from chainscan.detector import _resolve
from conftest import bernoulli_reference, check_chain

# _LIST_COST values: every run-stage step after layer 1 on the live-cell list, or every
# step on packed words
SPARSE, DENSE = 0, math.inf


@pytest.fixture
def phase(monkeypatch):
    """Sets the run stage's packed/list hand-off for the rest of a test; the
    scan stage's loop is on the live-cell list from layer 1 and has no switch."""
    return lambda ratio: monkeypatch.setattr(_kernels, "_LIST_COST", ratio)


class TestDeepRunFallbacks:
    def test_batched_lengths_past_propagation_cap(self, phase):
        rng = np.random.default_rng(5)
        bits = rng.random((6, 3, 40)) < 0.7  # long runs, several trials
        lengths = _kernels.chain_lengths(bits, C=1)  # default hand-off
        for ratio in (SPARSE, DENSE):
            phase(ratio)
            assert np.array_equal(_kernels.chain_lengths(bits, C=1), lengths)

    def test_sweep_matches_propagation(self, rng, phase):
        # lengths and witnesses must not depend on the phase that found them:
        # on the list from layer 2, handed off at several depths, or never
        for _ in range(50):
            T = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            C = int(rng.integers(0, 3))
            bits = rng.random((T, m, n)) < rng.uniform(0.2, 0.9)
            phase(DENSE)
            lengths = _kernels.chain_lengths(bits, C)
            witnesses = [_kernels.longest_chain_with_witness(b, C) for b in bits]
            for ratio in (SPARSE, 1, 2, 4):
                phase(ratio)
                assert np.array_equal(_kernels.chain_lengths(bits, C), lengths)
                assert [_kernels.longest_chain_with_witness(b, C) for b in bits] == witnesses

    def test_witness_past_cap(self, phase):
        bits = np.ones((2, 20), dtype=bool)
        for ratio in (SPARSE, DENSE):
            phase(ratio)
            k, start, rows = _kernels.longest_chain_with_witness(bits, C=1)
            assert k == 20 and start == 0 and rows == [0] * 20

    def test_full_width_run(self):
        bits = np.ones((1, 700), dtype=bool)  # 11 words a row: packed to the end by default
        assert _kernels.chain_lengths(bits[None], C=1)[0] == 700
        k, start, rows = _kernels.longest_chain_with_witness(bits, C=1)
        assert (k, start) == (700, 0)

    def test_deep_witness_on_tall_map(self):
        sm = SignificanceMap(np.ones((64, 2600), dtype=bool))
        res = longest_run_length(sm, C=1)
        assert res.length == 2600
        assert check_chain(res.witness, sm, 1) == 2600


def _dense_step(bits, cur, C):
    """Next reachability layer on (T, m, n): the set cells of ``bits`` one column
    right of, and within C rows of, a cell of ``cur``."""
    m = bits.shape[1]
    nxt = np.zeros_like(cur)
    for d in range(-min(C, m - 1), min(C, m - 1) + 1):  # row r -> r + d
        nxt[:, max(d, 0) : m + min(d, 0), 1:] |= cur[:, max(-d, 0) : m - max(d, 0), :-1]
    return nxt & bits


def _live_bytes(cur):
    """Nonzero bytes of a (T, m, n) layer in the packed layout: the 8-column
    groups of each row that hold a live cell."""
    T, m, n = cur.shape
    groups = np.zeros((T, m, -(-n // 8) * 8), dtype=bool)
    groups[..., :n] = cur
    return np.count_nonzero(groups.reshape(T, m, -1, 8).any(axis=3))


def _switch_layer(bits, C):
    """First layer k whose step to layer k+1 runs on the live-cell list under the
    current hand-off: a packed layer holds T*(m+2C) rows of n//64 + 1 words."""
    T, m, n = bits.shape
    words = T * (m + 2 * C) * (n // 64 + 1)
    cur, k = bits, 1
    while cur.any() and _live_bytes(cur) * _kernels._LIST_COST >= words:
        cur, k = _dense_step(bits, cur, C), k + 1
    return k


def _dense_scan_ends(x, z, C, U, center):
    """Values, ends and lengths of the capped scan, one trial at a time on dense
    layers: layer 1 is x on the significant cells, and layer u is x plus the max
    of layer u-1 over the +/-C rows one column left, NEG_INF off the significant
    cells. A trial's best changes only on a strict improvement, at the row-major
    first argmax of the layer; layer 1 is scored at any U."""
    T, m, n = x.shape
    values = np.full(T, -math.inf)
    ends = np.zeros(T, dtype=np.int64)
    us = np.ones(T, dtype=np.int64)
    for t in range(T):
        layer, u = np.where(z[t], x[t], -math.inf), 1
        while True:
            arg = int(layer.argmax())
            score = (layer.flat[arg] - center * u) / math.sqrt(u)
            if score > values[t]:
                values[t], ends[t], us[t] = score, arg, u
            if u >= U or not (layer > -math.inf).any():
                break
            prev = np.array([layer[max(0, r - C) : r + C + 1].max(axis=0) for r in range(m)])
            layer = np.full((m, n), -math.inf)
            layer[:, 1:] = np.where(z[t][:, 1:], x[t][:, 1:] + prev[:, :-1], -math.inf)
            u += 1
    return values, ends, us


class TestPhaseEquivalence:
    """The run stage against its forced-packed engine, on stacks whose trials
    die on both sides of the hand-off, and the scan loop against a dense
    oracle on the same stacks."""

    @staticmethod
    def _stacks(rng, count):
        for case in range(count):
            T, m, n = (int(rng.integers(1, 7)), int(rng.integers(1, 7)),
                       int(rng.integers(1, 41)))
            C = int(rng.integers(0, 5))  # C >= m: pads wider than the trial
            U = int(rng.integers(1, n + 1))
            # per trial, sparse noise that dies at once or dense runs that outlive the hand-off
            density = rng.choice([0.1, 0.9], size=(T, 1, 1))
            z = rng.random((T, m, n)) < density
            # small integers: equal sums within and across lengths force the tie rules
            x = np.where(z, rng.integers(1, 4, size=(T, m, n)), 0).astype(float)
            center = (0.0, null_conditional_mean(DEFAULT_X_STAR))[case % 2]
            yield x, z, C, U, center

    def test_chain_and_scan_ends_match_dense(self, rng, phase):
        mixed = 0
        for x, z, C, U, center in self._stacks(rng, 400):
            phase(DENSE)
            lengths, ends = _kernels._chain_ends(z, C)
            phase(4)
            switch = _switch_layer(z, C)
            mixed += bool(lengths[lengths > 0].min(initial=switch) < switch <= lengths.max())
            for ratio in (SPARSE, 1, 4):
                phase(ratio)
                got_lengths, got_ends = _kernels._chain_ends(z, C)
                assert np.array_equal(got_lengths, lengths)
                assert np.array_equal(got_ends, ends)
            values, scan_ends, us = _dense_scan_ends(x, z, C, U, center)
            got_values, got_scan_ends, got_us, depth = _kernels._scan_ends(x, z, C, U, center)
            assert np.array_equal(got_values, values)
            assert np.array_equal(got_scan_ends, scan_ends)
            assert np.array_equal(got_us, us)
            assert np.array_equal(depth, np.minimum(lengths, U))
        assert mixed >= 20  # stacks with a trial dead before the hand-off and one after

    def test_tied_chains_keep_the_row_major_first_end(self, phase):
        # trial 0: equal 3-runs ending at (2, 3) and (0, 6); the later column wins
        # by row-major order. Trial 1 keeps only the first run.
        z = np.zeros((2, 3, 8), dtype=bool)
        z[:, 2, 1:4] = True
        z[0, 0, 4:7] = True
        x = np.where(z, 1.0, 0.0)
        for ratio in (SPARSE, DENSE):
            phase(ratio)
            lengths, ends = _kernels._chain_ends(z, 0)
            values, scan_ends, us, depth = _kernels._scan_ends(x, z, 0, 8, 0.0)
            assert lengths.tolist() == [3, 3] and ends.tolist() == [6, 19]
            assert us.tolist() == [3, 3] and scan_ends.tolist() == [6, 19]
            assert depth.tolist() == [3, 3]
            assert values.tolist() == [3 / math.sqrt(3)] * 2

    def test_no_offset_links_trials_or_the_pad_column(self, phase):
        # trial 0's last column sits just before the pad column (the pad bits of
        # a packed row) and trial 1's first column; C = 2 reaches past every row
        # of a 3-row trial
        z = np.zeros((3, 3, 5), dtype=bool)
        z[0, :, -1] = True
        z[1, :, 0] = True
        z[2] = True
        x = np.where(z, 1.0, 0.0)
        for ratio in (SPARSE, DENSE):
            phase(ratio)
            lengths, ends = _kernels._chain_ends(z, 2)
            values, scan_ends, us, depth = _kernels._scan_ends(x, z, 2, 5, 0.0)
            assert lengths.tolist() == [1, 1, 5] and ends.tolist() == [4, 0, 4]
            assert us.tolist() == [1, 1, 5] and scan_ends.tolist() == [4, 0, 4]
            assert depth.tolist() == [1, 1, 5]
            assert [_kernels.longest_chain_with_witness(b, 2) for b in z] == [
                (1, 4, [0]), (1, 0, [0]), (5, 0, [0] * 5)]


def _layer_firsts(z, C, k):
    """Per trial, the flat index of the row-major first cell that ends a chain
    of k nodes, or -1 when none does."""
    cur = z
    for _ in range(k - 1):
        cur = _dense_step(z, cur, C)
    flat = cur.reshape(len(z), -1)
    return np.where(flat.any(axis=1), flat.argmax(axis=1), -1)


class TestStoppedRunStage:
    """A stop layer caps each length at the stop and leaves the rest of the
    pass as it was, in either phase."""

    RATIOS = (SPARSE, 1, 4, DENSE)

    def _check(self, z, C, stop, full_lengths, full_ends):
        ends = np.full(len(z), -7, dtype=np.int64)
        lengths = _kernels.chain_lengths(z, C, ends, stop=stop)
        assert np.array_equal(lengths, np.minimum(full_lengths, stop))
        capped = full_lengths > stop
        assert np.array_equal(ends[~capped], full_ends[~capped])
        assert np.array_equal(ends[capped], _layer_firsts(z, C, stop)[capped])
        return capped

    def test_random_stacks_at_every_stop(self, rng, phase):
        capped = exact = 0
        for _ in range(150):
            T, m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 30))
            C = int(rng.integers(0, 4))
            z = rng.random((T, m, n)) < rng.choice([0.0, 0.1, 0.9], size=(T, 1, 1))
            phase(DENSE)
            full_lengths, full_ends = _kernels._chain_ends(z, C)
            for stop in {1, 2, 3, int(rng.integers(1, n + 2)), n + 5}:
                for ratio in self.RATIOS:
                    phase(ratio)
                    capped += self._check(z, C, stop, full_lengths, full_ends).sum()
                exact += int((full_lengths == stop).sum())
        assert capped >= 100 and exact >= 50  # trials cut short, and trials ending at the stop

    def test_stop_one_reads_any_significant_cell(self, phase):
        z = np.zeros((3, 4, 6), dtype=bool)
        z[1, 2, 3] = True
        z[2] = True
        for ratio in self.RATIOS:
            phase(ratio)
            ends = np.zeros(3, dtype=np.int64)
            assert _kernels.chain_lengths(z, 1, ends, stop=1).tolist() == [0, 1, 1]
            assert ends.tolist() == [0, 15, 0]

    def test_trials_ending_at_the_stop(self, phase):
        # runs of 4, 5 and 6 nodes against a stop of 5; trial 3 is empty
        z = np.zeros((4, 3, 12), dtype=bool)
        for t, length in enumerate((4, 5, 6)):
            z[t, t, 2 : 2 + length] = True
        for ratio in self.RATIOS:
            phase(ratio)
            ends = np.zeros(4, dtype=np.int64)
            assert _kernels.chain_lengths(z, 1, ends, stop=5).tolist() == [4, 5, 5, 0]
            assert ends.tolist() == [5, 12 + 6, 24 + 6, 0]

    def test_deep_planted_trials(self, phase):
        # a monte-carlo-sized batch: null noise, nothing, and chains of 300 and 1200 nodes
        rng = np.random.default_rng([20, 30])
        x = rng.standard_normal((4, 10, 2000))
        x[1] = -1.0
        for t, length in ((2, 300), (3, 1200)):
            x[t, rng.integers(0, 10), 100 : 100 + length] += 6.0
        z = x > DEFAULT_X_STAR
        full_lengths, full_ends = _kernels._chain_ends(z, 1)
        assert full_lengths[2] >= 300 and full_lengths[3] >= 1200
        for ratio in self.RATIOS:
            phase(ratio)
            for stop in (1, 6, int(full_lengths[0]), 301):
                self._check(z, 1, stop, full_lengths, full_ends)


class TestWordBoundaries:
    """The packed phase where a row's words begin and end: one word (n < 64),
    a full word and then the zero pad word (64, 128), and a spill into the next
    word (65, 129). Lengths, ends and witnesses match the live-cell list from
    layer 1 and, on maps small enough, the exhaustive oracle, in either phase
    and at stops inside the packed phase."""

    GEOMETRIES = ((1, 0), (1, 1), (1, 2), (3, 0), (3, 1), (2, 4))  # (m, C); C >= m too

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 700])
    def test_random_rows_match_the_list(self, n, phase):
        rng = np.random.default_rng([27, n])
        for m, C in self.GEOMETRIES:
            # per trial: sparse noise, dense noise, nearly full rows and full rows
            z = rng.random((4, m, n)) < np.array([0.1, 0.6, 0.95, 1.0])[:, None, None]
            phase(SPARSE)
            lengths, ends = _kernels._chain_ends(z, C)
            witnesses = [_kernels.longest_chain_with_witness(b, C) for b in z]
            if m * n <= 64 and n <= 12:
                assert lengths.tolist() == [longest_run_bruteforce(SignificanceMap(b), C)
                                            for b in z]
            stops = sorted({1, 2, n // 2 + 1, n})
            firsts = {stop: _layer_firsts(z, C, stop) for stop in stops}
            for ratio in (DENSE, 1, 4):
                phase(ratio)
                got_lengths, got_ends = _kernels._chain_ends(z, C)
                assert np.array_equal(got_lengths, lengths)
                assert np.array_equal(got_ends, ends)
                assert [_kernels.longest_chain_with_witness(b, C) for b in z] == witnesses
                for stop in stops:  # at DENSE every stop lands in the packed phase
                    capped = lengths > stop
                    stop_ends = np.full(len(z), -7, dtype=np.int64)
                    got = _kernels.chain_lengths(z, C, stop_ends, stop=stop)
                    assert np.array_equal(got, np.minimum(lengths, stop))
                    assert np.array_equal(stop_ends[~capped], ends[~capped])
                    assert np.array_equal(stop_ends[capped], firsts[stop][capped])

    def test_ends_on_the_top_bit_of_a_word(self, phase):
        # n = 128 is two full words a row: a run ending at column 63 (bit 63 of
        # word 0), one carried across into word 1, and one ending at column 127
        # (bit 63 of word 1, before the pad word)
        z = np.zeros((3, 1, 128), dtype=bool)
        z[0, 0, 60:64] = z[0, 0, 100:103] = True
        z[1, 0, 61:68] = True
        z[2, 0, 120:128] = True
        for ratio in (SPARSE, 1, DENSE):
            phase(ratio)
            lengths, ends = _kernels._chain_ends(z, 0)
            assert lengths.tolist() == [4, 7, 8] and ends.tolist() == [63, 67, 127]
            assert [_kernels.longest_chain_with_witness(b, 1) for b in z] == [
                (4, 60, [0] * 4), (7, 61, [0] * 7), (8, 120, [0] * 8)]
            ends = np.zeros(3, dtype=np.int64)  # the first cells that end chains of 3 nodes
            assert _kernels.chain_lengths(z, 0, ends, stop=3).tolist() == [3, 3, 3]
            assert ends.tolist() == [62, 63, 122]

    def test_trials_end_on_both_sides_of_the_hand_off(self, phase):
        # trial 0, a 2-run across a word boundary, ends in the packed phase;
        # trial 1, a full 700-column row, is handed to the live-cell list and
        # ends there; trial 2 is empty
        z = np.zeros((3, 1, 700), dtype=bool)
        z[0, 0, 63:65] = True
        z[1] = True
        phase(2)
        switch = _switch_layer(z, 1)
        assert 2 < switch < 700
        lengths, ends = _kernels._chain_ends(z, 1)
        assert lengths.tolist() == [2, 700, 0] and ends.tolist() == [64, 699, 0]
        for stop in (2, switch - 1, switch, switch + 1, 700):  # on both sides of the hand-off
            ends = np.zeros(3, dtype=np.int64)
            assert _kernels.chain_lengths(z, 1, ends, stop=stop).tolist() == [2, stop, 0]
            assert ends.tolist() == [64, stop - 1, 0]


def _best_sums(x, z, C):
    """Best sum of every significant chain by (end row, end column, node count),
    by enumerating every chain from every start."""
    m, n = z.shape
    best = {}

    def extend(r, c, u, total):
        key = (r, c, u)
        best[key] = max(best.get(key, -math.inf), total)
        for r2 in range(max(0, r - C), min(m, r + C + 1)):
            if c + 1 < n and z[r2, c + 1]:
                extend(r2, c + 1, u + 1, total + x[r2, c + 1])

    for c in range(n):
        for r in range(m):
            if z[r, c]:
                extend(r, c, 1, x[r, c])
    return best


class TestBacktrackTieRule:
    def test_matches_exhaustive_oracle(self, rng):
        # small integers tie many chains; walking back, each node must take the
        # smallest row that keeps the best sum, for every end and length
        checked = 0
        for case in range(60):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            C = case % 5  # C >= m: pads wider than the grid
            z = rng.random((m, n)) < rng.uniform(0.4, 0.9)
            x = rng.integers(-1, 3, size=(m, n)).astype(float) * (case % 4 > 0)
            best = _best_sums(x, z, C)
            for (i, j, u), total in best.items():
                rows = [i]
                for c in range(j, j - u + 1, -1):
                    v = u - (j - c)
                    target = best[(rows[-1], c, v)] - x[rows[-1], c]
                    rows.append(next(r for r in range(max(0, rows[-1] - C),
                                                      min(m, rows[-1] + C + 1))
                                     if best.get((r, c - 1, v - 1)) == target))
                got = _kernels.backtrack(x, z, C, i, j, u)
                assert got == rows[::-1]
                assert sum(x[r, j - u + 1 + k] for k, r in enumerate(got)) == total
                checked += 1
        assert checked > 500


def _reach_column(z, C, j, u):
    """Rows of column j that end a chain of u significant nodes, by a dense sweep
    over columns j-u+1..j."""
    m = z.shape[0]
    col = z[:, j - u + 1].copy()
    for c in range(j - u + 2, j + 1):
        near = np.zeros(m + 2 * C, dtype=bool)
        for d in range(2 * C + 1):
            near[d : d + m] |= col
        col = z[:, c] & near[C : C + m]
    return np.flatnonzero(col)


class TestBitBacktrack:
    """The run witness walks packed bit columns: at all-zero intensities it is
    the shared float backtrack's witness, whose sums match exactly at the
    reachable cells, for any end and length."""

    def test_matches_float_backtrack(self):
        rng = np.random.default_rng(20261022)
        checked = {1: 0, "deep": 0}
        for m in (1, 7, 8, 9, 63, 64, 65, 130):  # one, two and three bytes a column
            for C in range(4):
                n = int(rng.integers(1, 90))
                z = rng.random((m, n)) < rng.choice([0.3, 0.6, 0.95])
                zeros = np.zeros(z.shape)
                for _ in range(12):
                    j = int(rng.integers(0, n))
                    u = 1 if rng.random() < 0.25 else int(rng.integers(1, j + 2))
                    for i in _reach_column(z, C, j, u)[:3].tolist():
                        got = _kernels._bit_backtrack(z, C, i, j, u)
                        assert got == _kernels.backtrack(zeros, z, C, i, j, u)
                        checked[1] += u == 1
                k, start, rows = _kernels.longest_chain_with_witness(z, C)
                if k:
                    assert rows == _kernels.backtrack(zeros, z, C, rows[-1], start + k - 1, k)
                # a chain deeper than 512 nodes on noise that ties many paths
                deep = rng.random((m, 700)) < 0.4
                row = int(rng.integers(0, m))
                for c in range(40, 700):
                    deep[row, c] = True
                    row = min(m - 1, max(0, row + int(rng.integers(-C, C + 1))))
                k, start, rows = _kernels.longest_chain_with_witness(deep, C)
                assert k > 512
                assert rows == _kernels.backtrack(np.zeros(deep.shape), deep, C, rows[-1],
                                                  start + k - 1, k)
                check_chain(ChainPath(start + 1, tuple(r + 1 for r in rows)),
                            SignificanceMap(deep), C)
                checked["deep"] += 1
        assert checked[1] >= 20 and checked["deep"] == 32


class TestLoneTrial:
    """A lone trial's packed layers skip the per-trial liveness check: its
    length and end are those of the same trial inside a stack, with and
    without a stop, in either phase and across the hand-off."""

    @pytest.mark.parametrize("ratio", [0, None, 10**9])  # list, default hand-off, packed
    def test_lone_trial_matches_its_stack(self, ratio, phase):
        if ratio is not None:
            phase(ratio)
        rng = np.random.default_rng([20261022, 2])
        for case in range(40):
            T, m = int(rng.integers(2, 5)), int(rng.choice([1, 3, 10]))
            n, C = int(rng.choice([1, 5, 63, 64, 65, 130, 700])), int(rng.integers(0, 4))
            z = rng.random((T, m, n)) < rng.choice([0.0, 0.1, 0.3, 0.9], size=(T, 1, 1))
            if case % 3 == 0:  # a chain across the grid: deep in every phase
                z[0, 0] = True
            for stop in (None, 1, 2, 5, n // 2 + 1):
                ends = np.full(T, -7, dtype=np.int64)
                lengths = _kernels.chain_lengths(z, C, ends, stop=stop)
                for t in range(T):
                    end = np.full(1, -7, dtype=np.int64)
                    lone = _kernels.chain_lengths(z[t], C, end, stop=stop)
                    assert (lone[0], end[0]) == (lengths[t], ends[t])
                    assert _kernels.chain_lengths(z[t], C, stop=stop)[0] == lengths[t]


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


class TestValuesOnlyScan:
    """``scan_values`` runs the scan loop without its ends: its values are the
    full loop's bit for bit, and the last nonempty layer it reports through
    ``lengths`` is min(l0, U), 0 on a trial with no significant cell."""

    def test_values_and_layers_match_the_full_loop(self):
        rng = np.random.default_rng(20261021)
        centers = (0.0, null_conditional_mean(DEFAULT_X_STAR))
        case = 0
        for n in (1, 2, 5, 63, 64, 65, 130):
            for U in sorted({1, 2, 5, n} & set(range(1, n + 1))):
                for center in centers:
                    for C in range(4):
                        # every (T, m) in 0..5 x 1..6 over the cases, empty stacks included
                        T, m = case % 6, 1 + case // 6 % 6
                        case += 1
                        density = rng.choice([0.0, 0.2, 0.6, 0.95], size=(T, 1, 1))
                        z = rng.random((T, m, n)) < density
                        # small integers: chain sums tie within and across lengths
                        x = np.where(z, rng.integers(-1, 4, size=(T, m, n)), 0).astype(float)
                        layers = np.full(T, -1, dtype=np.int64)
                        values = _kernels.scan_values(x, z, C, U, center, lengths=layers)
                        full = _kernels._scan_ends(x, z, C, U, center)
                        assert values.tobytes() == full[0].tobytes()
                        longest = _kernels.chain_lengths(z, C)
                        assert np.array_equal(layers, np.minimum(longest, U))
                        assert np.array_equal(full[3], layers)
                        assert not layers[~z.any(axis=(1, 2))].any()
        assert case >= 36


class TestStackViews:
    def test_single_grid_calls_are_trials_of_the_stack(self, rng):
        # T = 0 is the stack the error-rate loop scans when Step I rejects every trial
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


class _EveryByte:
    """A stand-in generator that enumerates the byte rule's law: the bytes of
    its 64-bit words run through 0..255 in order, and its ``size`` uniforms
    are the midpoints (j + 1/2)/size of a grid on [0, 1)."""

    def integers(self, low, high, size, dtype):
        return np.frombuffer(bytes(range(256)) * (8 * size // 256), dtype="<u8").copy()

    def random(self, size):
        return (np.arange(size) + 0.5) / size


class TestBernoulliStack:
    def test_bytes_then_tie_uniforms(self):
        # 45 cells end inside a 64-bit word; 7,200 cells at p = 0.3 hold about 28 ties
        for shape in ((0, 3, 4), (1, 5, 9), (3, 40, 60)):
            rng, ref = np.random.default_rng(3), np.random.default_rng(3)
            bits = _kernels.bernoulli_stack(rng, *shape, 0.3)
            assert bits.shape == shape and bits.dtype == bool
            assert np.array_equal(bits, bernoulli_reference(ref, shape, 0.3))
            assert rng.random() == ref.random()  # the stream continues in step

    @pytest.mark.parametrize("p", [
        0.1,  # k = 25: a tie sets its bit with probability 0.6
        0.25,  # dyadic, k = 64: a tie never sets its bit
        0.002,  # below 1/256, k = 0: only ties set bits
    ])
    def test_exact_law(self, p):
        T = 1000  # every byte value T times, and T tie uniforms on a grid of step 1/T
        bits = _kernels.bernoulli_stack(_EveryByte(), T, 1, 256, p).reshape(T, 256)
        q = 256.0 * p
        k = math.floor(q)
        assert bits[:, :k].all() and not bits[:, k + 1 :].any()
        assert bits[:, k].any() == (q > k)
        assert abs(bits[:, k].mean() - (q - k)) <= 1.0 / T
        assert abs(bits.mean() - p) <= 1.0 / (256 * T)


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b| over both samples."""
    at = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), at, side="right") / a.size
    fb = np.searchsorted(np.sort(b), at, side="right") / b.size
    return float(np.abs(fa - fb).max())


class TestSparseNullSampler:
    """The Monte Carlo loops draw a null stack as Bernoulli(p) bits
    (``bernoulli_stack``) and values on the set bits from ``_normal_tail``.
    That is the law of thresholded N(0, 1) draws. Seeds and levels are fixed:
    moments within 4 standard errors, and a two-sample Kolmogorov-Smirnov test
    at level 0.001 (conservative for the discrete l0)."""

    Z = 4.0
    KS_ALPHA = 1e-3

    def test_bit_density(self):
        p = 1.0 - normal_cdf(DEFAULT_X_STAR)
        bits = _kernels.bernoulli_stack(np.random.default_rng(301), 50, 10, 2000, p)
        assert abs(bits.mean() - p) <= self.Z * math.sqrt(p * (1.0 - p) / bits.size)

    @pytest.mark.parametrize("a", [-1.0, 0.0, DEFAULT_X_STAR, 3.0])
    def test_tail_moments(self, a):
        # a = -1 accepts about 0.58 of the proposals, so it takes more than one round
        size = 200_000
        y = _kernels._normal_tail(np.random.default_rng(302), size, a)
        assert y.shape == (size,) and (y > a).all()
        lam = null_conditional_mean(a)
        var = 1.0 + a * lam - lam**2
        assert abs(y.mean() - lam) <= self.Z * math.sqrt(var / size)
        m4 = float(np.mean((y - y.mean()) ** 4))
        assert abs(y.var() - var) <= self.Z * math.sqrt((m4 - y.var() ** 2) / size)

    def test_empty_draw_leaves_the_stream(self):
        rng, ref = np.random.default_rng(303), np.random.default_rng(303)
        assert _kernels._normal_tail(rng, 0, DEFAULT_X_STAR).shape == (0,)
        assert rng.random() == ref.random()

    def test_statistics_match_dense_draws(self):
        m, n, C, trials = 6, 200, 1, 4000
        config = make_config(m, C)
        U = _resolve(config, m, n)[1]
        center = null_conditional_mean(config.x_star)
        rng = np.random.default_rng(304)
        z = _kernels.bernoulli_stack(rng, trials, m, n, config.p)
        x = np.zeros(z.shape)
        x[z] = _kernels._normal_tail(rng, np.count_nonzero(z), config.x_star)
        dense = np.random.default_rng(305).standard_normal((trials, m, n))
        bits = dense > config.x_star
        crit = math.sqrt(-math.log(self.KS_ALPHA / 2.0) / 2.0) * math.sqrt(2.0 / trials)
        assert _ks_distance(_kernels.chain_lengths(z, C),
                            _kernels.chain_lengths(bits, C)) <= crit
        assert _ks_distance(_kernels.scan_values(x, z, C, U, center),
                            _kernels.scan_values(dense, bits, C, U, center)) <= crit


def _draw_normal(rng, t):
    return rng.standard_normal((t, 6, 7))


def _draw_bernoulli(rng, t):
    return _kernels.bernoulli_stack(rng, t, 6, 7, 0.3)


class TestTrialBatches:
    @pytest.mark.parametrize("draw", [_draw_normal, _draw_bernoulli])
    @pytest.mark.parametrize("trials,batch_cells,sizes", [
        (23, 5 * 42, [5, 5, 5, 5, 3]),  # a ragged last batch
        (23, 1, [1] * 23),  # one trial per batch
        (4, 1 << 17, [4]),  # a single batch
    ])
    def test_same_stream(self, monkeypatch, draw, trials, batch_cells, sizes):
        """A loop that draws each batch in line on one generator draws the
        partition's sizes in order, and leaves the generator in step."""
        monkeypatch.setattr(_kernels, "_BATCH_CELLS", batch_cells)
        assert list(_kernels.trial_batches(trials, 6, 7)) == sizes
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = [draw(rng, t) for t in _kernels.trial_batches(trials, 6, 7)]
        want = [draw(ref, t) for t in sizes]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert rng.random() == ref.random()  # the stream continues in step


def test_import_loads_no_executor():
    code = ("import sys, chainscan; "
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
