from itertools import product

import numpy as np
import pytest

from chainscan import (
    DEFAULT_X_STAR,
    CapacityError,
    ConvergenceError,
    build_transfer_operator,
    estimate_run_rate,
    normal_cdf,
    perron_root,
    resolve_area_rate,
    resolve_run_rate,
)
from chainscan import _kernels, rates


def _mask(rows):
    """Bitmask of a set of 1-based rows: row r is bit r - 1."""
    return sum(1 << (r - 1) for r in rows)


def _nonempty_subsets(m):
    """Every nonempty row set of [1, m], in bitmask order (mask 1 first)."""
    return [frozenset(i + 1 for i in range(m) if mask >> i & 1) for mask in range(1, 1 << m)]


def _neighborhood(rows, C, m):
    """Union of drift windows: every row of [1, m] within C of some row in ``rows``."""
    return frozenset(r for a in rows for r in range(max(1, a - C), min(m, a + C) + 1))


def _dense_oracle(m, C, p):
    """The operator from its definition, on Python row sets:
    K(A, A') = p^|A'| (1-p)^(|N(A)|-|A'|) for nonempty A' inside N(A), else 0.
    Rows and columns are the nonempty row sets in bitmask order."""
    states = _nonempty_subsets(m)
    K = np.zeros((len(states), len(states)))
    for i, a in enumerate(states):
        nb = _neighborhood(a, C, m)
        for j, b in enumerate(states):
            if b <= nb:
                K[i, j] = p ** len(b) * (1 - p) ** (len(nb) - len(b))
    return K


def _columns(op):
    """The operator's own matrix: column j is ``matvec`` of the unit vector of mask j."""
    size = 1 << op.m
    cols = np.zeros((size - 1, size - 1))
    for j in range(1, size):
        e = np.zeros(size)
        e[j] = 1.0
        cols[:, j - 1] = op.matvec(e)[1:]
    return cols


def _entry(op, state, nxt):
    """K(state, nxt), read off ``matvec`` of the unit vector of ``nxt``."""
    e = np.zeros(1 << op.m)
    e[_mask(nxt)] = 1.0
    return op.matvec(e)[_mask(state)]


class TestNeighborhood:
    """The drift-neighborhood table ``_nb`` on the cases of the definition."""

    def test_interior(self):
        assert build_transfer_operator(4, 1, 0.1)._nb[_mask({2})] == _mask({1, 2, 3})

    def test_boundary_clipping(self):
        assert build_transfer_operator(10, 1, 0.1)._nb[_mask({1})] == _mask({1, 2})

    def test_full_set_absorbing(self):
        full = _mask(range(1, 8))
        for C in (1, 2, 5):
            assert build_transfer_operator(7, C, 0.1)._nb[full] == full

    def test_union_of_windows(self):
        op = build_transfer_operator(6, 1, 0.1)
        assert op._nb[_mask({1, 5})] == _mask({1, 2, 4, 5, 6})

    def test_empty_set_is_not_a_state(self):
        op = build_transfer_operator(4, 1, 0.3)
        assert op._nb[0] == 0
        v = np.ones(1 << 4)
        out = op.matvec(v)
        v[0] = 123.0
        assert out[0] == 0.0
        assert op.matvec(v).tobytes() == out.tobytes()


class TestTransferOperator:
    def test_single_row_is_p(self):
        op = build_transfer_operator(1, 1, 0.37)
        assert _entry(op, {1}, {1}) == pytest.approx(0.37)
        assert perron_root(op).value == pytest.approx(0.37, abs=1e-12)

    def test_two_rows_rank_one(self):
        p = 0.3
        op = build_transfer_operator(2, 1, p)
        # all three rows identical: the full neighborhood is reached from any state
        for state in ({1}, {2}, {1, 2}):
            assert _entry(op, state, {1, 2}) == pytest.approx(p * p)
            assert _entry(op, state, {1}) == pytest.approx(p * (1 - p))
            assert _entry(op, state, {2}) == pytest.approx(p * (1 - p))
        assert perron_root(op).value == pytest.approx(1 - (1 - p) ** 2, abs=1e-10)

    def test_entries_outside_neighborhood_vanish(self):
        op = build_transfer_operator(5, 1, 0.2)
        assert _entry(op, {1}, {4}) == 0.0
        assert _entry(op, {1}, {1, 2, 3}) == 0.0

    def test_row_sums_strictly_substochastic(self):
        m, C, p = 4, 1, 0.5
        op = build_transfer_operator(m, C, p)
        ones = np.ones(1 << m)
        sums = op.matvec(ones)[1:]
        assert (sums > 0).all() and (sums < 1).all()
        # closed form: 1 - (1-p)^{|N(A)|}
        want = [1 - (1 - p) ** len(_neighborhood(a, C, m)) for a in _nonempty_subsets(m)]
        assert sums == pytest.approx(want, abs=1e-12)
        assert _dense_oracle(m, C, p).sum(axis=1) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("m,C,p", [(1, 1, 0.37), (3, 1, 0.25), (4, 2, 0.1), (5, 1, 0.3),
                                       (6, 2, 0.05), (7, 3, 0.5)])
    def test_columns_match_definition(self, m, C, p):
        cols = _columns(build_transfer_operator(m, C, p))
        dense = _dense_oracle(m, C, p)
        assert ((cols == 0) == (dense == 0)).all()
        assert np.allclose(cols, dense, rtol=1e-12, atol=0)

    def test_matvec_matches_dense(self, rng):
        op = build_transfer_operator(5, 2, 0.3)
        dense = _dense_oracle(5, 2, 0.3)
        v = np.zeros(1 << 5)
        v[1:] = rng.random(31)
        out = op.matvec(v)
        assert np.allclose(out[1:], dense @ v[1:], atol=1e-13)

    @pytest.mark.parametrize("C", [1, 2])
    def test_state_tables_match_definitions(self, C):
        for m in range(1, 11):
            op = build_transfer_operator(m, C, 0.1)
            assert op._pop.tolist() == [bin(a).count("1") for a in range(1 << m)]
            assert op._nb[0] == 0
            for a, rows in enumerate(_nonempty_subsets(m), start=1):
                assert op._nb[a] == _mask(_neighborhood(rows, C, m)), (m, C, rows)

    @pytest.mark.parametrize("C,p", [(1, 0.1), (2, 0.05), (1, 0.3)])
    def test_matvec_bit_identical_to_plain_zeta(self, rng, C, p):
        # the plain subset-sum transform: one reshaped add per bit, weights per call
        for m in range(1, 11):
            op = build_transfer_operator(m, C, p)
            v = rng.random(1 << m)
            w = v * (p / (1.0 - p)) ** op._pop
            w[0] = 0.0
            for b in range(m):
                blocks = w.reshape(-1, 2, 1 << b)
                blocks[:, 1, :] += blocks[:, 0, :]
            want = (1.0 - p) ** op._pop[op._nb] * w[op._nb]
            want[0] = 0.0
            assert op.matvec(v).tobytes() == want.tobytes()

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="resolve_run_rate"):
            build_transfer_operator(21, 1, 0.1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_transfer_operator(4, 0, 0.1)
        with pytest.raises(ValueError):
            build_transfer_operator(4, 1, 0.0)
        with pytest.raises(ValueError):
            build_transfer_operator(0, 1, 0.1)


def _brute_across_probability(m, n, C, p):
    """Exhaustive enumeration of P(across significant chain) over all 2^(mn)
    significance patterns; the independent oracle for the transfer operator."""
    total = 0.0
    for bits in product((0, 1), repeat=m * n):
        z = np.array(bits, dtype=bool).reshape(m, n)
        reach = z[:, 0].copy()
        for j in range(1, n):
            nxt = np.zeros(m, dtype=bool)
            for i in range(m):
                if z[i, j]:
                    lo, hi = max(0, i - C), min(m - 1, i + C)
                    nxt[i] = reach[lo : hi + 1].any()
            reach = nxt
            if not reach.any():
                break
        if reach.any():
            k = int(z.sum())
            total += p**k * (1 - p) ** (m * n - k)
    return total


class TestAcrossProbabilityOracle:
    @pytest.mark.parametrize("m,n,C,p", [(2, 3, 1, 0.4), (3, 3, 1, 0.3), (3, 4, 1, 0.3),
                                         (2, 4, 2, 0.25)])
    def test_operator_matches_enumeration(self, m, n, C, p):
        op = build_transfer_operator(m, C, p)
        exact = op.across_probability(n)
        brute = _brute_across_probability(m, n, C, p)
        assert exact == pytest.approx(brute, abs=1e-12)


class TestPerronRoot:
    def test_power_iteration_matches_dense_eig(self):
        for m, p in ((3, 0.15), (4, 0.35), (6, 0.5)):
            op = build_transfer_operator(m, 1, p)
            lam = perron_root(op, tol=1e-12).value
            dense = max(abs(np.linalg.eigvals(_dense_oracle(m, 1, p))))
            assert lam == pytest.approx(dense, abs=1e-9)

    def test_ratio_sequence_converges_to_root(self):
        # P_n / P_{n-1} computed by exact vector iteration approaches the root
        op = build_transfer_operator(4, 1, 0.2)
        lam = perron_root(op).value
        p_prev = op.across_probability(24)
        p_next = op.across_probability(25)
        assert p_next / p_prev == pytest.approx(lam, abs=1e-9)

    def test_ratio_converges_past_dense_range(self):
        # m = 14 has 16,383 states: only the matvec path reaches it
        op = build_transfer_operator(14, 1, 0.1)
        lam = perron_root(op, tol=1e-13).value
        ratio = op.across_probability(201) / op.across_probability(200)
        assert ratio == pytest.approx(lam, abs=1e-9)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_small_geometries_match_dense_eig(self, m):
        # m <= 2 has one neighborhood class, and from m = 3 the all-ones start,
        # symmetric under row reflection, spans an invariant subspace smaller
        # than the class count (2 of 3 classes at m = 3, C = 1): the basis stops
        # at the relative breakdown test
        for C in (1, 2, 3):
            for p in (0.05, 0.3, 0.5):
                lam = perron_root(build_transfer_operator(m, C, p)).value
                dense = max(abs(np.linalg.eigvals(_dense_oracle(m, C, p))))
                assert abs(lam - dense) <= 1e-10, (m, C, p, lam, dense)

    def test_root_within_rounding_of_one(self):
        # the bracket's midpoint rounds to 1.0 here; the largest float below 1
        # still lies in the bracket
        lam = perron_root(build_transfer_operator(8, 1, 0.99)).value
        dense = max(abs(np.linalg.eigvals(_dense_oracle(8, 1, 0.99))))
        assert lam == np.nextafter(1.0, 0.0)
        assert abs(lam - dense) <= 1e-10

    def test_bracket_at_one_names_the_geometry(self, monkeypatch):
        op = build_transfer_operator(3, 1, 0.2)
        monkeypatch.setattr(op, "matvec", np.copy)  # root exactly 1
        with pytest.raises(ValueError, match=r"not lie below 1 at m = 3, C = 1, p = 0\.2"):
            perron_root(op)

    def test_tolerance_bounds_the_error(self):
        op = build_transfer_operator(14, 1, 0.1)
        coarse = perron_root(op, tol=1e-10).value
        fine = perron_root(op, tol=1e-13).value
        assert abs(coarse - fine) <= 1e-10

    def test_unreached_tolerance_reports_restarts_and_bracket(self, monkeypatch):
        monkeypatch.setattr(rates, "_MAX_RESTARTS", 2)
        with pytest.raises(ConvergenceError, match=r"2 restarts; last bracket width \d"):
            perron_root(build_transfer_operator(10, 1, 0.1), tol=1e-300)

    def test_method_label_and_provenance(self):
        r = perron_root(build_transfer_operator(3, 2, 0.2))
        assert r.method == "exact-spectral"
        assert (r.m, r.C, r.p) == (3, 2, 0.2)

    def test_bad_tolerance(self):
        op = build_transfer_operator(4, 1, 0.2)
        for tol in (0.0, -1e-10, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                perron_root(op, tol=tol)


class TestMonotonicity:
    def test_nondecreasing_in_rows_and_p(self):
        ps = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        ms = (1, 2, 4, 8)
        values = {
            (m, p): perron_root(build_transfer_operator(m, 1, p)).value
            for m in ms
            for p in ps
        }
        for p in ps:
            for lo, hi in zip(ms, ms[1:]):
                assert values[(lo, p)] <= values[(hi, p)]
        for m in ms:
            for lo, hi in zip(ps, ps[1:]):
                assert values[(m, lo)] <= values[(m, hi)]
        # a single row is a sub-lattice: the rate never drops below p
        for (m, p), v in values.items():
            assert v >= p - 1e-12

    def test_permutation_similarity(self, rng):
        dense = _dense_oracle(4, 1, 0.3)
        perm = rng.permutation(dense.shape[0])
        shuffled = dense[np.ix_(perm, perm)]
        lam = max(abs(np.linalg.eigvals(dense)))
        lam_p = max(abs(np.linalg.eigvals(shuffled)))
        assert lam == pytest.approx(lam_p, abs=1e-10)


class TestMonteCarloRate:
    def test_single_row_recovers_p(self):
        est = estimate_run_rate(1, 1, 0.5, n_cols=10**5, trials=50, seed=3)
        assert est.method == "monte-carlo"
        assert abs(est.value - 0.5) <= 0.08

    def test_agrees_with_exact(self):
        for m, p in ((4, 0.2), (4, 0.4), (8, 0.2), (8, 0.4)):
            est = estimate_run_rate(m, 1, p, n_cols=10**5, trials=30, seed=7)
            exact = perron_root(build_transfer_operator(m, 1, p)).value
            assert abs(est.value - exact) <= 0.08, (m, p, est.value, exact)

    def test_reproducible(self):
        a = estimate_run_rate(4, 1, 0.2, n_cols=2000, trials=10, seed=5)
        b = estimate_run_rate(4, 1, 0.2, n_cols=2000, trials=10, seed=5)
        assert a == b

    def test_guards(self):
        with pytest.raises(ValueError):
            estimate_run_rate(4, 1, 0.2, n_cols=500, trials=10, seed=0)
        with pytest.raises(ValueError):
            estimate_run_rate(4, 1, 0.2, n_cols=2000, trials=0, seed=0)

    def test_drift_bound_guard_matches_exact(self):
        # one domain on both sides of MAX_EXACT_ROWS, with the exact path's message
        with pytest.raises(ValueError, match=r"need C >= 1, got 0"):
            resolve_run_rate(10, 0, 0.1)
        with pytest.raises(ValueError, match=r"need C >= 1, got 0"):
            resolve_run_rate(21, 0, 0.1)
        with pytest.raises(ValueError, match=r"need C >= 1, got -1"):
            estimate_run_rate(4, -1, 0.2, n_cols=2000, trials=5, seed=0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_row_count_guard_matches_exact(self, m):
        with pytest.raises(ValueError, match=rf"need m >= 1, got {m}"):
            estimate_run_rate(m, 1, 0.2, n_cols=2000, trials=2, seed=0)
        with pytest.raises(ValueError, match=rf"need m >= 1, got {m}"):
            build_transfer_operator(m, 1, 0.2)

    def test_resolve_switches_method(self, monkeypatch):
        exact = resolve_run_rate(4, 1, 0.2)
        assert exact.method == "exact-spectral"
        assert exact == perron_root(build_transfer_operator(4, 1, 0.2))
        monkeypatch.setattr(rates, "MAX_EXACT_ROWS", 16)  # m = 17 is now past the guard
        assert resolve_run_rate(16, 1, 0.2).method == "exact-spectral"
        fit = resolve_run_rate(17, 1, 0.2)
        assert fit.method == "exact-extrapolated"
        monkeypatch.setattr(rates, "MAX_EXACT_ROWS", 20)
        assert abs(fit.value - perron_root(build_transfer_operator(17, 1, 0.2)).value) < 1e-6


class TestExtrapolatedRate:
    def test_wider_drift_window_near_exact(self, monkeypatch):
        monkeypatch.setattr(rates, "MAX_EXACT_ROWS", 16)
        fit = resolve_run_rate(17, 2, 0.1)
        monkeypatch.setattr(rates, "MAX_EXACT_ROWS", 20)
        exact = perron_root(build_transfer_operator(17, 2, 0.1))
        assert fit.method == "exact-extrapolated"
        assert abs(fit.value - exact.value) < 5e-6

    def test_rate_reaching_one_names_the_fit(self):
        # at p = 0.8 the exact roots lie within 1e-6 of 1 and the fit crosses it
        with pytest.raises(ValueError, match=r"extrapolated run rate .* is not below 1"):
            resolve_run_rate(21, 1, 0.8)

    def test_increases_past_the_exact_roots(self):
        exact = perron_root(build_transfer_operator(16, 1, 0.1)).value
        at21 = resolve_run_rate(21, 1, 0.1)
        at50 = resolve_run_rate(50, 1, 0.1)
        assert exact < at21.value < at50.value
        assert (at21.m, at21.C, at21.p, at21.method) == (21, 1, 0.1, "exact-extrapolated")


class TestAreaRate:
    def test_decreasing_in_p(self):
        assert resolve_area_rate(1, 0.01) > resolve_area_rate(1, 0.05) > resolve_area_rate(1, 0.1)

    def test_is_minus_log_of_the_fitted_limit(self):
        # rho_inf, the fit's intercept, sits just above the run rate at m = 50
        at50 = resolve_run_rate(50, 1, 0.1).value
        rho_inf = np.exp(-resolve_area_rate(1, 0.1))
        assert at50 < rho_inf < at50 + 2e-3

    def test_supercritical_guard(self):
        with pytest.raises(ValueError, match=r"1/\(2C\+1\)"):
            resolve_area_rate(1, 0.34)

    def test_drift_bound_guard(self):
        with pytest.raises(ValueError, match="need C >= 1"):
            resolve_area_rate(0, 0.1)

    def test_limit_outside_unit_interval_is_an_error(self, monkeypatch):
        monkeypatch.setattr(rates, "_fit_coefficients",
                            lambda C, p: np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"does not lie in \(0,1\)"):
            resolve_area_rate(1, 0.1)

    @pytest.mark.parametrize("C", [1, 2])
    def test_agrees_with_simulated_growth(self, C):
        # the slope of the mean longest chain between 128^2 and 512^2 nets,
        # 200 trials each, brackets -log rho_inf within 3 standard errors
        p = 1.0 - normal_cdf(DEFAULT_X_STAR)
        rng = np.random.default_rng(np.random.SeedSequence([0, C]))
        means, variances = [], []
        for side in (128, 512):
            lengths = np.concatenate([
                _kernels.chain_lengths(_kernels.bernoulli_stack(rng, t, side, side, p), C)
                for t in _kernels.trial_batches(200, side, side)]).astype(float)
            means.append(lengths.mean())
            variances.append(lengths.var(ddof=1) / lengths.size)
        slope = means[1] - means[0]
        kappa = np.log(512**2 / 128**2) / slope
        se = kappa * np.sqrt(sum(variances)) / slope
        assert abs(kappa - resolve_area_rate(C, p)) < 3 * se


class TestDrawStream:
    def test_run_rate_replays_in_line_draws(self, monkeypatch):
        m, C, p, n_cols, trials, seed = 4, 1, 0.2, 1000, 5, 1
        monkeypatch.setattr(_kernels, "_BATCH_CELLS", 2 * m * n_cols)  # 2 trials per batch
        seen, chain_lengths = [], _kernels.chain_lengths

        def recorded(bits, C):  # each batch's bits, as scored
            seen.append(bits.copy())
            return chain_lengths(bits, C)

        monkeypatch.setattr(_kernels, "chain_lengths", recorded)
        got = estimate_run_rate(m, C, p, n_cols=n_cols, trials=trials, seed=seed)
        # the documented draws, by hand: each batch's bits in turn on the loop's generator
        rng = np.random.default_rng(np.random.SeedSequence([seed, m, C]))
        want = [_kernels.bernoulli_stack(rng, t, m, n_cols, p) for t in (2, 2, 1)]
        assert len(seen) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))
        lengths = np.concatenate([chain_lengths(bits, C) for bits in want])
        assert lengths.min() > 0
        assert got.value == float(np.mean([n_cols ** (-1.0 / float(s)) for s in lengths]))
