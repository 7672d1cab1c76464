import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscan import (
    ChainPath,
    ImageGrid,
    ParseError,
    embed_chain,
    generate_chain,
    generate_null_grid,
    load_csv_grid,
    load_pgm_grid,
    significance_map,
    write_csv_grid,
)
from chainscan import grid as grid_module


class TestCsv:
    def test_minimal_grid(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,1\n0.0\n")
        g = load_csv_grid(path)
        assert (g.m, g.n) == (1, 1)
        assert g.value_at(1, 1) == 0.0

    def test_readback(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("2,3\n1,2,3\n4,5,6\n")
        g = load_csv_grid(path)
        assert (g.m, g.n) == (2, 3)
        assert g.value_at(2, 3) == 6.0

    def test_short_row_reports_location(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("2,3\n1,2\n4,5,6\n")
        with pytest.raises(ParseError, match=r"row 1 has 2 values, expected 3"):
            load_csv_grid(path)

    def test_bad_token_reports_location(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2\n1,abc\n")
        with pytest.raises(ParseError, match=r"line 2, column 2"):
            load_csv_grid(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2\n1,nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_csv_grid(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv_grid(path)

    @pytest.mark.parametrize("data,line,byte", [
        (b"\xef\xbb\xbf1,2\n1,2\n", 1, 0xEF),  # a UTF-8 byte-order mark
        (b"2,2\n1,2\n1,2\xe9\n", 3, 0xE9),
        (b"2,2\r\n1,2\r\n\r\n1,\xe9\r\n", 4, 0xE9),  # CRLF lines, a blank line counts
        (b"1,2\r1,2\xc3\xa9", 2, 0xC3),  # bare CR line ends
        (b"3000,1\n" + b"0\n" * 3000 + b"\xe9\n", 3002, 0xE9),  # past a read chunk
    ])
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, line, byte):
        path = tmp_path / "g.csv"
        path.write_bytes(data)
        want = f"{path}: line {line}: non-ASCII byte 0x{byte:02x}"
        with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
            load_csv_grid(path)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        g = ImageGrid(rng.standard_normal((5, 7)) * 1e3)
        path = tmp_path / "g.csv"
        write_csv_grid(g, path)
        back = load_csv_grid(path)
        assert np.array_equal(back.values, g.values)


def _load_both(path, monkeypatch):
    """(default loader, checked parser alone): each the values' bytes or the ParseError text."""

    def outcome():
        try:
            return load_csv_grid(path).values.tobytes()
        except ParseError as exc:
            return str(exc)

    default = outcome()
    with monkeypatch.context() as mp:
        mp.setattr(grid_module, "_csv_rows_fast", lambda lines, m, n: None)
        checked = outcome()
    return default, checked


def _fast_accepts(path) -> bool:
    lines = path.read_text(encoding="ascii").splitlines()
    m, n = (int(t) for t in lines[0].split(","))
    return grid_module._csv_rows_fast(lines[1:], m, n) is not None


class TestCsvParsers:
    """The vectorized fast path and the checked parser agree on every input."""

    # (case, file bytes, fast path accepts, expected values or ParseError pattern)
    CASES = [
        ("n = 1", b"3,1\n1\n2\n3\n", True, [[1.0], [2.0], [3.0]]),
        ("m = 1", b"1,3\n1,2,3\n", True, [[1.0, 2.0, 3.0]]),
        ("1 x 1", b"1,1\n0.5\n", True, [[0.5]]),
        ("blank lines", b"2,2\n\n1,2\n\n3,4\n\n", True, [[1.0, 2.0], [3.0, 4.0]]),
        ("whitespace-only line", b"2,2\n1,2\n \t \n3,4\n", False, [[1.0, 2.0], [3.0, 4.0]]),
        ("CRLF", b"2,2\r\n1,2\r\n3,4\r\n", True, [[1.0, 2.0], [3.0, 4.0]]),
        ("padding", b"2,2\n 1 ,\t2\n3\t, 4 \n", True, [[1.0, 2.0], [3.0, 4.0]]),
        ("form feed ends a line", b"2,2\n1,2\x0c3,4\n", True, [[1.0, 2.0], [3.0, 4.0]]),
        ("signs", b"1,3\n+1,-0,-.5e-1\n", True, [[1.0, -0.0, -0.05]]),
        ("underscore", b"1,2\n1_0,2\n", False, [[10.0, 2.0]]),
        ("hash", b"1,2\n1,#2\n", False, r"line 2, column 2: invalid number '#2'"),
        ("quotes", b'1,2\n"1",2\n', False, r"line 2, column 1: invalid number '\"1\"'"),
        ("empty field", b"1,3\n1,,2\n", False, r"line 2, column 2: invalid number ''"),
        ("trailing comma", b"1,2\n1,2,\n", False, r"line 2: row 1 has 3 values, expected 2"),
        ("nan", b"1,2\n1,nan\n", False, r"line 2, column 2: non-finite value 'nan'"),
        ("-Infinity", b"1,2\n-Infinity,1\n", False,
         r"line 2, column 1: non-finite value '-Infinity'"),
        ("overflow", b"1,1\n1e400\n", False, r"line 2, column 1: non-finite value '1e400'"),
        ("hex", b"1,1\n0x10\n", False, r"line 2, column 1: invalid number '0x10'"),
        ("ragged row", b"2,2\n1,2\n3\n", False, r"line 3: row 2 has 1 values, expected 2"),
        ("bad value after blank lines", b"2,2\n\n\n1,2\n3,x\n", False,
         r"line 5, column 2: invalid number 'x'"),
        ("ragged row after a blank line", b"2,2\n1,2\n\n3\n", False,
         r"line 4: row 2 has 1 values, expected 2"),
        ("too few rows", b"3,2\n1,2\n3,4\n", False, r"expected 3 data rows, found 2"),
        ("header only", b"2,2\n\n", False, r"expected 2 data rows, found 0"),
    ]

    @pytest.mark.parametrize("case,data,fast,expected", CASES, ids=[c[0] for c in CASES])
    def test_parsers_agree(self, tmp_path, monkeypatch, case, data, fast, expected):
        path = tmp_path / "g.csv"
        path.write_bytes(data)
        default, checked = _load_both(path, monkeypatch)
        assert default == checked
        assert _fast_accepts(path) is fast
        if isinstance(expected, str):
            assert isinstance(checked, str)
            assert re.search(expected, checked), checked
        else:
            assert checked == np.array(expected, dtype=np.float64).tobytes()

    def test_fast_path_bit_identical_to_float(self, tmp_path):
        rng = np.random.default_rng(5)
        tiny = 2.0**-1074
        tokens = [
            "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
            "2.2250738585072014e-308", "1e-320", "-3e-310",
            *(repr(float(v) * tiny) for v in rng.integers(1, 2**52, size=6)),
            *(f"{v:.17g}" for v in rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)),
            *("".join(str(d) for d in rng.integers(0, 10, 25)) + f"e{e}"
              for e in rng.integers(-330, 280, 6)),
            "0.1000000000000000055511151231257827", "1.7976931348623157e308",
            "-1.7976931348623157e308", "1.7976931348623158e308", "1.79769313486231580793e308",
            "-1.797693134862315708e308", "1.7976931348623156e308",
        ]
        expected = [float(t) for t in tokens]
        assert all(math.isfinite(v) for v in expected)
        path = tmp_path / "g.csv"
        path.write_text(f"1,{len(tokens)}\n" + ",".join(tokens) + "\n")
        assert _fast_accepts(path)
        got = load_csv_grid(path).values
        assert got.tobytes() == np.array([expected], dtype=np.float64).tobytes()


class TestPgm:
    def test_ascii_single_pixel(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P2\n1 1\n255\n128\n")
        g = load_pgm_grid(path)
        assert g.value_at(1, 1) == 128.0

    def test_binary_truncated(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(ParseError, match="truncated"):
            load_pgm_grid(path)

    def test_ascii_zeros(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 0 0 0\n")
        g = load_pgm_grid(path)
        assert np.array_equal(g.values, np.zeros((2, 2)))

    def test_binary_round_values(self, tmp_path, rng):
        raw = rng.integers(0, 256, size=(3, 4)).astype(np.uint8)
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + raw.tobytes())
        g = load_pgm_grid(path)
        assert np.array_equal(g.values, raw.astype(float))

    def test_sixteen_bit(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (1000).to_bytes(2, "big"))
        g = load_pgm_grid(path)
        assert g.value_at(1, 1) == 1000.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ParseError, match="magic"):
            load_pgm_grid(path)

    @pytest.mark.parametrize("data,expected", [
        (b"P2\n2 1\n255\n1#x\n2\n", [[1, 2]]),  # a comment ends a token
        (b"P2\x0b2 1\x0c255\n3\r4", [[3, 4]]),  # every ASCII whitespace separates
        (b"P5 1 1 255 " + bytes([7]), [[7]]),  # one whitespace byte before the payload
        (b"P2 1 1 255 1 2", "more than 1 pixel values"),
        (b"P2 2 1 255 1 x", "invalid pixel token b'x'"),
        (b"P2 2 1 255 1", "truncated: 1 of 2 pixel values"),
        (b"P2 1 1 9 10", "pixel value 10 outside [0,9]"),
        (b"P5 2 1 255 " + bytes([7]), "truncated: 1 of 2 payload bytes"),
        (b"#P2\nP6 1 1 255 0", "bad magic b'P6'"),
        (b"# only a comment\n", "empty file"),
    ])
    def test_tokens_and_errors(self, tmp_path, data, expected):
        path = tmp_path / "g.pgm"
        path.write_bytes(data)
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=re.escape(expected)):
                load_pgm_grid(path)
        else:
            assert load_pgm_grid(path).values.tolist() == expected


class TestNullGrid:
    def test_moments(self):
        g = generate_null_grid(10, 1000, seed=7)
        assert abs(g.values.mean()) <= 0.05
        assert 0.93 <= g.values.var() <= 1.07

    def test_determinism(self):
        a = generate_null_grid(10, 1000, seed=7)
        b = generate_null_grid(10, 1000, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        a = generate_null_grid(4, 50, seed=1)
        b = generate_null_grid(4, 50, seed=2)
        assert not np.array_equal(a.values, b.values)


class TestGenerateChain:
    def test_single_row_forces_flat(self):
        chain = generate_chain(1, 10, C=1, length=10, seed=0)
        assert chain.rows == (1,) * 10

    def test_full_length_forces_start(self):
        chain = generate_chain(10, 60, C=1, length=60, seed=5)
        assert chain.start_col == 1
        assert chain.max_step() <= 1

    def test_length_exceeding_columns(self):
        with pytest.raises(ValueError):
            generate_chain(5, 10, C=1, length=11, seed=0)

    def test_stream_is_pinned(self):
        # planted chains in every seeded experiment come from this stream
        assert generate_chain(6, 40, 2, 12, seed=7) == ChainPath(
            28, (4, 5, 6, 6, 6, 6, 5, 3, 2, 1, 3, 5))
        assert generate_chain(10, 2000, 1, 9, seed=np.random.SeedSequence([0, 3, 5])) == (
            ChainPath(632, (4, 4, 3, 4, 4, 3, 2, 2, 3)))

    def test_invariants_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, 40))
            C = int(rng.integers(0, 4))
            length = int(rng.integers(1, n + 1))
            chain = generate_chain(m, n, C, length, seed=int(rng.integers(2**32)))
            assert chain.length == length
            chain.validate(m, n, C)

    def test_start_col_uniformity(self):
        # start columns over [1, 181] for n=200, length=20; chi-square at 1%
        counts = np.zeros(181, dtype=int)
        for seed in range(10_000):
            chain = generate_chain(10, 200, C=1, length=20, seed=seed)
            counts[chain.start_col - 1] += 1
        expected = 10_000 / 181
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        df = 180
        # Wilson-Hilferty upper 1% quantile of chi-square(df)
        z99 = 2.3263478740408408
        crit = df * (1 - 2 / (9 * df) + z99 * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 < crit, f"chi2={chi2:.1f} exceeds crit={crit:.1f}"


def _walk_loop(moves, m):
    """The clamped walk one step at a time, from row 0."""
    rows, row = [], 0
    for s in moves:
        row = min(max(row + int(s), 1), m)
        rows.append(row)
    return rows


class TestClampedWalk:
    LENGTHS = (1, 2, 3) + tuple(2**k + e for k in range(2, 13) for e in (-1, 0, 1)) + (5003,)

    @pytest.mark.parametrize("m", [1, 2, 7])
    @pytest.mark.parametrize("C", [1, 2, 3])
    def test_matches_step_by_step_walk(self, m, C):
        rng = np.random.default_rng([m, C])
        for length in self.LENGTHS:
            moves = rng.integers(-C, C + 1, size=(3, length))
            moves[:, 0] = rng.integers(1, m + 1, size=3)
            rows = grid_module._clamped_walk(moves, m)
            assert rows.shape == moves.shape
            assert [list(r) for r in rows] == [_walk_loop(mv, m) for mv in moves]

    def test_walk_pinned_to_a_wall(self):
        # long pushes into each wall: every prefix map clamps at both ends
        moves = np.array([[1] + [3] * 40 + [-3] * 40, [4] + [-1] * 80])
        assert [list(r) for r in grid_module._clamped_walk(moves, 4)] == (
            [_walk_loop(mv, 4) for mv in moves])

    def test_generate_chain_walks_its_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, C = int(rng.integers(1, 12)), int(rng.integers(0, 4))
            n = int(rng.integers(1, 600))
            length = int(rng.integers(1, n + 1))
            seed = int(rng.integers(2**32))
            starts, moves = grid_module._chain_draw(np.random.default_rng(seed), 1, m, n, C,
                                                    length)
            assert starts.shape == (1,) and moves.shape == (1, length)
            assert generate_chain(m, n, C, length, seed) == ChainPath(
                int(starts[0]), _walk_loop(moves[0], m))

    @pytest.mark.parametrize("m,n,C,length", [(10, 2000, 1, 400), (6, 40, 2, 12),
                                              (1, 10, 0, 10), (7, 30, 3, 1)])
    def test_chain_draw_order(self, m, n, C, length):
        # a batch draws its t start columns, then its t first rows, then its steps
        for t in (1, 5):
            rng, ref = np.random.default_rng(t), np.random.default_rng(t)
            starts, moves = grid_module._chain_draw(rng, t, m, n, C, length)
            assert starts.tolist() == (1 + ref.integers(0, n - length + 1, size=t)).tolist()
            assert moves[:, 0].tolist() == (1 + ref.integers(0, m, size=t)).tolist()
            assert np.array_equal(moves[:, 1:], ref.integers(-C, C + 1, size=(t, length - 1)))
            assert rng.random() == ref.random()  # the stream continues in step
            for start, rows in zip(starts, grid_module._clamped_walk(moves, m)):
                ChainPath(int(start), rows.tolist()).validate(m, n, C)


class TestEmbedChain:
    def test_zero_mean_identity(self, rng):
        g = ImageGrid(rng.standard_normal((6, 12)))
        chain = generate_chain(6, 12, 1, 5, seed=3)
        out = embed_chain(g, chain, 0.0)
        assert np.array_equal(out.values, g.values)

    def test_exact_nodes_elevated(self):
        g = ImageGrid(np.zeros((4, 8)))
        chain = ChainPath(3, (2, 3, 3))
        out = embed_chain(g, chain, 2.5)
        assert (out.values == 2.5).sum() == 3
        for r, c in chain.nodes():
            assert out.value_at(r, c) == 2.5
        assert (out.values != 0).sum() == 3

    def test_embed_then_subtract_recovers(self, rng):
        # bit-exact on dyadic values (float addition is lossless there)
        g = ImageGrid(np.zeros((5, 9)))
        chain = generate_chain(5, 9, 2, 4, seed=11)
        out = embed_chain(embed_chain(g, chain, 2.5), chain, -2.5)
        assert np.array_equal(out.values, g.values)
        # and tightly approximate on arbitrary floats
        g2 = ImageGrid(rng.standard_normal((5, 9)))
        out2 = embed_chain(embed_chain(g2, chain, 1.7), chain, -1.7)
        assert np.allclose(out2.values, g2.values, rtol=0, atol=1e-12)

    def test_out_of_range_chain(self):
        g = ImageGrid(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            embed_chain(g, ChainPath(4, (1, 2)), 1.0)

    @given(h1=st.integers(-12, 12), h2=st.integers(-12, 12))
    @settings(max_examples=50, deadline=None)
    def test_additivity_exact_on_dyadics(self, h1, h2):
        mu1, mu2 = h1 * 0.5, h2 * 0.5
        g = ImageGrid(np.arange(12, dtype=float).reshape(3, 4))
        chain = ChainPath(2, (1, 2, 3))
        once = embed_chain(g, chain, mu1 + mu2)
        twice = embed_chain(embed_chain(g, chain, mu1), chain, mu2)
        assert np.array_equal(once.values, twice.values)

    @given(mu1=st.floats(-3, 3), mu2=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_additivity_close_on_floats(self, mu1, mu2):
        g = ImageGrid(np.arange(12, dtype=float).reshape(3, 4))
        chain = ChainPath(2, (1, 2, 3))
        once = embed_chain(g, chain, mu1 + mu2)
        twice = embed_chain(embed_chain(g, chain, mu1), chain, mu2)
        assert np.allclose(once.values, twice.values, rtol=0, atol=1e-12)


class TestSignificanceMap:
    def test_all_zero_grid(self):
        g = ImageGrid(np.zeros((3, 5)))
        assert significance_map(g, 1.2816).count() == 0

    def test_strict_inequality_at_threshold(self):
        g = ImageGrid(np.full((2, 2), 1.2816))
        sm = significance_map(g, 1.2816)
        assert sm.count() == 0
        assert significance_map(g, 1.2815).count() == 4

    def test_null_fraction_near_p(self):
        g = generate_null_grid(10, 10_000, seed=21)
        sm = significance_map(g, 1.2816)
        frac = sm.count() / (10 * 10_000)
        assert 0.09 <= frac <= 0.11

    def test_monotone_in_threshold(self, rng):
        g = ImageGrid(rng.standard_normal((8, 40)))
        lo = significance_map(g, 0.3).bits
        hi = significance_map(g, 0.9).bits
        assert not (hi & ~lo).any()


class TestImmutability:
    def test_grid_read_only(self):
        g = generate_null_grid(2, 3, seed=0)
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    def test_map_read_only(self):
        sm = significance_map(generate_null_grid(2, 3, seed=0), 0.5)
        with pytest.raises(ValueError):
            sm.bits[0, 0] = True
