"""Raster and chain types, file ingestion, and synthetic data generation.

Conventions used throughout the package: a grid has ``m`` rows indexed
``i = 1..m`` (the short axis, along which chains may drift by at most ``C``
per step) and ``n`` columns indexed ``j = 1..n`` (the traversal axis, along
which chains advance by exactly one column per step).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = [
    "ImageGrid",
    "ChainPath",
    "SignificanceMap",
    "load_csv_grid",
    "write_csv_grid",
    "load_pgm_grid",
    "generate_null_grid",
    "generate_chain",
    "embed_chain",
    "significance_map",
]


@dataclass(frozen=True)
class ImageGrid:
    """Dense m-by-n raster of real-valued pixel intensities.

    ``values`` is immutable after construction; all entries must be finite.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"grid values must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"grid must be at least 1x1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("grid values must be finite (no NaN/inf)")
        arr = arr.copy() if arr is self.values else arr
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def value_at(self, i: int, j: int) -> float:
        """Intensity at 1-based position (row i, column j)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise ValueError(f"position ({i},{j}) outside grid {self.m}x{self.n}")
        return float(self.values[i - 1, j - 1])


@dataclass(frozen=True)
class ChainPath:
    """A chain occupying consecutive columns, one node per column.

    ``rows[k]`` is the 1-based row of the node in column ``start_col + k``.
    Length counts nodes. The drift bound ``C`` and the grid extent are
    context the path itself does not carry; use :meth:`validate` to check a
    path against them.
    """

    start_col: int
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if len(rows) < 1:
            raise ValueError("a chain must contain at least one node")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "start_col", int(self.start_col))

    @property
    def length(self) -> int:
        return len(self.rows)

    @property
    def end_col(self) -> int:
        return self.start_col + len(self.rows) - 1

    def columns(self) -> range:
        return range(self.start_col, self.end_col + 1)

    def nodes(self) -> list[tuple[int, int]]:
        """(row, column) pairs in column order."""
        return list(zip(self.rows, self.columns()))

    def max_step(self) -> int:
        """Largest per-step row drift (0 for a single-node chain)."""
        if len(self.rows) == 1:
            return 0
        return max(abs(b - a) for a, b in zip(self.rows, self.rows[1:]))

    def validate(self, m: int, n: int, C: int | None = None) -> None:
        """Raise ValueError unless the path fits an m-by-n grid (and drift <= C)."""
        if not (1 <= self.start_col and self.end_col <= n):
            raise ValueError(
                f"chain columns [{self.start_col},{self.end_col}] outside [1,{n}]"
            )
        if not all(1 <= r <= m for r in self.rows):
            raise ValueError(f"chain rows outside [1,{m}]")
        if C is not None and self.max_step() > C:
            raise ValueError(f"chain drift {self.max_step()} exceeds C={C}")


@dataclass(frozen=True)
class SignificanceMap:
    """Boolean m-by-n raster marking pixels strictly above a threshold."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"significance map must be 2-D and nonempty, got {arr.shape}")
        arr = arr.copy() if arr is self.bits else arr
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(self.bits.sum())


def significance_map(grid: ImageGrid, x_star: float) -> SignificanceMap:
    """Threshold a grid: bit (i,j) is set iff the intensity strictly exceeds x_star."""
    return SignificanceMap(grid.values > x_star)


def _ascii_text(path, error=ParseError) -> str:
    """A file's text; a non-ASCII byte raises ``error`` naming the path and its line."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return buf.decode("ascii")
    except UnicodeDecodeError as exc:  # the lines before the byte are ASCII
        line = len((buf[: exc.start].decode("ascii") + ".").splitlines())
        raise error(f"{path}: line {line}: non-ASCII byte 0x{buf[exc.start]:02x}") from None


def load_csv_grid(path) -> ImageGrid:
    """Load a grid from CSV: header line ``m,n`` then m lines of n numbers.

    Blank lines are skipped, each value is read with :func:`float` and must be
    finite. The data rows go first through one vectorized ``np.loadtxt``
    call, whose result is kept only if its shape is exactly (m, n) and every
    value is finite; there it agrees bit for bit with :func:`float`. Any other
    file goes through the line-by-line parser, which accepts the same files
    and raises a :class:`ParseError` naming the line and column at fault.
    """
    lines = _ascii_text(path).splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise ParseError(f"{path}: empty file")
    header = lines[0].strip()
    parts = header.split(",")
    if len(parts) != 2:
        raise ParseError(f"{path}: line 1: expected header 'm,n', got {header!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{path}: line 1: non-integer dimensions {header!r}") from None
    if m < 1 or n < 1:
        raise ParseError(f"{path}: line 1: dimensions must be positive, got {m},{n}")
    values = _csv_rows_fast(lines[1:], m, n)
    if values is None:
        values = _csv_rows_checked(path, lines[1:], m, n)
    return ImageGrid(values)


def _csv_rows_fast(lines: list[str], m: int, n: int) -> np.ndarray | None:
    """The m-by-n values of well-formed data lines, or None for any other input.

    ``np.loadtxt`` skips empty lines as the checked parser does and rejects
    whitespace-only lines, quotes, ``#``, underscores, empty fields and ragged
    rows, so those files fall through to :func:`_csv_rows_checked`.
    """
    if not any(lines):  # loadtxt warns on input with no data
        return None
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                            ndmin=2)
    except ValueError:
        return None
    if values.shape != (m, n) or not np.isfinite(values).all():
        return None
    return values


def _csv_rows_checked(path, lines: list[str], m: int, n: int) -> np.ndarray:
    """Parse data lines token by token, raising ParseError at the first fault."""
    data_lines = [(no, ln) for no, ln in enumerate(lines, start=2) if ln.strip()]
    if len(data_lines) != m:
        raise ParseError(f"{path}: expected {m} data rows, found {len(data_lines)}")
    values = np.empty((m, n), dtype=np.float64)
    for r, (line_no, line) in enumerate(data_lines):
        tokens = line.split(",")
        if len(tokens) != n:
            raise ParseError(
                f"{path}: line {line_no}: row {r + 1} has {len(tokens)} values, expected {n}"
            )
        for c, tok in enumerate(tokens):
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(
                    f"{path}: line {line_no}, column {c + 1}: invalid number {tok.strip()!r}"
                ) from None
            if not np.isfinite(v):
                raise ParseError(
                    f"{path}: line {line_no}, column {c + 1}: non-finite value {tok.strip()!r}"
                )
            values[r, c] = v
    return values


def write_csv_grid(grid: ImageGrid, path) -> None:
    """Write a grid in the CSV format read by :func:`load_csv_grid` (17 significant digits)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{grid.m},{grid.n}\n")
        for row in grid.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


_PGM_TOKEN = re.compile(rb"#[^\r\n]*|[^\s#]+")  # a comment to the line end, or a token


def _pgm_tokens(buf: bytes):
    """Yield each header token of a PGM file, skipping '#' comments, with its end offset."""
    return ((t[0], t.end()) for t in _PGM_TOKEN.finditer(buf) if t[0][:1] != b"#")


def load_pgm_grid(path) -> ImageGrid:
    """Load a binary (P5) or ASCII (P2) PGM image as a grid of intensities."""
    with open(path, "rb") as fh:
        buf = fh.read()
    toks = _pgm_tokens(buf)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"{path}: bad magic {magic!r}, expected P2 or P5")
    try:
        (w_tok, _), (h_tok, _), (mv_tok, mv_end) = next(toks), next(toks), next(toks)
        width, height, maxval = int(w_tok), int(h_tok), int(mv_tok)
    except (StopIteration, ValueError):
        raise ParseError(f"{path}: truncated or malformed header") from None
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad dimensions {width}x{height}")
    if not (0 < maxval <= 65535):
        raise ParseError(f"{path}: maxval {maxval} outside (0, 65535]")
    npix = width * height
    if magic == b"P2":
        values = np.empty(npix, dtype=np.float64)
        k = 0
        for tok, _ in toks:
            if k >= npix:
                raise ParseError(f"{path}: more than {npix} pixel values")
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"{path}: invalid pixel token {tok!r}") from None
            if not (0 <= v <= maxval):
                raise ParseError(f"{path}: pixel value {v} outside [0,{maxval}]")
            values[k] = v
            k += 1
        if k != npix:
            raise ParseError(f"{path}: truncated: {k} of {npix} pixel values")
    else:
        payload = buf[mv_end + 1 :]  # exactly one whitespace byte after maxval
        bytes_per = 2 if maxval > 255 else 1
        need = npix * bytes_per
        if len(payload) < need:
            raise ParseError(f"{path}: truncated: {len(payload)} of {need} payload bytes")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(payload[:need], dtype=dtype).astype(np.float64)
        if values.max(initial=0.0) > maxval:
            raise ParseError(f"{path}: payload value exceeds maxval {maxval}")
    return ImageGrid(values.reshape(height, width))


def generate_null_grid(m: int, n: int, seed: int) -> ImageGrid:
    """m-by-n grid of i.i.d. standard normal intensities from a seeded generator."""
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got {m}x{n}")
    rng = np.random.default_rng(seed)
    return ImageGrid(rng.standard_normal((m, n)))


def _chain_draw(rng: np.random.Generator, t: int, m: int, n: int, C: int,
                length: int) -> tuple[np.ndarray, np.ndarray]:
    """Start columns and (t, length) moves of t random chains, for :func:`_clamped_walk`.

    ``rng`` draws, in this order, the t start columns uniform on
    [1, n - length + 1], the t first rows uniform on [1, m], and the
    (t, length - 1) drift steps uniform on {-C, ..., C}. Each row of the moves
    is a first row followed by its steps. Every seeded chain comes from this
    order: :func:`generate_chain` is its t = 1 case.
    """
    starts = 1 + rng.integers(0, n - length + 1, size=t)
    moves = np.empty((t, length), dtype=np.int64)
    moves[:, 0] = 1 + rng.integers(0, m, size=t)
    moves[:, 1:] = rng.integers(-C, C + 1, size=(t, length - 1))
    return starts, moves


def _clamped_walk(moves: np.ndarray, m: int) -> np.ndarray:
    """Rows r_k = min(max(r_{k-1} + s_k, 1), m), k = 1..L, of each row s of a
    (T, L) integer array of moves, from r_0 = 0, so a first move in [1, m] is
    the start row.

    Step k is the clamp map r -> min(max(r + a, lo), hi) with (a, lo, hi) =
    (s_k, 1, m), and clamp maps compose exactly in integers: (a1, lo1, hi1)
    followed by (a2, lo2, hi2) is (a1 + a2, clip(lo1 + a2, lo2, hi2),
    clip(hi1 + a2, lo2, hi2)). So the map from r_0 to r_k is r -> S_k +
    clip(r, L_k, H_k), with S_k = s_1 + ... + s_k the unclamped walk; step k
    alone has the interval [1 - S_k, m - S_k], and a prefix's interval is the
    earlier prefix's interval clamped into that of the steps after it. A
    doubling prefix scan (Hillis & Steele; Blelloch 1990) of the intervals
    composes every prefix in ceil(log2 L) vectorized rounds.
    """
    s = np.cumsum(moves, axis=1, dtype=np.int64)
    bounds = np.stack((1 - s, m - s))  # (L_k, H_k) of step k alone
    d = 1
    while d < s.shape[1]:  # each interval covers min(k, d) steps; fold in the d before
        bounds[:, :, d:] = np.minimum(np.maximum(bounds[:, :, :-d], bounds[0, :, d:]),
                                      bounds[1, :, d:])
        d *= 2
    return s + np.minimum(np.maximum(bounds[0], 0), bounds[1])


def generate_chain(m: int, n: int, C: int, length: int, seed: int) -> ChainPath:
    """Random chain: uniform start column and row, per-step drift uniform on
    {-C,...,C} clipped to [1, m].

    The draws are the t = 1 case of :func:`_chain_draw` on
    ``np.random.default_rng(seed)``, and the rows the T = 1 case of
    :func:`_clamped_walk`: the pair that plants the Monte Carlo power
    trials' chains a batch at a time.
    """
    if not (1 <= length <= n):
        raise ValueError(f"chain length {length} outside [1, {n}]")
    if m < 1 or C < 0:
        raise ValueError(f"need m >= 1 and C >= 0, got m={m}, C={C}")
    starts, moves = _chain_draw(np.random.default_rng(seed), 1, m, n, C, length)
    return ChainPath(int(starts[0]), tuple(_clamped_walk(moves, m)[0].tolist()))


def embed_chain(grid: ImageGrid, chain: ChainPath, mu: float) -> ImageGrid:
    """Return a copy of the grid with ``mu`` added at exactly the chain's nodes."""
    chain.validate(grid.m, grid.n)
    values = grid.values.copy()
    rows = np.asarray(chain.rows) - 1
    cols = np.arange(chain.start_col - 1, chain.end_col)
    values[rows, cols] += mu
    return ImageGrid(values)
