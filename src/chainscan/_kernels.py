"""Vectorized engines shared by the run/scan statistics and the simulators.

All kernels take raw ndarrays and work on stacks shaped (trials, m, n), so
Monte Carlo loops stay inside numpy.

Each stage has one exact layer loop that returns per-trial values and ends:
``_chain_ends`` for the run stage and ``_scan_ends`` for the scan stage. A
single-grid call is a T=1 view of its stage's loop. Layer k holds the cells
that end a chain of k nodes, and its live cells fall geometrically with k.
Every pass over live cells, and the backtrack that rebuilds the scan
stage's witness, works on one cell layout, :func:`_padded`, and one
successor rule, the flat offsets of :func:`_offsets`: the pads keep every
offset inside its trial, so no pass needs a bounds check. The scan loop
follows the sorted live cells, with their chain sums, through
:func:`_successors` from layer 1 on, so its cost follows the live cells, as
in sparse dynamic programming (Eppstein, Galil, Giancarlo & Italiano,
J. ACM 39, 1992). The run loop needs only
reachability, so it starts on the same layout at one bit per cell,
:func:`_packed`, and steps 64 cells of a row at a time with word shifts, ORs
and ANDs, as bit-parallel string matching does (Baeza-Yates & Gonnet,
CACM 35, 1992; Myers, J. ACM 46, 1999). Once a step over the live cells
costs less than one over the words (``_LIST_COST``), it expands the nonzero
words into the sorted live cells and follows them as the scan loop does.
Both phases keep the same end rule, so a length, its end and its witness do
not depend on the phase, at any depth. The run witness needs only
reachability too: :func:`_bit_backtrack` sweeps the chain's own columns as
Python ints, one bit per row, and walks back to the smallest reachable row,
the tie rule of :func:`backtrack` at all-zero intensities. A stop layer ends
both phases early for a caller that reads only whether a length passes a cut
below it, and :func:`scan_values` skips the scan's ends but reports
min(longest chain, U).

The Monte Carlo loops draw null stacks sparsely: Bernoulli(p) significance
bits from :func:`bernoulli_stack`, one random byte per cell plus a uniform
for the rare byte that ties, and values on set bits from
:func:`_normal_tail`, N(0, 1) truncated to (x*, inf). Each loop draws a
batch of :func:`trial_batches` on its generator, scores it, and goes on.
"""

from __future__ import annotations

import functools
import math

import numpy as np

NEG_INF = float("-inf")

# A run-stage step over the live-cell list costs about _LIST_COST words of a packed
# step per nonzero byte (1 to 8 live cells) of the packed layer.
_LIST_COST = 48

# Grid cells per trial batch: 1 MB per float64 array, so a batch stays in cache.
_BATCH_CELLS = 1 << 17


def trial_batches(trials: int, m: int, n: int):
    """Sizes of consecutive batches of m-by-n trials: about _BATCH_CELLS cells, at least 1 trial."""
    size = max(1, _BATCH_CELLS // (m * n))
    for start in range(0, trials, size):
        yield min(size, trials - start)


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    mask = np.empty(a.size, dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


def _padded(b: np.ndarray, C: int) -> np.ndarray:
    """Flat copy of a (T, m, n) stack with C zero (false) rows above and below
    each trial and a zero column on the right, so that no successor offset
    leaves its trial or needs a bounds check."""
    T, m, n = b.shape
    out = np.zeros((T, m + 2 * C, n + 1), dtype=b.dtype)
    out[:, C : C + m, :n] = b
    return out.reshape(-1)


def _packed(b: np.ndarray, C: int) -> np.ndarray:
    """The :func:`_padded` layout at one bit per cell: a flat little-endian
    uint64 copy of a (T, m, n) boolean stack with C zero rows above and below
    each trial and each row widened to n // 64 + 1 words, column c at bit
    c % 64 of word c // 64. So every row ends in at least one zero pad bit,
    and no carry out of a row's last word is ever set."""
    T, m, n = b.shape
    W, nb = n // 64 + 1, -(-n // 8)
    if n % 8:  # whole bytes per row, so that one flat packbits call packs every row
        b = np.concatenate([b, np.zeros((T, m, 8 * nb - n), dtype=bool)], axis=2)
    out = np.zeros((T, m + 2 * C, 8 * W), dtype=np.uint8)
    out[:, C : C + m, :nb] = np.packbits(b, bitorder="little").reshape(T, m, nb)
    return out.view("<u8").reshape(-1)


def _offsets(n: int, C: int) -> np.ndarray:
    """The successor rule on the :func:`_padded` layout of n-column trials: flat
    offsets d*(n+1) + 1 from (r, c) to (r+d, c+1), for d = -C..C in order."""
    return np.arange(-C, C + 1) * (n + 1) + 1


def _unpadded(cells: np.ndarray, m: int, n: int, C: int) -> np.ndarray:
    """Flat (T, m, n) indices of flat indices into the :func:`_padded` layout."""
    rows = cells // (n + 1)  # t*(m + 2C) + C + r
    return cells - rows - (2 * (rows // (m + 2 * C)) + 1) * (C * n)


def _successors(cells: np.ndarray, zp: np.ndarray,
                offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Significant cells (r+d, c+1), |d| <= C, after sorted live ``cells``,
    all flat indices into the :func:`_padded` significance ``zp``; ``offsets``
    are the :func:`_offsets` of its trials.

    Returns the successors, as 2C+1 sorted runs (one per d) that a stable
    sort merges in about linear time, and the (2C+1, live) mask of the
    candidates kept, which says whose successor each one is.
    """
    cand = offsets[:, None] + cells
    sig = zp[cand]
    return cand[sig], sig


def _chain_ends(bits: np.ndarray, C: int, stop: int | None = None,
                with_ends: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Longest chain length per trial of a (T, m, n) boolean stack, and the
    flat index of the row-major first cell that ends such a chain (0 when no
    bit is set, and for every trial when ``with_ends`` is false).

    Iterates reachability layers until none is left, so the cost scales with
    the answer. Layers start on the :func:`_packed` words: the next layer ORs
    the 2C+1 row-shifted words, shifts them one column (each word's top bit
    carried into the next word) and masks them with the packed bits, at a
    cost that follows the words. A layer's nonzero bytes, counted in one
    pass, give its live cells to within 8x; once _LIST_COST times their count
    falls below the words of a layer, only its nonzero words are expanded
    into the sorted live cells of the :func:`_padded` layout, built then,
    which step through :func:`_successors` at a cost that follows the live
    cells. At a trial's
    last nonempty layer both phases write its length and its first live cell
    in padded order, the row-major first: the lowest set bit of its first
    nonzero word, or its first listed cell. A packed layer of a stack checks
    which trials are still live; a lone trial (T = 1) ends exactly at its
    first empty layer, so it checks nothing while its layers are nonempty.

    A ``stop`` layer (an int >= 1) ends both phases there: a trial still live
    at layer ``stop`` gets length ``stop`` and the row-major first cell that
    ends a chain of ``stop`` nodes, so each length is min(longest, stop).
    """
    T, m, n = bits.shape
    mn, W, rows = m * n, n // 64 + 1, m + 2 * C
    stride = rows * (n + 1)  # trial t's padded cells: [t*stride, (t+1)*stride)
    lengths, ends = np.zeros(T, dtype=np.int64), np.zeros(T, dtype=np.int64)
    stop = n if stop is None else min(stop, n)  # no chain has more than n nodes

    def finish(done, firsts):  # firsts(done): each done trial's first live cell, flat (m, n)
        lengths[done] = k
        if with_ends:
            ends[done] = firsts(done)

    def packed_firsts(done):  # the lowest set bit of each done trial's first nonzero word
        at = np.flatnonzero(cur)
        at = at[np.searchsorted(at, done * (rows * W))]
        return [(a // W % rows - C) * n + a % W * 64 + (w & -w).bit_length() - 1
                for a, w in zip(at.tolist(), cur[at].tolist())]

    def listed_firsts(done):
        return _unpadded(cells[starts[done]], m, n, C) - done * mn

    zw, words = _packed(bits, C), T * rows * W
    span = words - 2 * C * W  # [C*W, words - C*W): the words whose row shifts all lie in zw

    def views(layer):  # a packed layer's 2C+1 row shifts and span, per trial and per byte
        return ([layer[d * W : d * W + span] for d in range(2 * C + 1)],
                layer[C * W : C * W + span], layer.reshape(T, rows * W), layer.view(np.uint8))

    shifts, z, trials, live_bytes = views(zw)
    alive = trials.any(axis=1)
    count, live = np.count_nonzero(alive), np.count_nonzero(live_bytes)
    if not live:
        return lengths, ends
    nexts = [(layer, views(layer)) for layer in np.zeros((2, words), dtype="<u8")]
    reach, shifted = np.empty((2, span), dtype="<u8")
    cur, k = zw, 1
    while live and k < stop and live * _LIST_COST >= words:
        nxt, (nxt_shifts, nxt_span, trials, live_bytes) = nexts[k % 2]
        np.bitwise_or(shifts[0], shifts[-1], out=reach)
        for s in shifts[1:-1]:
            np.bitwise_or(reach, s, out=reach)
        np.left_shift(reach, 1, out=shifted)
        np.right_shift(reach, 63, out=reach)
        # a row's last word has a zero top bit, so no carry leaves the row
        np.bitwise_or(shifted[1:], reach[:-1], out=shifted[1:])
        np.bitwise_and(shifted, z, out=nxt_span)
        live = np.count_nonzero(live_bytes)
        if T > 1 or not live:  # a lone trial ends exactly at its first empty layer
            still = trials.any(axis=1)
            if np.count_nonzero(still) < count:
                done = np.flatnonzero(alive > still)  # cur is their last nonempty layer
                finish(done, packed_firsts)
                count -= done.size
            alive = still
        cur, shifts, k = nxt, nxt_shifts, k + 1
    if not live or k == stop:
        if live:  # the trials still live end at the stop
            finish(np.flatnonzero(alive), packed_firsts)
        return lengths, ends
    at = np.flatnonzero(cur)  # only the nonzero words, expanded into the live cells
    hit = np.flatnonzero(np.unpackbits(cur[at].view(np.uint8), bitorder="little"))
    row, col = np.divmod(at[hit // 64], W)
    cells = row * (n + 1) + col * 64 + hit % 64
    zp, offsets = _padded(bits, C), _offsets(n, C)
    bounds = np.arange(T + 1) * stride
    starts = np.searchsorted(cells, bounds)
    while cells.size and k < stop:
        nxt = np.sort(_successors(cells, zp, offsets)[0], kind="stable")
        nxt = nxt[_firsts(nxt)]
        nstarts = np.searchsorted(nxt, bounds)
        done = np.flatnonzero((starts[1:] > starts[:-1]) & (nstarts[1:] == nstarts[:-1]))
        if done.size:
            finish(done, listed_firsts)
        cells, starts, k = nxt, nstarts, k + 1
    if cells.size:  # layer k = stop: the trials still live end here
        finish(np.flatnonzero(starts[1:] > starts[:-1]), listed_firsts)
    return lengths, ends


def chain_lengths(bits: np.ndarray, C: int, ends: np.ndarray | None = None,
                  stop: int | None = None) -> np.ndarray:
    """Longest significant chain length per trial for a (T, m, n) boolean stack
    (a 2-D map counts as one trial), from the packed-then-listed layers of
    :func:`_chain_ends`. ``ends``, T int64 entries when given, receives each
    trial's end from the same pass; without it the pass finds no ends.

    ``stop``, an int >= 1 when given, caps the pass at that layer, as in
    :func:`_chain_ends`: each length is then min(longest, stop), which is all
    a cut below ``stop`` reads, and a capped trial's end is the first cell
    that ends a chain of ``stop`` nodes.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim == 2:
        bits = bits[None]
    lengths, found = _chain_ends(bits, C, stop, ends is not None)
    if ends is not None:
        ends[:] = found
    return lengths


def longest_chain_with_witness(bits2d: np.ndarray, C: int) -> tuple[int, int | None, list[int]]:
    """Longest chain plus one witness: the chain ends at the row-major first
    cell that ends a longest chain, and each earlier node takes the smallest
    row, at any depth. The length and end come from one :func:`_chain_ends`
    pass, the witness from the chain's bit columns (:func:`_bit_backtrack`).

    Returns (length, start_col_0based, rows_0based); rows is empty when no
    bit is set.
    """
    bits = np.asarray(bits2d, dtype=bool)
    end = np.zeros(1, dtype=np.int64)
    k = int(chain_lengths(bits, C, end)[0])
    if k == 0:
        return 0, None, []
    i, j = divmod(int(end[0]), bits.shape[1])
    return k, j - k + 1, _bit_backtrack(bits, C, i, j, k)


def _bit_backtrack(bits2d: np.ndarray, C: int, i: int, j: int, u: int) -> list[int]:
    """Rows (0-based) of a significant chain of u nodes ending at (i, j), each
    earlier node at the smallest row that keeps the chain: the witness of
    :func:`backtrack` at all-zero intensities, where a sum matches exactly when
    its cell is reachable.

    Packs each of the chain's u columns into a Python int, row r at bit r, and
    sweeps reach_c = z_c & OR over |d| <= C of reach_{c-1} shifted by d rows
    (z_c drops the bits shifted past the last row). Then walks back to the
    lowest bit of reach_{c-1} within C rows of each node.
    """
    nb = -(-bits2d.shape[0] // 8)  # bytes per packed column
    data = np.packbits(bits2d[:, j - u + 1 : j + 1].T, axis=1, bitorder="little").tobytes()
    reach = [int.from_bytes(data[:nb], "little")]
    for at in range(nb, u * nb, nb):
        prev = near = reach[-1]
        for d in range(1, C + 1):
            near |= prev << d | prev >> d
        reach.append(int.from_bytes(data[at : at + nb], "little") & near)
    rows = [i]
    for prev in reversed(reach[:-1]):
        lo = max(rows[-1] - C, 0)
        window = (prev >> lo) & ((1 << (rows[-1] + C - lo + 1)) - 1)
        rows.append(lo + (window & -window).bit_length() - 1)
    rows.reverse()
    return rows


def _scan_ends(x: np.ndarray, z: np.ndarray, C: int, U: int, center: float,
               with_ends: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Capped scan maximum per trial of (T, m, n) stacks, the flat index of the
    cell that ends the best chain, that chain's length, and the trial's last
    nonempty layer, min(longest chain, U) (0 when no bit is set).

    Layers indexed by chain length u: layer u holds the live cells (sorted
    flat indices into the :func:`_padded` layout) that end a significant chain
    of u nodes, with the best sum of such a chain. Layer 1 is scored at any U;
    the loop stops after layer U or at the first empty layer (longer chains
    cannot exist). Each layer scores (best_u - center*u)/sqrt(u) at the
    trial's row-major first maximum, and a trial's end and length change only
    when its score strictly improves, so ties go to the smallest u, then to
    row-major node order. ``with_ends`` false skips that rule: same values,
    ends 0 and lengths 1."""
    T, m, n = x.shape
    mn = m * n
    values = np.full(T, NEG_INF)
    ends, depth = np.zeros((2, T), dtype=np.int64)
    us = np.ones(T, dtype=np.int64)
    zp, offsets = _padded(z, C), _offsets(n, C)
    bounds = np.arange(T + 1) * ((m + 2 * C) * (n + 1))  # trial t: [bounds[t], bounds[t+1])
    xs = x.reshape(-1)
    cells = np.flatnonzero(zp)
    at = _unpadded(cells, m, n, C)
    sums = xs[at]
    u = 1
    while cells.size:
        starts = np.searchsorted(cells, bounds)
        t = np.flatnonzero(starts[1:] > starts[:-1])
        depth[t] = u
        top = np.maximum.reduceat(sums, starts[t])
        if with_ends:
            hits = np.flatnonzero(sums == np.repeat(top, np.diff(starts)[t]))
            first = hits[np.searchsorted(hits, starts[t])]  # each trial's row-major first maximum
            top = sums[first]
        score = (top - center * u) / math.sqrt(u)
        better = score > values[t]
        t = t[better]
        values[t] = score[better]
        if with_ends:
            ends[t], us[t] = at[first[better]] - t * mn, u
        if u >= U:
            break
        succ, sig = _successors(cells, zp, offsets)
        order = np.argsort(succ, kind="stable")
        succ = succ[order]
        heads = np.flatnonzero(_firsts(succ))
        cells = succ[heads]
        at = _unpadded(cells, m, n, C)
        # the best predecessor, then x once: rounding is monotone, so each sum
        # is the same IEEE add as in backtrack's forward sweep
        pred = np.broadcast_to(sums, sig.shape)[sig][order]
        sums = np.maximum.reduceat(pred, heads) + xs[at]
        u += 1
    return values, ends, us, depth


def scan_values(x: np.ndarray, z: np.ndarray, C: int, U: int,
                center: float = 0.0, lengths: np.ndarray | None = None) -> np.ndarray:
    """Capped normalized scan statistic per trial on (T, m, n) stacks (a 2-D
    grid counts as one trial); ``center = 0`` gives the raw statistic.
    ``lengths``, T int64 entries when given, receives each trial's last
    nonempty layer from the same pass: min(longest chain, U)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=bool)
    if x.ndim == 2:
        x, z = x[None], z[None]
    values, _, _, depth = _scan_ends(x, z, C, U, center, with_ends=False)
    if lengths is not None:
        lengths[:] = depth
    return values


def scan_best_single(x2d: np.ndarray, z2d: np.ndarray, C: int, U: int,
                     center: float = 0.0):
    """(value, i, j, u) of the capped scan maximum on one grid, with the end
    and tie rule of :func:`_scan_ends`; (NEG_INF, None, None, None) when no
    node is significant."""
    x = np.asarray(x2d, dtype=np.float64)
    values, ends, us, _ = _scan_ends(x[None], np.asarray(z2d, dtype=bool)[None], C, U, center)
    value = float(values[0])
    if value == NEG_INF:
        return NEG_INF, None, None, None
    i, j = divmod(int(ends[0]), x.shape[1])
    return value, i, j, int(us[0])


def backtrack(x2d: np.ndarray, z2d: np.ndarray, C: int, i: int, j: int, u: int) -> list[int]:
    """Rows (0-based) of a chain of u nodes ending at (i, j) with the best sum:
    the scan stage's witness. (The run witness, at all-zero intensities, is
    :func:`_bit_backtrack`'s, with the same tie rule.)

    Sweeps the chain's u columns forward on their :func:`_padded` layout,
    NEG_INF in the pads and off the significant cells, with the sums of
    :func:`_scan_ends`: each cell adds its x to the best sum that the
    :func:`_offsets` lead back to. Then walks back on Python floats (the same
    IEEE adds) to the smallest row whose sum matches bit for bit; a pad's sum
    is NEG_INF and never matches, so the walk needs no bounds check.
    """
    x = np.asarray(x2d, dtype=np.float64)
    z = np.asarray(z2d, dtype=bool)
    m = x.shape[0]
    cols = np.s_[None, :, j - u + 1 : j + 1]
    # NEG_INF off the significant cells, pads included: a finite x plus NEG_INF is NEG_INF
    xs = np.where(_padded(z[cols], C), _padded(x[cols], C), NEG_INF)
    sums = xs.copy()
    offsets, w = _offsets(u, C).tolist(), u + 1
    stop = (C + m) * w
    for c in range(C * w + 1, C * w + u):  # columns 1..u-1: c, c + w, ... < stop
        pred = [sums[c - o : stop - o : w] for o in offsets]
        np.add(xs[c:stop:w], functools.reduce(np.maximum, pred), out=sums[c:stop:w])
    xs, sums = xs.tolist(), sums.tolist()
    q = (C + i) * w + u - 1
    rows = [i]
    for _ in range(u - 1):
        x_q, target = xs[q], sums[q]
        for o in reversed(offsets):  # predecessors q - o by increasing row
            # recompute the forward addition so the comparison is bit-exact
            if x_q + sums[q - o] == target:
                break
        else:  # pragma: no cover - the forward sweep guarantees a predecessor
            raise AssertionError("backtrack lost the chain")
        q -= o
        rows.append(q // w - C)
    rows.reverse()
    return rows


def bernoulli_stack(rng: np.random.Generator, T: int, m: int, n: int, p: float) -> np.ndarray:
    """(T, m, n) i.i.d. Bernoulli(p) bits, p in [0, 1), from one random byte per cell.

    The bytes are the little-endian bytes of uniform 64-bit words, as many
    words as the cells need, so a call wastes under 8 bytes (the same law as
    ``Generator.bytes`` at under half its cost). With q = 256 p
    and k = floor(q), a cell is set when its byte u < k. The cells whose byte
    ties at u == k, about one in 256, then draw one double uniform each,
    after all the bytes and in cell order, and are set when it is < q - k.
    So P(bit) = k/256 + (q - k)/256 = p to double precision, at about 8.3
    random bits per cell, not the 32 of a float32 uniform (an exact sampler
    needs few bits: Knuth & Yao 1976; Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. 3).
    """
    size = T * m * n
    q = 256.0 * p
    k = math.floor(q)
    words = rng.integers(0, 1 << 64, size=-(-size // 8), dtype=np.uint64)
    u = words.astype("<u8", copy=False).view(np.uint8)[:size]
    ties = np.flatnonzero(u == k)
    out = u.view(bool)  # each bit overwrites its own byte, so the bits hold no second array
    np.less(u, k, out=out)
    out[ties] = rng.random(ties.size) < q - k
    return out.reshape(T, m, n)


def _normal_tail(rng: np.random.Generator, size: int, a: float) -> np.ndarray:
    """``size`` i.i.d. N(0, 1) values conditioned to exceed ``a``, each strictly.

    Robert's exact rejection sampler (*Simulation of truncated normal
    variables*, Stat. Comput. 5, 1995): propose y = a + E/alpha, E ~ Exp(1),
    alpha = (a + sqrt(a^2 + 4))/2, and accept with probability
    exp(-(y - alpha)^2/2), drawn as a second Exp(1) that exceeds
    (y - alpha)^2/2. A y that rounds to a is rejected. Each round draws a
    quarter more proposal pairs than it still needs (about 0.9 are accepted
    at a = 1.28) and keeps the first accepted values, in order; ``size = 0``
    draws nothing.
    """
    alpha = (a + math.sqrt(a * a + 4.0)) / 2.0
    out = np.empty(size)
    done = 0
    while done < size:
        need = size - done
        e = rng.standard_exponential((2, need + need // 4 + 8))
        y = a + e[0] / alpha
        y = y[(e[1] > 0.5 * (y - alpha) ** 2) & (y > a)][:need]
        out[done : done + y.size] = y
        done += y.size
    return out
