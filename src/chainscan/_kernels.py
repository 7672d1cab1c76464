"""Vectorized engines shared by the run/scan statistics and the simulators.

All kernels take raw ndarrays and work on stacks shaped (trials, m, n), so
Monte Carlo loops stay inside numpy.

Each stage has one exact layer loop that returns per-trial values and ends:
``_chain_ends`` for the run stage and ``_scan_ends`` for the scan stage. A
single-grid call is a T=1 view of its stage's loop. Layer k holds the cells
that end a chain of k nodes, and its live cells fall geometrically with k.
The scan loop follows the sorted flat indices of the live cells, with their
chain sums, through :func:`_successors` from layer 1 on, so its cost follows
the live cells, as in sparse dynamic programming (Eppstein, Galil, Giancarlo
& Italiano, J. ACM 39, 1992). The run loop takes dense passes over the whole
stack while at least 1/``_SPARSE_RATIO`` of its cells are live, and follows
the live cells after that; both phases keep the same end rule, so no length
or end depends on which phase found it. One backtrack rebuilds the witness
of either stage from the end its loop found (the run stage's with all-zero
intensities), so a run length and its witness come from one pass and follow
one tie rule at any depth.

The Monte Carlo loops draw their stacks through :func:`drawn_ahead`: one
batch of :func:`trial_batches` is drawn ahead on one worker thread while the
caller scores the current one. The worker alone calls the generator, in the
loop's order, so every output is bit-identical to a sequential loop; there
is no option to set.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")

# A run-stage layer step is dense while at least 1/_SPARSE_RATIO of the stack's cells are live.
_SPARSE_RATIO = 64

# Grid cells per trial batch: 1 MB per float64 array, so a batch stays in cache.
_BATCH_CELLS = 1 << 17


def trial_batches(trials: int, m: int, n: int):
    """Sizes of consecutive batches of m-by-n trials: about _BATCH_CELLS cells, at least 1 trial."""
    size = max(1, _BATCH_CELLS // (m * n))
    for start in range(0, trials, size):
        yield min(size, trials - start)


def drawn_ahead(draw, sizes):
    """Yield ``draw(size)`` for each item of ``sizes``, in order, drawing the
    next batch on one worker thread while the caller works on the current one.

    Only the worker calls ``draw`` while the loop runs, one call at a time and
    in the order of ``sizes``, so a ``draw`` over a numpy ``Generator`` gives
    the same values as a sequential loop, bit for bit. Generator fills and
    the kernels' numpy calls release the interpreter lock, so the draw of
    batch k + 1 overlaps the scoring of batch k; the cost is one batch held
    ahead. An exception from ``draw`` reaches the caller unchanged. The worker
    is joined when the loop ends, when the generator is closed, and when
    either side raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    sizes = iter(sizes)
    size = next(sizes, None)
    if size is None:
        return
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(draw, size)
        for size in sizes:
            batch = pending.result()
            pending = worker.submit(draw, size)
            yield batch
        yield pending.result()


def dilate_rows_max(cur: np.ndarray, C: int) -> np.ndarray:
    """Max over the +/-C row window, rows on axis -2 (OR on booleans)."""
    out = cur.copy()
    for d in range(1, C + 1):
        np.maximum(out[..., :-d, :], cur[..., d:, :], out=out[..., :-d, :])
        np.maximum(out[..., d:, :], cur[..., :-d, :], out=out[..., d:, :])
    return out


def _chain_step(bits: np.ndarray, cur: np.ndarray, C: int) -> np.ndarray:
    """Next reachability layer on (..., m, n): the set cells of ``bits`` one
    column right of, and within C rows of, a cell of ``cur``."""
    nxt = np.zeros_like(cur)
    nxt[..., 1:] = bits[..., 1:] & dilate_rows_max(cur, C)[..., :-1]
    return nxt


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    mask = np.empty(a.size, dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


def _padded(b: np.ndarray, C: int) -> np.ndarray:
    """Flat copy of a (T, m, n) boolean stack with C false rows above and below
    each trial and a false column on the right, so that no successor offset
    leaves its trial or needs a bounds check."""
    T, m, n = b.shape
    out = np.zeros((T, m + 2 * C, n + 1), dtype=bool)
    out[:, C : C + m, :n] = b
    return out.reshape(-1)


def _padded_index(cells: np.ndarray, m: int, n: int, C: int) -> np.ndarray:
    """Flat indices into the :func:`_padded` layout of flat (T, m, n) indices."""
    rows = cells // n  # t*m + r
    return cells + rows + (2 * (rows // m) + 1) * (C * (n + 1))


def _unpadded(cells: np.ndarray, m: int, n: int, C: int) -> np.ndarray:
    """Flat (T, m, n) indices of flat indices into the :func:`_padded` layout."""
    rows = cells // (n + 1)  # t*(m + 2C) + C + r
    return cells - rows - (2 * (rows // (m + 2 * C)) + 1) * (C * n)


def _successors(cells: np.ndarray, zp: np.ndarray, n: int,
                C: int) -> tuple[np.ndarray, np.ndarray]:
    """Significant cells (r+d, c+1), |d| <= C, after sorted live ``cells``,
    all flat indices into the :func:`_padded` significance ``zp``.

    Returns the successors, as 2C+1 sorted runs (one per d) that a stable
    sort merges in about linear time, and the (2C+1, live) mask of the
    candidates kept, which says whose successor each one is.
    """
    cand = np.arange(1 - C * (n + 1), C * (n + 1) + 2, n + 1)[:, None] + cells
    sig = zp[cand]
    return cand[sig], sig


def _chain_ends(bits: np.ndarray, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Longest chain length per trial of a (T, m, n) boolean stack, and the
    flat index of the row-major first cell that ends such a chain (0 when no
    bit is set).

    Iterates reachability layers until none is left, so the cost scales with
    the answer; a trial's length and end are written at its last nonempty
    layer.
    """
    T, m, n = bits.shape
    mn = m * n
    lengths = np.zeros(T, dtype=np.int64)
    ends = np.zeros(T, dtype=np.int64)
    cur, k = bits, 1
    alive, live = cur.any(axis=(1, 2)), np.count_nonzero(cur)
    while live and live * _SPARSE_RATIO >= cur.size:
        nxt = _chain_step(bits, cur, C)
        still = nxt.any(axis=(1, 2))
        done = alive & ~still  # cur is their last nonempty layer
        if done.any():
            lengths[done] = k
            ends[done] = cur[done].reshape(-1, mn).argmax(axis=1)
        cur, alive, live, k = nxt, still, np.count_nonzero(nxt), k + 1
    if not live:
        return lengths, ends
    cells = _padded_index(np.flatnonzero(cur), m, n, C)
    cur = nxt = None  # free the dense layers before the padded copy
    zp = _padded(bits, C)
    bounds = np.arange(T + 1) * ((m + 2 * C) * (n + 1))  # trial t: [bounds[t], bounds[t+1])
    starts = np.searchsorted(cells, bounds)
    while cells.size:
        nxt = np.sort(_successors(cells, zp, n, C)[0], kind="stable")
        nxt = nxt[_firsts(nxt)]
        nstarts = np.searchsorted(nxt, bounds)
        done = np.flatnonzero((starts[1:] > starts[:-1]) & (nstarts[1:] == nstarts[:-1]))
        if done.size:
            lengths[done] = k
            # the first live cell of a trial is its row-major first end
            ends[done] = _unpadded(cells[starts[done]], m, n, C) - done * mn
        cells, starts, k = nxt, nstarts, k + 1
    return lengths, ends


def chain_lengths(bits: np.ndarray, C: int, ends: np.ndarray | None = None) -> np.ndarray:
    """Longest significant chain length per trial for a (T, m, n) boolean stack
    (a 2-D map counts as one trial). ``ends``, T int64 entries when given,
    receives each trial's end from the same pass, as :func:`_chain_ends` gives it."""
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim == 2:
        bits = bits[None]
    lengths, found = _chain_ends(bits, C)
    if ends is not None:
        ends[:] = found
    return lengths


def longest_chain_with_witness(bits2d: np.ndarray, C: int) -> tuple[int, int | None, list[int]]:
    """Longest chain plus one witness: the chain ends at the row-major first
    cell that ends a longest chain, and each earlier node takes the smallest
    row, at any depth.

    Returns (length, start_col_0based, rows_0based); rows is empty when no
    bit is set.
    """
    bits = np.asarray(bits2d, dtype=bool)
    end = np.zeros(1, dtype=np.int64)
    k = int(chain_lengths(bits, C, end)[0])
    if k == 0:
        return 0, None, []
    i, j = divmod(int(end[0]), bits.shape[1])
    # all-zero intensities: a finite chain sum means the node is reachable
    return k, j - k + 1, backtrack(np.broadcast_to(0.0, bits.shape), bits, C, i, j, k)


def _scan_ends(x: np.ndarray, z: np.ndarray, C: int, U: int,
               center: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capped scan maximum per trial of (T, m, n) stacks, the flat index of the
    cell that ends the best chain, and that chain's length.

    Layers indexed by chain length u: layer u holds the live cells (sorted
    flat indices into the :func:`_padded` layout) that end a significant chain
    of u nodes, with the best sum of such a chain. Layer 1 is scored at any U;
    the loop stops after layer U or at the first empty layer (longer chains
    cannot exist). Each layer scores (best_u - center*u)/sqrt(u) at the
    trial's row-major first maximum, and a trial's end and length change only
    when its score strictly improves, so ties go to the smallest u, then to
    row-major node order.
    """
    T, m, n = x.shape
    mn = m * n
    values = np.full(T, NEG_INF)
    ends = np.zeros(T, dtype=np.int64)
    us = np.ones(T, dtype=np.int64)
    zp = _padded(z, C)
    bounds = np.arange(T + 1) * ((m + 2 * C) * (n + 1))  # trial t: [bounds[t], bounds[t+1])
    xs = x.reshape(-1)
    cells = np.flatnonzero(zp)
    at = _unpadded(cells, m, n, C)
    sums = xs[at]
    u = 1
    while cells.size:
        starts = np.searchsorted(cells, bounds)
        t = np.flatnonzero(starts[1:] > starts[:-1])
        top = np.maximum.reduceat(sums, starts[t])
        hits = np.flatnonzero(sums == np.repeat(top, np.diff(starts)[t]))
        first = hits[np.searchsorted(hits, starts[t])]  # each trial's row-major first maximum
        score = (sums[first] - center * u) / math.sqrt(u)
        better = score > values[t]
        t = t[better]
        values[t], ends[t], us[t] = score[better], at[first[better]] - t * mn, u
        if u >= U:
            break
        succ, sig = _successors(cells, zp, n, C)
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
    return values, ends, us


def scan_values(x: np.ndarray, z: np.ndarray, C: int, U: int,
                center: float = 0.0) -> np.ndarray:
    """Capped normalized scan statistic per trial on (T, m, n) stacks (a 2-D
    grid counts as one trial); ``center = 0`` gives the raw statistic."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=bool)
    if x.ndim == 2:
        x, z = x[None], z[None]
    return _scan_ends(x, z, C, U, center)[0]


def scan_best_single(x2d: np.ndarray, z2d: np.ndarray, C: int, U: int,
                     center: float = 0.0):
    """(value, i, j, u) of the capped scan maximum on one grid, with the end
    and tie rule of :func:`_scan_ends`; (NEG_INF, None, None, None) when no
    node is significant."""
    x = np.asarray(x2d, dtype=np.float64)
    values, ends, us = _scan_ends(x[None], np.asarray(z2d, dtype=bool)[None], C, U, center)
    value = float(values[0])
    if value == NEG_INF:
        return NEG_INF, None, None, None
    i, j = divmod(int(ends[0]), x.shape[1])
    return value, i, j, int(us[0])


def backtrack(x2d: np.ndarray, z2d: np.ndarray, C: int, i: int, j: int, u: int) -> list[int]:
    """Rows (0-based) of a chain of u nodes ending at (i, j) with the best sum.

    Sweeps the chain's u columns forward, one contiguous m-vector per column,
    with the sums of :func:`_scan_ends`, then walks back on Python floats (the
    same IEEE adds) to the smallest row whose sum matches bit for bit.
    """
    x = np.asarray(x2d, dtype=np.float64)
    z = np.asarray(z2d, dtype=bool)
    m = x.shape[0]
    lo = j - u + 1
    # NEG_INF off the significant cells: a finite x plus NEG_INF is already NEG_INF
    xs = np.where(z[:, lo : j + 1], x[:, lo : j + 1], NEG_INF).T.reshape(u, m, 1)
    sums = xs.copy()
    for c in range(1, u):
        np.add(xs[c], dilate_rows_max(sums[c - 1], C), out=sums[c])
    xs, sums = xs.reshape(u, m).tolist(), sums.reshape(u, m).tolist()
    rows = [i]
    r = i
    for c in range(u - 1, 0, -1):
        x_r, prev, target = xs[c][r], sums[c - 1], sums[c][r]
        for pr in range(max(0, r - C), min(m, r + C + 1)):
            # recompute the forward addition so the comparison is bit-exact
            if x_r + prev[pr] == target:
                break
        else:  # pragma: no cover - the forward sweep guarantees a predecessor
            raise AssertionError("backtrack lost the chain")
        r = pr
        rows.append(r)
    rows.reverse()
    return rows


def bernoulli_stack(rng: np.random.Generator, T: int, m: int, n: int, p: float) -> np.ndarray:
    """(T, m, n) i.i.d. Bernoulli(p) sample drawn as float32 uniforms.

    The uniforms are drawn in chunks of _BATCH_CELLS, which gives the same
    stream as one draw without a float32 copy of the whole stack.
    """
    out = np.empty(T * m * n, dtype=bool)
    for start in range(0, out.size, _BATCH_CELLS):
        chunk = out[start : start + _BATCH_CELLS]
        np.less(rng.random(chunk.size, dtype=np.float32), p, out=chunk)
    return out.reshape(T, m, n)
