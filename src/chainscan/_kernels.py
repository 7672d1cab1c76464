"""Vectorized engines shared by the run/scan statistics and the simulators.

All kernels take raw ndarrays and work on stacks shaped (trials, m, n), so
Monte Carlo loops stay inside numpy.

Each stage has one layer loop that returns per-trial values and ends:
``_chain_ends`` for the run stage and ``_scan_ends`` for the scan stage. A
single-grid call is a T=1 view of its stage's loop. The run stage hands runs
deeper than ``_PROP_CAP`` layers to a column sweep that reports the same
endpoint, the row-major first cell that ends a longest chain. One backtrack
rebuilds the witness of either stage (the run stage's with all-zero
intensities), so a run witness follows one tie rule at any depth.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")

# Iteration cap for the layer-propagation longest-run engine; beyond it the
# column sweep takes over (cheaper when runs are very long).
_PROP_CAP = 512

# Grid cells per trial batch: 1 MB per float64 array, so a batch stays in cache.
_BATCH_CELLS = 1 << 17


def trial_batches(trials: int, m: int, n: int):
    """Sizes of consecutive batches of m-by-n trials: about _BATCH_CELLS cells, at least 1 trial."""
    size = max(1, _BATCH_CELLS // (m * n))
    for start in range(0, trials, size):
        yield min(size, trials - start)


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


def _scan_step(x: np.ndarray, z: np.ndarray, layer: np.ndarray, C: int) -> np.ndarray:
    """Scan layer u+1 from layer u on (..., m, n): the best sum of a chain one
    node longer ending at each significant cell, NEG_INF where unreachable."""
    prev = dilate_rows_max(layer, C)
    nxt = np.full_like(layer, NEG_INF)
    np.add(x[..., 1:], prev[..., :-1], out=nxt[..., 1:],
           where=z[..., 1:] & (prev[..., :-1] > NEG_INF))
    return nxt


def _sweep_ends(bits: np.ndarray, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Column sweep over (T, m, n) bits, O(C*m*n) per trial and O(T*m) memory,
    with the same (lengths, ends) as :func:`_chain_ends`: each row keeps its
    best length and the first column that reaches it."""
    T, m, n = bits.shape
    cols = bits.transpose(2, 1, 0)  # (n, m, T): rows on axis -2 for the dilation
    y = cols[0].astype(np.int64)
    best = y.copy()
    first = np.zeros((m, T), dtype=np.int64)
    for j in range(1, n):
        y = (1 + dilate_rows_max(y, C)) * cols[j]
        first[y > best] = j
        np.maximum(best, y, out=best)
    lengths = best.max(axis=0)
    rows = (best == lengths).argmax(axis=0)
    return lengths, rows * n + first[rows, np.arange(T)]


def _chain_ends(bits: np.ndarray, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Longest chain length per trial of a (T, m, n) boolean stack, and the
    flat index of the row-major first cell that ends such a chain (0 when no
    bit is set).

    Iterates reachability layers (cost proportional to the answer); trials
    whose runs reach the iteration cap finish in the column sweep.
    """
    T, m, n = bits.shape
    lengths = np.zeros(T, dtype=np.int64)
    ends = np.zeros(T, dtype=np.int64)
    cur = bits
    alive = cur.any(axis=(1, 2))
    k = 0
    while alive.any():
        k += 1
        lengths[alive] = k
        if _PROP_CAP <= k < n:
            idx = np.flatnonzero(alive)
            lengths[idx], ends[idx] = _sweep_ends(bits[idx], C)
            break
        nxt = _chain_step(bits, cur, C)
        still = nxt.any(axis=(1, 2))
        done = alive & ~still  # cur is their last nonempty layer
        if done.any():
            ends[done] = cur[done].reshape(-1, m * n).argmax(axis=1)
        cur, alive = nxt, still
    return lengths, ends


def chain_lengths(bits: np.ndarray, C: int) -> np.ndarray:
    """Longest significant chain length per trial for a (T, m, n) boolean stack
    (a 2-D map counts as one trial)."""
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim == 2:
        bits = bits[None]
    return _chain_ends(bits, C)[0]


def longest_chain_with_witness(bits2d: np.ndarray, C: int) -> tuple[int, int | None, list[int]]:
    """Longest chain plus one witness: the chain ends at the row-major first
    cell that ends a longest chain, and each earlier node takes the smallest
    row, at any depth.

    Returns (length, start_col_0based, rows_0based); rows is empty when no
    bit is set.
    """
    bits = np.asarray(bits2d, dtype=bool)
    lengths, ends = _chain_ends(bits[None], C)
    k = int(lengths[0])
    if k == 0:
        return 0, None, []
    i, j = divmod(int(ends[0]), bits.shape[1])
    # all-zero intensities: a finite chain sum means the node is reachable
    return k, j - k + 1, backtrack(np.broadcast_to(0.0, bits.shape), bits, C, i, j, k)


def _scan_ends(x: np.ndarray, z: np.ndarray, C: int, U: int,
               center: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capped scan maximum per trial of (T, m, n) stacks, the flat index of the
    cell that ends the best chain, and that chain's length.

    Layers indexed by chain length u: layer u holds the best significant-chain
    sum of length u ending at each node, NEG_INF where unreachable. Stops as
    soon as a layer is entirely unreachable (longer chains cannot exist).
    Each layer scores (best_u - center*u)/sqrt(u). A trial's end and length
    change only when its score strictly improves, so ties go to the smallest
    u, then to row-major node order.
    """
    T, m, n = x.shape
    trials = np.arange(T)
    layer = np.where(z, x, NEG_INF)
    ends = layer.reshape(T, m * n).argmax(axis=1)
    values = layer.reshape(T, m * n)[trials, ends] - center
    us = np.ones(T, dtype=np.int64)
    for u in range(2, U + 1):
        layer = _scan_step(x, z, layer, C)
        flat = layer.reshape(T, m * n)
        arg = flat.argmax(axis=1)
        top = flat[trials, arg]
        if not np.isfinite(top).any():
            break
        score = (top - center * u) / math.sqrt(u)
        better = score > values
        values[better], ends[better], us[better] = score[better], arg[better], u
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

    Sweeps the chain's u columns forward, one m-vector per column, with the
    sums of :func:`_scan_step`, then walks back to the smallest row whose sum
    matches bit for bit.
    """
    x = np.asarray(x2d, dtype=np.float64)
    z = np.asarray(z2d, dtype=bool)
    m = x.shape[0]
    lo = j - u + 1
    xs, zs = x[:, lo : j + 1].T, z[:, lo : j + 1].T
    sums = np.full((u, m), NEG_INF)
    sums[0] = np.where(zs[0], xs[0], NEG_INF)
    for c in range(1, u):
        prev = dilate_rows_max(sums[c - 1 : c].T, C)[:, 0]
        np.add(xs[c], prev, out=sums[c], where=zs[c] & (prev > NEG_INF))
    rows = [i]
    r = i
    for c in range(u - 1, 0, -1):
        for pr in range(max(0, r - C), min(m, r + C + 1)):
            # recompute the forward addition so the comparison is bit-exact
            if xs[c, r] + sums[c - 1, pr] == sums[c, r]:
                break
        else:  # pragma: no cover - the forward sweep guarantees a predecessor
            raise AssertionError("backtrack lost the chain")
        r = pr
        rows.append(r)
    rows.reverse()
    return rows


def bernoulli_stack(rng: np.random.Generator, T: int, m: int, n: int, p: float) -> np.ndarray:
    """(T, m, n) i.i.d. Bernoulli(p) sample drawn as float32 uniforms."""
    return rng.random((T, m, n), dtype=np.float32) < p
