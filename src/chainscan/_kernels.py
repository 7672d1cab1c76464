"""Vectorized engines shared by the run/scan statistics and the simulators.

All kernels take raw ndarrays. Batched variants operate on stacks shaped
(trials, m, n) so Monte Carlo loops stay inside numpy.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")

# Iteration cap for the layer-propagation longest-run engine; beyond it the
# per-column rolling DP takes over (cheaper when runs are very long).
_PROP_CAP = 512

# Grid cells per trial batch: 1 MB per float64 array, so a batch stays in cache.
_BATCH_CELLS = 1 << 17


def trial_batches(trials: int, m: int, n: int):
    """Sizes of consecutive batches of m-by-n trials: about _BATCH_CELLS cells, at least 1 trial."""
    size = max(1, _BATCH_CELLS // (m * n))
    for start in range(0, trials, size):
        yield min(size, trials - start)


def dilate_rows_or(cur: np.ndarray, C: int) -> np.ndarray:
    """OR over the +/-C row window, rows on axis -2."""
    out = cur.copy()
    for d in range(1, C + 1):
        out[..., :-d, :] |= cur[..., d:, :]
        out[..., d:, :] |= cur[..., :-d, :]
    return out


def dilate_rows_max(cur: np.ndarray, C: int) -> np.ndarray:
    """Max over the +/-C row window, rows on axis -2."""
    out = cur.copy()
    for d in range(1, C + 1):
        np.maximum(out[..., :-d, :], cur[..., d:, :], out=out[..., :-d, :])
        np.maximum(out[..., d:, :], cur[..., :-d, :], out=out[..., d:, :])
    return out


def _chain_step(bits: np.ndarray, cur: np.ndarray, C: int) -> np.ndarray:
    """Next reachability layer on (..., m, n): the set cells of ``bits`` one
    column right of, and within C rows of, a cell of ``cur``."""
    nxt = np.zeros_like(cur)
    nxt[..., 1:] = bits[..., 1:] & dilate_rows_or(cur, C)[..., :-1]
    return nxt


def _scan_step(x: np.ndarray, z: np.ndarray, layer: np.ndarray, C: int) -> np.ndarray:
    """Scan layer u+1 from layer u on (..., m, n): the best sum of a chain one
    node longer ending at each significant cell, NEG_INF where unreachable."""
    prev = dilate_rows_max(layer, C)
    nxt = np.full_like(layer, NEG_INF)
    np.add(x[..., 1:], prev[..., :-1], out=nxt[..., 1:],
           where=z[..., 1:] & (prev[..., :-1] > NEG_INF))
    return nxt


def _rolling_lengths(bits: np.ndarray, C: int) -> np.ndarray:
    """Per-column DP over (T, m, n) bits; O(C*m*n) per trial, O(T*m) memory."""
    T, m, n = bits.shape
    y = bits[:, :, 0].astype(np.int64)
    best = y.max(axis=1)
    for j in range(1, n):
        w = y.copy()
        for d in range(1, C + 1):
            np.maximum(w[:, :-d], y[:, d:], out=w[:, :-d])
            np.maximum(w[:, d:], y[:, :-d], out=w[:, d:])
        y = (1 + w) * bits[:, :, j]
        np.maximum(best, y.max(axis=1), out=best)
    return best


def chain_lengths(bits: np.ndarray, C: int) -> np.ndarray:
    """Longest significant chain length per trial for a (T, m, n) boolean stack.

    Iterates reachability layers (cost proportional to the answer), falling
    back to the rolling DP for trials whose runs exceed the iteration cap.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim == 2:
        bits = bits[None]
    T, m, n = bits.shape
    lengths = np.zeros(T, dtype=np.int64)
    cur = bits
    k = 0
    while True:
        alive = cur.any(axis=(1, 2))
        if not alive.any():
            return lengths
        k += 1
        lengths[alive] = k
        if k >= n:
            return lengths
        if k >= _PROP_CAP:
            idx = np.flatnonzero(alive)
            lengths[idx] = _rolling_lengths(bits[idx], C)
            return lengths
        cur = _chain_step(bits, cur, C)


def chain_length_single(bits2d: np.ndarray, C: int) -> int:
    return int(chain_lengths(bits2d[None], C)[0])


def _endpoint_by_propagation(bits: np.ndarray, C: int):
    """(length, end_row, end_col) of a longest chain, or None past the cap."""
    n = bits.shape[1]
    cur = bits
    k = 0
    last = None
    while cur.any():
        k += 1
        last = cur
        if k >= n:
            break
        if k >= _PROP_CAP:
            return None  # too deep for layer propagation; caller falls back
        cur = _chain_step(bits, cur, C)
    if k == 0:
        return 0, None, None
    flat = int(np.argmax(last))
    return k, flat // n, flat % n


def _witness_rows_by_slab(bits: np.ndarray, C: int, k: int, i: int, j: int) -> list[int]:
    """Rows of a length-k chain ending at (i, j): recompute layers on the
    k-column slab the chain must occupy, then walk back (smallest row on ties)."""
    m = bits.shape[0]
    lo = j - k + 1
    slab = bits[:, lo : j + 1]
    layers = [slab]
    for _ in range(k - 1):
        layers.append(_chain_step(slab, layers[-1], C))
    rows = [i]
    r, c = i, k - 1
    for v in range(k - 1, 0, -1):
        for pr in range(max(0, r - C), min(m - 1, r + C) + 1):
            if layers[v - 1][pr, c - 1]:
                r = pr
                break
        else:  # pragma: no cover - forward layers guarantee a predecessor
            raise AssertionError("witness backtrack lost the chain")
        c -= 1
        rows.append(r)
    rows.reverse()
    return rows


def longest_chain_with_witness(bits2d: np.ndarray, C: int) -> tuple[int, int | None, list[int]]:
    """Longest chain plus one witness, ties broken toward the smallest row.

    Returns (length, start_col_0based, rows_0based); rows is empty when no
    bit is set. Layer propagation finds the endpoint, a slab replay extracts
    the chain; runs too deep to replay fall back to the pointer DP below.
    """
    bits = np.asarray(bits2d, dtype=bool)
    m = bits.shape[0]
    found = _endpoint_by_propagation(bits, C)
    if found is not None:
        k, i, j = found
        if k == 0:
            return 0, None, []
        if k * k * m <= 4e8:
            return k, j - k + 1, _witness_rows_by_slab(bits, C, k, i, j)
    return _witness_pointer_dp(bits, C)


def _witness_pointer_dp(bits: np.ndarray, C: int) -> tuple[int, int | None, list[int]]:
    """Per-column DP with backpointers; O(C*m*n) time, O(m*n) memory."""
    m, n = bits.shape
    back = np.zeros((m, n), dtype=np.int8)
    y = bits[:, 0].astype(np.int32)
    best_len, best_i, best_j = int(y.max()), int(np.argmax(y)), 0
    rows_idx = np.arange(m)
    for j in range(1, n):
        w = np.full(m, -1, dtype=np.int32)
        arg = np.zeros(m, dtype=np.int8)
        # ascending predecessor row with strict '>' keeps the smallest row on ties
        for d in range(-C, C + 1):
            pred = rows_idx + d
            ok = (pred >= 0) & (pred < m)
            cand = np.full(m, -1, dtype=np.int32)
            cand[ok] = y[pred[ok]]
            upd = cand > w
            w[upd] = cand[upd]
            arg[upd] = d
        y = np.where(bits[:, j], 1 + w, 0).astype(np.int32)
        back[:, j] = arg
        col_best = int(y.max())
        if col_best > best_len:
            best_len, best_i, best_j = col_best, int(np.argmax(y)), j
    if best_len == 0:
        return 0, None, []
    rows = [best_i]
    i, j = best_i, best_j
    for _ in range(best_len - 1):
        i = i + int(back[i, j])
        j -= 1
        rows.append(i)
    rows.reverse()
    return best_len, best_j - best_len + 1, rows


def scan_values(x: np.ndarray, z: np.ndarray, C: int, U: int,
                center: float = 0.0) -> np.ndarray:
    """Capped normalized scan statistic per trial on (T, m, n) stacks.

    Layers indexed by chain length u: layer u holds the best significant-chain
    sum of length u ending at each node, NEG_INF where unreachable. Stops as
    soon as a layer is entirely unreachable (longer chains cannot exist).
    Each layer scores (best_u - center*u)/sqrt(u); ``center = 0`` gives the
    raw statistic.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=bool)
    if x.ndim == 2:
        x, z = x[None], z[None]
    T = x.shape[0]
    layer = np.where(z, x, NEG_INF)
    best = layer.max(axis=(1, 2)) - center
    for u in range(2, U + 1):
        layer = _scan_step(x, z, layer, C)
        mx = layer.max(axis=(1, 2))
        if not np.isfinite(mx).any():
            break
        np.maximum(best, (mx - center * u) / math.sqrt(u), out=best)
    return best


def scan_best_single(x2d: np.ndarray, z2d: np.ndarray, C: int, U: int,
                     center: float = 0.0):
    """(value, i, j, u) of the capped scan maximum on one grid; deterministic
    tie-breaking toward the smallest u, then row-major node order. Layers
    are scored as in :func:`scan_values`."""
    x = np.asarray(x2d, dtype=np.float64)
    z = np.asarray(z2d, dtype=bool)
    m, n = x.shape
    layer = np.where(z, x, NEG_INF)
    flat = int(np.argmax(layer))
    best = float(layer.flat[flat]) - center
    arg = (flat // n, flat % n, 1)
    for u in range(2, U + 1):
        layer = _scan_step(x, z, layer, C)
        flat = int(np.argmax(layer))
        top = float(layer.flat[flat])
        if top == NEG_INF:
            break
        cand = (top - center * u) / math.sqrt(u)
        if cand > best:
            best = cand
            arg = (flat // n, flat % n, u)
    if best == NEG_INF:
        return NEG_INF, None, None, None
    return best, arg[0], arg[1], arg[2]


def scan_backtrack(x2d: np.ndarray, z2d: np.ndarray, C: int, i: int, j: int, u: int) -> list[int]:
    """Rows (0-based) of a chain of length u ending at (i, j) achieving the
    layer-u sum; recomputes the DP on the u-column slab containing the chain."""
    x = np.asarray(x2d, dtype=np.float64)
    z = np.asarray(z2d, dtype=bool)
    lo = j - u + 1
    xs, zs = x[:, lo : j + 1], z[:, lo : j + 1]
    layers = [np.where(zs, xs, NEG_INF)]
    for _ in range(2, u + 1):
        layers.append(_scan_step(xs, zs, layers[-1], C))
    m = x.shape[0]
    rows = [i]
    r, c = i, u - 1
    for v in range(u, 1, -1):
        target = layers[v - 1][r, c]
        prev_rows = [r + d for d in range(-C, C + 1) if 0 <= r + d < m]
        for pr in prev_rows:
            # recompute the forward addition so the comparison is bit-exact
            if xs[r, c] + layers[v - 2][pr, c - 1] == target:
                r = pr
                break
        else:  # pragma: no cover - forward pass guarantees a predecessor
            raise AssertionError("scan backtrack lost the chain")
        c -= 1
        rows.append(r)
    rows.reverse()
    return rows


def bernoulli_stack(rng: np.random.Generator, T: int, m: int, n: int, p: float) -> np.ndarray:
    """(T, m, n) i.i.d. Bernoulli(p) sample drawn as float32 uniforms."""
    return rng.random((T, m, n), dtype=np.float32) < p
