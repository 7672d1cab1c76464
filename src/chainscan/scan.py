"""Normalized scan statistic over significant chains, capped at length U.

The statistic is the maximum over significant chains L (1 <= |L| <= U) of
(sum of intensities over L - center * |L|) / sqrt(|L|). The default
``center = 0`` gives the raw statistic. Significant null nodes are N(0,1)
draws truncated to (x*, inf), so a raw chain term is not standard normal: its
mean grows like lambda(x*) * sqrt(|L|). Step II therefore passes
``center = null_conditional_mean(x*)``, which centers every term at zero.
Unreachable cells carry an explicit -inf sentinel; a grid with no
significant node scores -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from ._kernels import NEG_INF
from .errors import CapacityError
from .grid import ChainPath, ImageGrid, SignificanceMap

__all__ = ["UNREACHABLE", "ScanResult", "scan_statistic", "scan_bruteforce"]

UNREACHABLE = NEG_INF

_BRUTE_MAX_ROWS = 4
_BRUTE_MAX_COLS = 12


@dataclass(frozen=True)
class ScanResult:
    """Scan maximum, the chain achieving it, and that chain's length."""

    value: float
    arg_chain: ChainPath | None
    arg_length: int | None


def _check_pair(grid: ImageGrid, sig_map: SignificanceMap) -> None:
    if (grid.m, grid.n) != (sig_map.m, sig_map.n):
        raise ValueError(
            f"significance map {sig_map.m}x{sig_map.n} does not match grid {grid.m}x{grid.n}"
        )


def scan_statistic(
    grid: ImageGrid,
    sig_map: SignificanceMap,
    C: int,
    U: int,
    center: float = 0.0,
) -> ScanResult:
    """Exact capped scan statistic via the length-indexed recursion.

    Layer u holds the best length-u significant-chain sum ending at each
    node; cells where no such chain exists are unreachable. The loop keeps
    only the reachable cells, so a layer costs O(C) per reachable cell (a
    log factor for sorting them) and the worst case is O(C*m*n*U); it stops
    early once every cell of a layer is unreachable (no longer chain can
    exist). ``center`` is subtracted per node before normalizing; it
    shifts every layer-u sum by the same amount, so the chain behind each
    layer's maximum does not depend on it.
    """
    _check_pair(grid, sig_map)
    if C < 0:
        raise ValueError(f"drift bound C must be >= 0, got {C}")
    if not (1 <= U <= grid.n):
        raise ValueError(f"length cap U={U} outside [1, n={grid.n}]")
    value, i0, j0, u = _kernels.scan_best_single(grid.values, sig_map.bits, C, U, center)
    if value == UNREACHABLE:
        return ScanResult(UNREACHABLE, None, None)
    rows0 = _kernels.backtrack(grid.values, sig_map.bits, C, i0, j0, u)
    chain = ChainPath(j0 - u + 2, tuple(r + 1 for r in rows0))
    return ScanResult(value, chain, u)


def scan_bruteforce(
    grid: ImageGrid, sig_map: SignificanceMap, C: int, center: float = 0.0
) -> float:
    """Exhaustive normalized maximum over every significant chain (no cap).

    Test oracle with the same enumeration guard style as the run oracle;
    ``center`` is subtracted per node as in :func:`scan_statistic`.
    """
    _check_pair(grid, sig_map)
    m, n = grid.m, grid.n
    if m > _BRUTE_MAX_ROWS or n > _BRUTE_MAX_COLS:
        raise CapacityError(
            f"brute force guarded to m <= {_BRUTE_MAX_ROWS} and n <= {_BRUTE_MAX_COLS}, "
            f"got {m}x{n}"
        )
    if C < 0:
        raise ValueError(f"drift bound C must be >= 0, got {C}")
    bits = sig_map.bits
    x = grid.values
    best = UNREACHABLE

    def extend(i: int, j: int, total: float, length: int) -> None:
        nonlocal best
        score = (total - center * length) / math.sqrt(length)
        if score > best:
            best = score
        if j + 1 >= n:
            return
        for i2 in range(max(0, i - C), min(m - 1, i + C) + 1):
            if bits[i2, j + 1]:
                extend(i2, j + 1, total + x[i2, j + 1], length + 1)

    for j in range(n):
        for i in range(m):
            if bits[i, j]:
                extend(i, j, x[i, j], 1)
    return best
