"""Longest significant chain: exact dynamic program and exhaustive oracle.

The recursion advances one column per step; a chain ending at (i, j) extends
any chain ending in column j-1 at a row within C of i. The engine follows it
in layers of chain ends: bit-packed, 64 columns to a machine word, while many
cells are live, then at O(C) per live cell of a layer.
"""

from __future__ import annotations

from dataclasses import dataclass


from . import _kernels
from .errors import CapacityError
from .grid import ChainPath, SignificanceMap

__all__ = ["RunResult", "longest_run_length", "longest_run_bruteforce"]

_BRUTE_MAX_CELLS = 64
_BRUTE_MAX_COLS = 12


@dataclass(frozen=True)
class RunResult:
    """Longest-run length (node count) and a witness chain (None at length 0)."""

    length: int
    witness: ChainPath | None


def longest_run_length(sig_map: SignificanceMap, C: int) -> RunResult:
    """Exact longest significant chain length under drift bound C.

    The length comes from one pass of layer propagation: bit-packed steps,
    64 columns to a word, while many cells still end a chain, then steps
    over the live cells only, so the cost follows the answer at any depth,
    whatever the live cells' count. The same
    pass also gives the row-major first cell (smallest row, then smallest
    column) that ends a longest chain, and a backtrack from it rebuilds the
    witness: each earlier node takes the smallest row that keeps the chain.
    """
    if C < 0:
        raise ValueError(f"drift bound C must be >= 0, got {C}")
    length, start0, rows0 = _kernels.longest_chain_with_witness(sig_map.bits, C)
    if length == 0:
        return RunResult(0, None)
    return RunResult(length, ChainPath(start0 + 1, tuple(r + 1 for r in rows0)))


def longest_run_bruteforce(sig_map: SignificanceMap, C: int) -> int:
    """Exhaustive maximum over every start node and drift sequence.

    Test oracle: enumerates all significant chains directly. Guarded to
    m*n <= 64 and n <= 12 since the chain count grows like (2C+1)^n.
    """
    m, n = sig_map.m, sig_map.n
    if m * n > _BRUTE_MAX_CELLS or n > _BRUTE_MAX_COLS:
        raise CapacityError(
            f"brute force guarded to m*n <= {_BRUTE_MAX_CELLS} and n <= {_BRUTE_MAX_COLS}, "
            f"got {m}x{n}"
        )
    if C < 0:
        raise ValueError(f"drift bound C must be >= 0, got {C}")
    bits = sig_map.bits
    best = 0

    def extend(i: int, j: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        if j + 1 >= n:
            return
        for i2 in range(max(0, i - C), min(m - 1, i + C) + 1):
            if bits[i2, j + 1]:
                extend(i2, j + 1, length + 1)

    for j in range(n):
        for i in range(m):
            if bits[i, j]:
                extend(i, j, 1)
    return best
