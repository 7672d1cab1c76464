"""Shared test helpers: independent chain checking, instance generators and a
reference Bernoulli draw."""

import math

import numpy as np
import pytest

from chainscan import ChainPath, ImageGrid, SignificanceMap


def check_chain(chain: ChainPath, sig: SignificanceMap, C: int) -> int:
    """Independent witness checker: validates geometry, drift, significance.

    Returns the node count, asserting every invariant along the way.
    """
    assert chain.length == len(chain.rows)
    assert 1 <= chain.start_col and chain.end_col <= sig.n
    assert all(1 <= r <= sig.m for r in chain.rows)
    for a, b in zip(chain.rows, chain.rows[1:]):
        assert abs(b - a) <= C
    for (r, c) in chain.nodes():
        assert sig.bits[r - 1, c - 1]
    return chain.length


def random_instance(rng, max_m=4, max_n=10, Cs=(1, 2)):
    """Small random (grid, map, C) triple for oracle comparisons."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    C = int(rng.choice(Cs))
    # keep the branching factor p*(2C+1) moderate so enumeration stays fast
    p_hi = 0.5 if C == 1 else 0.25
    p = float(rng.uniform(0.05, p_hi))
    values = rng.standard_normal((m, n))
    threshold = float(np.quantile(values, 1.0 - p)) if m * n > 1 else 0.0
    grid = ImageGrid(values)
    sig = SignificanceMap(values > threshold)
    return grid, sig, C


def bernoulli_reference(rng, shape, p):
    """Bernoulli(p) bits by the byte rule, read straight off the generator:
    the cells' bytes, in order, from little-endian uniform 64-bit words; a
    cell is set when its byte u < k = floor(256 p); then, in cell order, one
    uniform per cell with u == k, set when it is below 256 p - k."""
    size = math.prod(shape)
    words = [int(w) for w in rng.integers(0, 2**64, size=-(-size // 8), dtype=np.uint64)]
    u = b"".join(w.to_bytes(8, "little") for w in words)[:size]
    q = 256.0 * p
    k = math.floor(q)
    bits = np.array([b < k for b in u], dtype=bool)
    ties = [i for i, b in enumerate(u) if b == k]
    bits[ties] = rng.random(len(ties)) < q - k
    return bits.reshape(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
