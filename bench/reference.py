"""Reference computations and output checkers, written apart from chainscan.

Nothing here imports the program: the checks must hold even if the program's
engines are rewritten. The DPs sweep column by column (the program sweeps
chain-length layers), so a shared mistake is unlikely.

Conventions follow the program's public surface: rows and columns are
1-based in witnesses, a chain advances one column per step and drifts at
most ``C`` rows per step, and a node is significant when its value strictly
exceeds ``x_star``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

NEG_INF = float("-inf")
X_STAR = NormalDist().inv_cdf(0.9)
SCAN_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with a reference or a required property."""


def _window_max(a: np.ndarray, C: int) -> np.ndarray:
    """Max over the +/-C window along the last axis (rows)."""
    out = a.copy()
    for d in range(1, C + 1):
        np.maximum(out[..., :-d], a[..., d:], out=out[..., :-d])
        np.maximum(out[..., d:], a[..., :-d], out=out[..., d:])
    return out


def longest_chain(bits: np.ndarray, C: int) -> np.ndarray:
    """Longest significant chain per grid of a (T, m, n) stack (or one (m, n) grid).

    y[i] after column j is the longest chain ending at (i, j):
    y_j = bits_j * (1 + max of y_{j-1} over the drift window).
    """
    bits = np.asarray(bits, dtype=bool)
    single = bits.ndim == 2
    if single:
        bits = bits[None]
    cols = np.ascontiguousarray(bits.transpose(2, 0, 1)).astype(np.int64)  # (n, T, m)
    y = cols[0].copy()
    best = y.max(axis=1)
    for col in cols[1:]:
        y = col * (1 + _window_max(y, C))
        np.maximum(best, y.max(axis=1), out=best)
    return int(best[0]) if single else best


def capped_scan(x: np.ndarray, C: int, U: int, center: float = 0.0,
                x_star: float = X_STAR) -> np.ndarray:
    """max over significant chains L with 1 <= |L| <= U of (sum_L x - center*|L|)/sqrt(|L|).

    Per (T, m, n) stack or one (m, n) grid; -inf where no node is significant.
    s[u-1, i] after column j is the best sum of a length-u significant chain
    ending at (i, j).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    T, m, n = x.shape
    xc = np.ascontiguousarray(x.transpose(2, 0, 1))  # (n, T, m)
    best_sum = np.full((T, U), NEG_INF)
    s = np.full((T, U, m), NEG_INF)
    for col in xc:
        sig = (col > x_star)[:, None, :]
        nxt = np.empty_like(s)
        nxt[:, 0, :] = col
        nxt[:, 1:, :] = col[:, None, :] + _window_max(s[:, :-1, :], C)
        s = np.where(sig, nxt, NEG_INF)
        np.maximum(best_sum, s.max(axis=2), out=best_sum)
    u = np.arange(1, U + 1)
    with np.errstate(invalid="ignore"):
        scores = (best_sum - center * u) / np.sqrt(u)
    scores[np.isneginf(best_sum)] = NEG_INF
    out = scores.max(axis=1)
    return float(out[0]) if single else out


def perron_root_dense(m: int, C: int, p: float) -> float:
    """Spectral radius of the run-rate transfer matrix, built from its definition.

    States are the nonempty row sets A; K(A, A') = p^|A'| (1-p)^(|N(A)|-|A'|)
    when A' lies inside the drift neighbourhood N(A), else 0. Solved with a
    dense eigensolve, so keep m small (m = 10 gives a 1023 x 1023 matrix).
    """
    masks = np.arange(1 << m)
    nb = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        window = sum(1 << r for r in range(max(0, i - C), min(m - 1, i + C) + 1))
        nb[(masks >> i) & 1 == 1] |= window
    pop = np.array([bin(s).count("1") for s in masks])
    a = b = masks[1:]
    inside = (b[None, :] & ~nb[a][:, None]) == 0
    k = np.where(inside, p ** pop[b][None, :] * (1 - p) ** (pop[nb[a]][:, None] - pop[b][None, :]),
                 0.0)
    return float(np.abs(np.linalg.eigvals(k)).max())


def null_conditional_mean(x_star: float = X_STAR) -> float:
    """E[X | X > x_star] for X ~ N(0, 1)."""
    nd = NormalDist()
    return nd.pdf(x_star) / (1.0 - nd.cdf(x_star))


def step1_cut(n: int, rho: float, epsilon: float) -> float:
    return (1.0 + epsilon / 2.0) * math.log(n) / math.log(1.0 / rho)


def step2_cut(m: int, n: int, delta2: float) -> float:
    return math.sqrt(2.0 * (1.0 + delta2) * math.log(m * n))


def scan_cap(n: int, rho: float) -> int:
    """The program's documented cap U = min(n, ceil(3 log_{1/rho} n))."""
    return max(1, min(n, math.ceil(3.0 * math.log(n) / math.log(1.0 / rho))))


# ----------------------------------------------------------------- checkers

def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_witness(values: np.ndarray, witness, C: int, length: int,
                  x_star: float = X_STAR) -> None:
    """A witness {start_col, rows} is a significant chain of ``length`` nodes with drift <= C."""
    _require(witness is not None, "witness missing")
    m, n = values.shape
    start, rows = int(witness["start_col"]), [int(r) for r in witness["rows"]]
    _require(len(rows) == length, f"witness has {len(rows)} nodes, expected {length}")
    _require(1 <= start and start + len(rows) - 1 <= n, f"witness columns leave 1..{n}")
    _require(all(1 <= r <= m for r in rows), f"witness rows leave 1..{m}")
    _require(all(abs(a - b) <= C for a, b in zip(rows, rows[1:])), "witness drifts more than C")
    vals = values[np.asarray(rows) - 1, np.arange(start - 1, start - 1 + len(rows))]
    _require(bool((vals > x_star).all()), "witness passes through an insignificant node")


def check_detection(values: np.ndarray, payload: dict, C: int, epsilon: float, delta2: float,
                    rho: float | None = None, x_star: float = X_STAR,
                    ref: dict | None = None) -> dict:
    """Check one ``chainscan detect`` JSON payload against the reference DPs.

    ``rho``, when given, is an independent run rate for the step-I cut (and the
    scan cap); otherwise the rate implied by the payload's step-I cut is used
    for the cap. ``ref`` caches the reference l0 and scan value between calls on
    the same grid. Returns the (possibly filled) cache.
    """
    m, n = values.shape
    thr = payload["thresholds"]
    _require(abs(thr["x_star"] - x_star) <= 1e-9, f"x_star {thr['x_star']} != {x_star}")
    _require(math.isclose(thr["step2"], step2_cut(m, n, delta2), rel_tol=1e-12),
             f"step2 {thr['step2']} != closed form {step2_cut(m, n, delta2)}")
    if rho is not None:
        _require(math.isclose(thr["step1"], step1_cut(n, rho, epsilon), rel_tol=1e-6),
                 f"step1 {thr['step1']} != {step1_cut(n, rho, epsilon)} from the dense root")
    else:
        rho = math.exp(-(1.0 + epsilon / 2.0) * math.log(n) / thr["step1"])
    ref = {} if ref is None else ref
    if "l0" not in ref:
        ref["l0"] = longest_chain(values > x_star, C)
    _require(payload["l0"] == ref["l0"], f"l0 {payload['l0']} != reference {ref['l0']}")
    stage = payload["stage"]
    if payload["l0"] > thr["step1"]:
        _require(stage == "step1" and payload["reject"], f"l0 above step1 but stage {stage!r}")
        _require(payload["xs"] is None, "step I fired but a scan value was reported")
        check_witness(values, payload["witness"], C, payload["l0"], x_star)
        return ref
    if "xs" not in ref:
        ref["xs"] = capped_scan(values, C, scan_cap(n, rho), null_conditional_mean(x_star), x_star)
    xs = payload["xs"]
    if ref["xs"] == NEG_INF:
        _require(xs is None, f"empty map but scan value {xs}")
    else:
        _require(xs is not None and abs(xs - ref["xs"]) <= SCAN_TOL,
                 f"scan value {xs} != reference {ref['xs']}")
    fired = xs is not None and xs > thr["step2"]
    _require(payload["reject"] == fired and stage == ("step2" if fired else "none"),
             f"decision {payload['reject']}/{stage!r} disagrees with the cuts")
    if fired:
        w = payload["witness"]
        check_witness(values, w, C, len(w["rows"]), x_star)
        rows = np.asarray(w["rows"]) - 1
        cols = np.arange(w["start_col"] - 1, w["start_col"] - 1 + len(rows))
        k = len(rows)
        score = (values[rows, cols].sum() - null_conditional_mean(x_star) * k) / math.sqrt(k)
        _require(abs(score - xs) <= 1e-6, f"scan witness scores {score}, not {xs}")
    else:
        _require(payload["witness"] is None, "no rejection but a witness was reported")
    return ref


def check_rate(rate: float, stderr: float, trials: int) -> int:
    """A binomial rate is k/trials with stderr sqrt(r(1-r)/trials); returns k."""
    k = round(rate * trials)
    _require(abs(rate - k / trials) <= 1e-6, f"rate {rate} is not k/{trials}")
    want = math.sqrt(k / trials * (1 - k / trials) / trials)
    _require(abs(stderr - want) <= 1e-5 * max(want, 1e-12) + 1e-12,
             f"stderr {stderr} != sqrt(r(1-r)/trials) = {want}")
    return k


def longest_significant_stretch(values: np.ndarray, rows, start_col: int,
                                x_star: float = X_STAR) -> int:
    """Longest run of consecutive significant nodes along a planted path (1-based)."""
    rows = np.asarray(rows) - 1
    cols = np.arange(start_col - 1, start_col - 1 + len(rows))
    best = cur = 0
    for sig in values[rows, cols] > x_star:
        cur = cur + 1 if sig else 0
        best = max(best, cur)
    return best
