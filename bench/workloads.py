"""The four workloads: their seeded inputs, set-up, timed round and output checks.

Every workload is a closed loop of identical rounds on inputs made from the
seed by ``make_inputs``; a round is ``ops`` calls of ``operation``, one per
input. ``setup`` is what a user resolves once and reuses. ``collect`` turns an
operation's result into a checkable output outside the timer (raising
``OperationFailed`` for a failure status); ``check``
compares every output with the reference DPs in ``reference.py`` and with
properties the method must have, and returns the decision counts that the
README records.

The program is reached only through ``chainscan`` attributes looked up at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref
from reference import CheckFailed

EPSILON = 1e-4  # the program's defaults, restated so the checks stand alone
DELTA2 = 1e-4
C = 1
P = 0.1  # null significance probability at the default x* (the 0.9 normal quantile)


class OperationFailed(Exception):
    """A command of the program returned a failure status."""


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _random_path(rng, m: int, n: int, length: int):
    """Uniform start column and row, drift uniform on {-C..C} clipped to [1, m]."""
    start = 1 + int(rng.integers(0, n - length + 1))
    steps = rng.integers(-C, C + 1, size=length - 1)
    rows = [1 + int(rng.integers(0, m))]
    for d in steps:
        rows.append(min(max(rows[-1] + int(d), 1), m))
    return start, rows


def _plant(values: np.ndarray, start: int, rows, mu: float) -> None:
    values[np.asarray(rows) - 1, np.arange(start - 1, start - 1 + len(rows))] += mu


def write_csv(values: np.ndarray, path: str) -> None:
    """The grid CSV format: header ``m,n`` then one line per row, 17 significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{values.shape[0]},{values.shape[1]}\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")


def _result_payload(result) -> dict:
    """A ``DetectionResult`` in the JSON shape ``chainscan detect`` prints."""
    xs = result.x_star_s
    w = result.witness
    return {
        "reject": result.reject_null,
        "stage": result.deciding_stage,
        "l0": result.l0_length,
        "xs": None if xs is None or xs == ref.NEG_INF else xs,
        "thresholds": {"step1": result.thresholds.step1, "step2": result.thresholds.step2,
                       "x_star": result.thresholds.x_star},
        "witness": None if w is None else {"start_col": w.start_col, "rows": list(w.rows)},
    }


class CliDetect:
    """``chainscan detect --out`` through ``cli.main`` on pure-noise CSV files, m = 16."""

    name = "cli-detect"
    setup_reps = 5
    M, N = 16, 20_000
    ops = FILES = 2

    def make_inputs(self, cs, seed: int, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.grids, self.paths = [], []
        for k in range(self.FILES):
            values = _rng(seed, 1, k).standard_normal((self.M, self.N))
            path = os.path.join(workdir, f"noise-{k}.csv")
            write_csv(values, path)
            self.grids.append(values)
            self.paths.append(path)
        self.out = os.path.join(workdir, "detect-out.json")

    def setup(self, cs):
        return None

    def operation(self, cs, state, k: int):
        out = f"{self.out}.{k % self.FILES}"
        return cs.cli.main(["detect", "--input", self.paths[k % self.FILES], "--out", out]), out

    def collect(self, result):
        rc, out = result
        if rc != 0:
            raise OperationFailed(f"chainscan detect exited {rc}")
        with open(out, encoding="ascii") as fh:
            return json.load(fh)

    def check(self, outputs, state) -> dict:
        cache = [dict() for _ in range(self.FILES)]
        stats = {"l0": [None] * self.FILES, "stages": {}}
        for k, payload in outputs:
            f = k % self.FILES
            ref.check_detection(self.grids[f], payload, C, EPSILON, DELTA2, ref=cache[f])
            stats["l0"][f] = payload["l0"]
            stats["stages"][payload["stage"]] = stats["stages"].get(payload["stage"], 0) + 1
        return stats


class StrongChain:
    """Library ``detect`` on m = 10 grids with a planted chain past the 512-layer cap."""

    name = "strong-chain"
    setup_reps = 5
    M, N, LENGTH, MU = 10, 10_000, 3_000, 4.0
    ops = GRIDS = 2
    DEEP = 512  # the l0 a grid must exceed to be in this workload

    def make_inputs(self, cs, seed: int, workdir: str) -> None:
        self.grids, self.paths_planted, self.l0 = [], [], []
        for k in range(self.GRIDS):
            for attempt in range(100):  # redraw until the run is deep; seeded, so repeatable
                rng = _rng(seed, 2, k, attempt)
                values = rng.standard_normal((self.M, self.N))
                start, rows = _random_path(rng, self.M, self.N, self.LENGTH)
                _plant(values, start, rows, self.MU)
                l0 = ref.longest_chain(values > ref.X_STAR, C)
                if l0 > self.DEEP:
                    break
            else:
                raise CheckFailed("no deep planted chain in 100 draws")
            self.grids.append(values)
            self.paths_planted.append((start, rows))
            self.l0.append(l0)
        self.images = [cs.ImageGrid(v) for v in self.grids]

    def setup(self, cs):
        return cs.make_config(self.M)

    def operation(self, cs, config, k: int):
        return cs.detect(self.images[k % self.GRIDS], config)

    def collect(self, result):
        return _result_payload(result)

    def check(self, outputs, config) -> dict:
        rho = ref.perron_root_dense(self.M, C, P)
        cache = [{"l0": l0} for l0 in self.l0]
        stats = {"l0": self.l0, "stretch": [], "stages": {}}
        for f, (values, (start, rows)) in enumerate(zip(self.grids, self.paths_planted)):
            stats["stretch"].append(ref.longest_significant_stretch(values, rows, start))
        for k, payload in outputs:
            f = k % self.GRIDS
            ref.check_detection(self.grids[f], payload, C, EPSILON, DELTA2, rho=rho, ref=cache[f])
            if payload["l0"] < stats["stretch"][f]:
                raise CheckFailed(f"l0 {payload['l0']} below the planted stretch "
                                  f"{stats['stretch'][f]}")
            stats["stages"][payload["stage"]] = stats["stages"].get(payload["stage"], 0) + 1
        return stats


class MonteCarlo:
    """``chainscan simulate`` through ``cli.main`` at m = 10, n = 2000, mu = 2.5, linear 0.2."""

    name = "monte-carlo"
    setup_reps = 5
    ops = 1
    M, N, MU, COEF, TRIALS = 10, 2000, 2.5, 0.2, 100
    REF_TRIALS = 400  # null grids behind the benchmark's own type-I estimate
    POWER_FLOOR = 0.9
    Z = 4.5  # binomial agreement at 4.5 standard errors

    def make_inputs(self, cs, seed: int, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.seed = seed
        spec = {"m": self.M, "n": self.N, "C": C, "mu": self.MU,
                "length_law": {"kind": "linear", "coef": self.COEF},
                "trials": self.TRIALS, "seed": seed}
        self.spec_path = os.path.join(workdir, "spec.json")
        with open(self.spec_path, "w", encoding="ascii") as fh:
            json.dump(spec, fh)
        self.out = os.path.join(workdir, "simulate-out.csv")

    def setup(self, cs):
        return None

    def operation(self, cs, state, k: int):
        return cs.cli.main(["simulate", "--spec", self.spec_path, "--out", self.out])

    def collect(self, rc):
        if rc != 0:
            raise OperationFailed(f"chainscan simulate exited {rc}")
        with open(self.out, encoding="ascii") as fh:
            return fh.read()

    def check(self, outputs, state) -> dict:
        if not outputs:
            return {}
        first = outputs[0][1]
        if any(o != first for _, o in outputs):
            raise CheckFailed("simulate printed different output for the same spec")
        lines = first.strip().splitlines()
        header = lines[0].split(",")
        rows = {r[0]: dict(zip(header, r)) for r in (ln.split(",") for ln in lines[1:])}
        if set(rows) != {"type1", "power"}:
            raise CheckFailed(f"simulate rows {sorted(rows)}, expected type1 and power")
        counts = {}
        for kind, row in rows.items():
            if int(row["trials"]) != self.TRIALS or int(row["seed"]) != self.seed:
                raise CheckFailed(f"{kind} row echoes the wrong spec: {row}")
            counts[kind] = ref.check_rate(float(row["rate"]), float(row["stderr"]), self.TRIALS)
        power = counts["power"] / self.TRIALS
        if power < self.POWER_FLOOR:
            raise CheckFailed(f"power {power} below the floor {self.POWER_FLOOR}")
        # the benchmark's own type-I estimate from the reference DPs and the dense root
        rho = ref.perron_root_dense(self.M, C, P)
        self.step1 = step1 = ref.step1_cut(self.N, rho, EPSILON)
        step2 = ref.step2_cut(self.M, self.N, DELTA2)
        x = _rng(self.seed, 7).standard_normal((self.REF_TRIALS, self.M, self.N))
        l0 = ref.longest_chain(x > ref.X_STAR, C)
        by_step1 = l0 > step1
        scan = ref.capped_scan(x, C, ref.scan_cap(self.N, rho), ref.null_conditional_mean())
        rejects = int((by_step1 | (scan > step2)).sum())
        r_prog, r_ref = counts["type1"] / self.TRIALS, rejects / self.REF_TRIALS
        pooled = (counts["type1"] + rejects) / (self.TRIALS + self.REF_TRIALS)
        se = math.sqrt(max(pooled * (1 - pooled), 1e-4) * (1 / self.TRIALS + 1 / self.REF_TRIALS))
        if abs(r_prog - r_ref) > self.Z * se:
            raise CheckFailed(f"type-I {r_prog} disagrees with the reference estimate {r_ref} "
                              f"(standard error {se:.4f})")
        return {"type1_rejects": counts["type1"], "power_rejects": counts["power"],
                "reference_type1": r_ref, "reference_step1_rejects": int(by_step1.sum()),
                "reference_step2_only_rejects": rejects - int(by_step1.sum())}


class Frames:
    """Frame mode at 50 x 50: Monte Carlo run rate and calibrated cuts, then ``detect_frames``."""

    name = "frames"
    setup_reps = 2
    ops = 1
    M = N = 50
    FRAMES, BURST_EVERY, BURST_LENGTH, BURST_MU = 2000, 10, 30, 3.0
    ALPHA, CAL_TRIALS = 0.01, 5000
    Z = 4.5

    def make_inputs(self, cs, seed: int, workdir: str) -> None:
        self.seed = seed
        rng = _rng(seed, 3)
        stack = rng.standard_normal((self.FRAMES, self.M, self.N))
        self.burst = np.arange(self.FRAMES) % self.BURST_EVERY == self.BURST_EVERY // 2
        for k in np.flatnonzero(self.burst):
            start, rows = _random_path(rng, self.M, self.N, self.BURST_LENGTH)
            _plant(stack[k], start, rows, self.BURST_MU)
        # ImageGrid copies its values; the stack is rebuilt for the checks so that it is
        # not held through the measured part of the run
        self.frames = [cs.ImageGrid(v) for v in stack]

    def setup(self, cs):
        config = cs.make_config(self.M, seed=self.seed)
        cuts = cs.calibrate_alarms(self.M, self.N, C, config.x_star, alpha=self.ALPHA,
                                   trials=self.CAL_TRIALS, seed=self.seed + 1, config=config)
        return config, cuts

    def operation(self, cs, state, k: int):
        config, (l0_cut, scan_cut) = state
        return cs.detect_frames(self.frames, config, l0_cut, scan_cut)

    def collect(self, stats):
        return [(s.index, s.l0_length, s.x_star_s, s.alarm) for s in stats]

    def check(self, outputs, state) -> dict:
        config, (l0_cut, scan_cut) = state
        if not outputs:
            return {}
        first = outputs[0][1]
        if any(o != first for _, o in outputs):
            raise CheckFailed("detect_frames gave different output for the same frames")
        rate = config.run_rate.value
        if not (0.0 < rate < 1.0) or config.run_rate.m != self.M:
            raise CheckFailed(f"run rate {config.run_rate} is not a rate for m = {self.M}")
        out = np.array([(i, l0, xs, a) for i, l0, xs, a in first], dtype=np.float64)
        if len(out) != self.FRAMES or (out[:, 0] != np.arange(self.FRAMES)).any():
            raise CheckFailed("frame indices are not 0..T-1 in order")
        stack = np.stack([f.values for f in self.frames])
        l0 = ref.longest_chain(stack > ref.X_STAR, C)
        if (out[:, 1] != l0).any():
            bad = int(np.flatnonzero(out[:, 1] != l0)[0])
            raise CheckFailed(f"frame {bad}: l0 {int(out[bad, 1])} != reference {l0[bad]}")
        scan = ref.capped_scan(stack, C, ref.scan_cap(self.N, rate))
        with np.errstate(invalid="ignore"):
            same = (np.isneginf(scan) & np.isneginf(out[:, 2])) | (np.abs(out[:, 2] - scan)
                                                                  <= ref.SCAN_TOL)
        if not same.all():
            bad = int(np.flatnonzero(~same)[0])
            raise CheckFailed(f"frame {bad}: scan {out[bad, 2]} != reference {scan[bad]}")
        alarm = (l0 > l0_cut) | (scan > scan_cut)
        if ((out[:, 3] != 0) != alarm).any():
            raise CheckFailed("an alarm disagrees with the cuts")
        quiet = ~self.burst
        q_rate = float(alarm[quiet].mean())
        # binomial error of the quiet frames plus that of each calibrated quantile
        q = self.ALPHA / 2
        sd = math.sqrt(self.ALPHA * (1 - self.ALPHA) / quiet.sum()
                       + 2 * q * (1 - q) / self.CAL_TRIALS)
        if q_rate > self.ALPHA + self.Z * sd:
            raise CheckFailed(f"quiet-frame alarm rate {q_rate} above {self.ALPHA} + {self.Z} sd")
        b_rate = float(alarm[self.burst].mean())
        if b_rate <= 0.5:
            raise CheckFailed(f"only {b_rate:.3f} of burst frames alarm")
        return {"run_rate": rate, "l0_cut": l0_cut, "scan_cut": scan_cut,
                "quiet_alarm_rate": q_rate, "burst_alarm_rate": b_rate,
                "quiet_frames": int(quiet.sum()), "burst_frames": int(self.burst.sum())}


WORKLOADS = {w.name: w for w in (CliDetect, StrongChain, MonteCarlo, Frames)}
