"""Print one ``name sha256`` line per canonical output of chainscan.

Run it on two checkouts and ``diff`` the outputs: a refactor that must keep
every output bit-identical should print the same lines on both.

    python tools/digest.py > digest.txt

The script imports ``chainscan`` from the ``src`` directory beside it and
takes no flags. It covers configuration reprs, run rates past the exact
operator's row guard, exact area rates, every CLI command's output and
``--help`` text, detection on seeded null and planted grids in both
regimes, frame mode and alarm calibration at 50x50 and where chains outlive
the scan cap, Monte Carlo calls that fit in one trial batch, power estimates
whose planted chains decide some trials but not all, the Monte Carlo null
sampler's bits and tail values, seeded chain draws, the batched kernels and
witnesses
(also on stacks with about 0.2-0.3 of their cells significant, and at drift
windows C = 3 and 5 that reach past small grids' rows, and at widths around
the 64-column words of the packed run stage), deep witnesses on lone grids
whose packed columns span several bytes, the null grids of the complexity
criterion, and the stdout of every demo. It runs in about a
minute on two cores.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import chainscan as cs  # noqa: E402
from chainscan import _kernels  # noqa: E402
from chainscan.cli import main  # noqa: E402

X_STAR = cs.DEFAULT_X_STAR


def emit(name: str, data) -> None:
    if isinstance(data, str):
        data = data.encode()
    print(f"{name} {hashlib.sha256(data).hexdigest()}", flush=True)


def cli(*argv) -> str:
    """``chainscan`` stdout, stderr and exit code of one command, as one string."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # --help exits from argparse
            code = exc.code
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def rng(*stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(stream)))


def payload(result) -> str:
    w = result.witness
    return repr((result.reject_null, result.deciding_stage, result.l0_length,
                 result.x_star_s, result.thresholds,
                 None if w is None else (w.start_col, w.rows)))


def configs() -> None:
    for m in (6, 10, 16):
        emit(f"make_config/m{m}", repr(cs.make_config(m)))
    emit("make_config/m30-seed3", repr(cs.make_config(30, seed=3)))
    emit("make_config/m50-seed0", repr(cs.make_config(50, seed=0)))
    emit("make_config/growing-m12-seed5",
         repr(cs.make_config(12, regime="growing-m", seed=5)))
    for m, C, p in ((21, 1, 0.1), (50, 1, 0.1), (30, 1, 0.2), (50, 2, 0.1)):
        emit(f"resolve_run_rate/m{m}-C{C}-p{p}", repr(cs.resolve_run_rate(m, C, p)))
    for C in (1, 2, 3):
        for p in (0.05, 1.0 - cs.normal_cdf(X_STAR)):
            emit(f"resolve_area_rate/C{C}-p{p:.4g}", repr(cs.resolve_area_rate(C, p)))


def commands(tmp: Path) -> None:
    emit("help", cli("--help"))
    for sub in ("rho", "mu-table", "detect", "frames", "simulate"):
        emit(f"help/{sub}", cli(sub, "--help"))
    emit("rho/m4-p0.1", cli("rho", "--m", 4, "--C", 1, "--p", 0.1))
    emit("rho/m6-p0.2-tol1e-13", cli("rho", "--m", 6, "--C", 1, "--p", 0.2, "--tol", 1e-13))
    emit("rho/m10-C2-p0.05", cli("rho", "--m", 10, "--C", 2, "--p", 0.05))
    emit("rho/mc", cli("rho", "--m", 6, "--C", 1, "--p", 0.2, "--method", "mc",
                       "--ncols", 5000, "--trials", 10, "--seed", 3))
    emit("rho/m30-capacity", cli("rho", "--m", 30, "--C", 1, "--p", 0.1))
    for mode in ("power", "sqrt", "log"):
        emit(f"mu-table/{mode}", cli("mu-table", "--mode", mode, "--m", 10, "--C", 1,
                                     "--rho", 0.2691, "--xstar", 1.2816))
    emit("mu-table/power-exact-rho", cli("mu-table", "--mode", "power", "--m", 6, "--C", 1))
    emit("mu-table/power-m30", cli("mu-table", "--mode", "power", "--m", 30, "--C", 1,
                                   "--xstar", 1.2816))
    out = tmp / "table.csv"
    cli("mu-table", "--mode", "sqrt", "--m", 10, "--C", 1, "--rho", 0.2691, "--out", out)
    emit("mu-table/sqrt-out-file", out.read_bytes())
    spec = tmp / "spec.json"
    for seed in (0, 1, 2):
        spec.write_text(json.dumps({"m": 10, "n": 2000, "C": 1, "mu": 2.5, "trials": 100,
                                    "length_law": {"kind": "linear", "coef": 0.2},
                                    "seed": seed}))
        emit(f"simulate/monte-carlo-seed{seed}", cli("simulate", "--spec", spec))
    spec.write_text(json.dumps({"m": 6, "n": 150, "trials": 50, "seed": 5}))
    emit("simulate/defaults", cli("simulate", "--spec", spec))
    spec.write_text(json.dumps({"m": 6, "n": 150, "trials": 50}))
    emit("simulate/no-seed", cli("simulate", "--spec", spec))


def detect_files(tmp: Path) -> None:
    """``chainscan detect --out`` on the cli-detect benchmark's noise files, seeds 0-9."""
    for seed in range(10):
        for k in range(2):
            path = tmp / f"noise-{seed}-{k}.csv"
            with open(path, "w", encoding="ascii") as fh:
                fh.write("16,20000\n")
                np.savetxt(fh, rng(seed, 1, k).standard_normal((16, 20000)),
                           fmt="%.17g", delimiter=",")
            out = tmp / "detect.json"
            cli("detect", "--input", path, "--out", out)
            emit(f"detect/cli-noise-seed{seed}-{k}", out.read_bytes())
            path.unlink()
    grid = cs.embed_chain(cs.generate_null_grid(10, 120, seed=3),
                          cs.generate_chain(10, 120, 1, 120, seed=4), 4.0)
    path = tmp / "planted.csv"
    cs.write_csv_grid(grid, path)
    emit("detect/cli-planted", cli("detect", "--input", path))
    emit("detect/cli-planted-growing", cli("detect", "--input", path, "--regime", "growing-m"))
    frames = tmp / "frames"
    frames.mkdir()
    for k in range(6):
        cs.write_csv_grid(cs.generate_null_grid(10, 50, seed=k), frames / f"f{k:03d}.csv")
    emit("frames/cli", cli("frames", "--dir", frames, "--l0-alarm", 5, "--scan-alarm", 3))


def pgm(tmp: Path) -> None:
    """PGM parsing: grids, or error messages, of seeded random headers and bodies."""
    r = rng(5, 7)
    path = tmp / "g.pgm"
    pieces = [b"P2", b"P5", b"2", b"3", b"255", b"7", b"300", b"#c", b"x", b"-1"]
    seps = [b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"#c\n", b"\n#\r"]
    parts = []
    for _ in range(400):
        data = b"".join(pieces[int(r.integers(0, 10))] + seps[int(r.integers(0, 8))]
                        for _ in range(int(r.integers(1, 12))))
        if r.random() < 0.5:
            data = b"P%d %d %d 255\n" % (int(r.choice([2, 5])), int(r.integers(1, 3)),
                                          int(r.integers(1, 3))) + data
        path.write_bytes(data)
        try:
            parts.append(repr(cs.load_pgm_grid(path).values.tolist()))
        except cs.ParseError as exc:
            parts.append(str(exc).replace(str(path), "<path>"))
    emit("pgm/random", "\n".join(parts))


def strong_chain() -> None:
    """Library ``detect`` on the strong-chain benchmark's grids, seeds 0-4."""
    config = cs.make_config(10)
    for seed in range(5):
        for k in range(2):
            for attempt in range(100):
                r = rng(seed, 2, k, attempt)
                values = r.standard_normal((10, 10_000))
                start = 1 + int(r.integers(0, 10_000 - 3_000 + 1))
                steps = r.integers(-1, 2, size=3_000 - 1)
                rows = [1 + int(r.integers(0, 10))]
                for d in steps:
                    rows.append(min(max(rows[-1] + int(d), 1), 10))
                values[np.asarray(rows) - 1, np.arange(start - 1, start - 1 + len(rows))] += 4.0
                grid = cs.ImageGrid(values)
                sig = cs.significance_map(grid, X_STAR)
                if cs.longest_run_length(sig, 1).length > 512:
                    break
            emit(f"detect/strong-chain-seed{seed}-{k}", payload(cs.detect(grid, config)))


def library_detect() -> None:
    for seed in range(6):
        m, n = 4 + 2 * seed, 300 + 100 * seed
        config = cs.make_config(m)
        grid = cs.generate_null_grid(m, n, seed=seed)
        emit(f"detect/null-m{m}-seed{seed}", payload(cs.detect(grid, config)))
        sig = cs.significance_map(grid, X_STAR)
        emit(f"significance_map/m{m}-seed{seed}", repr((sig.m, sig.n, sig.count()))
             + sig.bits.tobytes().hex())
        for mu in (1.5, 4.0):
            chain = cs.generate_chain(m, n, 1, n // 3, seed=100 + seed)
            planted = cs.embed_chain(grid, chain, mu)
            emit(f"detect/planted-m{m}-seed{seed}-mu{mu}", payload(cs.detect(planted, config)))


def growing_detect() -> None:
    """Library ``detect`` in the growing-rows regime on null and planted grids at
    two sizes, so that its Step I cut and scan cap are digested."""
    for m, n in ((12, 300), (40, 1000)):
        config = cs.make_config(m, regime="growing-m")
        grid = cs.generate_null_grid(m, n, seed=m)
        emit(f"detect/growing-null-m{m}-n{n}", payload(cs.detect(grid, config)))
        for mu in (1.5, 4.0):
            planted = cs.embed_chain(grid, cs.generate_chain(m, n, 1, n // 3, seed=n), mu)
            emit(f"detect/growing-planted-m{m}-n{n}-mu{mu}",
                 payload(cs.detect(planted, config)))


def frames() -> None:
    """The frames benchmark's set-up and ``detect_frames`` at 50x50, seeds 0-1."""
    for seed in (0, 1):
        r = rng(seed, 3)
        stack = r.standard_normal((2000, 50, 50))
        for k in range(5, 2000, 10):
            start = 1 + int(r.integers(0, 50 - 30 + 1))
            steps = r.integers(-1, 2, size=30 - 1)
            rows = [1 + int(r.integers(0, 50))]
            for d in steps:
                rows.append(min(max(rows[-1] + int(d), 1), 50))
            stack[k][np.asarray(rows) - 1, np.arange(start - 1, start + 29)] += 3.0
        config = cs.make_config(50, seed=seed)
        cuts = cs.calibrate_alarms(50, 50, 1, config.x_star, alpha=0.01, trials=5000,
                                   seed=seed + 1, config=config)
        emit(f"frames/config-seed{seed}", repr(config))
        emit(f"frames/cuts-seed{seed}", repr(cuts))
        stats = cs.detect_frames([cs.ImageGrid(v) for v in stack], config, *cuts)
        emit(f"frames/stats-seed{seed}", repr(stats))


def one_batch() -> None:
    """Monte Carlo calls whose trials all fit in one ``_kernels.trial_batches`` batch."""
    config = cs.make_config(10)
    emit("calibrate_alarms/one-batch",
         repr(cs.calibrate_alarms(10, 50, 1, X_STAR, alpha=0.5, trials=200, seed=7,
                                  config=config)))
    spec = cs.ExperimentSpec(m=10, n=50, trials=200, seed=7)
    emit("estimate_type1/one-batch", repr(cs.estimate_type1(spec, config)))


def past_the_cap() -> None:
    """Calibration and frame mode where chains outlive the scan cap U, so the
    run stage scores those trials apart from the scan: ``calibrate_alarms``
    at U = 1 and 3 (6x50, 2,500 trials in 6 batches) at three levels, and
    ``detect_frames`` on 40 frames of 50x50 (U = 10), each carrying a planted
    30-node chain."""
    for cap in (1, 3):
        config = cs.make_config(6, U_override=cap)
        cuts = [cs.calibrate_alarms(6, 50, 1, X_STAR, alpha=alpha, trials=2500, seed=cap,
                                    config=config) for alpha in (0.02, 0.5, 1.0)]
        emit(f"calibrate_alarms/u-cap{cap}", repr(cuts))
    r = rng(30, 1)
    frames = []
    for k in range(40):
        grid = cs.ImageGrid(r.standard_normal((50, 50)))
        frames.append(cs.embed_chain(grid, cs.generate_chain(50, 50, 1, 30, seed=k), 4.0))
    emit("detect_frames/past-the-cap", repr(cs.detect_frames(frames, cs.make_config(50),
                                                             20, 8.0)))


def planted_power() -> None:
    """``estimate_power`` at means where the power is strictly between 0 and 1,
    so that a misplaced chain node moves the rate: random chains at C = 1 and
    2 under the sqrt and linear laws (up to 320 nodes), and one fixed chain."""
    for C in (1, 2):
        for law, mu in ((cs.LengthLaw("sqrt", 3.0), 1.4), (cs.LengthLaw("linear", 0.25), 1.4),
                        (cs.LengthLaw("linear", 0.8), 1.0)):
            spec = cs.ExperimentSpec(m=10, n=400, C=C, mu=mu, trials=100, seed=11,
                                     epsilon=1.0, length_law=law)
            emit(f"estimate_power/C{C}-{law.kind}{law.coef:g}-mu{mu}",
                 repr(cs.estimate_power(spec)))
    spec = cs.ExperimentSpec(m=10, n=400, C=2, mu=1.4, trials=100, seed=11, epsilon=1.0,
                             length_law=cs.LengthLaw("linear", 0.25))
    chain = cs.generate_chain(10, 400, 2, 100, seed=9)
    emit("estimate_power/fixed-chain", repr(cs.estimate_power(spec, fixed_chain=chain)))


def null_sampler() -> None:
    """The Monte Carlo loops' null draws at fixed seeds: Bernoulli bits of a
    6x10x2000 batch, then tail values on the set bits, as (bit count, value
    sum, minimum), at x* and at cuts that take one round (3.0) and several (-1.0)."""
    p = 1.0 - cs.normal_cdf(X_STAR)
    for a in (X_STAR, 3.0, -1.0):
        r = rng(23, 0)
        bits = _kernels.bernoulli_stack(r, 6, 10, 2000, p)
        values = _kernels._normal_tail(r, int(np.count_nonzero(bits)), a)
        emit(f"normal_tail/a{a:.4g}",
             repr((int(np.count_nonzero(bits)), float(values.sum()), float(values.min()))))


def chains() -> None:
    """``generate_chain`` draws, single-row grids and one-node chains included."""
    for m, n, C, length in ((1, 10, 1, 10), (1, 5, 2, 1), (6, 40, 2, 1), (6, 40, 2, 12),
                            (3, 600, 3, 513), (10, 2000, 1, 400), (11, 5000, 2, 5000)):
        parts = [repr(cs.generate_chain(m, n, C, length, seed=seed)) for seed in range(4)]
        parts.append(repr(cs.generate_chain(m, n, C, length,
                                            seed=np.random.SeedSequence([0, 3, m]))))
        emit(f"generate_chain/m{m}-n{n}-C{C}-len{length}", "|".join(parts))


def kernels() -> None:
    """Batched kernels, single-grid views and witnesses on seeded random stacks."""
    r = rng(20, 26)
    for case in range(120):
        T, m, n = int(r.integers(0, 5)), int(r.integers(1, 8)), int(r.integers(1, 40))
        C, U = int(r.integers(0, 3)), int(r.integers(1, n + 1))
        if case % 2:  # values 0, 1 and 4 make ties within and across chain lengths
            x = r.choice([0.0, 1.0, 4.0], size=(T, m, n), p=[0.3, 0.6, 0.1])
            z, center = x > 0.5, 0.0
        else:
            x = r.standard_normal((T, m, n))
            z, center = x > X_STAR, float(r.choice([0.0, 1.755]))
        parts = [_kernels.chain_lengths(z, C).tobytes(),
                 _kernels.scan_values(x, z, C, U, center).tobytes()]
        for t in range(T):
            parts.append(repr(_kernels.longest_chain_with_witness(z[t], C)).encode())
            parts.append(repr(_kernels.scan_best_single(x[t], z[t], C, U, center)).encode())
            grid, sig = cs.ImageGrid(x[t]), cs.SignificanceMap(z[t])
            parts.append(repr(cs.longest_run_length(sig, C)).encode())
            parts.append(repr(cs.scan_statistic(grid, sig, C, U, center=center)).encode())
        emit(f"kernels/case{case}", b"|".join(parts))
    deep = np.ones((2, 4, 1500), dtype=bool)  # runs past the propagation cap
    deep[1, :, 700] = False
    emit("kernels/deep", _kernels.chain_lengths(deep, 1).tobytes()
         + repr(_kernels.longest_chain_with_witness(deep[1], 1)).encode())
    # a monte-carlo-sized batch whose trials end on both sides of the run
    # stage's packed/list hand-off: sparse noise, null noise, nothing, deep chains
    x = rng(20, 27).standard_normal((6, 10, 2000))
    z = x > X_STAR
    z[2] = x[2] > 2.5
    z[3] = False
    for t, length in ((4, 300), (5, 1200)):
        rows = cs.generate_chain(10, 2000, 1, length, seed=t).rows
        cols = np.arange(100, 100 + length)
        x[t, np.asarray(rows) - 1, cols] += 4.0
        z[t] = x[t] > X_STAR
    center = cs.null_conditional_mean(X_STAR)
    parts = [_kernels.chain_lengths(z, 1).tobytes(),
             _kernels.scan_values(x, z, 1, 120, center).tobytes()]
    for t in range(len(x)):
        parts.append(repr(_kernels.longest_chain_with_witness(z[t], 1)).encode())
        parts.append(repr(_kernels.scan_best_single(x[t], z[t], 1, 120, center)).encode())
    emit("kernels/batch-across-switch", b"|".join(parts))


def dense_fraction_stacks() -> None:
    """Batched kernels and single-grid views on 4x10x300 stacks dense enough that
    the run stage stays in its packed phase for a dozen layers or more: x* =
    0.5244 (p about 0.3) at C = 1 and x* = 0.92 (p about 0.18) at C = 2."""
    for x_star, C in ((0.5244, 1), (0.92, 2)):
        for seed in range(3):
            x = rng(20, 28, seed, C).standard_normal((4, 10, 300))
            z = x > x_star
            emit(f"kernels/dense-x{x_star}-C{C}-seed{seed}-runs",
                 _kernels.chain_lengths(z, C).tobytes()
                 + repr([_kernels.longest_chain_with_witness(b, C) for b in z]).encode())
            for U, center in ((300, 0.0), (300, cs.null_conditional_mean(x_star)), (5, 0.0)):
                parts = [_kernels.scan_values(x, z, C, U, center).tobytes()]
                parts += [repr(_kernels.scan_best_single(x[t], z[t], C, U, center)).encode()
                          for t in range(len(x))]
                emit(f"kernels/dense-x{x_star}-C{C}-seed{seed}-U{U}-c{center:.4f}",
                     b"|".join(parts))


def wide_drift_stacks() -> None:
    """Batched kernels, single-grid views and witnesses at C = 3 and 5, where
    the drift window reaches past the rows of small grids (C >= m), on stacks
    whose trials have densities 0.2, 0.6 and 0.9. In one of the 16 stacks
    trials end on both sides of the run stage's packed/list hand-off."""
    for C in (3, 5):
        for m in range(1, 9):
            r = rng(20, 29, C, m)
            n = int(r.integers(1, 61))
            U = int(r.integers(1, n + 1))
            center = float(r.choice([0.0, 1.755]))
            x = r.standard_normal((6, m, n))
            z = r.random((6, m, n)) < np.repeat([0.2, 0.6, 0.9], 2)[:, None, None]
            parts = [_kernels.chain_lengths(z, C).tobytes(),
                     _kernels.scan_values(x, z, C, U, center).tobytes()]
            for t in range(len(x)):
                grid, sig = cs.ImageGrid(x[t]), cs.SignificanceMap(z[t])
                parts.append(repr(_kernels.longest_chain_with_witness(z[t], C)).encode())
                parts.append(repr(_kernels.scan_best_single(x[t], z[t], C, U, center)).encode())
                parts.append(repr(cs.longest_run_length(sig, C)).encode())
                parts.append(repr(cs.scan_statistic(grid, sig, C, U, center=center)).encode())
            emit(f"kernels/wide-drift-C{C}-m{m}", b"|".join(parts))


def word_boundary_stacks() -> None:
    """Run-stage lengths, ends (also under stops) and witnesses on stacks whose
    rows end at and around the 64-column words of the packed layers: n = 1,
    63, 64, 65, 127, 128, 129 and 700, one row at C = 0, 1 and 2 and three rows
    at C = 4 (C >= m). Trials have densities 0.1, 0.6, 0.95 and 1, and one
    holds 4-runs that end on the top bit of each word."""
    for n in (1, 63, 64, 65, 127, 128, 129, 700):
        for m, C in ((1, 0), (1, 1), (1, 2), (3, 4)):
            z = rng(20, 30, n, m, C).random((5, m, n)) < np.array([0.1, 0.6, 0.95, 1.0, 0.0])[
                :, None, None]
            for top in range(63, n, 64):
                z[4, 0, top - 3 : top + 1] = True
            parts = []
            for stop in (None, 1, 2, 5, n // 2 + 1):
                ends = np.zeros(len(z), dtype=np.int64)
                parts += [_kernels.chain_lengths(z, C, ends, stop=stop).tobytes(), ends.tobytes()]
            parts += [repr(_kernels.longest_chain_with_witness(b, C)).encode() for b in z]
            parts += [repr(cs.longest_run_length(cs.SignificanceMap(b), C)).encode() for b in z]
            emit(f"kernels/word-boundary-n{n}-m{m}-C{C}", b"|".join(parts))


def deep_lone_witnesses() -> None:
    """Run-stage length, end and witness of lone grids with 65 and 130 rows
    (two and three bytes per packed column) at C = 0 and 3: sparse noise
    crossed by a planted walk of 600 to 900 nodes."""
    for m in (65, 130):
        for C in (0, 3):
            r = rng(20, 31, m, C)
            z = r.random((m, 1500)) < 0.1
            row, start = int(r.integers(0, m)), int(r.integers(0, 600))
            for c in range(start, start + int(r.integers(600, 901))):
                z[row, c] = True
                row = min(m - 1, max(0, row + int(r.integers(-C, C + 1))))
            end = np.zeros(1, dtype=np.int64)
            parts = [_kernels.chain_lengths(z, C, end).tobytes(), end.tobytes(),
                     repr(_kernels.longest_chain_with_witness(z, C)).encode(),
                     repr(cs.longest_run_length(cs.SignificanceMap(z), C)).encode()]
            emit(f"kernels/deep-lone-witness-m{m}-C{C}", b"|".join(parts))


def complexity_grids() -> None:
    """Library ``detect`` on the null grids of ``test_criterion_complexity``."""
    config = cs.make_config(10)
    for n, seed in ((10**6, 22), (2 * 10**6, 200)):
        emit(f"detect/complexity-n{n}", payload(cs.detect(cs.generate_null_grid(10, n, seed=seed),
                                                          config)))


def demos() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              timeout=600)
        emit(f"demo/{demo.name}", f"{proc.returncode}\n".encode() + proc.stdout)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmpdir:
        configs()
        commands(Path(tmpdir))
        detect_files(Path(tmpdir))
        pgm(Path(tmpdir))
    strong_chain()
    library_detect()
    growing_detect()
    frames()
    one_batch()
    past_the_cap()
    planted_power()
    null_sampler()
    chains()
    kernels()
    dense_fraction_stacks()
    wide_drift_stacks()
    word_boundary_stacks()
    deep_lone_witnesses()
    complexity_grids()
    demos()
