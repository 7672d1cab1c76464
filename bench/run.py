"""Run one chainscan benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload cli-detect --seed 0 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout; nothing is installed. One fresh process runs one workload:

1. ``import chainscan`` (timed), then the benchmark makes its seeded inputs
   (not timed; CSV and spec files go under ``bench/out/inputs/``);
2. set-up: what the workload resolves once and reuses (configuration, alarm
   calibration), repeated ``setup_reps`` times; each sample is one import time
   plus one set-up, the first import this process's own and the others from
   fresh interpreters started for the purpose;
3. timed rounds of ``ops`` identical operations until ``--seconds`` have
   passed (a round always runs whole);
4. checks of every round's output against the reference DPs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median set-up
sample), ``wall_s`` (median round) and ``peak_rss_mb`` (peak resident set of
this process, read before the checks). ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics from the traced ones: each is
one traced set-up plus the median traced round, and ``trace.overhead_pct``
compares the median traced and untraced rounds. The spans go to
``bench/out/trace-<workload>-seed<seed>.json``. A failed operation (an
exception or a non-zero exit) counts in ``failed`` and its output is not checked.

``--write-inputs`` writes the workload's input files for the seed and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import chainscan; "
                "print(time.perf_counter() - t)")

# metric names start with a letter, so the _kernels layer reports as "kernels.*"
LAYERS = ("grid", "rates", "runs", "scan", "detector", "simulate", "_kernels", "cli")

# name, unit, direction; the names and units BENCHMARK.json lists
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("grid.load_csv_grid_s", "s"), ("grid.csv_mb_per_s", "MB/s"),
    ("rates.resolve_run_rate_s", "s"), ("rates.matvec_calls", "count"),
    ("rates.estimate_run_rate_s", "s"),
    ("runs.longest_run_length_s", "s"), ("runs.witness_s", "s"), ("runs.calls", "count"),
    ("scan.scan_statistic_s", "s"),
    ("detector.detect_s", "s"), ("detector.detect_frames_s", "s"),
    ("detector.frames_per_s", "1/s"), ("detector.make_config_s", "s"),
    ("simulate.estimate_type1_s", "s"), ("simulate.estimate_power_s", "s"),
    ("simulate.config_resolutions", "count"), ("simulate.calibrate_alarms_s", "s"),
    ("simulate.step1_trials", "count"),
    ("kernels.scan_values_s", "s"), ("kernels.scan_values_trials", "count"),
    ("kernels.scan_ns_per_cell_layer", "ns"), ("kernels.chain_lengths_s", "s"),
    ("kernels.chain_ns_per_cell_layer", "ns"),
    ("cli.main_s", "s"),
) + tuple((f"{layer.lstrip('_')}.self_s", "s") for layer in LAYERS) + (("trace.overhead_pct", "%"),)


def _limit_blas_threads() -> None:
    """Hold BLAS/OpenMP pools to the CPUs this process may use; must run before numpy loads."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not (1 <= int(current) <= cpus):
            os.environ[var] = str(cpus)


def _child_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _base(tot: dict) -> dict:
    """Raw per-layer quantities of one traced set-up or round."""
    def incl(name):
        return tot[name]["incl"] if name in tot else 0.0

    def count(name, key):
        return tot[name]["counts"].get(key, 0) if name in tot else 0

    b = {
        "grid.load_csv_grid_s": incl("grid.load_csv_grid"),
        "csv_bytes": count("grid.load_csv_grid", "csv_bytes"),
        "rates.resolve_run_rate_s": incl("rates.resolve_run_rate"),
        "rates.matvec_calls": count("rates.matvec", "calls"),
        "rates.estimate_run_rate_s": incl("rates.estimate_run_rate"),
        "runs.longest_run_length_s": count("runs.longest_run_length", "length_s"),
        "runs.witness_s": count("runs.longest_run_length", "witness_s"),
        "runs.calls": count("runs.longest_run_length", "calls"),
        "scan.scan_statistic_s": incl("scan.scan_statistic"),
        "detector.detect_s": incl("detector.detect"),
        "detector.detect_frames_s": incl("detector.detect_frames"),
        "frames": count("detector.detect_frames", "frames"),
        "detector.make_config_s": incl("detector.make_config"),
        "simulate.estimate_type1_s": incl("simulate.estimate_type1"),
        "simulate.estimate_power_s": incl("simulate.estimate_power"),
        "simulate.config_resolutions": count("detector.make_config", "in_simulate"),
        "simulate.calibrate_alarms_s": incl("simulate.calibrate_alarms"),
        "kernels.scan_values_s": incl("_kernels.scan_values"),
        "kernels.scan_values_trials": count("_kernels.scan_values", "trials"),
        "scan_cell_layers": count("_kernels.scan_values", "cell_layers"),
        "kernels.chain_lengths_s": incl("_kernels.chain_lengths"),
        "chain_cell_layers": count("_kernels.chain_lengths", "cell_layers"),
        "cli.main_s": incl("cli.main"),
    }
    for layer in LAYERS:
        b[f"{layer.lstrip('_')}.self_s"] = sum(v["self"] for name, v in tot.items()
                                   if name.split(".")[0] == layer)
    return b


def _per_layer(tracer, traced_rounds, step1, overhead_pct: float) -> dict:
    groups = tracer.groups()
    setup = _base(tracer.totals(groups.get(("setup", -1), [])))
    rounds = [_base(tracer.totals(groups.get(("timed", r), []))) for r in traced_rounds]
    v = {k: setup[k] + statistics.median(r[k] for r in rounds) for k in setup}

    def step1_trials(r):
        lengths = tracer.simulated_lengths.get(r, [])
        return sum(int((a > step1).sum()) for a in lengths) if step1 is not None else 0

    v["simulate.step1_trials"] = statistics.median(step1_trials(r) for r in traced_rounds)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    v["grid.csv_mb_per_s"] = ratio(v["csv_bytes"] / 1e6, v["grid.load_csv_grid_s"])
    v["detector.frames_per_s"] = ratio(v["frames"], v["detector.detect_frames_s"])
    v["kernels.scan_ns_per_cell_layer"] = ratio(v["kernels.scan_values_s"],
                                                v["scan_cell_layers"], 1e9)
    v["kernels.chain_ns_per_cell_layer"] = ratio(v["kernels.chain_lengths_s"],
                                                 v["chain_cell_layers"], 1e9)
    v["trace.overhead_pct"] = overhead_pct
    return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", action="store_true",
                        help="write the workload's input files for the seed and exit")
    args = parser.parse_args(argv)

    if not (SRC / "chainscan" / "__init__.py").is_file():
        print(f"error: no chainscan sources at {SRC}; run from a chainscan checkout",
              file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import chainscan as cs
    import chainscan.cli  # noqa: F401  (the CLI module is not imported by the package)
    own_import_s = time.perf_counter() - t0

    sys.path.insert(0, str(BENCH))
    from reference import CheckFailed
    from tracing import Tracer
    from workloads import WORKLOADS, OperationFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    workdir = str(OUT / "inputs" / args.workload)
    wl.make_inputs(cs, args.seed, workdir)
    if args.write_inputs:
        print(f"inputs for {args.workload} seed {args.seed} in {workdir}", file=sys.stderr)
        return 0

    tracer = Tracer() if args.trace else None
    reps = 1 if args.trace else wl.setup_reps
    imports = [own_import_s] + [_child_import_seconds() for _ in range(reps - 1)]
    setups, state = [], None
    for rep in range(reps):
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        state = wl.setup(cs)
        setups.append(imports[rep] + time.perf_counter() - t)
        if tracer is not None:
            tracer.uninstall()

    # timed rounds of wl.ops operations; with tracing, odd rounds are traced
    times, traced, results, outputs = [], [], [], []
    failed = attempted = 0
    start = time.perf_counter()
    r = 0
    while True:
        tracing = tracer is not None and r % 2 == 1
        if tracing:
            tracer.phase, tracer.round = "timed", r
            tracer.install()
        results.clear()
        t = time.perf_counter()
        for k in range(attempted, attempted + wl.ops):
            try:
                results.append((k, wl.operation(cs, state, k)))
            except Exception:  # a failed operation is counted, reported and not checked
                failed += 1
                if failed == 1:
                    traceback.print_exc()
        times.append(time.perf_counter() - t)
        if tracing:
            tracer.uninstall()
            traced.append(r)
        attempted += wl.ops
        for k, result in results:
            try:
                outputs.append((k, wl.collect(result)))
            except OperationFailed as exc:
                failed += 1
                if failed == 1:
                    print(f"operation {k} failed: {exc}", file=sys.stderr)
        r += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or r >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        stats = wl.check(outputs, state)
        correct = True
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:  # malformed output included
        print(f"check failed: {exc!r}", file=sys.stderr)
        stats, correct = {}, False
    print(f"{args.workload} seed {args.seed}: {r} rounds of {wl.ops} operations; round seconds "
          f"{[round(t, 4) for t in times]}; {stats}", file=sys.stderr)

    if tracer is None:
        values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(times),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        plain = statistics.median(times[i] for i in range(r) if i not in traced)
        overhead = 100.0 * (statistics.median(times[i] for i in traced) - plain) / plain
        metrics = _per_layer(tracer, traced, getattr(wl, "step1", None), overhead)
        if tracer.absent:
            print(f"absent (not traced): {', '.join(tracer.absent)}", file=sys.stderr)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed, "rounds": r,
                      "traced_rounds": traced, "round_s": times, "stats": stats,
                      "metrics": metrics})
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
