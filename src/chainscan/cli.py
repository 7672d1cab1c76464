"""Command-line surface: rho, mu-table, detect, frames, simulate.

Data goes to stdout (or --out); diagnostics go to stderr. Exit codes:
0 success, 2 argument/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .detectability import (
    DEFAULT_DELTA2,
    DEFAULT_EPSILON,
    DEFAULT_X_STAR,
    min_detectable_mean_log_length,
    min_detectable_mean_power_law,
    normal_cdf,
)
from .detector import detect, detect_frames, make_config
from .errors import ParseError
from .grid import _ascii_text, load_csv_grid, load_pgm_grid
from .rates import (
    MAX_EXACT_ROWS,
    build_transfer_operator,
    estimate_run_rate,
    perron_root,
    resolve_run_rate,
)
from .scan import UNREACHABLE
from .simulate import ExperimentSpec, LengthLaw, config_for, estimate_power, estimate_type1

POWER_ZETAS = (("1/10", 0.1), ("1/5", 0.2), ("1/4", 0.25), ("1/3", 1 / 3),
               ("1/2", 0.5), ("1", 1.0))
POWER_NS = (200, 300, 500, 1000, 2000, 5000, 10**4, 10**5, 10**6)
SQRT_CS = (("1/3", 1 / 3), ("1/2", 0.5), ("1", 1.0), ("2", 2.0), ("3", 3.0),
           ("5", 5.0), ("10", 10.0), ("50", 50.0))
LOG_CS = (("1", 1.0), ("2", 2.0), ("5", 5.0), ("10", 10.0), ("50", 50.0), ("100", 100.0))
TABLE_NS = (10**3, 10**4, 10**5, 10**6, 10**7, 10**8)


def _emit(args, lines) -> None:
    """Print the lines to the --out file, or to stdout without one."""
    with open(args.out, "w", encoding="ascii") if args.out else nullcontext(sys.stdout) as fh:
        for line in lines:
            print(line, file=fh)


def _cmd_rho(args) -> int:
    if args.method == "mc":
        if args.seed is None:
            raise ValueError("--seed is required with --method mc (no hidden entropy)")
        rate = estimate_run_rate(args.m, args.C, args.p, n_cols=args.ncols,
                                 trials=args.trials, seed=args.seed)
    elif args.m <= MAX_EXACT_ROWS:
        rate = perron_root(build_transfer_operator(args.m, args.C, args.p), tol=args.tol)
    else:
        rate = resolve_run_rate(args.m, args.C, args.p)
    _emit(args, [f"{args.m},{args.C},{args.p:g},{rate.value:.4f},{rate.method}"])
    return 0


def _resolve_table_rate(args) -> float:
    if args.rho is not None:
        return args.rho
    p = 1.0 - normal_cdf(args.xstar)
    return resolve_run_rate(args.m, args.C, p).value


def _cmd_mu_table(args) -> int:
    if args.mode == "log":
        columns, ns, fmt = LOG_CS, TABLE_NS, "{:.2f}"

        def cell(n, c):
            return min_detectable_mean_log_length(n, args.m, c, delta2=args.delta2,
                                                  x_star=args.xstar)
    else:
        rate = _resolve_table_rate(args)
        if args.mode == "power":
            columns, ns, alpha = POWER_ZETAS, POWER_NS, args.alpha
        else:
            columns, ns, alpha = SQRT_CS, TABLE_NS, 0.5
        fmt = "{:.4f}"

        def cell(n, c):
            return min_detectable_mean_power_law(n, args.m, args.C, rate, alpha, c,
                                                 eps=args.epsilon, x_star=args.xstar)
    lines = ["n," + ",".join(label for label, _ in columns)]
    for n in ns:
        lines.append(f"{n}," + ",".join(fmt.format(cell(n, c)) for _, c in columns))
    _emit(args, lines)
    return 0


def _load_grid(path: str | Path):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    if p.suffix.lower() == ".pgm":
        return load_pgm_grid(p)
    return load_csv_grid(p)


def _build_config(args, m: int):
    return make_config(
        m,
        C=args.C,
        x_star=args.xstar,
        epsilon=args.epsilon,
        delta2=args.delta2,
        regime=args.regime,
        U_override=args.u_cap,
    )


def _cmd_detect(args) -> int:
    grid = _load_grid(args.input)
    config = _build_config(args, grid.m)
    result = detect(grid, config)
    xs = result.x_star_s
    payload = {
        "reject": result.reject_null,
        "stage": result.deciding_stage,
        "l0": result.l0_length,
        "xs": None if xs is None or xs == UNREACHABLE else xs,
        "thresholds": {
            "step1": result.thresholds.step1,
            "step2": result.thresholds.step2,
            "x_star": result.thresholds.x_star,
        },
        "witness": None
        if result.witness is None
        else {"start_col": result.witness.start_col, "rows": list(result.witness.rows)},
    }
    _emit(args, [json.dumps(payload)])
    return 0


def _cmd_frames(args) -> int:
    folder = Path(args.dir)
    if not folder.is_dir():
        raise FileNotFoundError(f"frame directory not found: {args.dir}")
    paths = sorted(
        p for p in folder.iterdir() if p.suffix.lower() in (".csv", ".pgm")
    )
    if not paths:
        raise ValueError(f"no .csv or .pgm frames in {args.dir}")
    frames = [_load_grid(p) for p in paths]
    m, n = frames[0].m, frames[0].n
    for path, frame in zip(paths, frames):
        if (frame.m, frame.n) != (m, n):
            raise ValueError(f"{path} is {frame.m}x{frame.n}, expected {m}x{n} as in {paths[0]}")
    config = _build_config(args, m)
    stats = detect_frames(frames, config, args.l0_alarm, args.scan_alarm)
    lines = ["frame,l0,xs,alarm"]
    for st in stats:
        xs = "-inf" if st.x_star_s == UNREACHABLE else f"{st.x_star_s:.6g}"
        lines.append(f"{st.index},{st.l0_length},{xs},{int(st.alarm)}")
    _emit(args, lines)
    return 0


_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
# every simulate spec key and its JSON type, nested as in the spec
_SPEC_TYPES = {"m": _INTEGER, "n": _INTEGER, "C": _INTEGER, "trials": _INTEGER,
               "seed": _INTEGER, "x_star": _NUMBER, "epsilon": _NUMBER, "delta2": _NUMBER,
               "mu": _NUMBER, "length_law": {"kind": ((str,), "a string"), "coef": _NUMBER}}


def _check_spec_types(obj, table: dict, where: str) -> None:
    """Raise ValueError naming the key unless obj is a JSON object whose keys
    are all in the table and hold their JSON type; a bool is not a number here."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    for key, value in obj.items():
        want = table.get(key)
        if want is None:
            raise ValueError(f"{where} has unknown key {key!r}")
        if isinstance(want, dict):
            _check_spec_types(value, want, f"{where} key '{key}'")
        elif isinstance(value, bool) or not isinstance(value, want[0]):
            raise ValueError(f"{where} key '{key}' must be {want[1]}, got {value!r}")


def _cmd_simulate(args) -> int:
    raw = json.loads(_ascii_text(args.spec, ValueError))
    _check_spec_types(raw, _SPEC_TYPES, "spec JSON")
    if "seed" not in raw:
        raise ValueError("spec JSON must carry an explicit seed (no hidden entropy)")
    law = raw.get("length_law")
    for key, obj in (("m", raw), ("n", raw), ("kind", law), ("coef", law)):
        if obj is not None and key not in obj:
            raise ValueError(f"spec JSON lacks required key {key!r}")
    if law is not None:
        raw = {**raw, "length_law": LengthLaw(**law)}
    spec = ExperimentSpec(**raw)
    config = config_for(spec)
    rows = [estimate_type1(spec, config=config)]
    if spec.mu > 0:
        rows.append(estimate_power(spec, config=config))
    lines = ["kind,rate,stderr,trials,m,n,C,x_star,epsilon,delta2,law,coef,mu,seed"]
    for est in rows:
        lines.append(
            f"{est.kind},{est.rate:.6g},{est.stderr:.6g},{est.trials},"
            f"{spec.m},{spec.n},{spec.C},{spec.x_star:.6g},{spec.epsilon:g},"
            f"{spec.delta2:g},{spec.length_law.kind},{spec.length_law.coef:g},"
            f"{spec.mu:g},{spec.seed}"
        )
    _emit(args, lines)
    return 0


def _add_detector_flags(sp) -> None:
    sp.add_argument("--C", type=int, default=1, help="drift bound (default 1)")
    sp.add_argument("--xstar", type=float, default=DEFAULT_X_STAR,
                    help="significance threshold (default 90th percentile)")
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.add_argument("--delta2", type=float, default=DEFAULT_DELTA2)
    sp.add_argument("--regime", choices=["fixed-m", "growing-m"], default="fixed-m")
    sp.add_argument("--u-cap", type=int, default=None,
                    help="override the scan length cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainscan",
        description="Detect inhomogeneous chains with good continuation in noisy rasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rho", help="run-rate constant of across significant chains")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--C", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--method", choices=["exact", "mc"], default="exact")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="width of the certified bracket around the exact root; "
                         f"the extrapolated rate past m = {MAX_EXACT_ROWS} does not use it")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--ncols", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=_cmd_rho)

    sp = sub.add_parser("mu-table", help="minimum detectable mean tables")
    sp.add_argument("--mode", choices=["power", "sqrt", "log"], required=True)
    sp.add_argument("--m", type=int, default=10)
    sp.add_argument("--C", type=int, default=1)
    sp.add_argument("--rho", type=float, default=None,
                    help="run rate; when omitted, computed exactly up to "
                         f"m = {MAX_EXACT_ROWS} and extrapolated from exact roots past it")
    sp.add_argument("--alpha", type=float, default=1.0,
                    help="power-law exponent for --mode power")
    sp.add_argument("--xstar", type=float, default=DEFAULT_X_STAR)
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.add_argument("--delta2", type=float, default=DEFAULT_DELTA2)
    sp.set_defaults(fn=_cmd_mu_table)

    sp = sub.add_parser("detect", help="two-step detection on one grid file")
    sp.add_argument("--input", required=True, help="grid file (.csv or .pgm)")
    _add_detector_flags(sp)
    sp.set_defaults(fn=_cmd_detect)

    sp = sub.add_parser("frames", help="per-frame statistics and alarms for a directory")
    sp.add_argument("--dir", required=True)
    sp.add_argument("--l0-alarm", type=float, required=True, dest="l0_alarm")
    sp.add_argument("--scan-alarm", type=float, required=True, dest="scan_alarm")
    _add_detector_flags(sp)
    sp.set_defaults(fn=_cmd_frames)

    sp = sub.add_parser("simulate", help="Monte Carlo error rates from a spec JSON")
    sp.add_argument("--spec", required=True)
    sp.set_defaults(fn=_cmd_simulate)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics on stderr
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
