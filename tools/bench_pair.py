"""Run the benchmark in alternating pairs on a parent checkout and on this one.

    python tools/bench_pair.py --parent ../parent --workloads strong-chain frames \
        --seeds 0 1 2 3 4 --seconds 15 --out BENCH_<n>.json

For every workload and seed, ``bench/run.py --trace 0`` runs once in each
checkout, each in its own process from that checkout's root, so each side
imports its own ``src/``. Even seeds run the parent first, odd seeds this
checkout first, so a drift in machine load falls on both sides alike. The
JSON written to ``--out`` holds every run's end-to-end metrics, the median and
quartiles (numpy's linear percentiles 25 and 75) of each metric per workload
and side, the number of pairs in which this checkout did better on each metric
(the direction is the one ``BENCHMARK.json`` gives), a :func:`verdict` per
workload and metric from that metric's ``bound`` and ``better``, and the
machine: nproc, Python and numpy versions. Each run also records its number of
timed rounds, read from ``bench/run.py``'s stderr summary line, with the median
per workload and side: the harness keeps every round's output until its checks,
so more rounds in the same seconds raise ``peak_rss_mb``. Each verdict is also
printed, one line per workload and metric, with both sides' medians and
quartiles, and the median rounds beside ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
ROUNDS = re.compile(r"(\d+) rounds of \d+ operations")


def rounds_of(stderr: str) -> int:
    """The number of timed rounds in ``bench/run.py``'s stderr summary line,
    ``<workload> seed <s>: <N> rounds of <K> operations; ...`` (the last one)."""
    found = ROUNDS.findall(stderr)
    if not found:
        raise ValueError("no 'N rounds of K operations' line in the stderr")
    return int(found[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process in ``checkout``: its last stdout line, parsed,
    and its timed rounds from the stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "rounds": rounds_of(proc.stderr),
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def verdict(parent: list[float], change: list[float], wins: int, metric: dict) -> str:
    """``worse-than-bound`` when the change's median is worse than the parent's by
    more than the metric's relative ``bound``; ``better`` when the change wins at
    least 9 of 10 pairs and the medians differ in its favour by more than the
    parent's quartile spread; ``unresolved`` otherwise."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    gain = sign * (statistics.median(change) - statistics.median(parent))
    if gain < -metric["bound"] * abs(statistics.median(parent)):
        return "worse-than-bound"
    q1, q3 = np.percentile(parent, [25, 75])
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "better"
    return "unresolved"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload: each side's median and quartiles of each metric and its
    median timed rounds, the number of pairs in which the change did better
    than the parent, and for each metric in ``metrics`` (the ``end_to_end``
    entries of ``BENCHMARK.json`` by name) a :func:`verdict`."""
    summary = {key: {} for key in ("medians", "quartiles", "rounds", "change_better_pairs",
                                   "verdicts")}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        names = list(mine[0]["metrics"])
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        values = {side: {name: [p[side][name] for p in pairs.values()] for name in names}
                  for side in SIDES}
        summary["medians"][wl] = {side: {name: statistics.median(v) for name, v in
                                         values[side].items()} for side in SIDES}
        summary["quartiles"][wl] = {side: {name: np.percentile(v, [25, 75]).tolist()
                                           for name, v in values[side].items()}
                                    for side in SIDES}
        summary["rounds"][wl] = {side: statistics.median(r["rounds"] for r in mine
                                                         if r["side"] == side)
                                 for side in SIDES}
        wins = {"pairs": len(pairs)}
        for name in names:
            sign = -1.0 if metrics.get(name, {}).get("better", "lower") == "lower" else 1.0
            wins[name] = sum(sign * (p["change"][name] - p["parent"][name]) > 0
                             for p in pairs.values())
        summary["change_better_pairs"][wl] = wins
        summary["verdicts"][wl] = {
            name: verdict(values["parent"][name], values["change"][name], wins[name],
                          metrics[name])
            for name in names if name in metrics}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs = []
    for wl in args.workloads:
        for seed in args.seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], wl, seed, args.seconds)
                runs.append({"workload": wl, "seed": seed, "side": side, **run})
                print(f"{wl} seed {seed} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items())
                      + f", rounds {run['rounds']}, failed {run['failed']}",
                      file=sys.stderr, flush=True)
    summary = summarize(runs, metrics)
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "seconds": args.seconds, "seeds": args.seeds, "runs": runs, **summary,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for wl, verdicts in summary["verdicts"].items():
        wins = summary["change_better_pairs"][wl]
        for name, word in verdicts.items():
            sides = ", ".join(
                f"{side} {summary['medians'][wl][side][name]:.4g} "
                "[{:.4g}, {:.4g}]".format(*summary["quartiles"][wl][side][name])
                for side in SIDES)
            rounds = ""
            if name == "peak_rss_mb":
                rounds = " (median rounds " + ", ".join(
                    f"{side} {summary['rounds'][wl][side]:g}" for side in SIDES) + ")"
            print(f"{wl} {name}: {sides}{rounds}; change better in {wins[name]} of "
                  f"{wins['pairs']} pairs: {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
