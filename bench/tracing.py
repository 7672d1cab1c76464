"""In-memory span tracer that wraps chainscan's public functions where they are called.

``Tracer.install()`` replaces each target function by a timing wrapper in
every ``chainscan`` module that holds it (``from .grid import load_csv_grid``
in ``cli`` makes ``cli.load_csv_grid`` a call site of its own), and replaces
class attributes such as ``TransferOperator.matvec`` on the class.
``uninstall()`` puts the originals back. Targets that no longer exist are
listed in ``absent`` and traced as nothing.

Each call records a span (name, parent, phase, round, start, end) and the
work counts its hook computes from the arguments and result. Spans stay in
memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "chainscan"


def _arg(args, kwargs, index, name, default=None):
    """A call's argument by position or keyword, as the target's signature places it."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_csv(tr, args, kwargs, result, dur):
    return {"csv_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_runs(tr, args, kwargs, result, dur):
    key = "witness_s" if _arg(args, kwargs, 2, "witness", True) else "length_s"
    return {"calls": 1, key: dur}


def _count_frames(tr, args, kwargs, result, dur):
    return {"frames": len(result)}


def _count_chain(tr, args, kwargs, result, dur):
    bits = _arg(args, kwargs, 0, "bits")
    shape = np.shape(bits)
    T, m, n = (1,) + shape if len(shape) == 2 else shape
    longest = int(result.max())
    tr.last_chain = (bits, longest)
    if any(name.startswith("simulate.estimate_") for _, name in tr._stack):
        tr.simulated_lengths.setdefault(tr.round, []).append(result.copy())
    return {"cell_layers": T * m * n * max(longest, 1)}


def _count_scan(tr, args, kwargs, result, dur):
    shape = np.shape(_arg(args, kwargs, 0, "x"))
    T, m, n = (1,) + shape if len(shape) == 2 else shape
    U = int(_arg(args, kwargs, 3, "U"))
    if tr.last_chain is not None and tr.last_chain[0] is _arg(args, kwargs, 1, "z"):
        layers = min(U, tr.last_chain[1] + 1)
    else:  # no run-stage answer for this stack: count the cap, an upper bound
        layers = U
    return {"trials": T, "cell_layers": T * m * n * layers}


def _count_one(tr, args, kwargs, result, dur):
    return {"calls": 1}


def _count_config(tr, args, kwargs, result, dur):
    inside = any(name.startswith("simulate.") for _, name in tr._stack)
    return {"calls": 1, "in_simulate": int(inside)}


# (module, attribute, span name, count hook). "Class.method" patches the class.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("grid", "load_csv_grid", "grid.load_csv_grid", _count_csv),
    ("grid", "significance_map", "grid.significance_map", None),
    ("rates", "resolve_run_rate", "rates.resolve_run_rate", None),
    ("rates", "estimate_run_rate", "rates.estimate_run_rate", None),
    ("rates", "perron_root", "rates.perron_root", None),
    ("rates", "TransferOperator.matvec", "rates.matvec", _count_one),
    ("runs", "longest_run_length", "runs.longest_run_length", _count_runs),
    ("scan", "scan_statistic", "scan.scan_statistic", None),
    ("detector", "make_config", "detector.make_config", _count_config),
    ("detector", "detect", "detector.detect", None),
    ("detector", "detect_frames", "detector.detect_frames", _count_frames),
    ("simulate", "estimate_type1", "simulate.estimate_type1", None),
    ("simulate", "estimate_power", "simulate.estimate_power", None),
    ("simulate", "calibrate_alarms", "simulate.calibrate_alarms", None),
    ("_kernels", "chain_lengths", "_kernels.chain_lengths", _count_chain),
    ("_kernels", "scan_values", "_kernels.scan_values", _count_scan),
    ("_kernels", "scan_best_single", "_kernels.scan_best_single", None),
    ("_kernels", "longest_chain_with_witness", "_kernels.longest_chain_with_witness", None),
)


class Tracer:
    def __init__(self):
        # (id, parent, name, phase, round, start, end): atomic fields only, so that the
        # collector untracks the tuples and a long trace does not slow collections
        self.spans = []
        self.counts = {}  # span id -> work counts from the target's hook
        self.absent = []
        self.phase = "setup"
        self.round = -1
        self.last_chain = None  # (bits stack, its longest chain) of the last chain_lengths call
        self.simulated_lengths = {}  # round -> chain_lengths outputs inside estimate_type1/power
        self._stack = []  # (span id, name) of the calls in progress
        self._patches = []  # (owner, attr, original)
        self._wrappers = {}

    # -- wrapping
    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, name, tracer.phase, tracer.round, start, end)
            if hook is not None:
                tracer.counts[sid] = hook(tracer, args, kwargs, result, end - start)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = {k: v for k, v in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for mod_name, attr, name, hook in TARGETS:
            home = modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, meth, None) if owner is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrappers.get(name)
            if wrapper is None:
                wrapper = self._wrappers[name] = self._wrap(original, name, hook)
            if owner_name:
                self._patches.append((owner, meth, original))
                setattr(owner, meth, wrapper)
                continue
            for mod in modules.values():  # every call site holding the same object
                if getattr(mod, meth, None) is original:
                    self._patches.append((mod, meth, original))
                    setattr(mod, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation
    def groups(self):
        """Finished spans grouped by (phase, round)."""
        out = defaultdict(list)
        for s in self.spans:
            if s is not None:
                out[(s[3], s[4])].append(s)
        return out

    def totals(self, spans):
        """Per span name: inclusive seconds (outermost calls), self seconds, call
        count and summed work counts over the given spans."""
        child_time = defaultdict(float)
        by_id = {s[0]: s for s in spans}
        for s in spans:
            if s[1] in by_id:
                child_time[s[1]] += s[6] - s[5]
        out = defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0, "counts": {}})
        for s in spans:
            agg = out[s[2]]
            dur = s[6] - s[5]
            agg["self"] += dur - child_time[s[0]]
            agg["calls"] += 1
            # inclusive time counts only calls not nested in a call of the same name
            p, nested = s[1], False
            while p in by_id:
                if by_id[p][2] == s[2]:
                    nested = True
                    break
                p = by_id[p][1]
            if not nested:
                agg["incl"] += dur
            for k, v in self.counts.get(s[0], {}).items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return out

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["span_fields"] = ["id", "parent", "name", "phase", "round", "start_s", "end_s"]
        doc["spans"] = [s for s in self.spans if s is not None]
        doc["counts"] = self.counts
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
