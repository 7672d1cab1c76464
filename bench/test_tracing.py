"""Tests of the benchmark's call-site tracer.

    PYTHONPATH=src python -m pytest -q bench/test_tracing.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import chainscan as cs  # noqa: E402
import chainscan.cli  # noqa: E402,F401
from chainscan import _kernels, detector, rates, runs  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_wraps_every_call_site_and_restores_them():
    originals = (detector.longest_run_length, runs.longest_run_length, cs.detect,
                 rates.TransferOperator.matvec)
    tracer = Tracer()
    tracer.install()
    try:
        assert detector.longest_run_length is runs.longest_run_length is cs.longest_run_length
        assert detector.longest_run_length is not originals[0]
        grid = cs.generate_null_grid(6, 300, seed=3)
        config = cs.make_config(6)
        result = cs.detect(grid, config)
    finally:
        tracer.uninstall()
    assert (detector.longest_run_length, runs.longest_run_length, cs.detect,
            rates.TransferOperator.matvec) == originals
    tot = tracer.totals(tracer.groups()[("setup", -1)])
    assert tot["detector.make_config"]["calls"] == 1
    assert tot["rates.matvec"]["counts"]["calls"] > 1  # power iterations
    runs_calls = 2 if result.deciding_stage == "step1" else 1
    assert tot["runs.longest_run_length"]["counts"]["calls"] == runs_calls
    assert tot["_kernels.chain_lengths"]["calls"] == 1
    # detect's inclusive time covers its children; its self time excludes them
    det = tot["detector.detect"]
    assert det["self"] < det["incl"]
    assert tracer.absent == []


def test_missing_target_is_absent_not_a_failure(monkeypatch):
    monkeypatch.delattr(_kernels, "scan_values")
    tracer = Tracer()
    tracer.install()
    try:
        lengths = _kernels.chain_lengths(np.ones((2, 3, 4), dtype=bool), 1)
    finally:
        tracer.uninstall()
    assert list(lengths) == [4, 4]
    assert tracer.absent == ["_kernels.scan_values"]
    tot = tracer.totals(tracer.groups()[("setup", -1)])
    assert tot["_kernels.chain_lengths"]["counts"]["cell_layers"] == 2 * 3 * 4 * 4
