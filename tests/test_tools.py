"""The paired benchmark's verdict rule and round count (tools/bench_pair.py)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pair import rounds_of, verdict  # noqa: E402

PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98]  # quartiles 0.985, 1.015
LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}


def test_verdict():
    def scaled(f):
        return [f * v for v in PARENT]

    assert verdict(PARENT, scaled(1.3), 0, LOWER) == "worse-than-bound"
    assert verdict(PARENT, scaled(0.7), 0, HIGHER) == "worse-than-bound"
    assert verdict(PARENT, scaled(1.2), 0, LOWER) == "unresolved"  # inside the bound
    assert verdict(PARENT, scaled(0.5), 10, LOWER) == "better"
    assert verdict(PARENT, scaled(0.5), 9, LOWER) == "better"
    assert verdict(PARENT, scaled(0.5), 8, LOWER) == "unresolved"  # too few pairs won
    assert verdict(PARENT, scaled(0.99), 10, LOWER) == "unresolved"  # inside the spread
    assert verdict(PARENT, scaled(1.5), 10, HIGHER) == "better"


def test_rounds_of_the_stderr_summary_line():
    # captured from `bench/run.py --workload strong-chain --seed 0 --seconds 3 --trace 0`,
    # its list of 108 round seconds cut to the first three
    stderr = ("strong-chain seed 0: 108 rounds of 2 operations; round seconds [0.0287, 0.0276, "
              "0.0274]; {'l0': [862, 912], 'stretch': [862, 912], 'stages': {'step1': 216}}\n")
    assert rounds_of(stderr) == 108
    assert rounds_of("operation 3 failed: 12 rounds of 4 operations\n" + stderr) == 108
    with pytest.raises(ValueError, match="rounds"):
        rounds_of("Traceback (most recent call last):\n")
