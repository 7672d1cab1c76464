"""chainscan: detection of inhomogeneous chains with good continuation in noisy rasters.

A chain occupies consecutive columns of an m-by-n grid, drifting at most C
rows per step. The detector thresholds the grid into a Bernoulli net, tests
the longest significant chain against a run-rate cut, and falls through to a
capped normalized scan statistic over significant chains, centered at the
null conditional mean of a significant node. Companion modules
compute the run-rate constant exactly (transfer operator Perron root),
solve detectability thresholds, and estimate error rates by Monte Carlo.
"""

from .detectability import (
    DEFAULT_DELTA2,
    DEFAULT_EPSILON,
    DEFAULT_X_STAR,
    Thresholds,
    decision_thresholds,
    min_detectable_mean_log_length,
    min_detectable_mean_power_law,
    min_detectable_mean_sqrt_length,
    normal_cdf,
    normal_quantile,
    null_conditional_mean,
)
from .detector import (
    DetectionResult,
    DetectorConfig,
    FrameStat,
    detect,
    detect_frames,
    make_config,
)
from .errors import CapacityError, ConvergenceError, EstimationError, ParseError
from .grid import (
    ChainPath,
    ImageGrid,
    SignificanceMap,
    embed_chain,
    generate_chain,
    generate_null_grid,
    load_csv_grid,
    load_pgm_grid,
    significance_map,
    write_csv_grid,
)
from .rates import (
    RunRate,
    TransferOperator,
    build_transfer_operator,
    estimate_run_rate,
    perron_root,
    resolve_area_rate,
    resolve_run_rate,
)
from .runs import RunResult, longest_run_bruteforce, longest_run_length
from .scan import UNREACHABLE, ScanResult, scan_bruteforce, scan_statistic
from .simulate import (
    ErrorEstimate,
    ExperimentSpec,
    LengthLaw,
    calibrate_alarms,
    config_for,
    estimate_power,
    estimate_type1,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChainPath",
    "ConvergenceError",
    "DEFAULT_DELTA2",
    "DEFAULT_EPSILON",
    "DEFAULT_X_STAR",
    "DetectionResult",
    "DetectorConfig",
    "ErrorEstimate",
    "EstimationError",
    "ExperimentSpec",
    "FrameStat",
    "ImageGrid",
    "LengthLaw",
    "ParseError",
    "RunRate",
    "RunResult",
    "ScanResult",
    "SignificanceMap",
    "Thresholds",
    "TransferOperator",
    "UNREACHABLE",
    "build_transfer_operator",
    "calibrate_alarms",
    "config_for",
    "decision_thresholds",
    "detect",
    "detect_frames",
    "embed_chain",
    "estimate_power",
    "estimate_run_rate",
    "estimate_type1",
    "generate_chain",
    "generate_null_grid",
    "load_csv_grid",
    "load_pgm_grid",
    "longest_run_bruteforce",
    "longest_run_length",
    "make_config",
    "min_detectable_mean_log_length",
    "min_detectable_mean_power_law",
    "min_detectable_mean_sqrt_length",
    "normal_cdf",
    "normal_quantile",
    "null_conditional_mean",
    "perron_root",
    "resolve_area_rate",
    "resolve_run_rate",
    "scan_bruteforce",
    "scan_statistic",
    "significance_map",
    "write_csv_grid",
]
