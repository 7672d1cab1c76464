import math

import numpy as np
import pytest

from chainscan import (
    UNREACHABLE,
    DetectorConfig,
    ExperimentSpec,
    ImageGrid,
    calibrate_alarms,
    detect,
    detect_frames,
    embed_chain,
    estimate_type1,
    generate_chain,
    generate_null_grid,
    longest_run_length,
    make_config,
    null_conditional_mean,
    resolve_area_rate,
    scan_statistic,
    significance_map,
)
from chainscan import _kernels, rates
from chainscan.detector import _resolve
from conftest import check_chain


@pytest.fixture(scope="module")
def config10():
    return make_config(10)


class TestConfig:
    def test_guard_rejects_dense_significance(self):
        # x* = 0 gives p = 0.5 >= 1/(2C+1)
        with pytest.raises(ValueError, match="1/\\(2C\\+1\\)"):
            make_config(10, C=1, x_star=0.0)

    def test_guard_scales_with_drift(self):
        make_config(6, C=1, x_star=1.2816)  # p = 0.1 < 1/3
        with pytest.raises(ValueError):
            make_config(6, C=5, x_star=1.2816)  # p = 0.1 >= 1/11

    def test_run_rate_provenance_enforced(self, config10):
        grid = generate_null_grid(7, 50, seed=0)
        with pytest.raises(ValueError, match="m = 10"):
            detect(grid, config10)

    def test_default_threshold_is_ninetieth_percentile(self, config10):
        assert config10.p == pytest.approx(0.1, abs=1e-12)

    def test_rejects_unknown_regime(self, config10):
        with pytest.raises(ValueError):
            make_config(4, regime="sideways")

    def test_rows_past_exact_rate_simulate_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run rate was estimated by Monte Carlo")

        monkeypatch.setattr(rates, "estimate_run_rate", refuse)
        assert make_config(50).run_rate.method == "exact-extrapolated"

    def test_rows_past_exact_rate_ignore_seed(self):
        assert make_config(50, seed=0).run_rate == make_config(50, seed=3).run_rate

    def test_growing_rows_simulate_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rate was estimated by Monte Carlo")

        for name in ("drawn_ahead", "bernoulli_stack"):
            monkeypatch.setattr(_kernels, name, refuse)
        monkeypatch.setattr(rates, "estimate_run_rate", refuse)
        cfg = make_config(12, regime="growing-m", seed=5)
        assert cfg == make_config(12, regime="growing-m", seed=0)
        grid = generate_null_grid(12, 200, seed=2)
        detect(grid, cfg)
        detect_frames([grid, grid], cfg, 5.0, 3.0)

    @pytest.mark.parametrize("area_rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_area_rate_must_be_finite_and_positive(self, config10, area_rate):
        with pytest.raises(ValueError, match="area_rate must be finite and positive"):
            DetectorConfig(C=1, x_star=config10.x_star, epsilon=config10.epsilon,
                           delta2=config10.delta2, run_rate=config10.run_rate,
                           regime="growing-m", area_rate=area_rate)


class TestDetect:
    def test_deterministic(self, config10):
        grid = generate_null_grid(10, 400, seed=8)
        assert detect(grid, config10) == detect(grid, config10)

    def test_all_insignificant_grid(self, config10):
        grid = ImageGrid(np.zeros((10, 50)))
        res = detect(grid, config10)
        assert not res.reject_null
        assert res.deciding_stage == "none"
        assert res.l0_length == 0
        assert res.x_star_s == UNREACHABLE
        assert res.witness is None

    def test_strong_chain_rejected_at_run_stage(self, config10):
        # full-width chain at mean 4: the run statistic alone should fire
        rejections = 0
        for seed in range(100):
            base = generate_null_grid(10, 60, seed=seed)
            chain = generate_chain(10, 60, 1, 60, seed=seed + 10_000)
            grid = embed_chain(base, chain, 4.0)
            res = detect(grid, config10)
            if res.reject_null:
                rejections += 1
                assert res.deciding_stage == "step1"
                assert res.witness is not None
        assert rejections >= 99

    def test_witness_is_valid_when_rejecting(self, config10):
        base = generate_null_grid(10, 80, seed=4)
        chain = generate_chain(10, 80, 1, 40, seed=5)
        grid = embed_chain(base, chain, 3.5)
        res = detect(grid, config10)
        assert res.reject_null
        sig = significance_map(grid, config10.x_star)
        length = check_chain(res.witness, sig, config10.C)
        if res.deciding_stage == "step1":
            assert length == res.l0_length

    def test_stage_semantics(self, config10):
        base = generate_null_grid(10, 300, seed=123)
        chain = generate_chain(10, 300, 1, 30, seed=9)
        grid = embed_chain(base, chain, 3.0)
        res = detect(grid, config10)
        thr = res.thresholds
        if res.deciding_stage == "step1":
            assert res.l0_length > thr.step1
            assert res.x_star_s is None
        elif res.deciding_stage == "step2":
            assert res.l0_length <= thr.step1
            assert res.x_star_s > thr.step2
        assert res.reject_null == (res.deciding_stage != "none")

    def test_step2_value_is_centered(self, config10):
        # the value detect reports is the one the Monte Carlo harness
        # thresholds: the batched kernel centered at lambda(x*)
        lam = null_conditional_mean(config10.x_star)
        for seed in range(5):
            grid = generate_null_grid(10, 400, seed=seed)
            res = detect(grid, config10)
            if res.x_star_s is None:
                continue
            sig = significance_map(grid, config10.x_star)
            cap = _resolve(config10, grid.m, grid.n)[1]
            batched = _kernels.scan_values(grid.values, sig.bits, config10.C, cap, lam)[0]
            raw = _kernels.scan_values(grid.values, sig.bits, config10.C, cap)[0]
            assert res.x_star_s == batched
            assert res.x_star_s < raw

    def test_one_run_stage_pass_per_grid(self, config10, monkeypatch):
        # Step I takes its length, end and witness from one run-stage pass, and a
        # grid that reaches Step II runs that pass once too
        calls = []
        chain_ends = _kernels._chain_ends
        monkeypatch.setattr(_kernels, "_chain_ends",
                            lambda *a: calls.append(1) or chain_ends(*a))
        base = generate_null_grid(10, 2000, seed=1)
        grid = embed_chain(base, generate_chain(10, 2000, 1, 600, seed=2), 4.0)
        null = generate_null_grid(10, 2000, seed=9)
        for g, stage in ((grid, "step1"), (null, "none")):
            calls.clear()
            res = detect(g, config10)
            assert res.deciding_stage == stage and len(calls) == 1
        sig = significance_map(grid, config10.x_star)
        res = detect(grid, config10)
        assert res.l0_length > 400  # about 400 packed layers, then the live-cell list
        assert res.witness == longest_run_length(sig, config10.C).witness
        assert check_chain(res.witness, sig, config10.C) == res.l0_length

    def test_u_override_validated(self):
        cfg = make_config(10, U_override=100)
        grid = generate_null_grid(10, 50, seed=1)
        with pytest.raises(ValueError, match="exceeds"):
            detect(grid, cfg)

    def test_growing_rows_regime_runs(self):
        cfg = make_config(12, regime="growing-m")
        assert cfg.area_rate == resolve_area_rate(1, cfg.p)
        grid = generate_null_grid(12, 200, seed=2)
        res = detect(grid, cfg)
        assert res.deciding_stage in ("step1", "step2", "none")


# each detection entry point on one m x n grid shape under a config
_ENTRY_POINTS = {
    "detect": lambda cfg, m, n: detect(ImageGrid(np.zeros((m, n))), cfg),
    "detect_frames": lambda cfg, m, n: detect_frames([ImageGrid(np.zeros((m, n)))], cfg,
                                                     5, 5.0),
    "estimate_type1": lambda cfg, m, n: estimate_type1(ExperimentSpec(
        m=m, n=n, epsilon=cfg.epsilon, delta2=cfg.delta2, trials=50, seed=0)),
    "calibrate_alarms": lambda cfg, m, n: calibrate_alarms(m, n, cfg.C, cfg.x_star, 1.0,
                                                           50, 0, config=cfg),
}


class TestResolve:
    """Every entry point checks a config against the grid shape before any stage."""

    @pytest.mark.parametrize("knobs", [dict(epsilon=-3.0), dict(delta2=-0.99999)])
    def test_growing_rows_knobs_must_be_positive(self, knobs):
        cfg = make_config(12, regime="growing-m", **knobs)
        with pytest.raises(ValueError, match="epsilon and delta2 must be positive"):
            detect(generate_null_grid(12, 200, seed=2), cfg)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("knobs", [dict(epsilon=math.nan), dict(delta2=math.nan),
                                       dict(epsilon=math.inf), dict(delta2=math.inf)])
    def test_non_finite_knobs_rejected(self, entry, knobs):
        with pytest.raises(ValueError, match="epsilon and delta2 must be positive and finite"):
            _ENTRY_POINTS[entry](make_config(6, **knobs), 6, 40)

    @pytest.mark.parametrize("entry, regime", [("detect", "fixed-m"), ("detect", "growing-m"),
                                               ("detect_frames", "fixed-m"),
                                               ("calibrate_alarms", "fixed-m")])
    def test_single_column_rejected(self, entry, regime):
        with pytest.raises(ValueError, match="need n >= 2 and m >= 1, got n=1, m=6"):
            _ENTRY_POINTS[entry](make_config(6, regime=regime), 6, 1)

    @pytest.mark.parametrize("regime", ["fixed-m", "growing-m"])
    def test_u_override_checked_when_step1_decides(self, regime):
        base = generate_null_grid(10, 300, seed=1)
        grid = embed_chain(base, generate_chain(10, 300, 1, 200, seed=2), 4.0)
        assert detect(grid, make_config(10, regime=regime)).deciding_stage == "step1"
        with pytest.raises(ValueError, match="U_override 100000 exceeds n = 300"):
            detect(grid, make_config(10, regime=regime, U_override=100_000))


class TestMonotonePower:
    def test_rejection_rate_nondecreasing_in_mean(self):
        from chainscan import ExperimentSpec, LengthLaw, estimate_power

        rates = []
        for mu in (0.5, 1.5, 2.5, 4.0):
            spec = ExperimentSpec(
                m=10, n=200, length_law=LengthLaw("linear", 0.15), mu=mu,
                trials=200, seed=31,
            )
            est = estimate_power(spec)
            rates.append((est.rate, est.stderr))
        for (lo, se_lo), (hi, se_hi) in zip(rates, rates[1:]):
            slack = 2.0 * (se_lo**2 + se_hi**2) ** 0.5
            assert hi >= lo - slack, rates


class TestFrames:
    def test_empty_sequence(self, config10):
        assert detect_frames([], config10, 5, 5) == []

    @pytest.mark.parametrize("cuts, name", [((math.nan, 5.0), "l0_alarm"),
                                            ((5, math.nan), "scan_alarm")])
    def test_nan_cut_rejected(self, config10, cuts, name):
        frames = [generate_null_grid(10, 50, seed=0)]
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            detect_frames(frames, config10, *cuts)
        # an infinite cut switches its statistic's alarm off
        assert not detect_frames(frames, config10, math.inf, math.inf)[0].alarm

    def test_dimension_mismatch(self, config10):
        frames = [generate_null_grid(10, 20, seed=0), generate_null_grid(10, 21, seed=1)]
        with pytest.raises(ValueError, match="frame 1"):
            detect_frames(frames, config10, 5, 5)

    def test_null_frames_no_alarms_at_reference_cuts(self):
        # cuts (69, 7.7): the run cut exceeds the frame width entirely and the
        # scan cut sits far above the null scan distribution
        cfg = make_config(50)
        frames = [generate_null_grid(50, 50, seed=s) for s in range(50)]
        stats = detect_frames(frames, cfg, l0_alarm=69, scan_alarm=7.7)
        assert len(stats) == 50
        assert [s.index for s in stats] == list(range(50))
        assert sum(s.alarm for s in stats) == 0
        assert all(s.l0_length <= 50 for s in stats)

    def test_burst_frames_alarm_at_reference_cuts(self):
        cfg = make_config(50)
        burst = range(20, 26)
        for rep in range(20):
            frames = []
            for k in range(50):
                g = generate_null_grid(50, 50, seed=rep * 1000 + k)
                if k in burst:
                    chain = generate_chain(50, 50, 1, 30, seed=rep * 1000 + k + 500)
                    g = embed_chain(g, chain, 3.0)
                frames.append(g)
            stats = detect_frames(frames, cfg, l0_alarm=69, scan_alarm=7.7)
            alarmed = {s.index for s in stats if s.alarm}
            assert len(alarmed & set(burst)) >= 5, (rep, sorted(alarmed))
            assert not (alarmed - set(burst)), (rep, sorted(alarmed))

    @pytest.mark.parametrize("batch_cells", [None, 3000, 1])
    @pytest.mark.parametrize("count", [1, 8])
    def test_batched_matches_single_grid_statistics(self, config10, monkeypatch,
                                                    batch_cells, count):
        # 3000 cells hold 3 frames of 10 x 100, so 8 frames end in a partial batch
        if batch_cells is not None:
            monkeypatch.setattr(_kernels, "_BATCH_CELLS", batch_cells)
        frames = [generate_null_grid(10, 100, seed=s) for s in range(count - 1)]
        frames.insert(count // 2, ImageGrid(np.zeros((10, 100))))  # nothing significant
        stats = detect_frames(frames, config10, 6, 5.0)
        cap = _resolve(config10, 10, 100)[1]
        for k, (frame, st) in enumerate(zip(frames, stats)):
            sig = significance_map(frame, config10.x_star)
            length = longest_run_length(sig, config10.C).length
            value = scan_statistic(frame, sig, config10.C, cap).value
            assert (st.index, st.l0_length, st.x_star_s) == (k, length, value)
            assert st.alarm == (length > 6 or value > 5.0)
        assert len(stats) == count
        assert stats[count // 2].x_star_s == UNREACHABLE
