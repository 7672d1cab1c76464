import math
import threading

import numpy as np
import pytest

from chainscan import (
    ChainPath,
    ExperimentSpec,
    ImageGrid,
    LengthLaw,
    calibrate_alarms,
    config_for,
    detect,
    detect_frames,
    embed_chain,
    estimate_power,
    estimate_type1,
    generate_chain,
    generate_null_grid,
    make_config,
    significance_map,
)
from chainscan import _kernels
from chainscan import simulate as simulate_module
from chainscan.cli import main
from chainscan.detector import _resolve
from conftest import bernoulli_reference


class TestLengthLaw:
    def test_realizations(self):
        assert LengthLaw("linear", 0.2).realize(300) == 60
        assert LengthLaw("sqrt", 2.0).realize(400) == 40
        assert LengthLaw("log", 3.0).realize(1000) == round(3 * math.log(1000))
        assert LengthLaw("fixed", 17).realize(1000) == 17

    def test_floor_at_one(self):
        assert LengthLaw("log", 0.1).realize(10) == 1

    def test_over_length_rejected(self):
        with pytest.raises(ValueError):
            LengthLaw("fixed", 500).realize(100)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LengthLaw("cubic", 1.0)

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_coef_must_be_finite_and_positive(self, coef):
        with pytest.raises(ValueError, match="coef must be finite and positive"):
            LengthLaw("linear", coef)


class TestExperimentSpec:
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, -0.5])
    def test_mu_must_be_finite_and_non_negative(self, mu):
        with pytest.raises(ValueError, match="need a finite mu >= 0"):
            ExperimentSpec(m=6, n=100, mu=mu)

    def test_zero_mu_allowed(self):
        assert ExperimentSpec(m=6, n=100, mu=0.0).mu == 0.0


class TestEstimators:
    def test_reproducible(self):
        spec = ExperimentSpec(m=6, n=400, trials=60, seed=12)
        assert estimate_type1(spec) == estimate_type1(spec)
        spec_p = ExperimentSpec(m=6, n=400, mu=1.5, trials=60, seed=12,
                                length_law=LengthLaw("linear", 0.1))
        assert estimate_power(spec_p) == estimate_power(spec_p)

    def test_stderr_formula(self):
        est = estimate_type1(ExperimentSpec(m=6, n=400, trials=64, seed=3))
        assert est.stderr == pytest.approx(
            math.sqrt(est.rate * (1 - est.rate) / 64), abs=1e-12
        )
        assert est.kind == "type1" and est.trials == 64

    def test_rate_strictly_below_one_on_null(self):
        est = estimate_type1(ExperimentSpec(m=10, n=2000, trials=50, seed=2))
        assert est.rate < 1.0

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            estimate_type1(ExperimentSpec(m=4, n=100, trials=40, seed=0))

    def test_power_high_in_detectable_regime(self):
        spec = ExperimentSpec(m=10, n=300, length_law=LengthLaw("linear", 0.2),
                              mu=2.5, trials=100, seed=21)
        assert estimate_power(spec).rate >= 0.95

    def test_power_ordering_across_means(self):
        # mean at the detectability table value versus a weaker one
        base = dict(m=10, n=200, length_law=LengthLaw("linear", 0.1), trials=400,
                    seed=77)
        strong = estimate_power(ExperimentSpec(mu=1.2216, **base))
        weak = estimate_power(ExperimentSpec(mu=0.8, **base))
        gap = strong.rate - weak.rate
        assert gap >= 2.0 * math.sqrt(strong.stderr**2 + weak.stderr**2), (
            strong.rate, weak.rate,
        )

    def test_zero_mean_matches_null_rate(self):
        base = dict(m=8, n=500, trials=400, seed=9)
        t1 = estimate_type1(ExperimentSpec(**base))
        p0 = estimate_power(ExperimentSpec(mu=0.0, length_law=LengthLaw("fixed", 30),
                                           **base))
        assert abs(t1.rate - p0.rate) <= 3.0 * math.sqrt(t1.stderr**2 + p0.stderr**2)

    def test_fixed_chain_mode(self):
        chain = generate_chain(8, 300, 1, 45, seed=4)
        spec = ExperimentSpec(m=8, n=300, length_law=LengthLaw("fixed", 45),
                              mu=2.0, trials=60, seed=6)
        est = estimate_power(spec, fixed_chain=chain)
        assert 0.0 <= est.rate <= 1.0


class TestSharedConfig:
    SPEC = ExperimentSpec(m=6, n=300, mu=2.0, trials=50, seed=8,
                          length_law=LengthLaw("linear", 0.2))

    def test_passed_config_gives_same_estimates(self):
        config = config_for(self.SPEC)
        assert estimate_type1(self.SPEC, config=config) == estimate_type1(self.SPEC)
        assert estimate_power(self.SPEC, config=config) == estimate_power(self.SPEC)

    @pytest.mark.parametrize("change", [dict(m=7), dict(C=2), dict(x_star=1.5),
                                        dict(epsilon=0.01), dict(delta2=0.01)])
    def test_disagreeing_config_rejected(self, change):
        other = config_for(ExperimentSpec(**{**self.SPEC.__dict__, **change}))
        with pytest.raises(ValueError, match="disagrees with the spec"):
            estimate_type1(self.SPEC, config=other)
        with pytest.raises(ValueError, match="disagrees with the spec"):
            estimate_power(self.SPEC, config=other)

    def test_simulate_command_resolves_once(self, tmp_path, monkeypatch):
        calls = []
        real = simulate_module.make_config
        monkeypatch.setattr(simulate_module, "make_config",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        spec = tmp_path / "spec.json"
        spec.write_text('{"m": 6, "n": 300, "mu": 2.0, "trials": 50, "seed": 8}')
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


class TestOneRule:
    """The Monte Carlo estimators reject exactly the trials that ``detect`` rejects."""

    SPEC = ExperimentSpec(m=6, n=200, mu=3.0, epsilon=1.0, trials=60, seed=5,
                          length_law=LengthLaw("fixed", 4))
    # 300-node random chains at C = 2: nine doubling rounds per batched walk
    LONG_SPEC = ExperimentSpec(m=6, n=600, C=2, mu=1.2, epsilon=1.0, trials=60, seed=5,
                               length_law=LengthLaw("linear", 0.5))

    @staticmethod
    def _decisions(spec, config, power):
        """``detect``'s stage and l0 on each trial grid, replaying the estimator's draws
        batch by batch: the bits (one byte per cell, then the tie uniforms);
        for power, the batch's start columns, first rows and steps, then fresh
        values on the planted cells; then tail values on the other set bits of
        the trials that Step I leaves.

        Step I reads only the bits, so it decides each trial first on a grid
        whose set bits hold a placeholder above x*; off bits hold one below.
        """
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 2 if power else 1]))
        m, n, C = spec.m, spec.n, spec.C
        length = spec.length_law.realize(n)
        above, below = config.x_star + 1.0, config.x_star - 1.0
        stages, l0 = [], []
        for t in _kernels.trial_batches(spec.trials, m, n):
            x = np.where(bernoulli_reference(rng, (t, m, n), config.p), above, below)
            planted = np.zeros(x.shape, dtype=bool)
            if power:
                starts = 1 + rng.integers(0, n - length + 1, size=t)
                firsts = 1 + rng.integers(0, m, size=t)
                steps = rng.integers(-C, C + 1, size=(t, length - 1))
                values = spec.mu + rng.standard_normal((t, length))
                for k in range(t):
                    rows = [int(firsts[k])]
                    for step in steps[k]:  # the walk clamped to [1, m]
                        rows.append(min(max(rows[-1] + int(step), 1), m))
                    chain = ChainPath(int(starts[k]), rows)
                    chain.validate(m, n, C)
                    cells = np.asarray(chain.rows) - 1, np.arange(chain.start_col - 1,
                                                                  chain.end_col)
                    x[k][cells] = values[k]
                    planted[k][cells] = True
            results = [detect(ImageGrid(grid), config) for grid in x]
            batch = [res.deciding_stage for res in results]
            l0 += [res.l0_length for res in results]
            keep = [k for k, stage in enumerate(batch) if stage != "step1"]
            x, tail = x[keep], (x[keep] > config.x_star) & ~planted[keep]
            x[tail] = _kernels._normal_tail(rng, np.count_nonzero(tail), config.x_star)
            for k, grid in zip(keep, x):
                batch[k] = detect(ImageGrid(grid), config).deciding_stage
                assert batch[k] != "step1"  # the values do not change the bits
            stages += batch
        return stages, l0

    @pytest.mark.parametrize("batch_cells", [None, 1])
    def test_rates_count_detect_rejections(self, monkeypatch, batch_cells):
        if batch_cells is not None:  # one trial per batch
            monkeypatch.setattr(_kernels, "_BATCH_CELLS", batch_cells)
        config = config_for(self.SPEC)
        for estimate, power in ((estimate_type1, False), (estimate_power, True)):
            decided, _ = self._decisions(self.SPEC, config, power)
            hits = sum(stage != "none" for stage in decided)
            assert estimate(self.SPEC, config=config).rate == hits / self.SPEC.trials
        assert set(decided) == {"step1", "step2", "none"}  # the power stack tests both stages

    @pytest.mark.parametrize("batch_cells", [None, 1])
    def test_long_random_chains_count_detect_rejections(self, monkeypatch, batch_cells):
        # a rejection count can agree by chance, so the run stage's lengths must
        # agree trial by trial too: the loop reads min(l0, stop) of each trial
        if batch_cells is not None:  # one trial per batch, else two batches
            monkeypatch.setattr(_kernels, "_BATCH_CELLS", batch_cells)
        spec = self.LONG_SPEC
        config = config_for(spec)
        decided, l0 = self._decisions(spec, config, power=True)
        hits = sum(stage != "none" for stage in decided)
        assert 0 < hits < spec.trials
        seen, chain_lengths = [], _kernels.chain_lengths

        def recorded(*args, **kwargs):  # each call's stop and lengths
            seen.append((kwargs["stop"], chain_lengths(*args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(_kernels, "chain_lengths", recorded)
        assert estimate_power(spec, config=config).rate == hits / spec.trials
        stop = math.floor(_resolve(config, spec.m, spec.n)[0].step1) + 1
        assert {s for s, _ in seen} == {stop}
        assert np.concatenate([lengths for _, lengths in seen]).tolist() == [
            min(length, stop) for length in l0]
        assert max(l0) > stop > min(l0)  # the stop caps some trials and not others


class TestDrawAheadWorker:
    """The rejection loop starts no thread; alarm calibration joins its
    draw-ahead worker on return and on error."""

    def test_rejection_loop_starts_no_thread(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the rejection loop drew ahead")

        monkeypatch.setattr(_kernels, "drawn_ahead", refuse)
        spec = ExperimentSpec(m=6, n=50, mu=2.0, trials=50, seed=1)
        config = config_for(spec)
        start = threading.active_count()
        estimate_type1(spec, config)
        estimate_power(spec, config=config)
        assert threading.active_count() == start

    def test_worker_joined(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_BATCH_CELLS", 6 * 50)  # one trial per batch
        config = make_config(6)

        def call():
            return calibrate_alarms(6, 50, 1, config.x_star, alpha=1.0, trials=50, seed=1,
                                    config=config)

        start = threading.active_count()
        call()
        assert threading.active_count() == start

        def fail(*args):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(simulate_module, "_stack_stats", fail)
        with pytest.raises(RuntimeError, match="scoring failed"):
            call()
        assert threading.active_count() == start


class TestEmbeddedSubRunLaw:
    def test_longest_sub_run_tracks_single_row_law(self):
        # within a planted chain the significance sequence is an i.i.d. coin
        # with the signal's exceedance probability; its longest run follows
        # the single-row growth law
        m, n, C, mu, x_star = 10, 10_000, 1, 1.0, 1.2816
        length = n  # plant a full-width chain: 10^4 nodes
        from chainscan import normal_cdf

        p1 = 1.0 - normal_cdf(x_star - mu)
        target = math.log(length) / math.log(1.0 / p1)
        ratios = []
        for seed in range(40):
            base = generate_null_grid(m, n, seed=seed)
            chain = generate_chain(m, n, C, length, seed=seed + 999)
            grid = embed_chain(base, chain, mu)
            rows = np.asarray(chain.rows) - 1
            cols = np.arange(chain.start_col - 1, chain.end_col)
            node_bits = grid.values[rows, cols] > x_star
            run = _kernels.chain_lengths(node_bits[None, :], C=0)[0]
            ratios.append(run / target)
        mean_ratio = float(np.mean(ratios))
        assert 0.85 <= mean_ratio <= 1.15, mean_ratio


class TestCalibration:
    def test_quantile_ordering(self):
        cfg = make_config(10)
        l0_cut, scan_cut = calibrate_alarms(10, 200, 1, cfg.x_star, alpha=0.05,
                                            trials=1000, seed=3, config=cfg)
        lengths = []
        for seed in range(200):
            sig = significance_map(generate_null_grid(10, 200, seed=seed), cfg.x_star)
            lengths.append(_kernels.chain_lengths(sig.bits, 1)[0])
        assert l0_cut >= float(np.median(lengths))
        assert scan_cut > 0

    def test_closure_alarm_rate(self):
        alpha, trials = 0.05, 1200
        cfg = make_config(10)
        cuts = calibrate_alarms(10, 150, 1, cfg.x_star, alpha=alpha, trials=trials,
                                seed=8, config=cfg)
        frames = [generate_null_grid(10, 150, seed=50_000 + s) for s in range(1000)]
        stats = detect_frames(frames, cfg, *cuts)
        rate = sum(s.alarm for s in stats) / len(stats)
        assert rate <= alpha + 3.0 * math.sqrt(alpha / trials), rate

    def test_degenerate_level_floods_alarms(self):
        # alpha = 1 puts both cuts at the medians; most null frames then alarm
        cfg = make_config(10)
        cuts = calibrate_alarms(10, 150, 1, cfg.x_star, alpha=1.0, trials=400,
                                seed=4, config=cfg)
        frames = [generate_null_grid(10, 150, seed=90_000 + s) for s in range(300)]
        stats = detect_frames(frames, cfg, *cuts)
        rate = sum(s.alarm for s in stats) / len(stats)
        assert rate >= 0.4, rate

    @pytest.mark.parametrize("change", [dict(m=11), dict(C=2), dict(x_star=1.5)])
    def test_disagreeing_config_rejected(self, change):
        args = dict(m=10, C=1, x_star=make_config(10).x_star)
        config = make_config(**{**args, **change})
        with pytest.raises(ValueError, match=r"disagrees with the call: \(m, C, x_star\)"):
            calibrate_alarms(args["m"], 100, args["C"], args["x_star"], alpha=0.05,
                             trials=1000, seed=0, config=config)

    def test_insufficient_trials_rejected(self):
        with pytest.raises(ValueError, match="1000"):
            calibrate_alarms(10, 100, 1, 1.2816, alpha=0.05, trials=500, seed=0)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            calibrate_alarms(10, 100, 1, 1.2816, alpha=0.0, trials=100, seed=0)
