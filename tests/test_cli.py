import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import chainscan
from chainscan import generate_chain, embed_chain, generate_null_grid, write_csv_grid
from chainscan.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestRhoCommand:
    def test_exact_line_format(self):
        code, out, err = run_cli("rho", "--m", "4", "--C", "1", "--p", "0.1")
        assert code == 0
        assert out == "4,1,0.1,0.2460,exact-spectral\n"
        assert err == ""

    def test_golden_file(self, tmp_path):
        code, out, _ = run_cli("rho", "--m", "4", "--C", "1", "--p", "0.1")
        assert out == (GOLDEN / "rho_m4_p01.csv").read_text()

    def test_closed_form_entry(self):
        code, out, _ = run_cli("rho", "--m", "2", "--C", "1", "--p", "0.3")
        assert code == 0
        assert out.strip() == "2,1,0.3,0.5100,exact-spectral"

    def test_tol_reaches_perron_root(self):
        code, out, _ = run_cli("rho", "--m", "6", "--C", "1", "--p", "0.2", "--tol", "1e-13")
        rate = chainscan.perron_root(chainscan.build_transfer_operator(6, 1, 0.2), tol=1e-13)
        assert code == 0
        assert out == f"6,1,0.2,{rate.value:.4f},exact-spectral\n"

    def test_mc_requires_seed(self):
        code, out, err = run_cli("rho", "--m", "4", "--C", "1", "--p", "0.1",
                                 "--method", "mc")
        assert code == 2
        assert "--seed" in err

    def test_mc_with_seed(self):
        code, out, _ = run_cli("rho", "--m", "4", "--C", "1", "--p", "0.2",
                               "--method", "mc", "--ncols", "2000", "--trials", "5",
                               "--seed", "1")
        assert code == 0
        assert out.strip().endswith("monte-carlo")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_argument_error(self, tol):
        code, out, err = run_cli("rho", "--m", "4", "--C", "1", "--p", "0.2", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "finite and positive" in err

    def test_mc_without_rows_is_argument_error(self):
        code, out, err = run_cli("rho", "--m", "0", "--C", "1", "--p", "0.1", "--method", "mc",
                                 "--seed", "1", "--ncols", "2000", "--trials", "2")
        assert code == 2
        assert out == ""
        assert "need m >= 1, got 0" in err

    def test_rows_past_exact_rate_are_extrapolated(self):
        code, out, err = run_cli("rho", "--m", "30", "--C", "1", "--p", "0.1")
        rate = chainscan.resolve_run_rate(30, 1, 0.1)
        assert code == 0 and err == ""
        assert out == f"30,1,0.1,{rate.value:.4f},exact-extrapolated\n"

    def test_extrapolation_limit_is_argument_error(self):
        code, out, err = run_cli("rho", "--m", "21", "--C", "1", "--p", "0.8")
        assert code == 2
        assert out == ""
        assert "extrapolated run rate" in err and "not below 1" in err


class TestMuTableCommand:
    @pytest.mark.parametrize("mode,golden", [
        ("power", "mu_table_power.csv"),
        ("sqrt", "mu_table_sqrt.csv"),
        ("log", "mu_table_log.csv"),
    ])
    def test_golden(self, mode, golden):
        code, out, err = run_cli("mu-table", "--mode", mode, "--m", "10", "--C", "1",
                                 "--rho", "0.2691", "--xstar", "1.2816")
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text()

    def test_power_layout(self):
        _, out, _ = run_cli("mu-table", "--mode", "power", "--m", "10", "--C", "1",
                            "--alpha", "1", "--rho", "0.2691", "--xstar", "1.2816")
        lines = out.strip().splitlines()
        assert lines[0] == "n,1/10,1/5,1/4,1/3,1/2,1"
        assert len(lines) == 10
        assert all(len(line.split(",")) == 7 for line in lines)

    def test_rho_computed_when_omitted(self):
        _, out, _ = run_cli("mu-table", "--mode", "log", "--m", "10", "--C", "1",
                            "--xstar", "1.2816")
        assert len(out.strip().splitlines()) == 7

    def test_rate_past_exact_rows_is_extrapolated(self):
        code, out, err = run_cli("mu-table", "--mode", "power", "--m", "30", "--C", "1",
                                 "--xstar", "1.2816")
        rate = chainscan.resolve_run_rate(30, 1, 1.0 - chainscan.normal_cdf(1.2816))
        assert rate.method == "exact-extrapolated"
        assert code == 0 and err == ""
        assert out == run_cli("mu-table", "--mode", "power", "--m", "30", "--C", "1",
                              "--xstar", "1.2816", "--rho", repr(rate.value))[1]

    def test_capacity_error_is_argument_error(self, monkeypatch):
        # with the guard below the fit's rows, the m = 30 rate needs an exact
        # operator that build_transfer_operator refuses
        monkeypatch.setattr(chainscan.rates, "MAX_EXACT_ROWS", 5)
        code, out, err = run_cli("mu-table", "--mode", "power", "--m", "30", "--C", "1",
                                 "--xstar", "1.2816")
        assert code == 2
        assert out == ""
        assert "exact operator guarded to m <= 5" in err

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_log_mode_rows_below_one_is_argument_error(self, m):
        code, out, err = run_cli("mu-table", "--mode", "log", "--m", m)
        assert code == 2
        assert out == ""
        assert f"need m >= 1, got m={m}" in err

    @pytest.mark.parametrize("mode", ["power", "sqrt"])
    @pytest.mark.parametrize("geometry, message", [(("--m", "0"), "need m >= 1, got 0"),
                                                   (("--C", "0"), "need C >= 1, got 0")])
    def test_given_rho_still_checks_geometry(self, mode, geometry, message):
        for rho in (("--rho", "0.2691"), ()):  # as without --rho
            code, out, err = run_cli("mu-table", "--mode", mode, *geometry, *rho)
            assert code == 2
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("mode, knob, message", [
        ("log", "--delta2", "need delta2 > 0 and finite"),
        ("sqrt", "--epsilon", "need eps > 0 and finite"),
        ("power", "--epsilon", "need eps > 0 and finite"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_knob_is_argument_error(self, mode, knob, message, value):
        code, out, err = run_cli("mu-table", "--mode", mode, "--rho", "0.2691", knob, value)
        assert code == 2 and out == ""
        assert message in err

    def test_out_file(self, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run_cli("mu-table", "--mode", "log", "--m", "10", "--C", "1",
                               "--rho", "0.2691", "--xstar", "1.2816",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "mu_table_log.csv").read_text()


class TestDetectCommand:
    def test_missing_input(self):
        code, out, err = run_cli("detect", "--input", "missing.csv")
        assert code == 2
        assert "missing.csv" in err
        assert out == ""

    def test_non_ascii_input_names_its_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"2,2\n1,2\n1,\xe9\n")
        code, out, err = run_cli("detect", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 3: non-ASCII byte 0xe9\n"

    def test_json_output_on_csv(self, tmp_path):
        grid = generate_null_grid(10, 120, seed=3)
        chain = generate_chain(10, 120, 1, 120, seed=4)
        grid = embed_chain(grid, chain, 4.0)
        path = tmp_path / "g.csv"
        write_csv_grid(grid, path)
        code, out, err = run_cli("detect", "--input", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["reject"] is True
        assert payload["stage"] == "step1"
        assert payload["l0"] > 0
        assert payload["witness"]["rows"]
        assert set(payload["thresholds"]) == {"step1", "step2", "x_star"}

    def test_pgm_input(self, tmp_path):
        # a dim image with a threshold above every pixel: runs mechanically
        # and accepts the null (raw intensities are the caller's problem)
        path = tmp_path / "g.pgm"
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 4, size=(10, 40)).astype(np.uint8)
        path.write_bytes(b"P5\n40 10\n255\n" + raw.tobytes())
        code, out, err = run_cli("detect", "--input", str(path), "--xstar", "4.0")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["reject"] is False and payload["l0"] == 0

    def test_overflowing_threshold_reports_clearly(self, tmp_path):
        grid = generate_null_grid(4, 20, seed=1)
        path = tmp_path / "g.csv"
        write_csv_grid(grid, path)
        code, _, err = run_cli("detect", "--input", str(path), "--xstar", "40")
        assert code == 2
        assert "standardize" in err

    @pytest.mark.parametrize("knob", [("--epsilon", "nan"), ("--delta2", "nan"),
                                      ("--epsilon", "inf"),
                                      ("--regime", "growing-m", "--epsilon", "-3")])
    def test_bad_knob_is_argument_error(self, tmp_path, knob):
        path = tmp_path / "g.csv"
        write_csv_grid(generate_null_grid(10, 60, seed=1), path)
        code, out, err = run_cli("detect", "--input", str(path), *knob)
        assert code == 2 and out == ""
        assert "epsilon and delta2 must be positive and finite" in err

    def test_u_cap_above_columns_is_argument_error(self, tmp_path):
        # Step I decides this grid, so the scan stage that reads the cap never runs
        grid = generate_null_grid(10, 300, seed=1)
        grid = embed_chain(grid, generate_chain(10, 300, 1, 200, seed=2), 4.0)
        path = tmp_path / "g.csv"
        write_csv_grid(grid, path)
        code, out, err = run_cli("detect", "--input", str(path))
        assert code == 0 and json.loads(out)["stage"] == "step1"
        code, out, err = run_cli("detect", "--input", str(path), "--u-cap", "100000")
        assert code == 2 and out == ""
        assert "exceeds n = 300" in err

    def test_unknown_flag(self):
        code, _, err = run_cli("detect", "--input", "x.csv", "--bogus", "1")
        assert code == 2

    def test_rows_past_exact_rate_need_no_seed(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv_grid(generate_null_grid(21, 30, seed=2), path)
        code, out, err = run_cli("detect", "--input", str(path))
        assert code == 0, err
        assert run_cli("detect", "--input", str(path)) == (0, out, "")
        json.loads(out)

    def test_growing_rows_need_no_seed(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv_grid(generate_null_grid(10, 30, seed=2), path)
        argv = ("detect", "--input", str(path), "--regime", "growing-m")
        code, out, err = run_cli(*argv)
        assert code == 0 and err == ""
        assert run_cli(*argv) == (0, out, "")
        code, out, err = run_cli(*argv, "--seed", "1")
        assert code == 2 and out == ""
        assert "--seed" in err


class TestFramesCommand:
    def test_csv_output(self, tmp_path):
        folder = tmp_path / "frames"
        folder.mkdir()
        for k in range(6):
            write_csv_grid(generate_null_grid(10, 50, seed=k), folder / f"f{k:03d}.csv")
        code, out, err = run_cli("frames", "--dir", str(folder),
                                 "--l0-alarm", "69", "--scan-alarm", "7.7")
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "frame,l0,xs,alarm"
        assert len(lines) == 7
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == k
            assert cells[3] in ("0", "1")

    @pytest.mark.parametrize("cut", ["--l0-alarm", "--scan-alarm"])
    def test_nan_cut_is_argument_error(self, tmp_path, cut):
        write_csv_grid(generate_null_grid(10, 50, seed=0), tmp_path / "f0.csv")
        cuts = {"--l0-alarm": "69", "--scan-alarm": "7.7", cut: "nan"}
        code, out, err = run_cli("frames", "--dir", str(tmp_path),
                                 *(arg for pair in cuts.items() for arg in pair))
        assert code == 2 and out == ""
        assert f"{cut[2:].replace('-', '_')} must not be NaN" in err

    def test_missing_dir(self):
        code, _, err = run_cli("frames", "--dir", "nowhere", "--l0-alarm", "5",
                               "--scan-alarm", "5")
        assert code == 2
        assert "nowhere" in err

    def test_empty_dir(self, tmp_path):
        code, _, err = run_cli("frames", "--dir", str(tmp_path), "--l0-alarm", "5",
                               "--scan-alarm", "5")
        assert code == 2

    def test_shape_mismatch_names_both_files(self, tmp_path):
        write_csv_grid(generate_null_grid(10, 30, seed=0), tmp_path / "a.csv")
        write_csv_grid(generate_null_grid(10, 30, seed=1), tmp_path / "b.csv")
        write_csv_grid(generate_null_grid(10, 20, seed=2), tmp_path / "c.csv")
        code, out, err = run_cli("frames", "--dir", str(tmp_path), "--l0-alarm", "5",
                                 "--scan-alarm", "5")
        assert code == 2 and out == ""
        assert f"{tmp_path / 'c.csv'} is 10x20, expected 10x30 as in {tmp_path / 'a.csv'}" in err


class TestSimulateCommand:
    def test_runs_both_kinds(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "m": 8, "n": 200, "mu": 2.0, "trials": 60,
            "length_law": {"kind": "linear", "coef": 0.2}, "seed": 11,
        }))
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,rate,stderr,trials")
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["type1", "power"]
        for line in lines[1:]:
            rate = float(line.split(",")[1])
            assert 0.0 <= rate <= 1.0

    def test_type1_only_when_no_signal(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 6, "n": 150, "trials": 50, "seed": 2}))
        code, out, _ = run_cli("simulate", "--spec", str(spec))
        assert code == 0
        kinds = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert kinds == ["type1"]

    def test_seed_required(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 6, "n": 150, "trials": 50}))
        code, _, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("key", ["m", "n", "kind", "coef"])
    def test_missing_key_is_usage_error(self, tmp_path, key):
        raw = {"m": 6, "n": 150, "trials": 50, "seed": 5,
               "length_law": {"kind": "linear", "coef": 0.2}}
        raw.pop(key, None)
        raw["length_law"].pop(key, None)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw))
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2 and out == ""
        assert f"'{key}'" in err

    @pytest.mark.parametrize("key,value", [
        ("m", "8"), ("m", 8.0), ("m", True), ("n", None), ("C", 1.5), ("trials", 50.0),
        ("seed", "1"), ("mu", "2"), ("mu", False), ("x_star", [1.2]), ("epsilon", "1e-4"),
        ("delta2", {}), ("length_law", "linear"), ("kind", 1), ("coef", "0.2"),
    ])
    def test_wrong_type_is_usage_error(self, tmp_path, key, value):
        raw = {"m": 6, "n": 150, "trials": 50, "seed": 5,
               "length_law": {"kind": "linear", "coef": 0.2}}
        (raw["length_law"] if key in ("kind", "coef") else raw)[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw))
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2 and out == ""
        assert f"'{key}'" in err

    @pytest.mark.parametrize("key,value,message", [
        *(("mu", v, "need a finite mu >= 0") for v in (math.nan, math.inf, -1.0)),
        *(("coef", v, "coef must be finite and positive") for v in (math.nan, math.inf, 0.0)),
    ])
    def test_out_of_range_number_is_usage_error(self, tmp_path, key, value, message):
        # json writes NaN and Infinity tokens, which the spec reader accepts as numbers
        raw = {"m": 6, "n": 150, "trials": 50, "seed": 5, "mu": 2.0,
               "length_law": {"kind": "linear", "coef": 0.2}}
        (raw["length_law"] if key == "coef" else raw)[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw))
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("where, key", [("spec JSON", "trails"),
                                            ("spec JSON key 'length_law'", "coeff")])
    def test_unknown_key_is_usage_error(self, tmp_path, where, key):
        raw = {"m": 6, "n": 200, "seed": 1, "length_law": {"kind": "linear", "coef": 0.2}}
        (raw if where == "spec JSON" else raw["length_law"])[key] = 5
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw))
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2 and out == ""
        assert f"{where} has unknown key '{key}'" in err

    def test_spec_must_be_an_object(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert code == 2 and out == ""
        assert "object" in err

    def test_non_ascii_spec_names_its_line(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"m": 6, "n": 150,\n "trials": 50, "seed": 5,\n "\xc3\xa9": 1}')
        code, out, err = run_cli("simulate", "--spec", str(spec))
        assert (code, out) == (2, "")
        assert err == f"error: {spec}: line 3: non-ASCII byte 0xc3\n"

    def test_threads_flag_removed(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 6, "n": 150, "trials": 50, "seed": 5}))
        code, out, err = run_cli("simulate", "--spec", str(spec), "--threads", "2")
        assert code == 2 and out == ""
        assert "--threads" in err

    def test_frames_threads_flag_removed(self, tmp_path):
        write_csv_grid(generate_null_grid(10, 50, seed=0), tmp_path / "f0.csv")
        code, out, err = run_cli("frames", "--dir", str(tmp_path), "--l0-alarm", "69",
                                 "--scan-alarm", "7.7", "--threads", "2")
        assert code == 2 and out == ""
        assert "--threads" in err

    def test_reproducible_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 6, "n": 150, "trials": 50, "seed": 5}))
        _, out1, _ = run_cli("simulate", "--spec", str(spec))
        _, out2, _ = run_cli("simulate", "--spec", str(spec))
        assert out1 == out2


class TestModuleEntry:
    """``python -m chainscan`` and ``python -m chainscan.cli`` run ``main``."""

    @staticmethod
    def run_module(module, *argv):
        src = str(Path(chainscan.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("module", ["chainscan", "chainscan.cli"])
    def test_detect_prints_json(self, tmp_path, module):
        grid = embed_chain(generate_null_grid(6, 80, seed=3),
                           generate_chain(6, 80, 1, 80, seed=4), 4.0)
        path = tmp_path / "g.csv"
        write_csv_grid(grid, path)
        done = self.run_module(module, "detect", "--input", str(path))
        assert done.returncode == 0, done.stderr
        _, expected, _ = run_cli("detect", "--input", str(path))
        assert json.loads(done.stdout) == json.loads(expected)
        assert json.loads(done.stdout)["stage"] == "step1"

    @pytest.mark.parametrize("module", ["chainscan", "chainscan.cli"])
    def test_exit_code_passes_through(self, module):
        done = self.run_module(module, "detect", "--input", "missing.csv")
        assert done.returncode == 2
        assert done.stdout == ""
        assert "missing.csv" in done.stderr


class TestExitCodes:
    def test_unknown_command(self):
        code, _, err = run_cli("nonsense")
        assert code == 2

    def test_stdout_purity(self, tmp_path):
        # diagnostics never leak into stdout
        code, out, err = run_cli("rho", "--m", "21", "--C", "1", "--p", "0.8")
        assert code == 2 and out == ""
