"""Scenario parsing, subcommand dispatch, exit codes, CSV determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fdcurves import cli
from fdcurves.cli import Scenario, ScenarioError, load_scenario, main
from fdcurves.sim import PathSet

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def affine_scenario(out_dir, **extra):
    base = {
        "model": {"builtin": "affine1-exp-identity"},
        "grid": {"kind": "chebyshev", "n": 40, "x_max": 5.0},
        "sigma": [[1.0]],
        "y_samples": [[1.0], [2.0]],
        "sim": {"dt": 0.01, "T": 0.5, "n_paths": 40, "seed": 7, "y0": [1.0]},
        "futures": [{"T1": 1.0, "T2": 2.0}],
        "reconstruct": {"y": [1.0], "n_steps": 1000, "x0": 0.0},
        "tolerance": 1e-6,
        "output_dir": str(out_dir),
    }
    base.update(extra)
    return base


def gaussian_scenario(out_dir, sigma=1.5):
    return {
        "model": {"type": "gaussian-example"},
        "grid": {"kind": "uniform", "n": 40, "x_max": 3.0},
        "sigma": [[sigma]],
        "y_samples": [[0.0]],
        "tolerance": 1e-6,
        "output_dir": str(out_dir),
    }


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- scenario parsing -----------------------------------------------------------


def test_scenario_round_trip(tmp_path):
    raw = affine_scenario(tmp_path / "out")
    s = Scenario.from_dict(raw)
    assert Scenario.from_dict(s.to_dict()).to_dict() == raw


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="bogus"):
        Scenario.from_dict({"model": {"builtin": "affine1-exp-identity"},
                            "bogus": 1})
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"model": {"builtin": "affine1-exp-identity"},
                            "sim": {"dt": 0.1, "T": 1.0, "n_paths": 1,
                                    "seed": 0, "y0": [0.0], "oops": 2}})


def test_scenario_requires_model():
    with pytest.raises(ScenarioError, match="model"):
        Scenario.from_dict({"sigma": [[1.0]]})


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


# -- exit-code contract -----------------------------------------------------------


def test_check_drift_affine_passes(tmp_path, capsys):
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["check-drift", "--scenario", scenario]) == 0
    assert "DRIFT-OK" in capsys.readouterr().out


def test_check_drift_gaussian_off_vol_fails(tmp_path, capsys):
    scenario = write_scenario(tmp_path, gaussian_scenario(tmp_path / "out"))
    assert main(["check-drift", "--scenario", scenario]) == 1
    assert "DRIFT-VIOLATION" in capsys.readouterr().out


def test_malformed_scenario_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{definitely not json")
    assert main(["check-drift", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().out


def test_unknown_scenario_key_is_config_error(tmp_path):
    scenario = write_scenario(
        tmp_path, {**affine_scenario(tmp_path / "out"), "surprise": True})
    assert main(["check-drift", "--scenario", scenario]) == 2


def test_simulate_zero_paths_is_config_error(tmp_path):
    raw = affine_scenario(tmp_path / "out")
    raw["sim"]["n_paths"] = 0
    scenario = write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", scenario]) == 2


def test_missing_required_section_is_config_error(tmp_path):
    raw = affine_scenario(tmp_path / "out")
    del raw["futures"]
    scenario = write_scenario(tmp_path, raw)
    assert main(["price", "--scenario", scenario]) == 2


# -- subcommand behaviour -----------------------------------------------------------


def test_scc_probe_verdict_lines(tmp_path, capsys):
    ok = write_scenario(tmp_path, affine_scenario(tmp_path / "out_a"), "a.json")
    assert main(["scc-probe", "--scenario", ok]) == 0
    bad = write_scenario(tmp_path, gaussian_scenario(tmp_path / "out_g"), "g.json")
    assert main(["scc-probe", "--scenario", bad]) == 1
    out = capsys.readouterr().out
    assert "AFFINE-CONSISTENT" in out
    assert "SCC-VIOLATION (residual=" in out


def test_detect_affine_summary_rank(tmp_path, capsys):
    raw = {
        "model": {"builtin": "affine2-identity"},
        "y_samples": np.random.default_rng(3).uniform(-1, 1, (8, 2)).tolist(),
        "base_y": [0.0, 0.0],
        "output_dir": str(tmp_path / "out"),
    }
    scenario = write_scenario(tmp_path, raw)
    assert main(["detect-affine", "--scenario", scenario]) == 0
    assert "rank=2" in capsys.readouterr().out
    sv_lines = (tmp_path / "out" / "singular_values.csv").read_text().splitlines()
    assert sv_lines[0] == "index,value"
    assert len(sv_lines) == 9
    # a sloppy cutoff collapses everything onto the leading direction
    assert main(["detect-affine", "--scenario", scenario,
                 "--rank-tol", "0.99"]) == 0
    assert "rank=1" in capsys.readouterr().out


def test_price_prints_six_decimals(tmp_path, capsys):
    raw = affine_scenario(tmp_path / "out")
    raw["y_samples"] = [[1.0]]
    scenario = write_scenario(tmp_path, raw)
    assert main(["price", "--scenario", scenario]) == 0
    assert "0.232544" in capsys.readouterr().out


def test_simulate_writes_loadable_paths(tmp_path):
    out = tmp_path / "out"
    scenario = write_scenario(tmp_path, affine_scenario(out))
    assert main(["simulate", "--scenario", scenario]) == 0
    ps = PathSet.load(out / "paths.bin")
    assert ps.n_paths == 40
    assert (out / "paths.csv").read_text().startswith("path,time,y_1")
    assert json.loads((out / "run_result.json").read_text())["command"] == "simulate"


def test_martingale_csv_and_verdict(tmp_path, capsys):
    out = tmp_path / "out"
    scenario = write_scenario(tmp_path, affine_scenario(out))
    assert main(["martingale-test", "--scenario", scenario]) == 0
    assert "MARTINGALE-OK" in capsys.readouterr().out
    header = (out / "martingale.csv").read_text().splitlines()[0]
    assert header == "T1,T2,drift_estimate,std_error,z_score"


def test_martingale_violation_exit_code(tmp_path, capsys):
    raw = affine_scenario(tmp_path / "out", z_max=1e-6)
    scenario = write_scenario(tmp_path, raw)
    assert main(["martingale-test", "--scenario", scenario]) == 1
    assert "MARTINGALE-VIOLATION" in capsys.readouterr().out


def test_estimate_vol_from_saved_paths(tmp_path, capsys):
    out1 = tmp_path / "out1"
    scenario = write_scenario(tmp_path, affine_scenario(out1), "sim.json")
    assert main(["simulate", "--scenario", scenario]) == 0
    raw = affine_scenario(tmp_path / "out2",
                          paths_file=str(out1 / "paths.bin"))
    scenario2 = write_scenario(tmp_path, raw, "vol.json")
    capsys.readouterr()
    assert main(["estimate-vol", "--scenario", scenario2]) == 0
    captured = capsys.readouterr()
    assert "sigma_sq_hat=" in captured.out
    assert captured.err == ""
    header = (tmp_path / "out2" / "vol.csv").read_text().splitlines()[0]
    assert header == "i,j,value"
    result = json.loads((tmp_path / "out2" / "run_result.json").read_text())
    assert result["numbers"]["paths_simulated"] == 0


def test_estimate_vol_says_when_it_simulates(tmp_path, capsys):
    out = tmp_path / "out"
    scenario = write_scenario(tmp_path, affine_scenario(out))
    assert main(["estimate-vol", "--scenario", scenario, "--seed", "11"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("sigma_sq_hat=")
    assert captured.out.count("\n") == 1
    assert "simulated n_paths=40 seed=11" in captured.err
    result = json.loads((out / "run_result.json").read_text())
    assert result["numbers"]["paths_simulated"] == 40


def test_reconstruct_matches_direct_evaluation(tmp_path, capsys):
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["reconstruct", "--scenario", scenario]) == 0
    assert "abs_error" in capsys.readouterr().out


# -- determinism and overrides ---------------------------------------------------------


def test_runs_are_byte_identical(tmp_path):
    for cmd, fname in (("check-drift", "residuals.csv"),
                       ("martingale-test", "martingale.csv"),
                       ("simulate", "paths.csv")):
        blobs = []
        for run in ("one", "two"):
            out = tmp_path / f"{cmd}-{run}"
            scenario = write_scenario(tmp_path, affine_scenario(out),
                                      f"{cmd}-{run}.json")
            assert main([cmd, "--scenario", scenario]) in (0, 1)
            blobs.append((out / fname).read_bytes())
        assert blobs[0] == blobs[1], cmd


def test_seed_override_changes_paths(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    sc1 = write_scenario(tmp_path, affine_scenario(out1), "s1.json")
    sc2 = write_scenario(tmp_path, affine_scenario(out2), "s2.json")
    assert main(["simulate", "--scenario", sc1]) == 0
    assert main(["simulate", "--scenario", sc2, "--seed", "99"]) == 0
    a = PathSet.load(out1 / "paths.bin")
    b = PathSet.load(out2 / "paths.bin")
    assert b.seed == 99
    assert not np.array_equal(a.paths, b.paths)


def test_n_paths_override(tmp_path):
    out = tmp_path / "out"
    scenario = write_scenario(tmp_path, affine_scenario(out))
    assert main(["simulate", "--scenario", scenario, "--n-paths", "5"]) == 0
    assert PathSet.load(out / "paths.bin").n_paths == 5


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    raw = affine_scenario(tmp_path / "ignored")
    del raw["output_dir"]
    scenario = write_scenario(tmp_path, raw)
    target = tmp_path / "from_env"
    monkeypatch.setenv("FDCURVES_OUTPUT_DIR", str(target))
    assert main(["check-drift", "--scenario", scenario]) == 0
    assert (target / "residuals.csv").exists()


def test_residuals_csv_header(tmp_path):
    out = tmp_path / "out"
    scenario = write_scenario(tmp_path, affine_scenario(out))
    main(["check-drift", "--scenario", scenario])
    header = (out / "residuals.csv").read_text().splitlines()[0]
    assert header == "y_index,sigma_label,residual_rms,residual_max,rank_ok"


def test_run_result_repeats_summary_numbers(tmp_path, capsys):
    out = tmp_path / "out"
    scenario = write_scenario(tmp_path, affine_scenario(out))
    main(["martingale-test", "--scenario", scenario])
    capsys.readouterr()
    result = json.loads((out / "run_result.json").read_text())
    assert "max_abs_z" in result["numbers"]
    assert result["verdicts"]["martingale_ok"] is True
    assert result["wall_time_s"] > 0


# -- non-finite statistics fail closed ---------------------------------------------------


def test_check_drift_nan_residual_fails(tmp_path, capsys, monkeypatch):
    real = cli.solve_drift

    def nan_residual(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), residual_rms=float("nan"))

    monkeypatch.setattr(cli, "solve_drift", nan_residual)
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["check-drift", "--scenario", scenario]) == 1
    assert "DRIFT-VIOLATION (residual=nan)" in capsys.readouterr().out


def test_scc_probe_nan_residual_fails(tmp_path, capsys, monkeypatch):
    real = cli.scc_probe

    def nan_residual(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   x_identity_residual=float("nan"))

    monkeypatch.setattr(cli, "scc_probe", nan_residual)
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["scc-probe", "--scenario", scenario]) == 1
    assert "SCC-VIOLATION (residual=nan)" in capsys.readouterr().out


def test_martingale_nan_z_fails(tmp_path, capsys, monkeypatch):
    real = cli.martingale_test

    def nan_z(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), z_score=float("nan"))

    monkeypatch.setattr(cli, "martingale_test", nan_z)
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["martingale-test", "--scenario", scenario]) == 1
    assert "MARTINGALE-VIOLATION (|z|=nan)" in capsys.readouterr().out


def test_check_drift_residuals_csv_bytes_on_shipped_scenario(tmp_path):
    out = tmp_path / "out"
    assert main(["check-drift", "--scenario", str(SCENARIOS / "affine_demo.json"),
                 "--output-dir", str(out)]) == 0
    assert (out / "residuals.csv").read_bytes() == (
        b"y_index,sigma_label,residual_rms,residual_max,rank_ok\n"
        b"0,sigma,5.905660280557052e-17,1.1102230246251565e-16,True\n"
        b"1,sigma,1.1811320561114105e-16,2.220446049250313e-16,True\n")


def test_detect_affine_readme_line_on_shipped_scenario(tmp_path, monkeypatch, capsys):
    # README: fdcurves detect-affine --scenario scenarios/custom_affine.json
    monkeypatch.chdir(tmp_path)
    assert main(["detect-affine", "--scenario",
                 str(SCENARIOS / "custom_affine.json")]) == 0
    assert "rank=2" in capsys.readouterr().out
    assert (tmp_path / "out" / "custom_affine" / "singular_values.csv").exists()
