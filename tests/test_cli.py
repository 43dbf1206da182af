"""Scenario parsing, subcommand dispatch, exit codes, CSV determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdcurves
from fdcurves import cli
from fdcurves.cli import Scenario, ScenarioError, load_scenario, main
from fdcurves.families import builtin_models, hilbert_norm
from fdcurves.noarb import XGrid, detect_affine, scc_probe, solve_drift
from fdcurves.sim import (PATHSET_MAGIC, FuturesSpec, PathSet, SdeSpec,
                          martingale_test, rn_drift, scc_loop, simulate)

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


def package_env():
    """The environment for a fresh interpreter that imports this checkout's
    ``fdcurves``."""
    src = str(Path(fdcurves.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- scenario parsing -----------------------------------------------------------


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


def test_check_drift_solves_every_state_in_one_stack(tmp_path, monkeypatch):
    raw = affine_scenario(tmp_path / "out", y_samples=[[1.0], [2.0], [-0.5]])
    scenario = Scenario.from_dict(raw)
    tables = []
    inner = scenario.model.derivative_tables

    def recorded(xs, y):
        tables.append(np.shape(y))
        return inner(xs, y)

    monkeypatch.setattr(scenario.model, "derivative_tables", recorded)
    (tmp_path / "out").mkdir()
    code, result = cli.cmd_check_drift(scenario, tmp_path / "out")
    assert code == 0 and tables == [(3, 1)]
    rows = (tmp_path / "out" / "residuals.csv").read_text().splitlines()[1:]
    model = builtin_models()["affine1-exp-identity"]
    for row, y in zip(rows, raw["y_samples"]):
        res = solve_drift(model, y, raw["sigma"], XGrid.chebyshev())
        assert row.split(",")[2:] == [repr(float(res.residual_rms)),
                                      repr(float(res.residual_max)), str(bool(res.rank_ok))]


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


def test_negative_seed_is_config_error(tmp_path, capsys):
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["simulate", "--scenario", scenario, "--seed", "-1"]) == 2
    assert "error: seed must be an integer in [0, 2**64)" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [("seed", 1.5), ("seed", True), ("n_paths", 2.5)])
def test_non_integer_sim_count_is_config_error(tmp_path, capsys, key, value):
    raw = affine_scenario(tmp_path / "out")
    raw["sim"][key] = value
    scenario = write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", scenario]) == 2
    assert f"error: sim.{key} must be an integer, got {value!r}" in capsys.readouterr().out
    assert not (tmp_path / "out" / "paths.bin").exists()


@pytest.mark.parametrize("key,value", [("tolerance", None), ("z_max", [1]),
                                       ("output_dir", 5), ("paths_file", 7)])
def test_malformed_scenario_scalar_is_config_error(tmp_path, capsys, key, value):
    # check-drift reads none of these fields: the scenario parse must refuse them
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out", **{key: value}))
    assert main(["check-drift", "--scenario", scenario]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error:")
    if key in ("output_dir", "paths_file"):
        assert f"error: {key} must be a string, got {value!r}" in out


@pytest.mark.parametrize("section,key,value", [
    ("grid", "n", 40.7), ("grid", "n", 40.0), ("grid", "n", True),
    ("reconstruct", "n_steps", 1000.9), ("reconstruct", "n_steps", 1000.0)])
def test_non_integer_grid_and_step_counts_are_config_errors(tmp_path, capsys, section,
                                                            key, value):
    raw = affine_scenario(tmp_path / "out")
    raw[section][key] = value
    scenario = write_scenario(tmp_path, raw)
    assert main(["reconstruct", "--scenario", scenario]) == 2
    assert (f"error: {section}.{key} must be an integer, got {value!r}"
            in capsys.readouterr().out)
    assert not (tmp_path / "out" / "run_result.json").exists()


@pytest.mark.parametrize("name,value", [
    ("sim.dt", True), ("sim.T", "3"), ("reconstruct.x0", "0"), ("tolerance", True),
    ("z_max", "3"), ("grid.x_max", False), ("futures.T1", True), ("futures.T2", "2")])
def test_non_number_scenario_field_is_config_error(tmp_path, capsys, name, value):
    raw = affine_scenario(tmp_path / "out")
    section, _, key = name.rpartition(".")
    (raw["futures"][0] if section == "futures" else raw[section] if section
     else raw)[key] = value
    scenario = write_scenario(tmp_path, raw)
    assert main(["simulate", "--scenario", scenario]) == 2
    assert capsys.readouterr().out == f"error: {name} must be a number, got {value!r}\n"
    assert not (tmp_path / "out" / "paths.bin").exists()


@pytest.mark.parametrize("entry", [True, "1"])
@pytest.mark.parametrize("name,command", [
    ("sigma", "simulate"), ("y_samples", "check-drift"), ("base_y", "detect-affine"),
    ("sim.y0", "simulate"), ("reconstruct.y", "reconstruct")])
def test_non_number_array_entry_is_config_error(tmp_path, capsys, name, command, entry):
    # np.asarray(..., dtype=float) would read true as 1.0 and "1" as 1.0
    raw = affine_scenario(tmp_path / "out", base_y=[0.0])
    section, _, key = name.rpartition(".")
    field = raw[section] if section else raw
    field[key] = [[entry]] if name in ("sigma", "y_samples") else [entry]
    scenario = write_scenario(tmp_path, raw)
    assert main([command, "--scenario", scenario]) == 2
    assert capsys.readouterr().out == f"error: {name} entries must be numbers, got {entry!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,command", [
    ("sigma", "check-drift"), ("y_samples", "check-drift"), ("y_samples", "scc-probe"),
    ("y_samples", "price"), ("base_y", "detect-affine"), ("sim.y0", "simulate"),
    ("reconstruct.y", "reconstruct")])
def test_non_finite_array_entry_is_config_error(tmp_path, capsys, name, command, entry):
    # json reads NaN, Infinity and -Infinity; a verdict must not see them
    raw = affine_scenario(tmp_path / "out", base_y=[0.0])
    section, _, key = name.rpartition(".")
    field = raw[section] if section else raw
    field[key] = [[entry]] if name in ("sigma", "y_samples") else [entry]
    scenario = write_scenario(tmp_path, raw)
    assert main([command, "--scenario", scenario]) == 2
    assert capsys.readouterr().out == f"error: {name} entries must be finite, got {entry!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x0", [-0.5, -2.0, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize("family", ["affine", "gaussian-example"])
def test_reconstruct_x0_must_be_a_finite_maturity(tmp_path, capsys, family, x0):
    raw = (affine_scenario(tmp_path / "out") if family == "affine"
           else dict(gaussian_scenario(tmp_path / "out"), reconstruct={"y": [0.5]}))
    raw["reconstruct"]["x0"] = x0
    scenario = write_scenario(tmp_path, raw)
    assert main(["reconstruct", "--scenario", scenario]) == 2  # no curve is evaluated
    assert capsys.readouterr().out == (
        f"error: reconstruct.x0 must be a finite maturity >= 0, got {x0!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name,command", [("tolerance", "check-drift"),
                                          ("z_max", "martingale-test")])
def test_scenario_threshold_must_be_finite_and_non_negative(tmp_path, capsys, name,
                                                            command, value):
    # a NaN or negative threshold would report every check as a violation
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out", **{name: value}))
    assert main([command, "--scenario", scenario]) == 2
    assert capsys.readouterr().out == (
        f"error: {name} must be a finite number >= 0, got {value!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_override_must_be_finite_and_non_negative(tmp_path, capsys, value):
    assert main(["check-drift", "--scenario", str(SCENARIOS / "affine_demo.json"),
                 "--tolerance", value, "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == (
        f"error: --tolerance must be a finite number >= 0, got {float(value)!r}\n")
    assert not (tmp_path / "out").exists()


def test_price_with_an_infinite_window_end_exits_2_naming_the_window(tmp_path):
    # JSON 1e999 parses as inf; the window must be refused before any pricing
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(affine_scenario(tmp_path / "out"))
                        .replace('"T2": 2.0', '"T2": 1e999'))
    proc = subprocess.run([sys.executable, "-m", "fdcurves", "price", "--scenario",
                           str(scenario)], env=package_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "error: need 0 < T1 < T2 < inf, got T1=1.0, T2=inf\n"
    assert proc.stderr == ""


def test_largest_seed_round_trips_through_paths_bin(tmp_path):
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["simulate", "--scenario", scenario, "--seed", str(2**64 - 1)]) == 0
    assert PathSet.load(tmp_path / "out" / "paths.bin").seed == 2**64 - 1


def test_missing_required_section_is_config_error(tmp_path):
    raw = affine_scenario(tmp_path / "out")
    del raw["futures"]
    scenario = write_scenario(tmp_path, raw)
    assert main(["price", "--scenario", scenario]) == 2


# -- malformed shipped scenarios ----------------------------------------------------

BIG = 10**400  # a JSON integer past the double range
DELETE = object()


def shipped(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def replaced(tree, path, value):
    """A copy of the JSON ``tree`` with the node at ``path`` (a tuple of keys
    and indices, () for the root) set to ``value``, or deleted for DELETE."""
    if not path:
        return value
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


def run_main(argv):
    """``main``'s exit code and stdout, read without pytest's capture fixtures,
    which hypothesis cannot reset between examples."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,path,value,message", [
    # not an object, or not a list of objects
    ("affine_demo", ("grid",), "chebyshev", "grid must be an object, got 'chebyshev'"),
    ("affine_demo", ("grid",), [0, 1, 2], "grid must be an object, got [0, 1, 2]"),
    ("custom_affine", ("model", "amap"), "identity",
     "model.amap must be an object, got 'identity'"),
    ("custom_affine", ("model", "amap"), [1], "model.amap must be an object, got [1]"),
    ("affine_demo", ("sim",), "x", "sim must be an object, got 'x'"),
    ("affine_demo", ("futures",), "ab", "futures must be a list of objects, got 'ab'"),
    ("affine_demo", ("futures",), [5], "futures must be an object, got 5"),
    ("affine_demo", ("reconstruct",), 5, "reconstruct must be an object, got 5"),
    ("custom_affine", ("model", "u"), [5], "model.u must be an object, got 5"),
    ("custom_affine", ("model", "c"), 5, "model.c must be an object, got 5"),
    ("custom_affine", ("model", "u"), {"A": [[-1.0]], "b": [1.0], "c": [1.0]},
     "model.u must be a list of objects, got {'A': [[-1.0]], 'b': [1.0], 'c': [1.0]}"),
    ("affine_demo", ("model", "builtin"), ["x"],
     f"unknown builtin model ['x']; available: {sorted(builtin_models())}"),
    ("affine_demo", (), [], "scenario must be an object, got []"),
    ("affine_demo", ("model",), None, "model must be an object, got None"),
    ("affine_demo", ("grid",), None, "grid must be an object, got None"),
    ("affine_demo", ("sim",), None, "sim must be an object, got None"),
    ("affine_demo", ("futures",), None, "futures must be a list of objects, got None"),
    ("affine_demo", ("reconstruct",), None, "reconstruct must be an object, got None"),
    ("custom_affine", ("model", "amap"), None, "model.amap must be an object, got None"),
    ("custom_affine", ("model", "u"), None, "model.u must be a list of objects, got None"),
    ("custom_affine", ("model", "c"), None, "model.c must be an object, got None"),
    # a missing key
    ("affine_demo", ("futures", 0, "T2"), DELETE, "futures is missing required key 'T2'"),
    ("affine_demo", ("sim", "y0"), DELETE, "sim is missing required key 'y0'"),
    ("custom_affine", ("model", "c"), DELETE, "model is missing required key 'c'"),
    ("custom_affine", ("model", "u"), DELETE, "model is missing required key 'u'"),
    ("custom_affine", ("model", "u", 0, "c"), DELETE, "model.u is missing required key 'c'"),
    ("custom_affine", ("model", "amap", "linear"), DELETE,
     "model.amap is missing required key 'linear'"),
    ("custom_affine", ("model", "amap", "tag"), DELETE,
     "model.amap is missing required key 'tag'"),
    # an array of the wrong rank
    ("affine_demo", ("y_samples",), [[[1.0]]],
     "y_samples must be an array of rank <= 2, got rank 3"),
    ("affine_demo", ("reconstruct",), {"y": [[1.0]]},
     "reconstruct.y must be an array of rank <= 1, got rank 2"),
    ("affine_demo", ("base_y",), [[0.0]], "base_y must be an array of rank <= 1, got rank 2"),
    # a non-number entry of a grid, QE or factor-map array
    ("affine_demo", ("grid",), {"nodes": ["0", "0.5", "1", "2"]},
     "grid.nodes entries must be numbers, got '0'"),
    ("affine_demo", ("grid",), {"nodes": [False, True]},
     "grid.nodes entries must be numbers, got False"),
    ("custom_affine", ("model", "u", 0, "A"), [["-1"]],
     "model.u.A entries must be numbers, got '-1'"),
    ("custom_affine", ("model", "u", 1, "b"), [True],
     "model.u.b entries must be numbers, got True"),
    ("custom_affine", ("model", "c", "c"), ["0"], "model.c.c entries must be numbers, got '0'"),
    ("custom_affine", ("model", "amap", "linear"), ["1", "1"],
     "model.amap.linear entries must be numbers, got '1'"),
    ("custom_affine", ("model", "amap", "cubic"), [True, True],
     "model.amap.cubic entries must be numbers, got True"),
    # an integer past the double range: a scalar, an array and a model array
    ("affine_demo", ("tolerance",), BIG, f"tolerance must be within the double range, got {BIG!r}"),
    ("affine_demo", ("sim", "dt"), BIG, f"sim.dt must be within the double range, got {BIG!r}"),
    ("affine_demo", ("futures", 0, "T2"), BIG,
     f"futures.T2 must be within the double range, got {BIG!r}"),
    ("affine_demo", ("sigma",), [[BIG]], f"sigma entries must be finite, got {BIG!r}"),
    ("custom_affine", ("model", "u", 0, "A"), [[BIG]],
     f"model.u.A entries must be finite, got {BIG!r}"),
    # a ragged array
    ("affine_demo", ("y_samples",), [[1.0], [1.0, 2.0]],
     "y_samples must be a rectangular array, got [[1.0], [1.0, 2.0]]"),
    ("custom_affine", ("model", "u", 0, "A"), [[1.0], [1.0, 2.0]],
     "model.u.A must be a rectangular array, got [[1.0], [1.0, 2.0]]"),
    # arrays the constructors refuse, named by their section
    ("custom_affine", ("model", "u", 0, "A"), [], "model.u: A must be square, got shape (1, 0)"),
    ("custom_affine", ("model", "c", "b"), [1.0, 2.0],
     "model.c: b and c must have shape (1,), got (2,) and (1,)"),
    ("custom_affine", ("model", "amap", "cubic"), [0.1],
     "model.amap: coefficient arrays must share one length"),
])
def test_malformed_shipped_scenario_is_a_config_error_naming_its_field(tmp_path, name, path,
                                                                       value, message):
    scenario = write_scenario(tmp_path, replaced(shipped(name), path, value))
    out_dir = tmp_path / "out"
    assert run_main(["check-drift", "--scenario", scenario, "--output-dir", str(out_dir)]) == (
        2, f"error: {message}\n")
    assert not out_dir.exists()


def test_an_integer_too_long_to_read_is_a_config_error(tmp_path):
    text = json.dumps(replaced(shipped("affine_demo"), ("tolerance",), "LONG"))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text.replace('"LONG"', "9" * 5001))
    out_dir = tmp_path / "out"
    assert run_main(["check-drift", "--scenario", str(scenario),
                     "--output-dir", str(out_dir)]) == (
        2, "error: scenario holds an integer too long to read (5001 digits)\n")
    assert not out_dir.exists()


def json_paths(tree, path=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, node in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from json_paths(node, path + (key,))


SHIPPED_NODES = [(name, path) for name in ("affine_demo", "custom_affine", "gaussian_probe")
                 for path in json_paths(shipped(name))]
MUTANTS = [None, True, "x", [], {}, 5, 1.5, math.nan, BIG, [[1.0], [1.0, 2.0]], [[[1.0]]]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(node=st.sampled_from(SHIPPED_NODES), mutant=st.sampled_from(MUTANTS),
       command=st.sampled_from(["check-drift", "scc-probe", "detect-affine", "price"]))
def test_a_shipped_scenario_with_one_node_replaced_exits_0_1_or_2(node, mutant, command):
    # none of these commands simulates or reconstructs, so no mutant loops for long
    name, path = node
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_scenario(Path(tmp), replaced(shipped(name), path, mutant))
        code, out = run_main([command, "--scenario", scenario, "--output-dir", f"{tmp}/out"])
    lines = out.splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), out
    elif code == 1:
        assert re.fullmatch(r"[A-Z]+-VIOLATION \(residual=.*\)", lines[-1]), out
    else:
        assert code == 0 and "error:" not in out, out


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_detect_affine_refuses_a_sample_with_a_non_finite_curve(tmp_path, capsys):
    # exp(800) overflows; the SVD would report rank=0 from NaN singular values
    raw = {"model": {"builtin": "affine1-exp-expmap"},
           "y_samples": [[0.1], [800.0], [0.2], [0.3]], "output_dir": str(tmp_path / "out")}
    assert main(["detect-affine", "--scenario", write_scenario(tmp_path, raw)]) == 2
    assert capsys.readouterr().out == "error: curve is non-finite at y_samples[1]=[800.0]\n"
    assert not (tmp_path / "out" / "singular_values.csv").exists()


OUT_OF_RANGE = {  # each command's error for a sample where exp(800) overflows
    "check-drift": "grad_y g is non-finite at y=[800.0]",
    "scc-probe": "grad_y g is non-finite at y=[800.0]",
    "detect-affine": "curve is non-finite at y_samples[1]=[800.0]",
    "price": "price at t=0.0 in the window [T1, T2]=[0.5, 1.0] is non-finite at y=[800.0]",
}


@pytest.mark.parametrize("command", OUT_OF_RANGE)
def test_a_state_outside_the_double_range_exits_2_naming_it(tmp_path, capfd, command):
    # exp(800) overflows: one error line, and no numpy warning, LAPACK message or artifact
    raw = {"model": {"builtin": "affine1-exp-expmap"}, "sigma": [[1.0]],
           "y_samples": [[0.1], [800.0], [0.2], [0.3]], "futures": [{"T1": 0.5, "T2": 1.0}],
           "output_dir": str(tmp_path / "out")}
    assert main([command, "--scenario", write_scenario(tmp_path, raw)]) == 2
    assert capfd.readouterr() == (f"error: {OUT_OF_RANGE[command]}\n", "")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["check-drift", "scc-probe"])
def test_a_value_outside_the_double_range_at_a_finite_gradient_exits_2_naming_it(
        tmp_path, capfd, command):
    # the cubic map's A = y + 0.1 y^3 overflows at y = 1e120 while A' and
    # A'' stay finite: dx g leaves the double range, grad_y g does not
    raw = json.loads((SCENARIOS / "custom_affine.json").read_text())
    raw.update(y_samples=[[0.5, -0.5], [1e120, 0.0]], output_dir=str(tmp_path / "out"))
    assert main([command, "--scenario", write_scenario(tmp_path, raw)]) == 2
    which = "drift" if command == "check-drift" else "identity"
    assert capfd.readouterr() == (f"error: {which} residual is non-finite at y=[1e+120, 0.0]\n",
                                  "")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "martingale-test", "estimate-vol"])
@pytest.mark.parametrize("model, y0, message", [
    ({"builtin": "affine1-exp-expmap"}, 800.0,
     "drift returned non-finite values on path 0 at t=0"),
    # g = y e^x has the drift b = y, so one step of dt = 1 doubles 1.7e308
    ({"type": "affine", "c": {"n": 1, "A": [[0.0]], "b": [1.0], "c": [0.0]},
      "u": [{"n": 1, "A": [[1.0]], "b": [1.0], "c": [1.0]}], "amap": {"tag": "identity"}},
     1.7e308, "path 0 is non-finite at times[1] = 1.0: y=[inf]"),
], ids=["drift", "state"])
def test_a_path_outside_the_double_range_exits_2_naming_it(tmp_path, capfd, command, model,
                                                          y0, message):
    raw = {"model": model, "sigma": [[0.0]], "futures": [{"T1": 2.0, "T2": 3.0}],
           "sim": {"dt": 1.0, "T": 1.0, "n_paths": 2, "seed": 1, "y0": [y0]},
           "output_dir": str(tmp_path / "out")}
    assert main([command, "--scenario", write_scenario(tmp_path, raw)]) == 2
    assert capfd.readouterr() == (f"error: {message}\n", "")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("rank_tol", ["nan", "1.0", "-1"])
def test_detect_affine_rejects_a_cutoff_outside_the_unit_interval(capsys, tmp_path,
                                                                  rank_tol):
    scenario = str(SCENARIOS / "custom_affine.json")
    assert main(["detect-affine", "--scenario", scenario, "--rank-tol", rank_tol,
                 "--output-dir", str(tmp_path)]) == 2
    assert "error: rel_tol must be a number in [0, 1)" in capsys.readouterr().out


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
    assert not (out / "paths.csv").exists()
    assert json.loads((out / "run_result.json").read_text())["command"] == "simulate"


def test_simulate_paths_bin_is_the_in_process_simulation_bit_for_bit(tmp_path):
    # paths.bin is the one path artifact: read back, it is the library's
    # PathSet of the same scenario, every time and every value the same bits
    scenario = str(SCENARIOS / "affine_demo.json")
    assert main(["simulate", "--scenario", scenario, "--n-paths", "30",
                 "--output-dir", str(tmp_path)]) == 0
    sc = load_scenario(scenario)
    spec = SdeSpec(d=sc.model.d, drift=rn_drift(sc.model, sc.sigma, sc.grid),
                   sigma=sc.sigma, y0=sc.sim.y0)
    want = simulate(spec, sc.sim.dt, sc.sim.T, 30, sc.sim.seed)
    got = PathSet.load(tmp_path / "paths.bin")
    assert got.seed == want.seed
    for name in ("times", "paths"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name


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


def test_estimate_vol_truncated_paths_file_is_config_error(tmp_path, capsys):
    out1 = tmp_path / "out1"
    scenario = write_scenario(tmp_path, affine_scenario(out1), "sim.json")
    assert main(["simulate", "--scenario", scenario]) == 0
    paths = out1 / "paths.bin"
    paths.write_bytes(paths.read_bytes()[:18])
    raw = affine_scenario(tmp_path / "out2", paths_file=str(paths))
    scenario2 = write_scenario(tmp_path, raw, "vol.json")
    capsys.readouterr()
    assert main(["estimate-vol", "--scenario", scenario2]) == 2
    assert "error:" in capsys.readouterr().out


def test_estimate_vol_rejects_a_paths_file_with_a_negative_step(tmp_path, capsys):
    paths = tmp_path / "negative.bin"
    header = PATHSET_MAGIC + struct.pack("<QQQddQ", 2, 101, 1, -0.01, -1.0, 5)
    paths.write_bytes(header + np.zeros(202, dtype="<f8").tobytes())
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out",
                                                        paths_file=str(paths)))
    assert main(["estimate-vol", "--scenario", scenario]) == 2
    assert capsys.readouterr().out == (
        "error: path-set header dt must be positive and finite, got -0.01\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_non_finite_dt_is_config_error(tmp_path, capsys, value):
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["simulate", "--scenario", scenario, "--dt", value]) == 2
    assert capsys.readouterr().out == (
        f"error: dt must be positive and finite, got {value}\n")


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
                       ("simulate", "paths.bin")):
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


def test_dt_override(tmp_path):
    scenario = str(SCENARIOS / "affine_demo.json")
    assert main(["simulate", "--scenario", scenario, "--dt", "0.01",
                 "--n-paths", "10", "--output-dir", str(tmp_path)]) == 0
    ps = PathSet.load(tmp_path / "paths.bin")
    assert ps.n_times == 51
    assert ps.dt == 0.01


def test_tolerance_override(tmp_path, capsys):
    # the shipped affine scenario's residual is about 1e-16: it passes the
    # scenario's 1e-6 and fails a tolerance below it
    scenario = str(SCENARIOS / "affine_demo.json")
    out = ["--output-dir", str(tmp_path)]
    assert main(["check-drift", "--scenario", scenario, *out]) == 0
    assert main(["check-drift", "--scenario", scenario, "--tolerance", "1e-30", *out]) == 1
    assert "DRIFT-VIOLATION" in capsys.readouterr().out
    result = json.loads((tmp_path / "run_result.json").read_text())
    assert result["numbers"]["tolerance"] == 1e-30


# the override flags each subcommand reads; all of them take --scenario and --output-dir
READS = {"check-drift": {"--tolerance"}, "scc-probe": {"--tolerance"},
         "detect-affine": {"--rank-tol"}, "simulate": {"--seed", "--n-paths", "--dt"},
         "price": set(), "martingale-test": {"--seed", "--n-paths", "--dt"},
         "estimate-vol": {"--seed", "--n-paths", "--dt"}, "reconstruct": {"--tolerance"}}
OVERRIDES = {"--seed": "3", "--n-paths": "4", "--dt": "0.01", "--tolerance": "1e-30",
             "--rank-tol": "0.9"}


def test_each_subcommand_takes_the_flags_it_reads():
    parser = cli.build_parser()
    for command, flags in READS.items():
        args = parser.parse_args([command, "--scenario", "s.json", "--output-dir", "out",
                                  *(part for flag in flags for part in (flag, OVERRIDES[flag]))])
        assert {k for k, v in vars(args).items() if v is not None} == {
            "command", "scenario", "output_dir",
            *(flag[2:].replace("-", "_") for flag in flags)}, command


@pytest.mark.parametrize("command, flag", [(command, flag) for command in READS
                                           for flag in OVERRIDES if flag not in READS[command]])
def test_a_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exited:
        main([command, "--scenario", str(SCENARIOS / "affine_demo.json"), flag,
              OVERRIDES[flag], "--output-dir", str(tmp_path / "out")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    # the subcommand's own usage, listing the flags it does read, not the top-level one
    assert err.startswith(f"usage: fdcurves {command} [-h] --scenario SCENARIO"), err
    assert f"fdcurves {command}: error: unrecognized arguments: {flag} {OVERRIDES[flag]}" in err
    assert not (tmp_path / "out").exists()


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


def strict_json(path):
    """Parse a CLI artifact, refusing the non-JSON tokens NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_check_drift_nan_residual_fails(tmp_path, capsys, monkeypatch):
    real = cli.solve_drift

    def nan_residual(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, residual_rms=np.full(res.residual_rms.shape, np.nan))

    monkeypatch.setattr(cli, "solve_drift", nan_residual)
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["check-drift", "--scenario", scenario]) == 1
    assert "DRIFT-VIOLATION (residual=nan)" in capsys.readouterr().out
    result = strict_json(tmp_path / "out" / "run_result.json")
    assert result["numbers"]["max_residual_rms"] is None


def test_scc_probe_nan_residual_fails(tmp_path, capsys, monkeypatch):
    real = cli.scc_probe

    def nan_residual(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   x_identity_residual=float("nan"))

    monkeypatch.setattr(cli, "scc_probe", nan_residual)
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["scc-probe", "--scenario", scenario]) == 1
    assert "SCC-VIOLATION (residual=nan)" in capsys.readouterr().out
    result = strict_json(tmp_path / "out" / "run_result.json")
    assert result["numbers"]["max_identity_residual"] is None
    report = strict_json(tmp_path / "out" / "scc_report.json")
    assert report["x_identity_residual"] is None


def test_martingale_nan_z_fails(tmp_path, capsys, monkeypatch):
    real = cli.martingale_test

    def nan_z(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), z_score=float("nan"))

    monkeypatch.setattr(cli, "martingale_test", nan_z)
    scenario = write_scenario(tmp_path, affine_scenario(tmp_path / "out"))
    assert main(["martingale-test", "--scenario", scenario]) == 1
    assert "MARTINGALE-VIOLATION (|z|=nan)" in capsys.readouterr().out
    result = strict_json(tmp_path / "out" / "run_result.json")
    assert result["numbers"]["max_abs_z"] is None


@pytest.mark.parametrize("value, message", [
    (math.nan, "path 1 is non-finite at times[50] = 0.5: y=[nan]"),
    (1e200, "realised covariation [0, 0] leaves the double range; "
            "its largest increment is on path 1 at times[50]"),
], ids=["nan", "1e200"])
def test_estimate_vol_refuses_a_paths_file_outside_the_double_range(tmp_path, capfd, value,
                                                                    message):
    # PathSet refuses the NaN, so the file is a finite set with one float overwritten
    paths = np.full((2, 101, 1), 0.5)
    PathSet(times=0.01 * np.arange(101), paths=paths, seed=0).save(tmp_path / "p.bin")
    raw = bytearray((tmp_path / "p.bin").read_bytes())
    at = len(raw) - paths.nbytes + 8 * (101 + 50)
    raw[at:at + 8] = struct.pack("<d", value)
    (tmp_path / "p.bin").write_bytes(bytes(raw))
    scenario = affine_scenario(tmp_path / "out", paths_file=str(tmp_path / "p.bin"))
    assert main(["estimate-vol", "--scenario", write_scenario(tmp_path, scenario)]) == 2
    assert capfd.readouterr() == (f"error: {message}\n", "")
    assert list((tmp_path / "out").iterdir()) == []


def test_check_drift_residuals_csv_bytes_on_shipped_scenario(tmp_path):
    out = tmp_path / "out"
    assert main(["check-drift", "--scenario", str(SCENARIOS / "affine_demo.json"),
                 "--output-dir", str(out)]) == 0
    assert (out / "residuals.csv").read_bytes() == (
        b"y_index,sigma_label,residual_rms,residual_max,rank_ok\n"
        b"0,sigma,5.905660280557052e-17,1.1102230246251565e-16,True\n"
        b"1,sigma,1.1811320561114105e-16,2.220446049250313e-16,True\n")


def test_scc_probe_writes_its_report_alone_on_shipped_scenarios(tmp_path):
    # scc_report.json holds eta, gamma, the identity residuals and the
    # conditioning; the drift of any covariance is gamma - 1/2 sum a_ij eta_ij
    digests = {
        "gaussian_probe": (1, "2c1b044daeb71a3a33a03a8fe40b137234237efa799704d76a3413166e443910"),
        "custom_affine": (0, "bf99ea8c7038cef980905ae8b58397aad6dacb22c6ebb71a16b98134b66add8c")}
    for name, (code, digest) in digests.items():
        out = tmp_path / name
        assert main(["scc-probe", "--scenario", str(SCENARIOS / f"{name}.json"),
                     "--output-dir", str(out)]) == code
        assert sorted(p.name for p in out.iterdir()) == ["run_result.json", "scc_report.json"]
        assert hashlib.sha256((out / "scc_report.json").read_bytes()).hexdigest() == digest, name
    report = json.loads((tmp_path / "gaussian_probe" / "scc_report.json").read_text())
    assert report["condition_number"] == [1.0] and report["inconclusive"] == [False]


def test_price_csv_and_stdout_bytes_on_shipped_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["price", "--scenario", str(SCENARIOS / "affine_demo.json"),
                 "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out == "0.232544\n0.465088\n"
    assert (out / "prices.csv").read_bytes() == (
        b"T1,T2,y_index,price\n"
        b"1.0,2.0,0,0.23254415793964234\n"
        b"1.0,2.0,1,0.4650883158792847\n")


README = Path(__file__).resolve().parents[1] / "README.md"

# (command, scenario file) -> exit code, verdict line (first stdout line)
# pattern and the artifacts run_result.json lists
README_PINS = {
    ("check-drift", "affine_demo.json"):
        (0, r"DRIFT-OK \(max residual_rms=\S+\)", ["residuals.csv"]),
    ("scc-probe", "gaussian_probe.json"):
        (1, r"SCC-VIOLATION \(residual=\S+\)", ["scc_report.json"]),
    ("detect-affine", "custom_affine.json"):
        (0, r"rank=2", ["singular_values.csv"]),
    ("simulate", "affine_demo.json"):
        (0, r"simulated n_paths=200 n_times=501 d=1 -> out/affine_demo/paths\.bin",
         ["paths.bin"]),
    ("price", "affine_demo.json"):
        (0, r"\d+\.\d{6}", ["prices.csv"]),
    ("martingale-test", "affine_demo.json"):
        (0, r"MARTINGALE-OK \(max\|z\|=\S+\)", ["martingale.csv"]),
    ("estimate-vol", "affine_demo.json"):
        (0, r"sigma_sq_hat=\[\[\S+\]\]", ["vol.csv"]),
    ("reconstruct", "affine_demo.json"):
        (0, r"reconstructed=\S+ direct=\S+ abs_error=\S+", []),
}
SIMULATING = {"simulate", "martingale-test", "estimate-vol"}


def readme_cli_lines():
    """The lines of the sh block under the README's "## Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split() for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_cli_lines(), ids=lambda line: line[1])
def test_readme_command_line(line, tmp_path, monkeypatch, capsys):
    assert line[0] == "fdcurves"
    argv = line[1:]
    scenario = Path(argv[argv.index("--scenario") + 1])
    assert scenario.parent == Path("scenarios")
    key = (argv[0], scenario.name)
    assert key in README_PINS, f"README line {' '.join(line)!r} has no pinned outcome"
    exit_code, verdict, artifacts = README_PINS[key]
    shipped = SCENARIOS / scenario.name
    argv[argv.index("--scenario") + 1] = str(shipped)
    if argv[0] in SIMULATING:
        argv += ["--n-paths", "200"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == exit_code
    assert re.fullmatch(verdict, capsys.readouterr().out.splitlines()[0])
    out_dir = Path(json.loads(shipped.read_text())["output_dir"])
    result = json.loads((tmp_path / out_dir / "run_result.json").read_text())
    assert result["artifacts"] == [str(out_dir / name) for name in artifacts]
    assert all((tmp_path / out_dir / name).exists() for name in artifacts)


def test_readme_library_example_runs(tmp_path):
    # the python block under "## Library example", run as a user would
    section = README.read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    drift, x_residual, z = proc.stdout.splitlines()
    b, rms = drift.rsplit(" ", 1)
    assert b == "[-2.]"
    assert float(rms) < 1e-12 and float(x_residual) < 1e-12
    assert abs(float(z)) < 3.0


def test_readme_paths_example_reads_the_simulated_paths(tmp_path, monkeypatch):
    # the python block under "### Artifacts", after the README's simulate line
    section = README.read_text().split("\n### Artifacts\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scenario", str(SCENARIOS / "affine_demo.json"),
                 "--n-paths", "3"]) == 0
    namespace = {}
    exec(code, namespace)
    assert namespace["paths"].shape == (3, 501, 1)


def test_scenario_state_with_the_wrong_factor_count_exits_2(tmp_path, capsys):
    data = json.loads((SCENARIOS / "custom_affine.json").read_text())
    data["y_samples"] = [[1.0]]
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(data))
    assert main(["scc-probe", "--scenario", str(path)]) == 2
    assert capsys.readouterr().out == (
        "error: a state needs d=2 factors, shape (d,) or (..., d); got shape (1, 1)\n")


def test_scenario_sigma_of_the_wrong_size_exits_2(tmp_path, capsys):
    data = json.loads((SCENARIOS / "custom_affine.json").read_text())
    data["sigma"] = [[1.0]]
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "narrow_sigma.json"
    path.write_text(json.dumps(data))
    assert main(["check-drift", "--scenario", str(path)]) == 2
    assert capsys.readouterr().out == (
        "error: sigma needs shape (d, d) with d=2, got shape (1, 1)\n")


# -- result serialisation -------------------------------------------------------


def result_objects():
    """One instance of each result dataclass, as the library builds it."""
    m = builtin_models()["affine1-exp-identity"]
    grid = XGrid.chebyshev(12)
    fs = FuturesSpec(1.0, 2.0)
    ps = simulate(SdeSpec(d=1, drift=rn_drift(m, [[1.0]], grid), sigma=[[1.0]],
                          y0=[1.0]), 0.01, 0.5, 4, seed=3)
    return [
        grid,
        solve_drift(m, [1.0], [[1.0]], grid),
        scc_probe(m, [1.0], grid),
        detect_affine(m, [[0.1], [0.2], [0.3], [0.4]], [0.0], grid),
        fs,
        martingale_test(m, ps, fs),
        scc_loop(m, ps, grid),
        hilbert_norm(lambda x: np.exp(-x), lambda x: -np.exp(-x)),
        cli.RunResult("check-drift", verdicts={"drift_ok": np.bool_(True)},
                      numbers={"tolerance": np.float64(1e-6)},
                      artifacts=["residuals.csv"]),
    ]


def test_results_serialise_as_their_dataclass_fields():
    objects = result_objects()
    assert len({type(obj) for obj in objects}) == 9
    for obj in objects:
        name = type(obj).__name__
        d = obj.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(obj)], name
        assert json.loads(json.dumps(d)) == d, name
    loop = objects[6]
    assert loop.to_dict()["y_samples"] == loop.y_samples.tolist()


# -- start-up -----------------------------------------------------------------

SCIPY_SUBMODULES = {"scipy.linalg", "scipy.special"}


def imported_modules(*args):
    """Every module a fresh ``python -X importtime *args`` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=package_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_importing_the_package_leaves_scipy_submodules_out():
    # importing scipy.linalg or scipy.special triples the CLI's start-up
    modules = imported_modules("-c", "import fdcurves")
    assert "fdcurves.sim" in modules
    assert not modules & SCIPY_SUBMODULES


@pytest.mark.parametrize("command, loaded", [("check-drift", set()), ("simulate", set()),
                                             ("martingale-test", set()),
                                             ("estimate-vol", set())])
def test_cli_imports_scipy_only_for_the_routines_it_calls(tmp_path, command, loaded):
    # the simulating commands draw their normals through sim._ndtri, well
    # inside sim._PORT_BUDGET, so none of them imports scipy.special
    paths = ["--n-paths", "4"] if command in SIMULATING else []
    modules = imported_modules("-m", "fdcurves", command, "--scenario",
                               str(SCENARIOS / "affine_demo.json"), *paths,
                               "--output-dir", str(tmp_path))
    assert (tmp_path / "run_result.json").exists()
    assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)
    assert modules & SCIPY_SUBMODULES == loaded
