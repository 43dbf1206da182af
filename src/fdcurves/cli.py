"""Scenario-driven command line runner.

A single JSON scenario file is the unit of reproducibility: it names the
curve model, the maturity grid, the diffusion matrix, the states to probe,
the simulation parameters and the contracts. Subcommands dispatch onto the
library operations and write fixed-format artifacts plus a
``run_result.json`` that repeats every number shown in the summary line.

Exit codes: 0 when the check passes (or the command only reports), 1 on a
detected violation, 2 on configuration errors and on every value that leaves
the double range. The library refuses such a value where it computes it, with
a ValueError naming its state, so numpy's overflow and invalid-value warnings
are silenced; a non-finite statistic that still reached a verdict would fail it.

Artifacts:
    residuals.csv        y_index,sigma_label,residual_rms,residual_max,rank_ok (check-drift)
    scc_report.json      SCCReport.to_dict() (scc-probe)
    martingale.csv       T1,T2,drift_estimate,std_error,z_score
    singular_values.csv  index,value
    prices.csv           T1,T2,y_index,price
    vol.csv              i,j,value
    paths.bin            header and little-endian float64 paths, see PathSet.save
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .families import CurveFamily, model_from_dict
from .noarb import (AFFINE_RANK_TOL, XGrid, detect_affine, eta_field_from_model,
                    reconstruct_from_eta, scc_probe, solve_drift)
from .qe import _integer, _number, _numbers, _plain, _section, _sections
from .sim import (FuturesSpec, PathSet, SdeSpec, SimulationError, estimate_vol,
                  futures_price, martingale_test, rn_drift, simulate)

OUTPUT_DIR_ENV = "FDCURVES_OUTPUT_DIR"


class ScenarioError(ValueError):
    """The scenario file is malformed or misses a required field."""


def _threshold(value, name: str) -> float:
    """A verdict's threshold, ``tolerance`` or ``z_max``: a finite number
    >= 0, since a NaN or negative one would fail every check and report a
    violation where the configuration is at fault."""
    value = _number(value, name)
    if not (math.isfinite(value) and value >= 0.0):
        raise ScenarioError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _path(value, name: str) -> str | None:
    """An optional file or directory name: a string, or null."""
    if value is not None and not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string, got {value!r}")
    return value


@dataclass
class SimConfig:
    dt: float
    T: float
    n_paths: int
    seed: int
    y0: np.ndarray

    @classmethod
    def from_dict(cls, data: dict) -> SimConfig:
        _section(data, "sim", ("dt", "T", "n_paths", "seed", "y0"))
        return cls(dt=_number(data["dt"], "sim.dt"), T=_number(data["T"], "sim.T"),
                   n_paths=_integer(data["n_paths"], "sim.n_paths"),
                   seed=_integer(data["seed"], "sim.seed"), y0=_numbers(data["y0"], "sim.y0", 1))


@dataclass
class ReconstructConfig:
    y: np.ndarray
    n_steps: int = 1000
    x0: float = 0.0

    @classmethod
    def from_dict(cls, data: dict) -> ReconstructConfig:
        _section(data, "reconstruct", ("y",), ("n_steps", "x0"))
        x0 = _number(data.get("x0", 0.0), "reconstruct.x0")
        if not 0.0 <= x0 < math.inf:  # a maturity: no curve is defined below 0
            raise ScenarioError(
                f"reconstruct.x0 must be a finite maturity >= 0, got {x0!r}")
        return cls(y=_numbers(data["y"], "reconstruct.y", 1),
                   n_steps=_integer(data.get("n_steps", 1000), "reconstruct.n_steps"), x0=x0)


_READERS = {  # every scenario field, in reading order, with its reader
    "model": model_from_dict,
    "grid": XGrid.from_dict,
    "sigma": lambda value: _numbers(value, "sigma", 2),
    "y_samples": lambda value: _numbers(value, "y_samples", 2),
    "base_y": lambda value: _numbers(value, "base_y", 1),
    "sim": SimConfig.from_dict,
    "futures": lambda value: [FuturesSpec.from_dict(f) for f in _sections(value, "futures")],
    "reconstruct": ReconstructConfig.from_dict,
    "paths_file": lambda value: _path(value, "paths_file"),
    "tolerance": lambda value: _threshold(value, "tolerance"),
    "z_max": lambda value: _threshold(value, "z_max"),
    "output_dir": lambda value: _path(value, "output_dir"),
}


@dataclass
class Scenario:
    """Parsed scenario."""

    model: CurveFamily
    grid: XGrid = field(default_factory=XGrid.chebyshev)
    sigma: np.ndarray | None = None
    y_samples: np.ndarray | None = None
    base_y: np.ndarray | None = None
    sim: SimConfig | None = None
    futures: list[FuturesSpec] = field(default_factory=list)
    reconstruct: ReconstructConfig | None = None
    paths_file: str | None = None
    tolerance: float = 1e-6
    z_max: float = 3.0
    output_dir: str | None = None
    rank_tol: float = AFFINE_RANK_TOL  # CLI-flag only; relative cutoff for detect-affine

    @classmethod
    def from_dict(cls, raw: dict) -> Scenario:
        try:
            _section(raw, "scenario", ("model",), _READERS)
            return cls(**{key: read(raw[key]) for key, read in _READERS.items() if key in raw})
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


def _json_int(digits: str) -> int:
    """A JSON integer; one past the interpreter's digit limit is a ScenarioError."""
    try:
        return int(digits)
    except ValueError:
        raise ScenarioError(f"scenario holds an integer too long to read "
                            f"({len(digits.lstrip('-'))} digits)") from None


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return Scenario.from_dict(raw)


@dataclass
class RunResult:
    """Everything a subcommand produced: verdicts, numbers, artifact paths."""

    command: str
    verdicts: dict = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    to_dict = _plain


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, data) -> None:
    """Strict JSON: a NaN or infinite number is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(data), fh, indent=2, sort_keys=True, allow_nan=False)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _worst(values) -> float:
    """Largest statistic, or the first non-finite one so that it fails the verdict."""
    values = list(values)
    return next((v for v in values if not np.isfinite(v)), max(values, default=0.0))


def _require(scenario: Scenario, attr: str):
    value = getattr(scenario, attr)
    if value is None or (isinstance(value, list) and not value):
        raise ScenarioError(f"this subcommand needs scenario field {attr!r}")
    return value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check_drift(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    sigma = _require(scenario, "sigma")
    ys = _require(scenario, "y_samples")
    res = solve_drift(scenario.model, ys, sigma, scenario.grid)
    rows = [[idx, "sigma", *row] for idx, row in
            enumerate(zip(res.residual_rms, res.residual_max, res.rank_ok))]
    all_ranks_ok = bool(res.rank_ok.all())
    worst = _worst(res.residual_rms)
    csv_path = out_dir / "residuals.csv"
    _write_csv(csv_path, ["y_index", "sigma_label", "residual_rms",
                          "residual_max", "rank_ok"], rows)
    ok = worst <= scenario.tolerance and all_ranks_ok
    print("DRIFT-OK (max residual_rms=%.6g)" % worst if ok
          else "DRIFT-VIOLATION (residual=%.6g)" % worst)
    result = RunResult(
        command="check-drift",
        verdicts={"drift_ok": ok, "all_ranks_ok": all_ranks_ok},
        numbers={"max_residual_rms": worst, "tolerance": scenario.tolerance},
        artifacts=[str(csv_path)])
    return (0 if ok else 1), result


def cmd_scc_probe(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    rep = scc_probe(scenario.model, _require(scenario, "y_samples"), scenario.grid)
    inconclusive = bool(rep.inconclusive.any())
    worst = _worst(rep.max_residual)
    report_path = out_dir / "scc_report.json"
    _write_json(report_path, rep.to_dict())
    ok = worst <= scenario.tolerance and not inconclusive
    print("AFFINE-CONSISTENT" if ok else f"SCC-VIOLATION (residual={worst:.6g})")
    result = RunResult(
        command="scc-probe",
        verdicts={"affine_consistent": ok, "inconclusive": inconclusive},
        numbers={"max_identity_residual": worst,
                 "tolerance": scenario.tolerance},
        artifacts=[str(report_path)])
    return (0 if ok else 1), result


def cmd_detect_affine(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    ys = _require(scenario, "y_samples")
    base = (scenario.base_y if scenario.base_y is not None
            else np.zeros(scenario.model.d))
    det = detect_affine(scenario.model, ys, base, scenario.grid,
                        rel_tol=scenario.rank_tol)
    csv_path = out_dir / "singular_values.csv"
    _write_csv(csv_path, ["index", "value"],
               [[i, v] for i, v in enumerate(det.singular_values)])
    print(f"rank={det.rank}")
    result = RunResult(
        command="detect-affine",
        verdicts={"degenerate": det.degenerate},
        numbers={"rank": det.rank,
                 "largest_singular_value": float(det.singular_values[0])},
        artifacts=[str(csv_path)])
    return 0, result


def _simulated_paths(scenario: Scenario) -> PathSet:
    sim = _require(scenario, "sim")
    sigma = _require(scenario, "sigma")
    drift = rn_drift(scenario.model, sigma, scenario.grid)
    spec = SdeSpec(d=scenario.model.d, drift=drift, sigma=sigma, y0=sim.y0)
    return simulate(spec, sim.dt, sim.T, sim.n_paths, sim.seed)


def cmd_simulate(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    ps = _simulated_paths(scenario)
    bin_path = out_dir / "paths.bin"
    ps.save(bin_path)
    print(f"simulated n_paths={ps.n_paths} n_times={ps.n_times} d={ps.d} "
          f"-> {bin_path}")
    result = RunResult(
        command="simulate",
        numbers={"n_paths": ps.n_paths, "n_times": ps.n_times, "d": ps.d,
                 "dt": ps.dt, "horizon": ps.horizon, "seed": ps.seed},
        artifacts=[str(bin_path)])
    return 0, result


def cmd_price(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    futures = _require(scenario, "futures")
    ys = _require(scenario, "y_samples")
    rows = [[fs.T1, fs.T2, idx, p] for fs in futures
            for idx, p in enumerate(futures_price(scenario.model, ys, 0.0, fs))]
    print("".join(f"{row[3]:.6f}\n" for row in rows), end="")
    csv_path = out_dir / "prices.csv"
    _write_csv(csv_path, ["T1", "T2", "y_index", "price"], rows)
    numbers = {f"price_T1={T1:g}_T2={T2:g}_y{idx}": p for T1, T2, idx, p in rows}
    result = RunResult(command="price", numbers=numbers, artifacts=[str(csv_path)])
    return 0, result


def cmd_martingale_test(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    futures = _require(scenario, "futures")
    ps = _simulated_paths(scenario)
    rows = []
    numbers = {}
    for fs in futures:
        res = martingale_test(scenario.model, ps, fs)
        rows.append([fs.T1, fs.T2, res.drift_estimate, res.std_error,
                     res.z_score])
        numbers[f"z_T1={fs.T1:g}_T2={fs.T2:g}"] = res.z_score
    worst = _worst(abs(row[4]) for row in rows)
    csv_path = out_dir / "martingale.csv"
    _write_csv(csv_path, ["T1", "T2", "drift_estimate", "std_error",
                          "z_score"], rows)
    ok = worst <= scenario.z_max
    print("MARTINGALE-OK (max|z|=%.3f)" % worst if ok
          else "MARTINGALE-VIOLATION (|z|=%.3f)" % worst)
    numbers["max_abs_z"] = worst
    numbers["z_max"] = scenario.z_max
    result = RunResult(command="martingale-test",
                       verdicts={"martingale_ok": ok}, numbers=numbers,
                       artifacts=[str(csv_path)])
    return (0 if ok else 1), result


def cmd_estimate_vol(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    if scenario.paths_file is not None:
        ps = PathSet.load(scenario.paths_file)
        simulated = 0
    else:
        ps = _simulated_paths(scenario)
        simulated = ps.n_paths
        print(f"estimate-vol: no paths_file, simulated n_paths={ps.n_paths} "
              f"seed={ps.seed}", file=sys.stderr)
    vol = estimate_vol(ps)
    rows = [[i, j, vol[i, j]] for i in range(vol.shape[0])
            for j in range(vol.shape[1])]
    csv_path = out_dir / "vol.csv"
    _write_csv(csv_path, ["i", "j", "value"], rows)
    print(f"sigma_sq_hat={json.dumps(vol.tolist(), allow_nan=False)}")
    numbers = {f"sigma_sq_{i}{j}": float(vol[i, j])
               for i in range(vol.shape[0]) for j in range(vol.shape[1])}
    numbers["paths_simulated"] = simulated
    result = RunResult(command="estimate-vol", numbers=numbers,
                       artifacts=[str(csv_path)])
    return 0, result


def cmd_reconstruct(scenario: Scenario, out_dir: Path) -> tuple[int, RunResult]:
    cfg = _require(scenario, "reconstruct")
    model = scenario.model
    origin = np.zeros(model.d)
    eta_field = eta_field_from_model(model, scenario.grid)
    g0 = model.value(cfg.x0, origin)
    grad0 = model.grad_y(cfg.x0, origin)
    rebuilt = reconstruct_from_eta(eta_field, g0, grad0, cfg.y, cfg.n_steps)
    direct = model.value(cfg.x0, cfg.y)
    err = abs(rebuilt - direct)
    ok = err <= scenario.tolerance
    print(f"reconstructed={rebuilt:.9g} direct={direct:.9g} abs_error={err:.3g}")
    result = RunResult(
        command="reconstruct",
        verdicts={"reconstruction_ok": ok},
        numbers={"reconstructed": rebuilt, "direct": direct,
                 "abs_error": err, "tolerance": scenario.tolerance})
    return (0 if ok else 1), result


_COMMANDS = {
    "check-drift": cmd_check_drift,
    "scc-probe": cmd_scc_probe,
    "detect-affine": cmd_detect_affine,
    "simulate": cmd_simulate,
    "price": cmd_price,
    "martingale-test": cmd_martingale_test,
    "estimate-vol": cmd_estimate_vol,
    "reconstruct": cmd_reconstruct,
}
_SIMULATING = ("simulate", "martingale-test", "estimate-vol")
_FLAGS = {  # each override flag: its type, its help and the only subcommands that read it
    "--seed": (int, "override sim.seed", _SIMULATING),
    "--n-paths": (int, "override sim.n_paths", _SIMULATING),
    "--dt": (float, "override sim.dt", _SIMULATING),
    "--tolerance": (float, "override tolerance", ("check-drift", "scc-probe", "reconstruct")),
    "--rank-tol": (float, "relative singular-value cutoff", ("detect-affine",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdcurves",
        description="Finite-dimensional futures-curve model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        for flag, (kind, text, readers) in _FLAGS.items():
            if name in readers:
                p.add_argument(flag, type=kind, help=text)
        p.add_argument("--output-dir", help="where to write artifacts "
                       f"(default: scenario, then ${OUTPUT_DIR_ENV}, then cwd)")
    parser.commands = sub.choices  # each subcommand's parser, by name
    return parser


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> None:
    given = {k: v for k, v in vars(args).items() if v is not None}
    if "tolerance" in given:
        scenario.tolerance = _threshold(given["tolerance"], "--tolerance")
    scenario.rank_tol = given.get("rank_tol", scenario.rank_tol)
    sim = [key for key in ("seed", "n_paths", "dt") if key in given]
    if sim and scenario.sim is None:
        raise ScenarioError("--seed/--n-paths/--dt override sim fields, "
                            "but the scenario has no sim section")
    for key in sim:
        setattr(scenario.sim, key, given[key])


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # refused by the subcommand's parser, so the message shows its usage
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        scenario = load_scenario(args.scenario)
        _apply_overrides(scenario, args)
        out_dir = Path(args.output_dir or scenario.output_dir
                       or os.environ.get(OUTPUT_DIR_ENV) or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
            exit_code, result = _COMMANDS[args.command](scenario, out_dir)
        result.wall_time_s = time.perf_counter() - started
        _write_json(out_dir / "run_result.json", result.to_dict())
    # ScenarioError is a ValueError
    except (ValueError, ArithmeticError, OSError, SimulationError) as exc:
        print(f"error: {exc}")
        return 2
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
