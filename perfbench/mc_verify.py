"""mc_verify: the Monte Carlo verification pipeline, one job at a time.

A job simulates factor paths under the library's risk-neutral drift
(``rn_drift``), runs ``martingale_test`` on the delivery window (1, 2), then
``estimate_vol`` and ``scc_loop`` on the same paths. Every job builds its
model afresh from the JSON specification, as a separate verification run
would, so the per-grid basis cache starts cold. A batch is one job of each
case:

* A -- ``affine1-exp-identity`` with sigma = [[1]] and y0 = 1, taken from
  ``scenarios/affine_demo.json``;
* B -- the d = 2 componentwise-cubic model of
  ``scenarios/custom_affine.json`` with the correlated lower-triangular
  sigma [[0.5, 0], [0.45, 0.2]], the Cholesky shape ``scc_loop`` produces.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

import fdcurves as fd
import oracle
from common import SCENARIOS, Batch, Op, import_probe, median, ratio

N_PATHS = 200
N_STEPS = 100
HORIZON = 0.5
WINDOW = (1.0, 2.0)
N_VISITED = 20
SIGMA_B = [[0.5, 0.0], [0.45, 0.2]]
DRIFT_TOL = 1e-6
Z_TOL = 1e-8
PATH_TOL = 1e-12
VOL_RTOL = 1e-12


@dataclass(frozen=True)
class Case:
    label: str
    model: dict
    grid: dict
    sigma: np.ndarray
    y0: np.ndarray


def load_cases() -> list[Case]:
    demo = json.loads((SCENARIOS / "affine_demo.json").read_text())
    custom = json.loads((SCENARIOS / "custom_affine.json").read_text())
    return [
        Case("A", demo["model"], demo["grid"], np.array(demo["sigma"], dtype=float),
             np.array(demo["sim"]["y0"], dtype=float)),
        Case("B", custom["model"], custom["grid"], np.array(SIGMA_B),
             np.array(custom["y_samples"][0], dtype=float)),
    ]


class McVerify:
    name = "mc_verify"
    known_defects = {("B", "drift_identity")}

    def __init__(self, seed: int, speed):
        self.seed = seed
        self.speed = speed
        self.cases = load_cases()
        self.oracles = {}

    def _job(self, case: Case, sim_seed: int, n_paths: int, n_steps: int) -> Op:
        op = Op("job", case.label)
        t0 = time.perf_counter()
        model = fd.model_from_dict(case.model)
        grid = fd.XGrid.from_dict(case.grid)
        drift = fd.rn_drift(model, case.sigma, grid)
        spec = fd.SdeSpec(d=model.d, drift=drift, sigma=case.sigma, y0=case.y0)
        ps = fd.simulate(spec, HORIZON / n_steps, HORIZON, n_paths, sim_seed)
        simulate_s = time.perf_counter() - t0
        self.speed.maybe_sample()
        t1 = time.perf_counter()
        mt = fd.martingale_test(model, ps, fd.FuturesSpec(*WINDOW))
        vol = fd.estimate_vol(ps)
        loop = fd.scc_loop(model, ps, grid)
        op.times = {"simulate": simulate_s, "verify": time.perf_counter() - t1}
        op.wall = simulate_s + op.times["verify"]
        op.data = {"ps": ps, "z": mt.z_score, "vol": vol, "loop_ok": loop.verdict,
                   "drift": drift, "sim_seed": sim_seed,
                   "path_steps": n_paths * n_steps}
        return op

    def setup(self) -> None:
        import_probe()
        for case in self.cases:
            self._job(case, 0, 20, 10)
            if case.label not in self.oracles:
                xs = fd.XGrid.from_dict(case.grid).nodes
                self.oracles[case.label] = oracle.CurveOracle(case.model, xs)

    def run_batch(self, batch: Batch) -> None:
        rng = np.random.default_rng([self.seed, batch.index])
        sim_seeds = rng.integers(0, 2**31, size=len(self.cases))
        for case, sim_seed in zip(self.cases, sim_seeds):
            self.speed.maybe_sample()
            try:
                op = self._job(case, int(sim_seed), N_PATHS, N_STEPS)
            except Exception as exc:  # counted as a failed operation
                op = Op("job", case.label)
                op.error(exc)
            batch.ops.append(op)
            batch.wall += op.wall

    def check(self, batch: Batch) -> None:
        rng = np.random.default_rng([self.seed, batch.index, 1])
        for op in batch.ops:
            if not op.data:
                continue
            case = next(c for c in self.cases if c.label == op.label)
            d = op.data
            paths = d["ps"].paths
            if case.label == "A":
                ref = oracle.euler_paths(case.y0, case.sigma, lambda y: -y,
                                         HORIZON / N_STEPS, N_STEPS, N_PATHS, d["sim_seed"])
                err = float(np.max(np.abs(ref - paths)))
                op.check("euler_closed_form", err <= PATH_TOL, f"max |diff| = {err:.3g}")
            z_ref = oracle.martingale_z(case.model, paths, HORIZON, WINDOW)
            op.check("z_score", abs(z_ref - d["z"]) <= Z_TOL * max(1.0, abs(z_ref)),
                     f"z = {d['z']:.12g}, exact windows give {z_ref:.12g}")
            flat = paths.reshape(-1, paths.shape[2])
            visited = flat[rng.choice(flat.shape[0], N_VISITED, replace=False)]
            b = np.atleast_2d(d["drift"](visited))
            cov = case.sigma @ case.sigma.T
            worst = max(self.oracles[case.label].drift_residual(y, by, cov)
                        for y, by in zip(visited, b))
            op.check("drift_identity", worst <= DRIFT_TOL,
                     f"max residual {worst:.3g} for covariance sigma sigma^T")
            vol_ref = oracle.realised_covariation(paths, HORIZON)
            err = float(np.max(np.abs(vol_ref - d["vol"])) / np.max(np.abs(vol_ref)))
            op.check("estimate_vol", err <= VOL_RTOL, f"relative error {err:.3g}")
            op.check("scc_loop_verdict", bool(d["loop_ok"]), "affine family rejected")
            op.data = {"path_steps": d["path_steps"]}

    def metrics(self, batches: list[Batch]) -> tuple[dict, dict]:
        jobs = [op for b in batches for op in b.ops if op.times]
        steps = sum(op.data["path_steps"] for op in jobs)
        path_steps_per_s = ratio(steps, sum(op.wall for op in jobs))
        verify = median(sum(op.times["verify"] for op in b.ops if op.times) for b in batches)
        simulate = median(sum(op.times["simulate"] for op in b.ops if op.times)
                          for b in batches)
        generic = {"throughput_per_s": path_steps_per_s, "op_p50_ms": verify * 1e3,
                   "heavy_p50_s": simulate}
        named = {"path_steps_per_s": (path_steps_per_s, "1/s"),
                 "verify_p50_s": (verify, "s"), "simulate_p50_s": (simulate, "s")}
        return generic, named
