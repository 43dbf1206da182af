"""consistency_sweep: the deterministic verdict path over the whole model zoo.

Models: every ``builtin_models()`` entry plus the ``custom_affine.json``
model, all on the default Chebyshev grid except ``gaussian-example``, which
runs on uniform(40, 3.0) as in ``gaussian_probe.json``. A batch holds

* per model, ``QUERIES_PER_MODEL`` queries at seeded states y: one
  ``solve_drift`` (plus ``rn_residual``) for a seeded diffusion matrix and
  one ``scc_probe``. Affine families get a random lower-triangular sigma;
  the Gaussian family alternates sigma = 1, which it supports, with a
  seeded sigma != 1, which it cannot;
* per model, one ``detect_affine`` over d + 5 seeded states;
* the fixed reconstructions of ``RECONSTRUCT``: ``reconstruct_from_eta``
  with 1000 RK4 steps to a seeded state, for one d = 1 and one d = 2
  family with a non-linear factor map.

Models are built once in setup and reused, so the basis cache stays warm.
"""

from __future__ import annotations

import json
import time

import numpy as np

import fdcurves as fd
import oracle
from common import SCENARIOS, Batch, Op, import_probe, median, p99, ratio

QUERIES_PER_MODEL = 30
RK_STEPS = 1000
RECONSTRUCT = ("affine1-exp-expmap", "custom-affine")
GAUSSIAN = "gaussian-example"
AFFINE_TOL = 1e-8
GAUSSIAN_MIN_RESIDUAL = 1e-3
RECONSTRUCT_TOL = 1e-6


def _model_specs() -> dict[str, tuple[dict, dict]]:
    """name -> (model spec, grid spec) for the zoo and the custom scenario."""
    default_grid = {"kind": "chebyshev", "n": 40, "x_max": 5.0}
    gaussian_grid = json.loads((SCENARIOS / "gaussian_probe.json").read_text())["grid"]
    specs = {name: ({"builtin": name}, gaussian_grid if name == GAUSSIAN else default_grid)
             for name in fd.builtin_models()}
    custom = json.loads((SCENARIOS / "custom_affine.json").read_text())
    specs["custom-affine"] = (custom["model"], custom["grid"])
    return specs


class ConsistencySweep:
    name = "consistency_sweep"
    known_defects: set = set()

    def __init__(self, seed: int, speed):
        self.seed = seed
        self.speed = speed
        self.specs = _model_specs()
        self.oracles = {}

    def setup(self) -> None:
        import_probe()
        self.models, self.grids, self.origin = {}, {}, {}
        for name, (spec, grid_spec) in self.specs.items():
            model = fd.model_from_dict(spec)
            grid = fd.XGrid.from_dict(grid_spec)
            y = np.full(model.d, 0.25)
            fd.solve_drift(model, y, np.eye(model.d), grid)
            fd.scc_probe(model, y, grid)
            self.models[name], self.grids[name] = model, grid
            if name in RECONSTRUCT:
                origin = np.zeros(model.d)
                self.origin[name] = (model.value(0.0, origin), model.grad_y(0.0, origin))
            if name not in self.oracles:
                self.oracles[name] = oracle.CurveOracle(spec, grid.nodes)

    def _query_input(self, rng, name, model, i):
        if name == GAUSSIAN:
            y = rng.uniform(-1.0, 0.5, 1)
            s = 1.0 if i % 2 == 0 else rng.choice([rng.uniform(0.3, 0.8),
                                                   rng.uniform(1.2, 2.0)])
            return y, np.array([[s]])
        d = model.d
        y = rng.uniform(-1.0, 1.0, d)
        sigma = (np.tril(rng.uniform(-0.5, 0.5, (d, d)), -1)
                 + np.diag(rng.uniform(0.2, 1.5, d)))
        return y, sigma

    def run_batch(self, batch: Batch) -> None:
        rng = np.random.default_rng([self.seed, batch.index])
        for name, model in self.models.items():
            grid = self.grids[name]
            for i in range(QUERIES_PER_MODEL):
                y, sigma = self._query_input(rng, name, model, i)
                self.speed.maybe_sample()
                op = Op("query", name, data={"y": y, "sigma": sigma})
                t0 = time.perf_counter()
                try:
                    res = fd.solve_drift(model, y, sigma, grid)
                    _, rmax = fd.rn_residual(model, y, sigma, res.b, grid)
                    probe = fd.scc_probe(model, y, grid)
                    op.wall = time.perf_counter() - t0
                    op.data.update(res=res, rmax=rmax, probe=probe)
                except Exception as exc:  # counted as a failed operation
                    op.error(exc)
                batch.ops.append(op)
            samples = (rng.uniform(-1.0, 0.5, (model.d + 5, 1)) if name == GAUSSIAN
                       else rng.uniform(-1.0, 1.0, (model.d + 5, model.d)))
            op = Op("detect", name)
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            try:
                op.data["rank"] = fd.detect_affine(model, samples, np.zeros(model.d), grid).rank
                op.wall = time.perf_counter() - t0
            except Exception as exc:  # counted as a failed operation
                op.error(exc)
            batch.ops.append(op)
        for name in RECONSTRUCT:
            model, grid = self.models[name], self.grids[name]
            y = rng.uniform(-1.0, 1.0, model.d)
            g0, grad0 = self.origin[name]
            op = Op("reconstruct", name, data={"y": y})
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            try:
                eta = fd.eta_field_from_model(model, grid)
                op.data["value"] = fd.reconstruct_from_eta(eta, g0, grad0, y, RK_STEPS)
                op.wall = time.perf_counter() - t0
            except Exception as exc:  # counted as a failed operation
                op.error(exc)
            batch.ops.append(op)
        batch.wall = sum(op.wall for op in batch.ops)

    def check(self, batch: Batch) -> None:
        for op in batch.ops:
            if op.failed_checks:
                continue
            name, d = op.label, op.data
            orc = self.oracles[name]
            if op.kind == "query":
                sigma = d["sigma"]
                # the drift must be exact under the README's sigma[i,j]*sigma[j,i]
                # weighting or under the covariance sigma sigma^T; which one is
                # right is the convention defect mc_verify checks
                oracle_res = min(orc.drift_residual(d["y"], d["res"].b, w)
                                 for w in (sigma * sigma.T, sigma @ sigma.T))
                probe_res = orc.probe_residual(d["y"], d["probe"].eta, d["probe"].gamma)
                if name != GAUSSIAN:
                    op.check("affine_drift_residual", max(oracle_res, d["rmax"]) <= AFFINE_TOL,
                             f"residual {oracle_res:.3g}")
                    op.check("affine_probe_residual", probe_res <= AFFINE_TOL
                             and not d["probe"].inconclusive, f"residual {probe_res:.3g}")
                elif sigma[0, 0] == 1.0:
                    op.check("gaussian_unit_vol_passes", oracle_res <= AFFINE_TOL,
                             f"residual {oracle_res:.3g}")
                else:
                    op.check("gaussian_other_vol_fails",
                             d["rmax"] >= GAUSSIAN_MIN_RESIDUAL
                             and oracle_res >= GAUSSIAN_MIN_RESIDUAL,
                             f"residual {oracle_res:.3g} at sigma={sigma[0, 0]:.3g}")
                if name == GAUSSIAN:
                    op.check("gaussian_probe_fails", probe_res >= GAUSSIAN_MIN_RESIDUAL,
                             f"probe residual {probe_res:.3g}")
            elif op.kind == "detect":
                model = self.models[name]
                ok = d["rank"] > model.d if name == GAUSSIAN else d["rank"] == model.d
                op.check("rank_law", ok, f"rank {d['rank']} for d={model.d}")
            else:
                direct = self.models[name].value(0.0, d["y"])
                err = abs(d["value"] - direct)
                op.check("reconstruction", err <= RECONSTRUCT_TOL, f"abs error {err:.3g}")
            op.data = {}

    def metrics(self, batches: list[Batch]) -> tuple[dict, dict]:
        queries = [op.wall for b in batches for op in b.ops if op.kind == "query" and op.wall]
        recon = median(
            ratio(sum(walls), len(walls)) for walls in
            ([op.wall for op in b.ops if op.kind == "reconstruct" and op.wall] for b in batches))
        queries_per_s = ratio(len(queries), sum(queries))
        q50, q99 = median(queries) * 1e3, p99(queries) * 1e3
        generic = {"throughput_per_s": queries_per_s, "op_p50_ms": q50, "heavy_p50_s": recon}
        named = {"queries_per_s": (queries_per_s, "1/s"), "query_p50_ms": (q50, "ms"),
                 "query_p99_ms": (q99, "ms"), "query_samples": (len(queries), "count"),
                 "reconstruct_p50_s": (recon, "s")}
        return generic, named
