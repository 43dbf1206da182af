"""cli_scenarios: the README command-line examples, each in its own process.

Every command of the README "Command line" block runs as
``python -m fdcurves ...`` on the shipped scenario file, one after another,
from a scratch working directory, so each pays interpreter, import and
scenario start-up and writes its artifacts where a user's run would.
Path counts are cut to ``N_PATHS`` with the CLI's own ``--n-paths`` flag;
``simulate`` takes its ``--seed`` from the benchmark seed in place of the
README's 7. Traced batches run the same commands through
``cli_driver.py``, which installs the spans and then calls
``fdcurves.cli.main``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import shutil
import struct
import subprocess
from pathlib import Path

import numpy as np

import fdcurves as fd
from common import SCENARIOS, WORK, Batch, Op, median, ratio, run_child

N_PATHS = 200
DRIVER = Path(__file__).resolve().parent / "cli_driver.py"

# (subcommand, scenario file, extra flags, README exit code, verdict line)
COMMANDS = [
    ("check-drift", "affine_demo.json", [], 0, r"DRIFT-OK \("),
    ("scc-probe", "gaussian_probe.json", [], 1, r"SCC-VIOLATION \("),
    ("detect-affine", "custom_affine.json", [], 0, r"rank=2"),
    ("simulate", "affine_demo.json", ["--seed", "SEED", "--n-paths", str(N_PATHS)], 0,
     rf"simulated n_paths={N_PATHS} n_times=501 d=1 "),
    ("price", "affine_demo.json", [], 0, r"\d+\.\d{6}"),
    ("martingale-test", "affine_demo.json", ["--n-paths", str(N_PATHS)], 0,
     r"MARTINGALE-OK \("),
    ("estimate-vol", "affine_demo.json", ["--n-paths", str(N_PATHS)], 0,
     r"sigma_sq_hat=\[\["),
    ("reconstruct", "affine_demo.json", [], 0, r"reconstructed=\S+ direct=\S+ abs_error="),
]
SIMULATING = ("simulate", "martingale-test", "estimate-vol")
PRICE_TOL = 1e-10
PATH_TOL = 1e-12


def read_paths_bin(path: Path) -> np.ndarray:
    """Parse the documented paths.bin layout (magic, u64 dims, f64 dt/T, u64 seed)."""
    raw = path.read_bytes()
    n_paths, n_times, d, _, _, _ = struct.unpack_from("<QQQddQ", raw, 16)
    data = np.frombuffer(raw, dtype="<f8", offset=16 + struct.calcsize("<QQQddQ"))
    return data.reshape(n_paths, n_times, d)


class CliScenarios:
    name = "cli_scenarios"
    known_defects = {("detect-affine", "readme_outcome")}
    in_process_trace = False  # spans come from the command processes

    def __init__(self, seed: int, speed):
        self.speed = speed
        self.sim_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        self.cwd = WORK / "cli"
        shutil.rmtree(self.cwd, ignore_errors=True)
        self.cwd.mkdir(parents=True)
        self.paths_digest = None

    def _argv(self, cmd, scenario, extra) -> list[str]:
        extra = [str(self.sim_seed) if a == "SEED" else a for a in extra]
        return [cmd, "--scenario", str(SCENARIOS / scenario), *extra]

    def setup(self) -> None:
        proc, _ = run_child(["-m", "fdcurves", *self._argv(*COMMANDS[0][:3])], self.cwd)
        if proc.returncode != 0:
            raise RuntimeError(f"check-drift failed in setup: {proc.stdout}{proc.stderr}")

    def run_batch(self, batch: Batch) -> None:
        for i, (cmd, scenario, extra, _, _) in enumerate(COMMANDS):
            scen = json.loads((SCENARIOS / scenario).read_text())
            out_dir = self.cwd / scen["output_dir"]
            result_file = out_dir / "run_result.json"
            result_file.unlink(missing_ok=True)
            argv = self._argv(cmd, scenario, extra)
            if batch.traced:
                spans_file = self.cwd / f"spans_{batch.index}_{i}.json"
                args = [str(DRIVER), str(spans_file), *argv]
            else:
                args = ["-m", "fdcurves", *argv]
            op = Op("command", cmd)
            self.speed.maybe_sample()
            try:
                proc, op.wall = run_child(args, self.cwd)
            except subprocess.TimeoutExpired as exc:
                op.error(exc)
                batch.ops.append(op)
                continue
            op.data = {"code": proc.returncode, "stdout": proc.stdout,
                       "out_dir": out_dir, "scenario": scen}
            if result_file.is_file():
                result = json.loads(result_file.read_text())
                op.times["startup"] = op.wall - result["wall_time_s"]
                op.data["artifact_bytes"] = sum((self.cwd / a).stat().st_size
                                                for a in result["artifacts"])
            if batch.traced and spans_file.is_file():
                op.data["spans"] = json.loads(spans_file.read_text())
            batch.ops.append(op)
            batch.wall += op.wall
            # checks that need this command's artifacts run before the next
            # command overwrites them; they are not part of any timing
            self._check_artifacts(op)

    def _check_artifacts(self, op: Op) -> None:
        d = op.data
        if op.label == "simulate" and d["code"] == 0:
            raw = (d["out_dir"] / "paths.bin").read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            if self.paths_digest is None:
                sim = d["scenario"]["sim"]
                model = fd.model_from_dict(d["scenario"]["model"])
                grid = fd.XGrid.from_dict(d["scenario"]["grid"])
                spec = fd.SdeSpec(d=model.d, drift=fd.rn_drift(model, d["scenario"]["sigma"], grid),
                                  sigma=d["scenario"]["sigma"], y0=sim["y0"])
                ref = fd.simulate(spec, sim["dt"], sim["T"], N_PATHS, self.sim_seed).paths
                got = read_paths_bin(d["out_dir"] / "paths.bin")
                err = (float(np.max(np.abs(got - ref))) if got.shape == ref.shape
                       else math.inf)
                op.check("paths_bin_matches_in_process", err <= PATH_TOL,
                         f"max |diff| = {err:.3g}")
                if err <= PATH_TOL:
                    self.paths_digest = digest
            else:
                op.check("paths_bin_deterministic", digest == self.paths_digest,
                         "paths.bin differs from the first batch")
        if op.label == "price" and d["code"] == 0:
            scen = d["scenario"]
            fs = scen["futures"][0]
            window = (math.exp(-fs["T1"]) - math.exp(-fs["T2"])) / (fs["T2"] - fs["T1"])
            expected = [window * y[0] for y in scen["y_samples"]]
            lines = (d["out_dir"] / "prices.csv").read_text().splitlines()[1:]
            got = [float(line.split(",")[3]) for line in lines]
            printed = [float(x) for x in d["stdout"].split()]
            ok = (len(got) == len(expected) == len(printed)
                  and all(abs(g - e) <= PRICE_TOL for g, e in zip(got, expected))
                  and all(abs(p - e) <= 5e-7 for p, e in zip(printed, expected)))
            op.check("price_closed_form", ok, f"prices {got}, expected {expected}")

    def check(self, batch: Batch) -> None:
        expected = {cmd: (code, line) for cmd, _, _, code, line in COMMANDS}
        for op in batch.ops:
            if not op.data:
                continue
            d = op.data
            code, line = expected[op.label]
            seen = any(re.match(line, row) for row in d["stdout"].splitlines())
            op.check("readme_outcome", d["code"] == code and seen,
                     f"exit {d['code']} (README: {code}), output {d['stdout'].strip()[:120]!r}")
            op.data = {k: v for k, v in d.items()
                       if k in ("artifact_bytes", "spans")}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def metrics(self, batches: list[Batch]) -> tuple[dict, dict]:
        ops = [op for b in batches for op in b.ops]
        startup = median(op.times["startup"] for op in ops if "startup" in op.times)
        per_s = ratio(len(ops), sum(op.wall for op in ops))
        simulating = median(sum(op.wall for op in b.ops if op.label in SIMULATING)
                            for b in batches)
        generic = {"throughput_per_s": per_s, "op_p50_ms": startup * 1e3,
                   "heavy_p50_s": simulating}
        named = {"startup_p50_s": (startup, "s"), "commands_per_s": (per_s, "1/s"),
                 "simulating_commands_p50_s": (simulating, "s")}
        return generic, named

    def layer_metrics(self, traced: list[Batch]) -> dict[str, float]:
        out = {}
        for cmd, *_ in COMMANDS:
            out[f"cli.{cmd}.wall_s"] = median(
                op.wall for b in traced for op in b.ops if op.label == cmd)
        out["cli.startup_s"] = median(
            op.times["startup"] for b in traced for op in b.ops if "startup" in op.times)
        out["cli.artifact_bytes"] = ratio(sum(op.data.get("artifact_bytes", 0)
                                             for b in traced for op in b.ops), len(traced))
        return out

    def child_spans(self, traced: list[Batch]) -> list[dict]:
        return [op.data["spans"] for b in traced for op in b.ops if "spans" in op.data]
