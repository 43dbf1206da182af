"""fdcurves benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 30 --trace 0

Workloads: mc_verify, consistency_sweep, cli_scenarios (see perfbench/README.md).
One process runs one job at a time, with BLAS pinned to one thread. Set-up
runs ``SETUP_REPS`` times and reports the median; then fixed batches run
until the next one would pass ``--seconds``. Each batch's outputs are
checked against independent references outside the timed region. Times
and rates are scaled to a host of nominal speed with ``common.SpeedProbe``.

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` untraced and traced batches alternate
and the metrics are the per-layer ones, per traced batch, plus the tracing
overhead. Lines before it give the run record, the workload's own metric
names and every failed check. Exits 2 without a result when the
repository's sources are not next to the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # common.BLAS_THREADS; must precede the numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import common  # noqa: E402

SETUP_REPS = 5
WORKLOADS = ("mc_verify", "consistency_sweep", "cli_scenarios")


def load_workload(name: str, seed: int, speed):
    sys.path.insert(0, str(common.SRC))
    if name == "mc_verify":
        from mc_verify import McVerify
        return McVerify(seed, speed)
    if name == "consistency_sweep":
        from consistency_sweep import ConsistencySweep
        return ConsistencySweep(seed, speed)
    from cli_scenarios import CliScenarios
    return CliScenarios(seed, speed)


def run_record(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(common.SRC.rglob("*.py")))
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": common.BLAS_THREADS,
            "src_lines": src_lines}


def scaled(value: float, unit: str, scale: float) -> float:
    """A time (or rate) as it would read on a host of nominal speed."""
    if unit in ("s", "ms"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def run_batches(workload, seconds: float, tracer, speed) -> list:
    """Fixed batches until the next would end past the deadline (at least one;
    with a tracer, at least one untraced and one traced, alternating)."""
    in_process = tracer is not None and getattr(workload, "in_process_trace", True)
    deadline = time.perf_counter() + seconds
    batches = []
    while True:
        batch = common.Batch(index=len(batches),
                             traced=tracer is not None and len(batches) % 2 == 1)
        speed.sample()
        t0 = time.perf_counter()
        if in_process and batch.traced:
            tracer.active = True
        try:
            workload.run_batch(batch)
        finally:
            if tracer is not None:
                tracer.active = False
        workload.check(batch)
        batches.append(batch)
        cycle = time.perf_counter() - t0
        need_traced = tracer is not None and len(batches) < 2
        if not need_traced and time.perf_counter() + cycle > deadline:
            return batches


def per_layer(workload, batches, tracer) -> dict:
    import spans
    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    parts = [tracer.summary()]
    if hasattr(workload, "child_spans"):
        parts += workload.child_spans(traced)
    raw = spans.merge(parts)
    n = len(traced)
    out = {key: value / n for key, value in raw.items()}
    basis = raw.get("families.basis_calls", 0.0)
    out["families.basis_miss_share"] = raw.get("families.basis_misses", 0.0) / basis if basis else 0.0
    recon = raw.get("noarb.reconstruct_from_eta.calls", 0.0)
    out["noarb.scc_probe.per_reconstruct"] = (
        raw.get("noarb.scc_probe.under_reconstruct", 0.0) / recon if recon else 0.0)
    if hasattr(workload, "layer_metrics"):
        out.update(workload.layer_metrics(traced))
    out["trace.overhead_s"] = (common.median(b.wall for b in traced)
                               - common.median(b.wall for b in plain))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (common.SRC / "fdcurves" / "__init__.py").is_file() or not common.SCENARIOS.is_dir():
        print(f"error: no fdcurves sources under {common.SRC} or no scenarios/ "
              "(run from the repository root)", file=sys.stderr)
        return 2

    spec_file = common.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text())
    speed = common.SpeedProbe()
    workload = load_workload(args.workload, args.seed, speed)
    record = run_record(args.seed)
    common.WORK.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            speed.sample()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        batches = run_batches(workload, args.seconds, tracer, speed)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    ops = [op for b in batches for op in b.ops]
    failed = [op for op in ops if op.failed_checks]
    unexpected = [(op, name, detail) for op in failed for name, detail in op.failed_checks
                  if (op.label, name) not in workload.known_defects]
    scale = speed.scale()
    record.update(host_ref_ms=1e3 * common.median(speed.samples),
                  time_scale=scale, ref_samples=len(speed.samples))
    print("run_record " + json.dumps(record, sort_keys=True))
    for op in failed:
        for name, detail in op.failed_checks:
            known = (op.label, name) in workload.known_defects
            print(f"{'known defect' if known else 'FAILED'}: {workload.name} "
                  f"{op.kind} {op.label} check {name}: {detail}")

    if args.trace:
        layers = per_layer(workload, batches, tracer)
        metrics = {m["name"]: {"value": scaled(layers.get(m["name"], 0.0), m["unit"], scale),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        generic, named = workload.metrics(batches)
        rss = (workload.peak_rss_mb() if hasattr(workload, "peak_rss_mb")
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        generic.update(setup_s=common.median(setup_times),
                       run_s=common.median(b.wall for b in batches),
                       peak_rss_mb=rss,
                       passed_share=1.0 - len(failed) / len(ops))
        named.update(failed_share=(len(failed) / len(ops), f"of {len(ops)} operations"))
        print(f"{workload.name} (unscaled) "
              + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in named.items()))
        metrics = {m["name"]: {"value": scaled(generic[m["name"]], m["unit"], scale),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    # a metric with no samples (every operation raised) reads 0; the run
    # is then reported as not correct
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
