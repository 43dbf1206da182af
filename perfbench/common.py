"""Shared pieces of the workloads: batch records, checks, child processes and the host-speed probe."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

ROOT = Path.cwd()
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120
# Reference-kernel time of a host at the speed the timings are scaled to
# (the kernel's time on the 2-core host the bounds were set on, when fast).
REF_NOMINAL_S = 1.5e-3
SAMPLE_INTERVAL_S = 0.1
_REF_A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
_REF_V = np.linspace(0.0, 1.0, 129)


class SpeedProbe:
    """Tracks the host's speed with a fixed numpy/scipy kernel.

    The host's speed drifts by tens of percent over seconds to minutes,
    uniformly across the code this benchmark runs. ``sample`` times a small
    kernel of the same mix (scipy ``expm`` on a 2x2 generator and short
    numpy reductions); workloads call ``maybe_sample`` between operations,
    outside any timed region. ``scale`` converts this run's times to a host
    on which the kernel takes ``REF_NOMINAL_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        for i in range(100):
            expm(_REF_A * (0.01 * i))
            float((_REF_V * _REF_V).sum())
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, float]:
    """Run one Python child process to completion; returns it and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - t0


def import_probe() -> float:
    """Wall time of a fresh interpreter importing the package."""
    proc, wall = run_child(["-c", "import fdcurves"], ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing fdcurves failed: {proc.stderr.strip()}")
    return wall


@dataclass
class Op:
    """One operation of a batch: its kind, label, wall time and failed checks."""

    kind: str
    label: str
    wall: float = 0.0
    times: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict, repr=False)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed_checks.append((name, detail))

    def error(self, exc: BaseException) -> None:
        self.failed_checks.append(("raised", f"{type(exc).__name__}: {exc}"))


@dataclass
class Batch:
    index: int
    traced: bool
    wall: float = 0.0
    ops: list = field(default_factory=list)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("nan")


def p99(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float("nan")
    return float(statistics.quantiles(values, n=100)[98])
