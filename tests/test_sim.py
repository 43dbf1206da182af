"""Simulation, futures pricing, martingale and volatility statistics."""

import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from fdcurves.families import (AffineModel, ComponentwiseCubicMap, ExpMinusOneMap,
                               GaussianExampleModel, IdentityMap, NumericCurveFamily,
                               _simpson_weights, builtin_models, model_from_dict)
from fdcurves.noarb import RANK_TOL, XGrid, rn_residual, solve_drift
from fdcurves.qe import (MatrixExponentialOverflowError, QEFunction, qe_derivative,
                         qe_integral)
from fdcurves import noarb, sim
from fdcurves.sim import (N_QUAD, PATHSET_MAGIC, FuturesSpec, PathSet, SccLoopReport,
                          SdeSpec, SimulationError, estimate_vol, futures_price,
                          martingale_test, nearest_psd, rn_drift, scc_loop, simulate)

GRID = XGrid.chebyshev()
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FS12 = FuturesSpec(1.0, 2.0)
CUSTOM_SIGMA = [[0.5, 0.0], [0.45, 0.2]]


def ou_spec(sigma=1.0, y0=0.0):
    return SdeSpec(d=1, drift=lambda y: -y, sigma=[[sigma]], y0=[y0])


def driftless(sigma=1.0, y0=0.0, d=1):
    return SdeSpec(d=d, drift=lambda y: 0.0 * y,
                   sigma=np.eye(d) * sigma, y0=np.full(d, float(y0)))


def simple_affine():
    return AffineModel(c=QEFunction.constant(0.0),
                       u=[QEFunction.exponential(-1.0)],
                       factor_map=IdentityMap(1))


def pricing_models():
    models = dict(builtin_models())
    custom = json.loads((SCENARIOS / "custom_affine.json").read_text())["model"]
    models["custom_affine.json"] = model_from_dict(custom)
    models["numeric-d1"] = NumericCurveFamily(
        lambda x, y: float(np.exp(-x) * np.sin(y[0])), d=1)
    # a growing loading, and a 7-state poly x trig one whose exponentials
    # take scipy's general Pade route rather than the 1x1 or 2x2 formulas
    models["positive-rate-qe"] = AffineModel(
        c=QEFunction.exponential(0.7, 0.3), u=[QEFunction.exponential(1.3)],
        factor_map=IdentityMap(1))
    models["poly-trig-qe"] = AffineModel(
        c=QEFunction.constant(0.1),
        u=[QEFunction.from_poly_trig([(-0.3, 2.0, [1.0, 0.5], [0.2, -0.1]),
                                      (0.0, 0.0, [0.5, 0.1, 0.05], [])])],
        factor_map=ExpMinusOneMap(1))
    return models


AFFINE_PRICING = sorted(name for name, m in pricing_models().items()
                        if isinstance(m, AffineModel))


def window_average(m, y, t, fs=FS12):
    """Simpson over the whole curve g(u - t, y): the generic reference price."""
    us, w = _simpson_weights(fs.T1, fs.T2, N_QUAD)
    return float(w @ m.curve_matrix(us - t, np.asarray(y, dtype=float)[None])[0]
                 / (fs.T2 - fs.T1))


# -- simulate -----------------------------------------------------------------


def test_zero_vol_zero_drift_paths_are_constant():
    ps = simulate(SdeSpec(d=1, drift=lambda y: 0.0 * y, sigma=[[0.0]],
                          y0=[2.5]), 0.01, 0.1, 3, seed=1)
    assert np.array_equal(ps.paths, np.full_like(ps.paths, 2.5))


def test_simulation_is_bit_reproducible():
    a = simulate(ou_spec(), 0.01, 1.0, 6, seed=99)
    b = simulate(ou_spec(), 0.01, 1.0, 6, seed=99)
    assert np.array_equal(a.paths, b.paths)
    assert a.seed == 99


def test_path_substreams_do_not_depend_on_path_count():
    # per-path keying means the first paths never change when more are added
    a = simulate(ou_spec(), 0.01, 1.0, 8, seed=5)
    b = simulate(ou_spec(), 0.01, 1.0, 4, seed=5)
    assert np.array_equal(a.paths[:4], b.paths)


def test_drift_that_refuses_batches_is_rejected():
    def one_state_only(y):
        return np.array([-float(np.ravel(y)[0])])  # (d,) whatever the input

    spec = SdeSpec(d=1, drift=one_state_only, sigma=[[1.0]], y0=[0.0])
    with pytest.raises(ValueError, match=r"\(n_paths, d\) = \(5, 1\)"):
        simulate(spec, 0.01, 0.5, 5, seed=3)


def test_ou_terminal_variance_matches_stationary_formula():
    # Var Y_T = (1 - e^(-2T)) / 2 for unit-vol OU started at zero
    ps = simulate(ou_spec(), 0.01, 2.0, 10_000, seed=42)
    var = ps.paths[:, -1, 0].var(ddof=1)
    target = (1.0 - np.exp(-4.0)) / 2.0
    se = target * np.sqrt(2.0 / 10_000)
    assert abs(var - target) <= 3.0 * se


def test_driftless_terminal_mean_is_centred():
    ps = simulate(driftless(), 1e-2, 1.0, 4000, seed=8)
    mean = ps.paths[:, -1, 0].mean()
    assert abs(mean) <= 3.0 / np.sqrt(4000)


def test_non_finite_drift_aborts_with_path_index():
    def bad_drift(y):
        out = -np.atleast_2d(y).copy()
        out[np.atleast_2d(y)[:, 0] > 1.5] = np.nan
        return out if np.asarray(y).ndim == 2 else out[0]

    spec = SdeSpec(d=1, drift=bad_drift, sigma=[[0.0]], y0=[2.0])
    with pytest.raises(SimulationError, match="path 0"):
        simulate(spec, 0.01, 0.1, 2, seed=0)


def test_simulate_validates_parameters():
    with pytest.raises(ValueError):
        simulate(ou_spec(), -0.1, 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        simulate(ou_spec(), 0.5, 0.1, 1, seed=0)
    with pytest.raises(ValueError):
        simulate(ou_spec(), 0.1, 1.0, 0, seed=0)


@pytest.mark.parametrize("dt, T, message", [
    (math.nan, 0.5, "dt must be positive and finite, got nan"),
    (math.inf, 0.5, "dt must be positive and finite, got inf"),
    (0.1, math.nan, "T / dt must be finite, got T=nan and dt=0.1"),
    (0.1, math.inf, "T / dt must be finite, got T=inf and dt=0.1"),
    (1e-300, 1e10, "T / dt must be finite, got T=10000000000.0 and dt=1e-300"),
])
def test_simulate_names_a_non_finite_step_or_horizon(dt, T, message):
    with pytest.raises(ValueError) as err:
        simulate(ou_spec(), dt, T, 1, seed=0)
    assert str(err.value) == message


def per_path_philox_paths(spec, dt, n_steps, n_paths, seed):
    """Euler paths from one freshly built Philox per path, keyed by the exact
    uint64 pair (seed, p): the reference simulate must reproduce. The drift
    is handed a copy of the state, so what it writes there moves no path."""
    z = np.stack([ndtri(np.maximum(np.random.Generator(np.random.Philox(
        key=np.array([seed, p], np.uint64))).random((n_steps, spec.d)), 1e-300))
        for p in range(n_paths)])
    paths = np.empty((n_paths, n_steps + 1, spec.d))
    paths[:, 0] = y = np.tile(spec.y0, (n_paths, 1))
    for k in range(n_steps):
        # noise_i = sum_j z_j sigma_ij, summed in j order within each row
        noise = z[:, k, :1] * spec.sigma[:, 0]
        for j in range(1, spec.d):
            noise = noise + z[:, k, j:j + 1] * spec.sigma[:, j]
        y = y + spec.drift(y.copy()) * dt + noise * np.sqrt(dt)
        paths[:, k + 1] = y
    return paths


@pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("n_paths", [1, 257])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_simulate_equals_per_path_philox_reference(d, n_paths, seed):
    spec = SdeSpec(d=d, drift=lambda y: -0.5 * y,
                   sigma=np.tril(0.3 * np.ones((d, d))) + 0.4 * np.eye(d),
                   y0=np.linspace(-0.2, 0.3, d))
    ps = simulate(spec, 0.05, 0.25, n_paths, seed)
    assert ps.seed == seed
    assert np.array_equal(ps.paths, per_path_philox_paths(spec, 0.05, 5, n_paths, seed))


def test_seeds_at_and_above_two_to_the_63_are_keyed_exactly():
    paths = [simulate(ou_spec(), 0.1, 0.5, 3, seed).paths
             for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)]
    for i in range(4):
        for j in range(i):
            assert not np.array_equal(paths[i], paths[j]), (i, j)


def test_simulate_builds_one_philox_per_call(monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    simulate(driftless(d=2), 0.1, 0.5, 9, seed=4)
    assert len(built) == 1


def test_ndtri_port_equals_scipy_bit_for_bit():
    k = np.arange(20_000)
    # exp(-2) and its complement bound the central region; exp(-32) is
    # where sqrt(-2 log y) = 8 switches the tail coefficients
    edges = [sim._EXP_M2, 1.0 - sim._EXP_M2, math.exp(-2.0), 1.0 - math.exp(-2.0),
             math.exp(-32.0)]
    neighbours = (np.array(edges)[:, None].view(np.int64)
                  + np.arange(-300, 301)).view(np.float64).ravel()
    u = np.concatenate([
        *(np.random.Generator(np.random.Philox(key=key)).random(500_000)
          for key in (1, 2**40, 2**63 + 5, 2**64 - 1)),
        k[1:] * 2.0**-53, 1.0 - k[1:] * 2.0**-53, [1e-300, 0.5], neighbours])
    # the port's domain is (0, 1): _normals clamps gen.random's [0, 1) at 1e-300,
    # and both ends of that range, 1e-300 and 1 - 2**-53, are in u
    assert u.min() == 1e-300 and u.max() == 1.0 - 2.0**-53
    assert np.array_equal(sim._ndtri(u.copy()).view(np.int64), ndtri(u).view(np.int64))


DRAWS = """
import json, sys
from fdcurves import sim
first, loaded = None, []
for n in json.loads(sys.argv[1]):
    z = sim._normals(5, 2, n // 2, 1)
    first = z if first is None else first
    loaded.append("scipy.special" in sys.modules)
import scipy.special
print(json.dumps({"loaded": loaded,
                  "same": bool((sim._normals(5, 2, first.shape[1], 1) == first).all())}))
"""


@pytest.mark.parametrize("draws, loaded", [
    ([100_000], [False]),
    ([sim._PORT_BUDGET + 2], [True]),
    ([sim._PORT_BUDGET // 16] * 17, [False] * 16 + [True]),
])
def test_normals_import_scipy_once_the_draws_pass_the_budget(draws, loaded):
    # a fresh process draws through sim._ndtri until its running total of
    # normals passes sim._PORT_BUDGET, then through scipy.special.ndtri;
    # the first draw is drawn again through scipy and must match bit for bit
    src = str(Path(sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", DRAWS, json.dumps(draws)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == {"loaded": loaded, "same": True}


@pytest.mark.parametrize("d, message", [
    (2.0, "d must be an integer, got 2.0"), (True, "d must be an integer, got True"),
    (0, "d must be >= 1, got 0")])
def test_sde_spec_rejects_a_dimension_that_is_not_a_positive_integer(d, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SdeSpec(d=d, drift=lambda y: -y, sigma=np.eye(2), y0=[0.0, 0.0])
    spec = SdeSpec(d=np.int64(2), drift=lambda y: -y, sigma=np.eye(2), y0=[0.0, 0.0])
    assert type(spec.d) is int and spec.d == 2


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.True_])
def test_simulate_rejects_seeds_outside_u64(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        simulate(ou_spec(), 0.1, 0.5, 2, seed=seed)


@pytest.mark.parametrize("n_paths", [2.5, True])
def test_simulate_rejects_a_path_count_that_is_not_an_integer(n_paths):
    with pytest.raises(ValueError, match=f"n_paths must be an integer, got {n_paths!r}"):
        simulate(ou_spec(), 0.1, 0.5, n_paths, seed=0)


def test_non_finite_drift_names_the_first_failing_path():
    def bad_drift(y):
        out = -y.copy()
        out[3:, 0] = np.inf
        return out

    spec = SdeSpec(d=2, drift=bad_drift, sigma=np.eye(2), y0=[0.0, 0.0])
    with pytest.raises(SimulationError, match="path 3 at t=0"):
        simulate(spec, 0.01, 0.1, 6, seed=0)


def test_a_state_that_leaves_the_double_range_is_refused_by_the_path_set():
    # the drift is finite on every step, but the first step overflows the
    # second factor of every path, which then stays infinite to the horizon:
    # the path set names the first path at the first time it is non-finite
    spec = SdeSpec(d=2, drift=lambda y: np.full(y.shape, 1e308), sigma=np.zeros((2, 2)),
                   y0=[0.0, 1e308])
    with np.errstate(over="ignore"):
        for T in (1.0, 3.0):
            message = "path 0 is non-finite at times[1] = 1.0: y=[1e+308, inf]"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                simulate(spec, 1.0, T, 3, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pathset_refuses_a_non_finite_state_naming_its_path_and_time(tmp_path, value):
    paths = np.full((4, 6, 2), 0.5)
    paths[2, 3, 1] = paths[3, 1, 0] = value
    message = f"path 2 is non-finite at times[3] = 0.30000000000000004: y=[0.5, {value!r}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PathSet(times=0.1 * np.arange(6), paths=paths, seed=0)
    # a file holding the state is refused as it loads
    finite = PathSet(times=0.1 * np.arange(6), paths=np.full((4, 6, 2), 0.5), seed=0)
    finite.save(tmp_path / "p.bin")
    raw = bytearray((tmp_path / "p.bin").read_bytes())
    at = len(raw) - finite.paths.nbytes + 8 * (2 * 6 * 2 + 3 * 2 + 1)
    raw[at:at + 8] = struct.pack("<d", value)
    (tmp_path / "p.bin").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PathSet.load(tmp_path / "p.bin")


def correlated_spec(drift, d=2):
    return SdeSpec(d=d, drift=drift, sigma=np.tril(0.3 * np.ones((d, d))) + 0.4 * np.eye(d),
                   y0=np.linspace(-0.2, 0.3, d))


def test_simulate_hands_the_drift_a_fresh_c_contiguous_batch_each_step():
    seen = []

    def recorded(y):
        seen.append(y)
        return -0.5 * y

    ps = simulate(correlated_spec(recorded), 0.05, 1.0, 7, seed=11)
    assert len(seen) == 20  # one call per step
    for k, y in enumerate(seen):
        assert type(y) is np.ndarray and y.dtype == np.float64 and y.shape == (7, 2)
        assert y.flags.c_contiguous, k
        assert not np.shares_memory(y, ps.paths), k
        assert not any(np.shares_memory(y, x) for x in seen[:k]), k


def test_inputs_a_drift_keeps_are_unchanged_after_simulate():
    kept, copies = [], []

    def keeping(y):
        kept.append(y)
        copies.append(y.copy())
        return np.sin(y)

    ps = simulate(correlated_spec(keeping, d=3), 0.05, 0.5, 5, seed=12)
    for k, (y, c) in enumerate(zip(kept, copies)):
        assert y.tobytes() == c.tobytes() == ps.paths[:, k].tobytes(), k


@pytest.mark.parametrize("d, n_paths", [(1, 1), (2, 9), (3, 4)])
def test_a_drift_that_writes_into_its_input_gives_the_unbuffered_paths(d, n_paths):
    def in_place(y):
        y *= 0.9
        y -= 0.01
        return np.multiply(y, -0.5, out=y)

    def copying(y):
        y = y * 0.9
        y -= 0.01
        return y * -0.5

    # only the Euler step writes the state: the in-place drift, which
    # returns the very array it was handed, gives the paths of its copying
    # twin and of the reference loop
    paths = [simulate(correlated_spec(drift, d), 0.05, 0.5, n_paths, seed=14).paths
             for drift in (in_place, copying)]
    ref = per_path_philox_paths(correlated_spec(copying, d), 0.05, 10, n_paths, 14)
    assert paths[0].tobytes() == paths[1].tobytes() == ref.tobytes()


def test_a_drift_s_own_numpy_warning_surfaces_from_simulate():
    def warning(y):
        np.log(-1.0 - np.abs(y))  # invalid: numpy warns; the result is unused
        return -0.5 * y

    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        ps = simulate(correlated_spec(warning), 0.05, 0.25, 3, seed=15)
    ref = simulate(correlated_spec(lambda y: -0.5 * y), 0.05, 0.25, 3, seed=15)
    assert ps.paths.tobytes() == ref.paths.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_path_p_is_the_same_bits_whatever_the_path_count(d):
    # a full (not triangular) sigma, so every noise entry sums d products
    sigma = 0.4 * np.eye(d) + 0.15 * np.arange(1, d * d + 1).reshape(d, d) / d
    spec = SdeSpec(d=d, drift=lambda y: -0.5 * y + 0.1 * y[:, ::-1],
                   sigma=sigma, y0=np.linspace(-0.2, 0.3, d))
    runs = {n: simulate(spec, 0.05, 0.5, n, seed=19).paths for n in (1, 2, 257)}
    assert runs[1][0].tobytes() == runs[2][0].tobytes() == runs[257][0].tobytes()
    assert runs[2][1].tobytes() == runs[257][1].tobytes()


@pytest.mark.parametrize("scenario, sigma, n_paths, dt", [
    ("affine_demo.json", [[1.0]], 2000, 1e-3),   # the README size, d = 1
    ("custom_affine.json", CUSTOM_SIGMA, 200, 5e-3),
])
def test_simulate_memory_is_its_normals_and_paths_plus_per_step_buffers(
        scenario, sigma, n_paths, dt):
    # the noise is formed in the normals' own buffer: beyond z and the paths,
    # simulate holds O(n_paths d) floats (step buffers, the drift's planes).
    # scipy.special is loaded here, so the normals come from its in-place
    # ndtri, not from the port's blocks
    data = json.loads((SCENARIOS / scenario).read_text())
    model, sigma = model_from_dict(data["model"]), np.array(sigma)
    y0 = data["sim"]["y0"] if "sim" in data else data["y_samples"][0]
    n_steps, d = int(round(0.5 / dt)), model.d
    z_bytes = n_paths * n_steps * d * 8
    paths_bytes = n_paths * (n_steps + 1) * d * 8
    tracemalloc.start()
    try:
        spec = SdeSpec(d=d, drift=rn_drift(model, sigma, XGrid.from_dict(data["grid"])),
                       sigma=sigma, y0=y0)
        simulate(spec, dt, 0.5, n_paths, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z_bytes + paths_bytes + 32 * n_paths * d * 8


SIMULATE_BYTES = """
import hashlib
import json
import sys
import numpy as np
from fdcurves import SdeSpec, model_from_dict, rn_drift, simulate
from fdcurves.noarb import XGrid
scenario = json.loads(open(sys.argv[1]).read())
model = model_from_dict(scenario["model"])
sigma = np.array([[0.5, 0.0], [0.45, 0.2]])
spec = SdeSpec(d=2, drift=rn_drift(model, sigma, XGrid.from_dict(scenario["grid"])),
               sigma=sigma, y0=scenario["y_samples"][0])
print(hashlib.sha256(simulate(spec, 0.01, 0.5, 2000, 20).paths.tobytes()).hexdigest())
spec = SdeSpec(d=3, drift=lambda y: -0.5 * y,
               sigma=np.tril(0.3 * np.ones((3, 3))) + 0.4 * np.eye(3), y0=[-0.2, 0.05, 0.3])
print(hashlib.sha256(simulate(spec, 0.01, 0.5, 1, 21).paths.tobytes()).hexdigest())
"""


def test_simulate_bits_do_not_depend_on_the_blas_thread_count():
    # no BLAS routine forms the noise or the drift, so the paths' bits must
    # not change with the thread count, here for the d = 2 cubic
    # risk-neutral drift at 2000 paths and a d = 3 linear drift on one path
    src = str(Path(sim.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", SIMULATE_BYTES,
                               str(SCENARIOS / "custom_affine.json")], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(proc.stdout)
    assert out[0] == out[1] and len(out[0].split()) == 2


def mc_verify_spec(case):
    # the two cases of the benchmark's mc_verify workload
    if case == "A":
        data, sigma = json.loads((SCENARIOS / "affine_demo.json").read_text()), [[1.0]]
        y0 = data["sim"]["y0"]
    else:
        data, sigma = json.loads((SCENARIOS / "custom_affine.json").read_text()), CUSTOM_SIGMA
        y0 = data["y_samples"][0]
    model = model_from_dict(data["model"])
    return SdeSpec(d=model.d, sigma=sigma, y0=y0, drift=rn_drift(
        model, np.array(sigma), XGrid.from_dict(data["grid"])))


def identity3():
    E = QEFunction.exponential
    return AffineModel(c=E(-1.0), u=[E(-1.0), E(-2.0), E(-3.0)], factor_map=IdentityMap(3))


# SHA-256 of the paths: a change to the Euler loop's layout or checks keeps them
@pytest.mark.parametrize("case, seed, digest", [
    ("A", 0, "e75464aa930e8b6eb683deca37bae43db4062b8425471174c287d673acc6467e"),
    ("A", 1, "4948bb2652b14ac213f99fcdb86d29e4356b63e58b60e906e2e04d9f13f75c4b"),
    ("A", 2, "aa974640185a0b88358ea0797d115ff6e664773fac0cd2467bb6fa5026a57119"),
    ("B", 0, "0976462d1378db374c78d119390bc523d6dac54d19269f48dc97941313a10167"),
    ("B", 1, "2be3742e61c8181bc442090cd6c9ec1ba280fb32bf6aa40feb5e1232197c4103"),
    ("B", 2, "4ebbcb13b03b0a05c243410a5d91e2650b0fe71d90873b45227c7014897d9ff7"),
])
def test_mc_verify_paths_keep_their_bits(case, seed, digest):
    ps = simulate(mc_verify_spec(case), 0.005, 0.5, 200, seed)
    assert hashlib.sha256(ps.paths.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("affine2-identity", "9f4b29c784fd9ce5e24a3e44be38da7b371f039b000e24b1434d4bef6d5a6129"),
    ("affine2-oscillator", "3661623c9847f939a1b3036b9caba4d0bb40c60abdce8101caf31dca603ad85e"),
    ("identity3", "10f98a7b33cfc8c4acbab8ad3772f2758b334686c6caa87253d501c242acaa94"),
])
def test_identity_map_paths_keep_their_bits(name, digest):
    m = identity3() if name == "identity3" else builtin_models()[name]
    sigma = np.tril(0.3 * np.ones((m.d, m.d))) + 0.4 * np.eye(m.d)
    spec = SdeSpec(d=m.d, drift=rn_drift(m, sigma, GRID), sigma=sigma,
                   y0=np.linspace(-0.2, 0.3, m.d))
    ps = simulate(spec, 0.01, 0.2, 50, 5)
    assert hashlib.sha256(ps.paths.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["affine1-exp-identity", "affine2-identity",
                                  "affine2-oscillator", "identity3"])
def test_identity_core_is_the_general_closed_form_bit_for_bit(name):
    # the identity's core skips "- A'' a/2" (A'' = 0) and "/ A'" (A' = 1); the
    # reference runs them on the map's own jet, in the general formula's order
    m = identity3() if name == "identity3" else builtin_models()[name]
    sigma = np.tril(0.3 * np.ones((m.d, m.d))) + 0.4 * np.eye(m.d)
    drift = rn_drift(m, sigma, GRID)
    assert drift._identity
    values = [0.0, -0.0, 1e150, -1e150, np.inf, -np.inf, np.nan, 0.3, -5e-324]
    yt = np.array(np.meshgrid(*[values] * m.d)).reshape(m.d, -1)
    planes = sim._planes(drift._consts, yt.shape[1])
    A, dA, d2A = m.factor_map.cm_jet(yt, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        ref = planes[0] * A[:1]
        for j in range(1, m.d):
            ref += planes[j] * A[j:j + 1]
        ref += planes[m.d]
        ref -= d2A * planes[m.d + 1]
        ref /= dA
        core = drift._cm_rows(yt, planes)
    assert core.tobytes() == ref.tobytes()
    assert drift(yt.T).tobytes() == np.ascontiguousarray(ref.T).tobytes()


def growing_identity():
    # Q = 1 and p = 0: the drift is y itself
    return AffineModel(c=QEFunction.constant(0.0), u=[QEFunction.exponential(1.0)],
                       factor_map=IdentityMap(1))


# a closed-form drift is checked once, after the last step, and replayed to
# give these errors, those of a check at every step
@pytest.mark.parametrize("model, y0, dt, T, seed, error, message", [
    # exp(y) overflows past y = 709.78: b = (p + Q A - A'' a/2) / A' leaves the
    # double range at a finite state, at step 0 or an interior step
    ("affine1-exp-expmap", 709.5, 0.01, 0.5, 3, SimulationError,
     "drift returned non-finite values on path 0 at t=0"),
    ("affine1-exp-expmap", 709.0, 0.01, 0.5, 3, SimulationError,
     "drift returned non-finite values on path 4 at t=0.06"),
    ("affine1-exp-expmap", 709.0, 0.01, 0.5, 4, SimulationError,
     "drift returned non-finite values on path 12 at t=0.03"),
    # the state overflows while its drift is finite (y = 1.5e308 + 0.75e308),
    # and the drift at the infinite state is the next step's
    ("growing", 1e308, 0.5, 2.0, 0, SimulationError,
     "drift returned non-finite values on path 0 at t=1"),
    # the same overflow at the last step: the path set refuses the state
    ("growing", 1e308, 0.5, 1.0, 0, ValueError,
     "path 0 is non-finite at times[2] = 1.0: y=[inf]"),
], ids=["drift-at-step-0", "drift-at-step-6", "drift-at-step-3", "state-then-drift",
        "state-at-last-step"])
def test_closed_form_errors_are_those_of_a_per_step_check(model, y0, dt, T, seed, error,
                                                          message):
    m = growing_identity() if model == "growing" else builtin_models()[model]
    spec = SdeSpec(d=1, drift=rn_drift(m, [[1.0]], GRID), sigma=[[1.0]], y0=[y0])
    # no numpy warning either: pytest turns one into an error
    with pytest.raises(error) as err:
        simulate(spec, dt, T, 20 if seed else 3, seed)
    assert str(err.value) == message


def test_a_drift_without_a_closed_form_is_not_called_after_a_non_finite_step():
    calls = []

    def nan_at_step_3(y):
        calls.append(len(calls))
        out = -0.5 * y
        if len(calls) == 4:
            out[2, 1] = np.nan
        return out

    spec = SdeSpec(d=2, drift=nan_at_step_3, sigma=np.eye(2), y0=[0.0, 0.0])
    with pytest.raises(SimulationError) as err:
        simulate(spec, 0.01, 0.1, 5, seed=0)
    assert str(err.value) == "drift returned non-finite values on path 2 at t=0.03"
    assert calls == [0, 1, 2, 3]


# -- PathSet persistence ---------------------------------------------------------


def test_pathset_binary_round_trip(tmp_path):
    ps = simulate(ou_spec(0.7, 1.2), 0.05, 0.5, 4, seed=123)
    target = tmp_path / "paths.bin"
    ps.save(target)
    back = PathSet.load(target)
    assert np.array_equal(ps.paths, back.paths)
    assert np.allclose(ps.times, back.times, rtol=0, atol=1e-12)
    assert back.seed == 123


@pytest.mark.parametrize("times, first_bad", [
    ([0.0, 0.1, 0.15, 0.3], 2),           # load would rebuild 0.2 for 0.15
    (1.0 + 0.01 * np.arange(4), 0),       # load would rebuild a grid from 0
])
def test_pathset_save_rejects_a_grid_that_load_cannot_rebuild(tmp_path, times, first_bad):
    ps = PathSet(times=times, paths=np.zeros((2, 4, 1)), seed=0)
    target = tmp_path / "paths.bin"
    with pytest.raises(ValueError, match=rf"times\[{first_bad}\] = "):
        ps.save(target)
    assert not target.exists()


def test_pathset_save_accepts_the_grids_of_simulate_and_load(tmp_path):
    ps = simulate(ou_spec(0.7, 1.2), 0.03, 0.6, 3, seed=8)
    ps.save(tmp_path / "a.bin")
    back = PathSet.load(tmp_path / "a.bin")
    assert back.times.tobytes() == ps.times.tobytes()
    back.save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_pathset_rejects_foreign_files(tmp_path):
    target = tmp_path / "junk.bin"
    target.write_bytes(b"not a pathset" * 3)
    with pytest.raises(ValueError, match="magic"):
        PathSet.load(target)


def test_pathset_load_rejects_single_time(tmp_path):
    target = tmp_path / "one_time.bin"
    header = PATHSET_MAGIC + struct.pack("<QQQddQ", 3, 1, 1, 0.1, 0.0, 5)
    target.write_bytes(header + np.zeros(3, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="n_times=1"):
        PathSet.load(target)


@pytest.mark.parametrize("dt, horizon", [(-0.01, -0.05), (math.nan, 0.5),
                                         (0.1, math.nan), (math.inf, math.inf)])
def test_pathset_load_rejects_a_non_finite_or_negative_time_grid(tmp_path, dt, horizon):
    target = tmp_path / "grid.bin"
    header = PATHSET_MAGIC + struct.pack("<QQQddQ", 2, 6, 1, dt, horizon, 5)
    target.write_bytes(header + np.zeros(12, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="dt"):
        PathSet.load(target)


def test_pathset_rejects_a_decreasing_time_grid():
    with pytest.raises(ValueError, match="times must be finite and increasing"):
        PathSet(times=-0.01 * np.arange(6), paths=np.zeros((2, 6, 1)), seed=0)


@pytest.mark.parametrize("times, message", [
    ([0.0, 0.1, 0.05, 0.3], "got times[2] = 0.05 after times[1] = 0.1"),
    ([0.0, 0.1, math.nan, 0.3], "got times[2] = nan after times[1] = 0.1"),
    ([math.nan, 0.1, 0.2, 0.3], "got times[0] = nan"),
    ([0.0, 0.1, 0.1, math.inf], "got times[2] = 0.1 after times[1] = 0.1"),
])
def test_pathset_names_the_first_time_that_is_not_finite_or_increasing(times, message):
    with pytest.raises(ValueError) as err:
        PathSet(times=times, paths=np.zeros((2, 4, 1)), seed=0)
    assert str(err.value) == "times must be finite and increasing, " + message


def test_pathset_load_rejects_truncated_header(tmp_path):
    target = tmp_path / "truncated.bin"
    target.write_bytes(PATHSET_MAGIC + b"\x00\x01")
    with pytest.raises(ValueError, match="18 bytes"):
        PathSet.load(target)


# -- futures_price ----------------------------------------------------------------


def test_price_closed_form_exponential_curve():
    got = futures_price(simple_affine(), [1.0], 0.0, FS12)
    assert abs(got - (np.exp(-1.0) - np.exp(-2.0))) <= 1e-10


def test_price_constant_curve():
    m = AffineModel(c=QEFunction.constant(4.2), u=[QEFunction.constant(0.0)],
                    factor_map=IdentityMap(1))
    assert abs(futures_price(m, [0.0], 0.5, FS12) - 4.2) <= 1e-12


def test_price_gaussian_flat_state():
    assert abs(futures_price(GaussianExampleModel(), [1.0], 0.0,
                             FuturesSpec(0.5, 3.0)) - 0.5) <= 1e-12


def test_price_rejects_contract_in_delivery():
    with pytest.raises(ValueError, match="delivery"):
        futures_price(simple_affine(), [1.0], 1.5, FS12)


def test_futures_spec_validation():
    with pytest.raises(ValueError):
        FuturesSpec(2.0, 1.0)
    with pytest.raises(ValueError):
        FuturesSpec(0.0, 1.0)


@pytest.mark.parametrize("T1,T2", [(1.0, np.inf), (np.inf, np.inf), (np.nan, 2.0),
                                   (1.0, np.nan)])
def test_futures_spec_rejects_a_non_finite_window(T1, T2):
    with pytest.raises(ValueError, match=r"need 0 < T1 < T2 < inf"):
        FuturesSpec(T1, T2)


def simpson_remainder(f, lo, hi):
    """(hi - lo) h^4 max|f^(4)| / 180: the most the N_QUAD-node composite
    Simpson rule can miss the integral of f over [lo, hi] by, with the
    maximum sampled on 2,049 points (f^(4) is QE, so smooth)."""
    for _ in range(4):
        f = qe_derivative(f)
    h = (hi - lo) / (N_QUAD - 1)
    return (hi - lo) * h**4 * np.abs(f.eval_grid(np.linspace(lo, hi, 2049))).max() / 180


@pytest.mark.parametrize("name", AFFINE_PRICING)
def test_price_quadrature_matches_exact_qe_integrals(name):
    # Simpson against the closed-form antiderivative of each QE component
    # (the augmented generator), at the start, inside and at T1, within the
    # rule's own remainder (up to 7e-10 here; the errors measured at most
    # 0.82 of it) plus rounding
    m = pricing_models()[name]
    y = np.linspace(0.3, -0.4, m.d)
    z = m.factor_map.value(y)
    length = FS12.T2 - FS12.T1
    for t in (0.0, 0.3, FS12.T1):
        lo, hi = FS12.T1 - t, FS12.T2 - t
        exact = (qe_integral(m.c, lo, hi)
                 + sum(qe_integral(f, lo, hi) * z[k] for k, f in enumerate(m.u))) / length
        bound = (simpson_remainder(m.c, lo, hi)
                 + sum(abs(z[k]) * simpson_remainder(f, lo, hi)
                       for k, f in enumerate(m.u))) / length
        assert abs(futures_price(m, y, t, FS12) - exact) <= bound + 1e-14


@pytest.mark.parametrize("name", AFFINE_PRICING)
def test_window_state_prices_equal_the_whole_curve_simpson_sum_to_rounding(name):
    # the window state regroups the same 129-node Simpson sum: measured at
    # most 8.6 ulps of max(1, |price|) (poly-trig-qe; 1.5 on the zoo), so
    # 16 such ulps bound the regrouping
    m = pricing_models()[name]
    Y = np.random.default_rng(41).uniform(-1.0, 1.0, (9, m.d))
    for t in (0.0, 0.3, FS12.T1):
        for y in Y:
            ref = window_average(m, y, t)
            got = futures_price(m, y, t, FS12)
            assert abs(got - ref) <= 16 * np.spacing(max(1.0, abs(ref)))


def test_corollary_transformed_factor_reprices_exactly():
    # averaging intercept and loadings separately, then contracting with
    # A(y), matches the quadrature over the whole curve to rounding
    for name in ("affine1-exp-expmap", "affine3-cubic"):
        m = builtin_models()[name]
        y = np.full(m.d, 0.4)
        assert abs(futures_price(m, y, 0.25, FS12) - window_average(m, y, 0.25)) <= 1e-14


def test_corollary_holds_at_every_simulation_step():
    # the transformed factor z = A(y) prices the contract affinely along
    # a whole simulated path, not just at one state
    m = builtin_models()["affine1-exp-expmap"]
    ps = simulate(SdeSpec(d=1, drift=rn_drift(m, [[1.0]], GRID),
                          sigma=[[1.0]], y0=[0.5]), 0.02, 0.4, 2, seed=9)
    for p in range(ps.n_paths):
        for k in range(ps.n_times):
            t = float(ps.times[k])
            y = ps.paths[p, k]
            assert abs(futures_price(m, y, t, FS12) - window_average(m, y, t)) <= 1e-12


@pytest.mark.parametrize("name", sorted(pricing_models()))
def test_batch_prices_equal_single_state_prices_bit_for_bit(name):
    # martingale_test and price must report the same number for one state
    m = pricing_models()[name]
    Y = np.random.default_rng(37).uniform(-1.0, 1.0, (37, m.d))
    batch = sim._window_prices(m, Y[:, None, :], np.array([0.3]), FS12)[:, 0]
    assert np.array_equal(batch, [futures_price(m, y, 0.3, FS12) for y in Y])


def test_a_window_average_that_overflows_raises_as_its_exponentials_would():
    # e^(A (T1 - t)) and e^(A s_j) each stay near e^400, inside the double
    # range, but their product does not: the price raises, as the node
    # table's e^(A (u - t)) did, with no numpy warning on the way
    m = AffineModel(c=QEFunction.constant(0.0), u=[QEFunction.exponential(1.0)],
                    factor_map=IdentityMap(1))
    with pytest.raises(MatrixExponentialOverflowError, match="double range"):
        futures_price(m, [1.0], 0.0, FuturesSpec(400.0, 800.0))


def test_non_finite_valuation_time_names_one_value():
    for name, y, t in [("affine2-identity", [0.1, 0.2], math.nan),
                       ("gaussian-example", [0.1], math.nan),
                       ("gaussian-example", [0.1], -math.inf)]:
        with pytest.raises(ValueError) as err:
            futures_price(builtin_models()[name], y, t, FS12)
        assert str(err.value) == f"valuation time t must be finite, got {t}"


@pytest.mark.parametrize("family", ["overflow", "nan"])
def test_futures_price_refuses_a_non_finite_price_naming_its_state(family):
    m = builtin_models()["affine1-exp-expmap"] if family == "overflow" else nan_above(700.0)
    message = "price at t=0.25 in the window [T1, T2]=[1.0, 2.0] is non-finite at y=[800.0]"
    for y in ([800.0], [[0.1], [800.0], [900.0]], [[[0.1]], [[800.0]]]):
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            futures_price(m, y, 0.25, FS12)
        assert str(err.value) == message


def test_window_pricer_memory_does_not_grow_with_the_time_grid():
    # 5,001 sample times at dt = 1e-4: one (times x N_QUAD) node table would
    # be 5.2 MB; the window state needs (N_QUAD + times) n^2 floats per loading
    ts = np.linspace(0.0, 0.5, 5001)
    table_bytes = ts.size * N_QUAD * 8
    m = builtin_models()["affine3-cubic"]
    Y = np.full((1, ts.size, m.d), 0.2)
    tracemalloc.start()
    try:
        prices = sim._window_prices(m, Y, ts, FS12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 4
    assert prices[0, 4000] == futures_price(m, Y[0, 4000], ts[4000], FS12)


# -- martingale_test ----------------------------------------------------------------


def test_martingale_rn_drift_small_z():
    ps = simulate(ou_spec(1.0, 1.0), 1e-3, 0.5, 2000, seed=20260810)
    res = martingale_test(simple_affine(), ps, FS12)
    assert abs(res.z_score) <= 3.0


def test_martingale_rn_drift_small_z_under_correlated_sigma():
    # the drift must be risk neutral for the covariance sigma sigma^T that
    # the Euler scheme produces, not for the pattern sigma[i,j] sigma[j,i]
    m = AffineModel(c=QEFunction.constant(0.0),
                    u=[QEFunction.exponential(-1.0), QEFunction.exponential(-2.0)],
                    factor_map=ExpMinusOneMap(2))
    ps = simulate(SdeSpec(d=2, drift=rn_drift(m, CUSTOM_SIGMA, GRID),
                          sigma=CUSTOM_SIGMA, y0=[0.0, 0.0]), 0.02, 1.0, 5000, seed=7)
    assert abs(martingale_test(m, ps, FS12).z_score) <= 3.0


def test_martingale_wrong_drift_large_z():
    ps = simulate(driftless(1.0, 1.0), 1e-3, 0.5, 2000, seed=20260810)
    res = martingale_test(simple_affine(), ps, FS12)
    assert abs(res.z_score) > 5.0


def test_martingale_zero_vol_transport_is_deterministic():
    # the price is constant along each path at every slice, and the test
    # reads its terminal-minus-initial change
    m = simple_affine()
    spec = SdeSpec(d=1, drift=lambda y: -y, sigma=[[0.0]], y0=[1.0])
    ps = simulate(spec, 1e-5, 5e-4, 2, seed=0)
    F = np.stack([futures_price(m, ps.paths[:, k], float(ps.times[k]), FS12)
                  for k in range(ps.n_times)], axis=1)
    assert np.abs(np.diff(F, axis=1)).max() <= 1e-10
    res = martingale_test(m, ps, FS12)
    assert res.drift_estimate == float(np.mean(F[:, -1] - F[:, 0]))


def test_martingale_builds_no_curve_for_an_affine_model(monkeypatch):
    m = builtin_models()["affine2-identity"]
    curve_matrix = m.curve_matrix
    calls = []

    def counted(xs, Y):
        calls.append(len(xs))
        return curve_matrix(xs, Y)

    monkeypatch.setattr(m, "curve_matrix", counted)
    ps = simulate(driftless(0.3, 0.1, d=2), 0.01, 0.2, 5, seed=3)
    martingale_test(m, ps, FS12)
    assert calls == []


def test_martingale_streams_its_price_slices():
    ps = simulate(ou_spec(1.0, 1.0), 1e-3, 0.5, 2000, seed=20260810)
    price_matrix_bytes = ps.n_paths * ps.n_times * 8
    tracemalloc.start()
    try:
        martingale_test(simple_affine(), ps, FS12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < price_matrix_bytes


def reference_martingale(m, ps, fs):
    """martingale_test's statistics from one futures_price call per path at
    the first and the last slice."""
    F = np.array([[futures_price(m, ps.paths[p, k], float(ps.times[k]), fs)
                   for k in (0, -1)] for p in range(ps.n_paths)])
    total = F[:, -1] - F[:, 0]
    drift = float(np.mean(total))
    return drift, drift / float(np.std(total, ddof=1) / np.sqrt(ps.n_paths))


@pytest.mark.parametrize("n_steps", [100, 32])
@pytest.mark.parametrize("name", ["affine3-cubic", "gaussian-example", "poly-trig-qe"])
def test_martingale_equals_a_futures_price_loop_bit_for_bit(name, n_steps):
    # the 7x7 loading's exponentials are slices of a longer stack than in
    # one futures_price call
    m = pricing_models()[name]
    ps = simulate(driftless(0.4, 0.2, d=m.d), 0.5 / n_steps, 0.5, 7, seed=11)
    res = martingale_test(m, ps, FS12)
    assert (res.drift_estimate, res.z_score) == reference_martingale(m, ps, FS12)


@pytest.mark.parametrize("n_steps", [1, 100])
def test_martingale_evaluates_each_loading_once_per_call(monkeypatch, n_steps):
    # c and each u_k are averaged over the window once per call: one
    # exponential stack per loading holds the N_QUAD window offsets and the
    # first and last sample times, however many sample times there are
    m = builtin_models()["affine3-cubic"]
    calls = []
    mat_exp = sim.mat_exp

    def counted(A, xs):
        calls.append((A.shape, np.shape(xs)))
        return mat_exp(A, xs)

    monkeypatch.setattr(sim, "mat_exp", counted)
    monkeypatch.setattr(QEFunction, "eval_grid", None)  # no node table
    ps = simulate(driftless(0.3, 0.1, d=3), 0.5 / n_steps, 0.5, 4, seed=2)
    martingale_test(m, ps, FS12)
    assert calls == [(f.A.shape, (N_QUAD + 2,)) for f in (m.c, *m.u)]


@pytest.mark.parametrize("n_steps", [1, 100])
def test_martingale_builds_two_curve_stacks_for_a_non_affine_family(monkeypatch, n_steps):
    # one curve_matrix call per priced slice, the first and the last,
    # each on the window's N_QUAD nodes for every path
    m = builtin_models()["gaussian-example"]
    curve_matrix = m.curve_matrix
    calls = []

    def counted(xs, Y):
        calls.append((np.shape(xs), np.shape(Y)))
        return curve_matrix(xs, Y)

    monkeypatch.setattr(m, "curve_matrix", counted)
    ps = simulate(driftless(0.3, 0.1), 0.5 / n_steps, 0.5, 4, seed=2)
    martingale_test(m, ps, FS12)
    assert calls == [((N_QUAD,), (4, 1))] * 2


def test_pathset_rejects_zero_paths(tmp_path):
    with pytest.raises(ValueError, match="n_paths=0"):
        PathSet(times=np.linspace(0.0, 0.5, 6), paths=np.zeros((0, 6, 1)), seed=0)
    path = tmp_path / "empty.bin"
    path.write_bytes(PATHSET_MAGIC + struct.pack("<QQQddQ", 0, 6, 1, 0.1, 0.5, 0))
    with pytest.raises(ValueError, match="n_paths=0"):
        PathSet.load(path)


def nan_above(level):
    """A d = 1 family g = e^-x y, NaN where y > level."""
    return NumericCurveFamily(lambda x, y: math.exp(-x) * y[0] if y[0] <= level else math.nan,
                              d=1)


@pytest.mark.parametrize("family", ["overflow", "nan"])
@pytest.mark.parametrize("k", [0, 4, 10, 40, pytest.param([4, 5], id="4+5")])
def test_martingale_test_refuses_a_non_finite_price_naming_its_state(family, k):
    # a finite state where the price leaves the double range (e^800) or is
    # NaN, on path 3 at the sample times k, after a finite outlier on path 1.
    # Only the first and the last slice (0 and 40) are priced: those are
    # refused, and an interior state never enters the statistic
    ps = simulate(ou_spec(0.3), 0.0125, 0.5, 9, seed=16)
    paths = ps.paths.copy()
    paths[3, k, 0] = 800.0
    paths[1, 30, 0] = 600.0
    m = builtin_models()["affine1-exp-expmap"] if family == "overflow" else nan_above(700.0)
    res = martingale_test(m, ps, FS12)
    assert math.isfinite(res.z_score)
    if k not in (0, 40):
        assert martingale_test(m, PathSet(ps.times, paths, ps.seed), FS12) == res
        return
    message = "price in the window [T1, T2]=[1.0, 2.0] is non-finite at y=[800.0]"
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        martingale_test(m, PathSet(ps.times, paths, ps.seed), FS12)
    assert str(err.value) == message


@pytest.mark.parametrize("y", [[1.7e308, -1.7e308], [-1.7e308, 0.0, 1.7e308]],
                         ids=["increment", "total"])
def test_martingale_test_refuses_increments_that_leave_the_double_range(y):
    # g = y prices F = y: every price is finite, but an increment or the
    # terminal-minus-initial change is not
    m = AffineModel(c=QEFunction.constant(0.0), u=[QEFunction.constant(1.0)],
                    factor_map=IdentityMap(1))
    ps = PathSet(times=0.1 * np.arange(len(y)), paths=np.array(y)[None, :, None], seed=0)
    assert np.isfinite(futures_price(m, ps.paths[0], 0.0, FS12)).all()
    with pytest.raises(ValueError) as err:
        martingale_test(m, ps, FS12)
    assert str(err.value) == ("price increments leave the double range "
                              "in the window [T1, T2]=[1.0, 2.0]")


def test_a_family_s_own_numpy_warning_surfaces_from_martingale_test():
    # only the increment statistics are silenced, never the pricer
    def curve(x, y):
        np.log(-1.0 - abs(y[0]))  # invalid: numpy warns; the result is unused
        return math.exp(-x) * y[0]

    ps = simulate(ou_spec(0.3), 0.1, 0.2, 2, seed=4)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        res = martingale_test(NumericCurveFamily(curve, d=1), ps, FS12)
    assert math.isfinite(res.z_score)


def test_martingale_rejects_paths_beyond_delivery():
    ps = simulate(ou_spec(), 0.1, 1.5, 2, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        martingale_test(simple_affine(), ps, FS12)


@pytest.mark.parametrize("name", ["affine1-exp-identity", "gaussian-example"])
def test_martingale_prices_a_horizon_rounded_past_t1_at_t1(name):
    # 3 steps of 0.1 end at 0.30000000000000004, inside the 1e-12 the test
    # admits past T1 = 0.3; the affine pricer used to reject the negative
    # time-to-maturity and the Gaussian family priced it
    m = builtin_models()[name]
    spec = SdeSpec(d=1, drift=rn_drift(m, [[1.0]], GRID), sigma=[[1.0]], y0=[0.5])
    ps = simulate(spec, 0.1, 0.3, 50, seed=3)
    assert ps.horizon == 0.30000000000000004
    fs = FuturesSpec(0.3, 1.0)
    res = martingale_test(m, ps, fs)
    assert math.isfinite(res.z_score)
    at_t1 = PathSet(times=np.minimum(ps.times, 0.3), paths=ps.paths, seed=ps.seed)
    assert martingale_test(m, at_t1, fs) == res


def test_martingale_z_within_band_for_nearly_all_seeds():
    # fixed seed list: the z statistic is standard normal under the
    # risk-neutral drift, so at least 99% of seeds stay inside [-3, 3]
    m = simple_affine()
    hits = 0
    for seed in range(100):
        ps = simulate(ou_spec(1.0, 1.0), 5e-3, 0.5, 400, seed=seed)
        if abs(martingale_test(m, ps, FS12).z_score) <= 3.0:
            hits += 1
    assert hits >= 99


# -- estimate_vol -------------------------------------------------------------------


def test_estimate_vol_zero_vol():
    ps = simulate(driftless(0.0), 1e-2, 1.0, 1, seed=0)
    assert np.array_equal(estimate_vol(ps), np.zeros((1, 1)))
    flat = PathSet(times=0.01 * np.arange(101), paths=np.zeros((3, 101, 3)), seed=0)
    assert estimate_vol(flat).tobytes() == np.zeros((3, 3)).tobytes()  # no -0.0


def test_estimate_vol_single_path_concentration():
    ps = simulate(driftless(0.5), 1e-3, 1.0, 1, seed=0)
    est = estimate_vol(ps)[0, 0]
    assert abs(est - 0.25) <= 0.1 * 0.25


def test_estimate_vol_diagonal_two_factor():
    spec = SdeSpec(d=2, drift=lambda y: 0.0 * y, sigma=np.diag([1.0, 2.0]),
                   y0=np.zeros(2))
    ps = simulate(spec, 1e-3, 1.0, 50, seed=17)
    est = estimate_vol(ps)
    n_inc = 50 * 1000
    assert abs(est[0, 0] - 1.0) <= 3.0 * np.sqrt(2.0 / n_inc) * 1.0
    assert abs(est[1, 1] - 4.0) <= 3.0 * np.sqrt(2.0 / n_inc) * 4.0
    se_cross = 1.0 * 2.0 / np.sqrt(n_inc)
    assert abs(est[0, 1]) <= 3.0 * se_cross
    assert est[0, 1] == est[1, 0]


def test_estimate_vol_insensitive_to_bounded_drift():
    base = simulate(driftless(1.0), 1e-4, 1.0, 1, seed=21)
    pushed = simulate(SdeSpec(d=1, drift=lambda y: 0.0 * y + 5.0,
                              sigma=[[1.0]], y0=[0.0]), 1e-4, 1.0, 1, seed=21)
    v0 = estimate_vol(base)[0, 0]
    v5 = estimate_vol(pushed)[0, 0]
    assert abs(v5 - v0) <= 0.01 * 1.0


def test_estimate_vol_needs_enough_increments():
    ps = simulate(driftless(), 0.1, 1.0, 1, seed=0)
    with pytest.raises(ValueError, match="100"):
        estimate_vol(ps)


def fsum_covariation(ps):
    """Realised covariation entry by entry: each entry an exactly rounded
    math.fsum of the rounded increment products, over the elapsed time."""
    inc = np.diff(ps.paths, axis=1).reshape(-1, ps.d).T.tolist()
    elapsed = ps.n_paths * (float(ps.times[-1]) - float(ps.times[0]))
    return np.array([[math.fsum(a * b for a, b in zip(inc[i], inc[j])) / elapsed
                      for j in range(ps.d)] for i in range(ps.d)])


def correlated_paths(n_paths, n_times, d, seed):
    rng = np.random.default_rng(seed)
    mix = np.tril(rng.uniform(-1.0, 1.0, (d, d))) + np.eye(d)
    steps = rng.standard_normal((n_paths, n_times - 1, d)) @ mix.T * 0.1
    paths = np.concatenate([np.zeros((n_paths, 1, d)), np.cumsum(steps, axis=1)], axis=1)
    return PathSet(times=0.01 * np.arange(n_times), paths=paths + 0.5, seed=seed)


@pytest.mark.parametrize("n_paths, n_times, d", [
    (200, 101, 1), (200, 101, 2), (200, 101, 3), (200, 101, 6), (2000, 501, 1)])
def test_estimate_vol_matches_an_fsum_oracle(n_paths, n_times, d):
    ps = correlated_paths(n_paths, n_times, d, seed=40 + d)
    got, want = estimate_vol(ps), fsum_covariation(ps)
    # entry (i, j) relative to sqrt(want_ii want_jj), its Cauchy-Schwarz bound
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.max(np.abs(got - want) / scale) <= 1e-13


def test_estimate_vol_is_exactly_symmetric():
    vol = estimate_vol(correlated_paths(200, 101, 6, seed=3))
    assert vol.tobytes() == np.ascontiguousarray(vol.T).tobytes()


def test_estimate_vol_entries_read_only_their_own_components():
    ps = correlated_paths(20, 11, 3, seed=9)
    vol = estimate_vol(ps)
    rest = estimate_vol(PathSet(ps.times, ps.paths[..., 1:], ps.seed))
    assert vol[1:, 1:].tobytes() == rest.tobytes()


@pytest.mark.parametrize("k, value, entry", [(7, 1e200, "[1, 1]"), (10, 1e308, "[0, 1]")])
def test_estimate_vol_refuses_a_covariation_outside_the_double_range(k, value, entry):
    # a finite 1e200 state squares past the double range; a 1e308 step in
    # component 1 against a -1e154 one in component 0 keeps [0, 0] finite
    # (1e308 / 2) and overflows [0, 1], ahead of [1, 1] in order
    ps = correlated_paths(20, 11, 2, seed=9)
    paths = ps.paths.copy()
    paths[4, k, 1] = value
    if value == 1e308:
        paths[4, k, 0] = -1e154
    with pytest.raises(ValueError) as err:
        estimate_vol(PathSet(ps.times, paths, ps.seed))
    assert str(err.value) == (f"realised covariation {entry} leaves the double range; "
                              f"its largest increment is on path 4 at times[{k}]")


def test_estimate_vol_divides_by_the_elapsed_time():
    ps = simulate(driftless(1.0), 0.01, 1.0, 100, seed=6)
    late = PathSet(times=1.0 + ps.times, paths=ps.paths, seed=ps.seed)
    assert abs(estimate_vol(ps)[0, 0] - 1.0) <= 0.05
    assert np.allclose(estimate_vol(late), estimate_vol(ps), rtol=1e-12, atol=0.0)


VOL_BYTES = """
import sys
import numpy as np
from fdcurves.sim import PathSet, estimate_vol
for n_paths, n_times, d in ((500, 501, 1), (200, 101, 2)):
    rng = np.random.default_rng(19)
    paths = np.cumsum(rng.standard_normal((n_paths, n_times, d)) * 0.07, axis=1)
    ps = PathSet(times=0.005 * np.arange(n_times), paths=paths, seed=19)
    print(estimate_vol(ps).tobytes().hex())
"""


def test_estimate_vol_bits_do_not_depend_on_the_blas_thread_count():
    # with OpenBLAS 0.3.31 on a 2-core x86-64 VM, a BLAS dot (inc.T @ inc) of
    # the 250,000 increments of the d = 1 case changes its last bits between
    # 1 and 2 threads; the einsum inner products must not
    src = str(Path(sim.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", VOL_BYTES], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(proc.stdout)
    assert out[0] == out[1] and len(out[0].split()) == 2


# -- scc_loop and risk-neutral drift ------------------------------------------------


def test_lattice_drift_interpolates_linear_drift_exactly():
    drift = rn_drift(simple_affine(), [[1.0]], GRID)
    for y in (0.0, 0.123, -0.52, 1.31):
        assert abs(drift(np.array([y]))[0] + y) <= 1e-10


def test_lattice_drift_batch_queries():
    drift = rn_drift(simple_affine(), [[1.0]], GRID)
    Y = np.array([[0.1], [0.7], [-0.3]])
    out = drift(Y)
    assert out.shape == (3, 1)
    assert np.allclose(out[:, 0], -Y[:, 0], atol=1e-10)


def custom_model():
    scenario = json.loads((SCENARIOS / "custom_affine.json").read_text())
    return model_from_dict(scenario["model"])


def affine_drift_cases():
    """(name, model, sigma) over the affine zoo and the shipped custom model."""
    cases = [(name, m, np.tril(0.3 * np.ones((m.d, m.d))) + 0.4 * np.eye(m.d))
             for name, m in builtin_models().items() if isinstance(m, AffineModel)]
    return cases + [("custom_affine", custom_model(), np.array(CUSTOM_SIGMA))]


def off_lattice_states(d, n=40):
    # seeded uniform states miss the multiples of 0.05, where a drift
    # interpolated on a 0.05 lattice would be exact
    return np.random.default_rng(23).uniform(-0.6, 0.6, (n, d))


def test_rn_drift_matches_solve_drift_on_affine_models():
    for name, m, sigma in affine_drift_cases():
        Y = off_lattice_states(m.d)
        out = rn_drift(m, sigma, GRID)(Y)
        ref = np.stack([solve_drift(m, y, sigma, GRID).b for y in Y])
        assert out.shape == Y.shape, name
        assert np.max(np.abs(out - ref)) <= 1e-12, name


def test_rn_drift_rows_do_not_depend_on_the_batch():
    for name, m, sigma in affine_drift_cases():
        Y = off_lattice_states(m.d, 7)
        drift = rn_drift(m, sigma, GRID)
        assert np.array_equal(drift(Y), np.stack([drift(y) for y in Y])), name


def row_major_jet(fm, Y):
    """(A, A', A'') by the row-major formulas, (d,) coefficients broadcast
    over the last axis."""
    if isinstance(fm, IdentityMap):
        return Y, np.ones_like(Y), np.zeros_like(Y)
    if isinstance(fm, ExpMinusOneMap):
        return np.exp(Y) - 1.0, np.exp(Y), np.exp(Y)
    return (fm.linear * Y + fm.quadratic * Y**2 + fm.cubic * (Y * Y * Y),
            fm.linear + 2.0 * fm.quadratic * Y + 3.0 * fm.cubic * Y**2,
            2.0 * fm.quadratic + 6.0 * fm.cubic * Y)


def broadcast_closed_form(m, sigma, Y):
    """b(y) = (p + Q A(y) - 1/2 A''(y) diag(a)) / A'(y), row by row, with Q A
    summed over a broadcast (n, d, d) product."""
    dc, U, dU = m._basis(GRID.nodes)
    pq = np.linalg.lstsq(U, np.column_stack([dc, dU]), rcond=RANK_TOL)[0]
    sigma = np.asarray(sigma, dtype=float)
    A, dA, d2A = row_major_jet(m.factor_map, Y)
    qa = (A[:, None, :] * pq[:, 1:]).sum(axis=-1)
    return (pq[:, 0] + qa - d2A * (0.5 * np.diag(sigma @ sigma.T))) / dA


def test_rn_drift_equals_the_broadcast_closed_form_bit_for_bit():
    for name, m, sigma in affine_drift_cases():
        drift = rn_drift(m, sigma, GRID)
        block = np.random.default_rng(31).uniform(-0.6, 0.6, (64, 3, m.d))
        for Y in (np.ascontiguousarray(block[:, 0]), block[:, 1], block[::3, 2],
                  np.asfortranarray(block[:, 0])):
            assert np.array_equal(drift(Y), broadcast_closed_form(m, sigma, Y)), name


@pytest.mark.parametrize("grid", [GRID, XGrid.uniform(7, 2.0), XGrid.chebyshev(200, 20.0)],
                         ids=["chebyshev40", "uniform7", "chebyshev200"])
def test_rn_drift_constants_equal_an_lstsq_reference_bit_for_bit(grid):
    for name, m, sigma in affine_drift_cases():
        dc, U, dU = m._basis(grid.nodes)
        pq, _, rank, _ = np.linalg.lstsq(U, np.column_stack([dc, dU]), rcond=RANK_TOL)
        assert rank == m.d, name
        ref = np.vstack([pq[:, 1:].T, pq[:, 0], 0.5 * np.diag(sigma @ sigma.T),
                         m.factor_map.coefficients])
        assert rn_drift(m, sigma, grid)._consts.tobytes() == ref.tobytes(), name


def test_rn_drift_on_loadings_that_vanish_on_the_grid_raises_when_built():
    m = AffineModel(c=QEFunction.exponential(-1.0), u=[QEFunction.constant(0.0)],
                    factor_map=IdentityMap(1))
    with pytest.raises(noarb.DegenerateFamilyError, match=re.escape("y=[0.0]")):
        rn_drift(m, [[1.0]], GRID)


def jet_inputs(d):
    """A state, C-ordered, strided and (n, k, d) batches of several sizes:
    consecutive calls change the shape, so coefficients shaped for one call
    must not serve the next."""
    block = np.random.default_rng(37).uniform(-0.9, 0.9, (9, 4, d))
    return [block[0, 0], np.ascontiguousarray(block[:, 0]), block[::2, 1], block,
            np.ascontiguousarray(block[:5, 2]), block[0, 0],
            np.ascontiguousarray(block[:, 3])]


@pytest.mark.parametrize("fm", [
    IdentityMap(3), ExpMinusOneMap(3),
    ComponentwiseCubicMap([1.0, -0.7, 0.4], [0.3, 0.0, -1.1], [0.1, 2.5, -0.6])],
    ids=lambda fm: fm.tag)
def test_factor_map_jets_equal_the_row_major_formulas_bit_for_bit(fm):
    for order in (0, 1, 2):
        for i, Y in enumerate(jet_inputs(fm.d)):
            got = fm.jet(Y, order)
            assert len(got) == order + 1
            for a, ref in zip(got, row_major_jet(fm, Y)):
                assert a.shape == Y.shape, (order, i)
                assert (np.ascontiguousarray(a).tobytes()
                        == np.ascontiguousarray(ref).tobytes()), (order, i)
            # the core on coefficients copied out to the state's shape
            yt = np.ascontiguousarray(np.asarray(Y).T)
            c = fm.coefficients.shape[0]
            planes = np.broadcast_to(fm.coefficients.reshape((c, fm.d) + (1,) * (yt.ndim - 1)),
                                     (c,) + yt.shape).copy()
            for a, b in zip(fm.cm_jet(yt, order, planes), got):
                assert a.tobytes() == np.ascontiguousarray(b.T).tobytes(), (order, i)


def test_rn_drift_solves_the_drift_identity_on_custom_model():
    m = custom_model()
    Y = off_lattice_states(2)
    out = rn_drift(m, CUSTOM_SIGMA, GRID)(Y)
    worst = max(rn_residual(m, y, CUSTOM_SIGMA, b, GRID)[0] for y, b in zip(Y, out))
    assert worst <= 1e-10


def finite_difference_drift_residual(model, y, b, cov, h=1e-4):
    """Max grid residual of the drift identity with grad_y g and hess_y g
    from central differences of curve_matrix, weighted by the covariance."""
    d = model.d
    xs = np.asarray(GRID.nodes)
    e = h * np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    states = np.vstack([y] + [y + s * e[i] for i in range(d) for s in (1.0, -1.0)]
                       + [y + si * e[i] + sj * e[j] for i, j in pairs for si, sj in signs])
    g = model.curve_matrix(xs, states).T
    grad = np.empty((xs.size, d))
    hess = np.empty((xs.size, d, d))
    for i in range(d):
        up, down = g[:, 1 + 2 * i], g[:, 2 + 2 * i]
        grad[:, i] = (up - down) / (2 * h)
        hess[:, i, i] = (up - 2 * g[:, 0] + down) / h**2
    for n, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = g[:, 1 + 2 * d + 4 * n: 5 + 2 * d + 4 * n].T
        hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4 * h**2)
    dxg = model.derivative_tables(xs, y)[0]
    r = dxg - grad @ b - 0.5 * np.einsum("ij,kij->k", cov, hess)
    return float(np.max(np.abs(r)))


def test_rn_drift_closed_form_against_finite_difference_oracle():
    m = custom_model()
    sigma = np.array(CUSTOM_SIGMA)
    Y = off_lattice_states(2, 10)
    out = rn_drift(m, sigma, GRID)(Y)
    worst = max(finite_difference_drift_residual(m, y, b, sigma @ sigma.T)
                for y, b in zip(Y, out))
    assert worst <= 1e-6


def test_rn_drift_solves_state_by_state_without_full_rank_loadings():
    collinear = AffineModel(c=QEFunction.constant(0.0),
                            u=[QEFunction.exponential(-1.0),
                               QEFunction.exponential(-1.0, 2.0)],
                            factor_map=IdentityMap(2))
    for m, sigma in ((GaussianExampleModel(), np.array([[1.2]])),
                     (collinear, 0.5 * np.eye(2))):
        Y = off_lattice_states(m.d, 6)
        ref = np.stack([solve_drift(m, y, sigma, GRID).b for y in Y])
        assert np.array_equal(rn_drift(m, sigma, GRID)(Y), ref)


def state_shapes(monkeypatch, obj, name):
    """Patch obj.name(first, y, ...) to record the shape of each y it gets."""
    shapes = []
    inner = getattr(obj, name)

    def recorded(*args):
        shapes.append(np.shape(args[1]))
        return inner(*args)

    monkeypatch.setattr(obj, name, recorded)
    return shapes


def state_rows(res):
    """The states of a stacked DriftSolveResult, one result each."""
    return [noarb.DriftSolveResult(res.b[k], res.residual_rms[k], res.residual_max[k],
                                   res.condition_number[k], res.rank_ok[k])
            for k in range(len(res.b))]


def collinear_affine():
    """Loadings without full column rank: no closed form, every state solved."""
    return AffineModel(c=QEFunction.constant(0.0),
                       u=[QEFunction.exponential(-1.0),
                          QEFunction.exponential(-1.0, 2.0)],
                       factor_map=IdentityMap(2))


def test_non_affine_rn_drift_rows_do_not_depend_on_the_batch(monkeypatch):
    n = sim._DRIFT_CHUNK + 1
    for m, sigma in ((GaussianExampleModel(), np.array([[1.2]])),
                     (collinear_affine(), np.array(CUSTOM_SIGMA))):
        Y = off_lattice_states(m.d, n)
        drift = rn_drift(m, sigma, GRID)
        stacks = state_shapes(monkeypatch, sim, "_drift_stack")
        out = drift(Y)
        assert stacks == [(n - 1, m.d), (1, m.d)]  # one stacked solve per chunk
        monkeypatch.undo()
        assert np.array_equal(drift(Y[::-1])[::-1], out)
        for y, b in zip(Y, out):
            assert np.array_equal(b, solve_drift(m, y, sigma, GRID).b)
        assert np.array_equal(drift(Y[-1]), out[-1])


def test_non_affine_rn_drift_computes_no_residual(monkeypatch):
    m, sigma = GaussianExampleModel(), np.array([[1.2]])
    Y = off_lattice_states(1, 9)
    ref = np.stack([solve_drift(m, y, sigma, GRID).b for y in Y])

    def unused(*args):
        raise AssertionError("the drift discards the residual")

    monkeypatch.setattr(noarb, "_residual_stats", unused)
    assert np.array_equal(rn_drift(m, sigma, GRID)(Y), ref)


def drift_paths():
    """(name, model, sigma, closed form?) for both paths of rn_drift."""
    return [("custom_affine", custom_model(), np.array(CUSTOM_SIGMA), True),
            ("collinear", collinear_affine(), np.array(CUSTOM_SIGMA), False),
            ("gaussian-example", GaussianExampleModel(), np.array([[1.2]]), False)]


@pytest.mark.parametrize("name, m, sigma, closed", drift_paths(),
                         ids=[case[0] for case in drift_paths()])
def test_rn_drift_names_d_and_the_shape_for_a_state_of_another_width(
        name, m, sigma, closed):
    drift = rn_drift(m, sigma, GRID)
    assert (drift._consts is not None) is closed
    for y in (np.zeros(m.d + 1), np.zeros((4, m.d + 1)), np.zeros((2, 3, m.d + 1))):
        with pytest.raises(ValueError) as err:
            drift(y)
        assert str(err.value) == (f"a state needs d={m.d} factors, shape (d,) or "
                                  f"(..., d); got shape {y.shape}")


@pytest.mark.parametrize("name, m, sigma, closed", drift_paths(),
                         ids=[case[0] for case in drift_paths()])
def test_rn_drift_maps_a_stack_row_by_row(name, m, sigma, closed):
    drift = rn_drift(m, sigma, GRID)
    Y = off_lattice_states(m.d, 6).reshape(2, 3, m.d)
    out = drift(Y)
    assert out.shape == Y.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], drift(Y[idx]))
    assert np.array_equal(out.reshape(6, m.d), drift(Y.reshape(6, m.d)))


def test_rn_drift_keeps_no_state_that_its_calls_or_simulate_change():
    for m, sigma in ((custom_model(), np.array(CUSTOM_SIGMA)),
                     (GaussianExampleModel(), np.array([[1.2]]))):
        drift = rn_drift(m, sigma, GRID)
        before = {k: (v, v.tobytes() if isinstance(v, np.ndarray) else None)
                  for k, v in vars(drift).items()}
        Y = off_lattice_states(m.d, 200)
        for n in (1, 7, 200):
            drift(Y[:n])
        simulate(SdeSpec(d=m.d, drift=drift, sigma=sigma, y0=np.full(m.d, 0.1)),
                 0.05, 0.25, 9, seed=3)
        after = vars(drift)
        assert after.keys() == before.keys()
        for k, (v, raw) in before.items():
            assert after[k] is v, k
            assert raw is None or v.tobytes() == raw, k


def test_rn_drift_shared_by_threads_of_different_widths_gives_each_its_rows():
    # the drift keeps no per-call state, so calls of other widths in other
    # threads cannot hand a call constants of the wrong shape
    m = custom_model()
    drift = rn_drift(m, CUSTOM_SIGMA, GRID)
    Y = off_lattice_states(m.d, 64)
    widths = (1, 7, 33, 64)
    refs = {n: rn_drift(m, CUSTOM_SIGMA, GRID)(Y[:n]) for n in widths}
    bad = []

    def hammer(n):
        try:
            for _ in range(300):
                if not np.array_equal(drift(Y[:n]), refs[n]):
                    bad.append(n)
        except Exception as exc:  # recorded: a thread's exception would be lost
            bad.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in widths]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_gaussian_example_paths_equal_a_per_state_euler_reference():
    m = GaussianExampleModel()
    sigma = np.array([[1.0]])

    def per_state(Y):
        return np.stack([solve_drift(m, y, sigma, GRID).b for y in Y])

    n_paths = sim._DRIFT_CHUNK + 1
    spec = SdeSpec(d=1, drift=rn_drift(m, sigma, GRID), sigma=sigma, y0=[0.5])
    ps = simulate(spec, 0.01, 0.05, n_paths, seed=13)
    ref = per_path_philox_paths(SdeSpec(d=1, drift=per_state, sigma=sigma, y0=[0.5]),
                                0.01, 5, n_paths, 13)
    assert np.array_equal(ps.paths, ref)


@pytest.mark.parametrize("n_paths", [1, 257])
@pytest.mark.parametrize("name, m, sigma", affine_drift_cases(),
                         ids=[case[0] for case in affine_drift_cases()])
def test_closed_form_paths_equal_the_reference_that_calls_the_drift(name, m, sigma, n_paths):
    # simulate steps a closed-form drift on its component-major core; the
    # reference calls the drift itself, once per step on (n_paths, d)
    drift = rn_drift(m, sigma, GRID)
    assert drift._consts is not None
    spec = SdeSpec(d=m.d, drift=drift, sigma=sigma, y0=np.linspace(-0.2, 0.3, m.d))
    ps = simulate(spec, 0.05, 0.25, n_paths, seed=21)
    assert ps.paths.tobytes() == per_path_philox_paths(spec, 0.05, 5, n_paths, 21).tobytes()


def test_closed_form_drift_with_a_zero_slope_raises_without_a_warning():
    # A'(0) = 0 in both components: b_1 = -a_11 / 0 = -inf (a division by
    # zero) and b_2 = -0.0 / 0 = nan (an invalid operation)
    m = AffineModel(c=QEFunction.constant(0.0),
                    u=[QEFunction.exponential(-1.0), QEFunction.exponential(-2.0)],
                    factor_map=ComponentwiseCubicMap([0.0, 0.0], [0.5, 0.0], [0.1, 1.0]))
    drift = rn_drift(m, np.eye(2), GRID)
    assert drift._consts is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as closed:
            simulate(SdeSpec(d=2, drift=drift, sigma=np.eye(2), y0=[0.0, 0.0]),
                     0.01, 0.1, 4, seed=0)
        with pytest.raises(SimulationError) as generic:
            simulate(SdeSpec(d=2, drift=lambda y: drift(y), sigma=np.eye(2),
                             y0=[0.0, 0.0]), 0.01, 0.1, 4, seed=0)
    assert str(closed.value) == str(generic.value) == (
        "drift returned non-finite values on path 0 at t=0")


def test_simulate_calls_only_a_drift_without_a_closed_form(monkeypatch):
    calls = []
    call = sim.RiskNeutralDrift.__call__

    def spy(self, y):
        calls.append(np.shape(y))
        return call(self, y)

    monkeypatch.setattr(sim.RiskNeutralDrift, "__call__", spy)
    for m, sigma, n_calls in ((custom_model(), np.array(CUSTOM_SIGMA), 0),
                              (GaussianExampleModel(), np.array([[1.2]]), 5)):
        calls.clear()
        spec = SdeSpec(d=m.d, drift=rn_drift(m, sigma, GRID), sigma=sigma,
                       y0=np.full(m.d, 0.1))
        simulate(spec, 0.05, 0.25, 3, seed=5)
        assert calls == [(3, m.d)] * n_calls


@pytest.mark.parametrize("model_d, spec_d", [(1, 2), (2, 1), (2, 3)])
def test_simulate_names_the_drift_s_d_for_a_spec_of_another_width(model_d, spec_d):
    closed = {1: builtin_models()["affine1-exp-identity"], 2: custom_model()}[model_d]
    solved = {1: GaussianExampleModel(), 2: collinear_affine()}[model_d]
    sigma = np.eye(spec_d)
    messages = []
    for m in (closed, solved):
        drift = rn_drift(m, np.eye(model_d), GRID)
        for f in (drift, lambda y: drift(y)):
            with pytest.raises(ValueError) as err:
                simulate(SdeSpec(d=spec_d, drift=f, sigma=sigma, y0=np.zeros(spec_d)),
                         0.05, 0.25, 3, seed=1)
            messages.append(str(err.value))
    assert messages == [f"a state needs d={model_d} factors, shape (d,) or (..., d); "
                        f"got shape (3, {spec_d})"] * 4


@pytest.mark.parametrize("name", ["affine3-cubic", "custom_affine.json",
                                  "gaussian-example", "numeric-d1"])
def test_scc_loop_per_state_equals_solve_drift_on_every_field(monkeypatch, name):
    m = pricing_models()[name]
    sigma = np.tril(0.3 * np.ones((m.d, m.d))) + 0.4 * np.eye(m.d)
    ps = simulate(driftless(0.4, 0.2, d=m.d), 1e-2, 0.5, 3, seed=17)
    tables = state_shapes(monkeypatch, m, "derivative_tables")
    rep = scc_loop(m, ps, GRID, sigma_override=sigma)
    assert tables == [(32, m.d)]  # one stacked solve for every state
    monkeypatch.undo()
    for y, got in zip(rep.y_samples, state_rows(rep.drift)):
        want = solve_drift(m, y, sigma, GRID)
        assert np.array_equal(got.b, want.b)
        fields = ("residual_rms", "residual_max", "condition_number", "rank_ok")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert rep.max_residual == max(r.residual_rms for r in state_rows(rep.drift))
    assert rep.max_drift_norm == max(np.linalg.norm(r.b) for r in state_rows(rep.drift))


@pytest.mark.parametrize("model", [custom_model, collinear_affine])
def test_scc_loop_summaries_equal_the_per_state_results(model):
    ps = simulate(driftless(0.4, 0.2, d=2), 1e-2, 0.5, 3, seed=23)
    rep = scc_loop(model(), ps, GRID)
    assert rep.max_residual == max(r.residual_rms for r in state_rows(rep.drift))
    assert rep.any_rank_deficient == any(not r.rank_ok for r in state_rows(rep.drift))
    assert type(rep.any_rank_deficient) is bool
    norm = max(np.linalg.norm(r.b) for r in state_rows(rep.drift))
    assert abs(rep.max_drift_norm - norm) <= np.spacing(norm)
    assert rep.verdict == (model is custom_model)


def test_scc_loop_box_equals_column_reductions_bitwise():
    m = custom_model()
    ps = simulate(driftless(0.4, 0.2, d=2), 1e-2, 0.5, 5, seed=3)
    paths = ps.paths.copy()
    paths[0, 1, 1] = -7.5  # flat row 1: an outlier off the sampled states
    rep = scc_loop(m, PathSet(ps.times, paths, ps.seed), GRID,
                   sigma_override=CUSTOM_SIGMA)
    flat = paths.reshape(-1, 2)
    assert not (rep.y_samples == -7.5).any()
    for got, want in zip(rep.y_box, (flat.min(axis=0), flat.max(axis=0))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rep.y_box[0][1] == -7.5 and rep.y_box[0][0] > -7.5


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_the_non_finite_gates_never_fire_on_the_monte_carlo_pipeline(seed):
    # the case-B settings of the mc_verify benchmark: the custom_affine.json
    # model under the correlated sigma, 200 paths of 100 steps to 0.5
    raw = json.loads((SCENARIOS / "custom_affine.json").read_text())
    m, grid = model_from_dict(raw["model"]), XGrid.from_dict(raw["grid"])
    spec = SdeSpec(d=2, drift=rn_drift(m, CUSTOM_SIGMA, grid), sigma=CUSTOM_SIGMA,
                   y0=raw["y_samples"][0])
    ps = simulate(spec, 0.005, 0.5, 200, seed)
    assert math.isfinite(martingale_test(m, ps, FS12).z_score)
    assert np.isfinite(estimate_vol(ps)).all()
    assert np.isfinite(scc_loop(m, ps, grid).max_residual)


def test_scc_loop_accepts_affine_data():
    m = simple_affine()
    drift = rn_drift(m, [[1.0]], GRID)
    ps = simulate(SdeSpec(d=1, drift=drift, sigma=[[1.0]], y0=[1.0]),
                  1e-3, 1.0, 4, seed=11)
    rep = scc_loop(m, ps, GRID)
    assert rep.verdict
    assert rep.max_residual <= 1e-8
    assert not rep.psd_projected
    assert rep.y_box[0][0] <= 1.0 <= rep.y_box[1][0]


def test_scc_loop_zero_vol_affine_data():
    m = simple_affine()
    drift = rn_drift(m, [[0.0]], GRID)
    ps = simulate(SdeSpec(d=1, drift=drift, sigma=[[0.0]], y0=[1.0]),
                  1e-3, 1.0, 1, seed=1)
    rep = scc_loop(m, ps, GRID)
    assert rep.verdict


def test_scc_loop_flags_perturbed_gaussian_estimate():
    ps = simulate(driftless(1.0, 0.0), 1e-3, 1.0, 4, seed=12)
    rep = scc_loop(GaussianExampleModel(), ps, XGrid.uniform(40, 3.0),
                   sigma_override=[[1.2]])
    assert not rep.verdict
    assert rep.max_residual >= 1e-3
    assert np.isfinite(rep.max_drift_norm)


def test_scc_loop_report_serialises():
    m = simple_affine()
    ps = simulate(SdeSpec(d=1, drift=rn_drift(m, [[1.0]], GRID),
                          sigma=[[1.0]], y0=[1.0]), 1e-2, 1.0, 2, seed=2)
    rep = scc_loop(m, ps, GRID)
    assert isinstance(rep, SccLoopReport)
    d = rep.to_dict()
    assert d["verdict"] is True
    assert len(d["drift"]["b"]) == len(rep.drift.b)


def test_scc_loop_refuses_a_nan_residual_naming_its_state():
    class NanHessianAbove(AffineModel):
        def derivative_tables(self, xs, y):
            dxg, grads, hesses = super().derivative_tables(xs, y)
            above = np.atleast_1d(y)[..., 0] > 1.2
            hesses = np.where(above[..., None, None, None], np.nan, hesses)
            return dxg, grads, hesses

    base = simple_affine()
    m = NanHessianAbove(c=base.c, u=base.u, factor_map=base.factor_map)
    ps = simulate(SdeSpec(d=1, drift=rn_drift(base, [[1.0]], GRID),
                          sigma=[[1.0]], y0=[1.0]), 1e-3, 1.0, 4, seed=11)
    samples = scc_loop(base, ps, GRID).y_samples
    first = samples[np.flatnonzero(samples[:, 0] > 1.2)[0]]
    assert samples[0, 0] <= 1.2
    with pytest.raises(ValueError) as err:
        scc_loop(m, ps, GRID)
    assert str(err.value) == f"drift residual is non-finite at y={first.tolist()}"


def test_scc_loop_solves_with_the_override_covariance():
    m = custom_model()
    ps = simulate(driftless(0.3, 0.0, d=2), 1e-2, 1.0, 2, seed=3)
    rep = scc_loop(m, ps, GRID, sigma_override=CUSTOM_SIGMA, n_y_samples=4)
    sigma = np.array(CUSTOM_SIGMA)
    assert np.array_equal(rep.covariance, sigma @ sigma.T)
    assert np.array_equal(rep.sigma_sq_hat, sigma @ sigma.T)
    assert not rep.psd_projected
    assert rep.verdict and rep.max_residual <= 1e-10
    for y, r in zip(rep.y_samples, state_rows(rep.drift)):
        assert np.array_equal(r.b, solve_drift(m, y, sigma, GRID).b)


def wrong_sigma_calls(sigma):
    """Every entry point that takes sigma, for the d = 2 custom model."""
    m = custom_model()
    ps = simulate(driftless(0.4, 0.2, d=2), 1e-2, 0.2, 3, seed=5)
    return {
        "solve_drift": lambda: solve_drift(m, [0.5, -0.5], sigma, GRID),
        "rn_residual": lambda: rn_residual(m, [0.5, -0.5], sigma, [0.0, 0.0], GRID),
        "rn_drift": lambda: rn_drift(m, sigma, GRID),
        "scc_loop": lambda: scc_loop(m, ps, GRID, sigma_override=sigma),
    }


@pytest.mark.parametrize("name", sorted(wrong_sigma_calls(None)))
def test_a_sigma_of_the_wrong_size_raises_naming_d(name):
    # a (1, 1) sigma once broadcast to the all-ones covariance of a d = 2 model
    for sigma, shape in (([[1.0]], (1, 1)), (np.eye(3), (3, 3)), ([1.0, 0.0], (1, 2))):
        message = f"sigma needs shape (d, d) with d=2, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wrong_sigma_calls(sigma)[name]()


@pytest.mark.parametrize("name", sorted(wrong_sigma_calls(None)))
def test_a_sigma_outside_the_double_range_is_refused_naming_it(name):
    # a non-finite entry made a NaN drift, or a residual error naming the
    # state; a sigma sigma^T that overflows did the same, after a warning
    for sigma, message in [
            ([[math.nan, 0.0], [0.0, 1.0]],
             "sigma must be finite, got sigma=[[nan, 0.0], [0.0, 1.0]]"),
            ([[1.0, 0.0], [math.inf, 1.0]],
             "sigma must be finite, got sigma=[[1.0, 0.0], [inf, 1.0]]"),
            ([[1e200, 0.0], [0.0, 1.0]], "sigma sigma^T leaves the double range "
                                         "at sigma=[[1e+200, 0.0], [0.0, 1.0]]")]:
        with pytest.raises(ValueError) as err:
            wrong_sigma_calls(sigma)[name]()
        assert str(err.value) == message


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, "1e-6", True])
def test_scc_loop_refuses_a_tol_that_is_not_a_finite_number_at_least_0(tol):
    # a NaN or negative tol failed every state: verdict False at residual 1e-16
    m = builtin_models()["affine1-exp-identity"]
    ps = simulate(SdeSpec(d=1, drift=rn_drift(m, [[1.0]], GRID),
                          sigma=[[1.0]], y0=[0.5]), 1e-2, 0.5, 4, seed=2)
    with pytest.raises(ValueError, match="^tol must be a"):
        scc_loop(m, ps, GRID, tol=tol)
    assert scc_loop(m, ps, GRID, tol=1e-12).verdict


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
def test_scc_loop_rejects_a_sample_count_that_is_not_a_positive_integer(n):
    m = simple_affine()
    ps = simulate(SdeSpec(d=1, drift=rn_drift(m, [[1.0]], GRID),
                          sigma=[[1.0]], y0=[1.0]), 1e-2, 1.0, 2, seed=2)
    with pytest.raises(ValueError, match="^n_y_samples must be"):
        scc_loop(m, ps, GRID, n_y_samples=n)


def test_nearest_psd_projection_flags_and_repairs():
    a, projected = nearest_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))
    assert projected
    assert np.allclose(a, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.linalg.eigvalsh(a).min() >= -1e-15
    a2, projected2 = nearest_psd(np.eye(2))
    assert not projected2
    assert np.array_equal(a2, np.eye(2))
    a3, projected3 = nearest_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert not projected3
    assert np.array_equal(a3, np.ones((2, 2)))
