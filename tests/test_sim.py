"""Simulation, futures pricing, martingale and volatility statistics."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from fdcurves.families import (AffineModel, GaussianExampleModel, IdentityMap,
                               builtin_models, model_from_dict)
from fdcurves.noarb import XGrid
from fdcurves.qe import QEFunction, qe_integral
from fdcurves.sim import (PATHSET_MAGIC, FuturesSpec, PathSet, SccLoopReport, SdeSpec,
                          SimulationError, corollary_split, estimate_vol,
                          futures_price, martingale_test, nearest_psd_factor,
                          rn_drift, scc_loop, simulate)

GRID = XGrid.chebyshev()
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FS12 = FuturesSpec(1.0, 2.0)


def ou_spec(sigma=1.0, y0=0.0):
    return SdeSpec(d=1, drift=lambda y: -y, sigma=[[sigma]], y0=[y0])


def driftless(sigma=1.0, y0=0.0, d=1):
    return SdeSpec(d=d, drift=lambda y: 0.0 * y,
                   sigma=np.eye(d) * sigma, y0=np.full(d, float(y0)))


def simple_affine():
    return AffineModel(c=QEFunction.constant(0.0),
                       u=[QEFunction.exponential(-1.0)],
                       factor_map=IdentityMap(1))


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


def test_scalar_and_batch_drifts_agree_bitwise():
    def one_state_only(y):
        (v,) = np.asarray(y, dtype=float)  # refuses batches
        return np.array([-v])

    vec = simulate(ou_spec(), 0.01, 0.5, 5, seed=3)
    scal = simulate(SdeSpec(d=1, drift=one_state_only, sigma=[[1.0]],
                            y0=[0.0]), 0.01, 0.5, 5, seed=3)
    assert np.array_equal(vec.paths, scal.paths)


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


# -- PathSet persistence ---------------------------------------------------------


def test_pathset_binary_round_trip(tmp_path):
    ps = simulate(ou_spec(0.7, 1.2), 0.05, 0.5, 4, seed=123)
    target = tmp_path / "paths.bin"
    ps.save(target)
    back = PathSet.load(target)
    assert np.array_equal(ps.paths, back.paths)
    assert np.allclose(ps.times, back.times, rtol=0, atol=1e-12)
    assert back.seed == 123


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


def test_pathset_csv_export(tmp_path):
    ps = simulate(driftless(d=2), 0.1, 0.2, 2, seed=4)
    target = tmp_path / "paths.csv"
    ps.export_csv(target)
    lines = target.read_text().splitlines()
    assert lines[0] == "path,time,y_1,y_2"
    assert len(lines) == 1 + ps.n_paths * ps.n_times
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


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


@pytest.mark.parametrize("name", ["affine1-exp-identity", "affine2-identity",
                                  "affine3-cubic"])
def test_price_quadrature_matches_exact_qe_integrals(name):
    # Simpson against the closed-form antiderivative of each QE component
    m = builtin_models()[name]
    y = np.linspace(0.3, -0.4, m.d)
    z = m.factor_map.value(y)
    length = FS12.T2 - FS12.T1
    exact = (qe_integral(m.c, FS12.T1, FS12.T2)
             + sum(qe_integral(f, FS12.T1, FS12.T2) * z[k]
                   for k, f in enumerate(m.u))) / length
    got = futures_price(m, y, 0.0, FS12)
    assert abs(got - exact) <= 1e-10


def test_corollary_transformed_factor_reprices_exactly():
    # averaging intercept and loadings separately, then contracting with
    # A(y), must equal the direct quadrature bit for bit
    for name in ("affine1-exp-expmap", "affine3-cubic"):
        m = builtin_models()[name]
        y = np.full(m.d, 0.4)
        direct = futures_price(m, y, 0.25, FS12)
        split = corollary_split(m, y, 0.25, FS12)
        assert abs(direct - split) <= 1e-14


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
            assert abs(futures_price(m, y, t, FS12)
                       - corollary_split(m, y, t, FS12)) <= 1e-12


# -- martingale_test ----------------------------------------------------------------


def test_martingale_rn_drift_small_z():
    ps = simulate(ou_spec(1.0, 1.0), 1e-3, 0.5, 2000, seed=20260810)
    res = martingale_test(simple_affine(), ps, FS12)
    assert abs(res.z_score) <= 3.0


def test_martingale_wrong_drift_large_z():
    ps = simulate(driftless(1.0, 1.0), 1e-3, 0.5, 2000, seed=20260810)
    res = martingale_test(simple_affine(), ps, FS12)
    assert abs(res.z_score) > 5.0


def test_martingale_zero_vol_transport_is_deterministic():
    m = simple_affine()
    spec = SdeSpec(d=1, drift=lambda y: -y, sigma=[[0.0]], y0=[1.0])
    ps = simulate(spec, 1e-5, 5e-4, 2, seed=0)
    res = martingale_test(m, ps, FS12)
    assert res.max_abs_increment <= 1e-10


def test_martingale_rejects_paths_beyond_delivery():
    ps = simulate(ou_spec(), 0.1, 1.5, 2, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        martingale_test(simple_affine(), ps, FS12)


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


# -- scc_loop and drift lattice -------------------------------------------------------


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


def scalar_lattice_drift(drift, y):
    """Reference: one state at a time, corner by corner, zero weights skipped."""
    base = np.floor(y / drift.h).astype(int)
    frac = y / drift.h - base
    out = np.zeros(y.shape[0])
    for corner in range(1 << y.shape[0]):
        bits = [(corner >> i) & 1 for i in range(y.shape[0])]
        weight = 1.0
        for i, bit in enumerate(bits):
            weight *= frac[i] if bit else (1.0 - frac[i])
        if weight != 0.0:
            out += weight * drift._node(tuple(base + np.array(bits)))
    return out


def test_lattice_drift_batch_equals_row_calls_bitwise():
    scenario = json.loads((SCENARIOS / "custom_affine.json").read_text())
    model = model_from_dict(scenario["model"])
    sigma = [[0.5, 0.0], [0.45, 0.2]]
    rows = np.random.default_rng(5).uniform(-0.6, 0.6, (50, 2))
    rows[:4] = [[0.1, 0.05], [0.0, 0.0], [-0.2, 0.33], [0.25, -0.15]]  # on lattice lines
    batched = rn_drift(model, sigma, GRID)
    per_row = rn_drift(model, sigma, GRID)
    reference = rn_drift(model, sigma, GRID)
    out = batched(rows)
    assert out.shape == (50, 2)
    assert np.array_equal(out, np.stack([per_row(y) for y in rows]))
    assert np.array_equal(out, np.stack([scalar_lattice_drift(reference, y) for y in rows]))
    assert set(batched._cache) == set(per_row._cache) == set(reference._cache)
    assert len(batched._cache) == len(per_row._cache)


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
    assert len(d["per_state"]) == len(rep.per_state)


def test_nearest_psd_projection_flags_and_repairs():
    factor, projected = nearest_psd_factor(np.array([[1.0, 0.0], [0.0, -0.5]]))
    assert projected
    rebuilt = factor @ factor.T
    assert np.allclose(rebuilt, np.diag([1.0, 0.0]), atol=1e-12)
    factor2, projected2 = nearest_psd_factor(np.eye(2))
    assert not projected2
    assert np.allclose(factor2 @ factor2.T, np.eye(2))
