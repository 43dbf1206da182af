"""Curve families: evaluation, derivative cross-checks, Hilbert norms."""

import numpy as np
import pytest
from scipy.integrate import quad

from fdcurves.families import (_BASIS_CACHE_SIZE, AffineModel, ComponentwiseCubicMap,
                               ExpMinusOneMap, GaussianExampleModel,
                               IdentityMap, NumericCurveFamily,
                               builtin_models, check_c12, curve_hilbert_norm,
                               eval_curve, hilbert_norm, model_from_dict,
                               norm_pdf)
from fdcurves.noarb import XGrid, solve_drift
from fdcurves.qe import QEFunction
from fdcurves.sim import FuturesSpec, SdeSpec, martingale_test, simulate


def erf_series(z):
    """erf by its Maclaurin series, summed to machine precision."""
    total, term, k = 0.0, z, 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term = -term * z * z / k
    return 2.0 / np.sqrt(np.pi) * total


def phi_oracle(t):
    """Normal CDF through the erf series, independent of scipy."""
    return 0.5 * (1.0 + erf_series(t / np.sqrt(2.0)))


def simple_affine():
    """g(x, y) = y * e^(-x)."""
    return AffineModel(c=QEFunction.constant(0.0),
                       u=[QEFunction.exponential(-1.0)],
                       factor_map=IdentityMap(1))


def constant_model(level=5.0):
    return AffineModel(c=QEFunction.constant(level),
                       u=[QEFunction.constant(0.0)],
                       factor_map=IdentityMap(1))


# -- eval_curve ---------------------------------------------------------------


def test_eval_affine_at_origin_maturity():
    vals = eval_curve(simple_affine(), [2.0], [0.0, 1.0])
    assert vals[0] == 2.0
    assert abs(vals[1] - 2.0 * np.exp(-1.0)) < 1e-15


def test_eval_gaussian_is_half_at_unit_state():
    m = GaussianExampleModel()
    vals = eval_curve(m, [1.0], np.linspace(0.0, 10.0, 7))
    assert np.allclose(vals, 0.5, atol=1e-15)


def test_eval_gaussian_matches_erf_series_oracle():
    m = GaussianExampleModel()
    got = eval_curve(m, [0.0], [0.0])[0]
    assert abs(got - phi_oracle(1.0)) < 1e-14


def test_eval_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        eval_curve(simple_affine(), [1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        eval_curve(simple_affine(), [1.0], [-1.0, 0.5])


def test_eval_curve_names_non_finite_maturity():
    bad = NumericCurveFamily(
        lambda x, y: np.inf if x == 1.0 else 1.0 / (x - 1.0), d=1)
    with pytest.raises(ValueError, match="x=1"):
        eval_curve(bad, [0.0], [0.0, 1.0, 2.0])


# -- derivatives ---------------------------------------------------------------


def test_gaussian_rn_identity_pointwise():
    # dx g == 0.5 * d2y g everywhere, with analytic derivatives
    m = GaussianExampleModel()
    xs = np.linspace(0.0, 5.0, 40)
    for y in (-2.0, -1.0, 0.0, 1.0, 2.0):
        dxg, _, hess = m.derivative_tables(xs, [y])
        assert np.max(np.abs(dxg - 0.5 * hess[:, 0, 0])) <= 1e-10


def test_affine_identity_map_has_exactly_zero_hessian():
    m = builtin_models()["affine2-identity"]
    for x in (0.0, 1.3):
        assert np.array_equal(m.hess_y(x, [0.4, -0.7]), np.zeros((2, 2)))


def test_check_c12_affine_model():
    m = builtin_models()["affine3-cubic"]
    err = check_c12(m, [0.3, -0.5, 0.8], np.linspace(0.0, 5.0, 9))
    assert err <= 1e-6


def test_check_c12_gaussian_model():
    err = check_c12(GaussianExampleModel(), [0.0], np.linspace(0.0, 5.0, 9))
    assert err <= 1e-6


def test_check_c12_constant_model_is_exact():
    err = check_c12(constant_model(), [0.7], np.linspace(0.0, 4.0, 5))
    assert err == 0.0


def test_check_c12_second_order_convergence():
    # halving both FD steps divides the discrepancy by about four
    m = GaussianExampleModel()
    grid = np.linspace(0.5, 3.0, 5)
    e_h = check_c12(m, [0.3], grid, first_step=1e-2, second_step=1e-2)
    e_h2 = check_c12(m, [0.3], grid, first_step=5e-3, second_step=5e-3)
    assert 2.5 <= e_h / e_h2 <= 6.0


def test_check_c12_requires_analytic_mode():
    fd_model = NumericCurveFamily(lambda x, y: float(y[0]) * np.exp(-x), d=1)
    with pytest.raises(ValueError):
        check_c12(fd_model, [1.0], [0.0, 1.0])


def test_numeric_family_derivatives_track_analytic_ones():
    analytic = GaussianExampleModel()
    fd_model = NumericCurveFamily(lambda x, y: analytic.value(x, y), d=1)
    for x, y in ((0.0, [0.2]), (1.7, [-0.8])):
        assert abs(fd_model.dx(x, y) - analytic.dx(x, y)) < 1e-6
        assert np.max(np.abs(fd_model.grad_y(x, y) - analytic.grad_y(x, y))) < 1e-6
        assert np.max(np.abs(fd_model.hess_y(x, y) - analytic.hess_y(x, y))) < 1e-5


def test_numeric_family_hessian_is_symmetric():
    fd_model = NumericCurveFamily(
        lambda x, y: float(np.sin(y[0]) * np.cos(2.0 * y[1]) * np.exp(-x)), d=2)
    H = fd_model.hess_y(0.5, [0.3, -0.4])
    for i in range(2):
        for j in range(2):
            assert abs(H[i, j] - H[j, i]) <= 1e-10 * (1.0 + abs(H[i, j]))


# -- factor maps ----------------------------------------------------------------


def test_cubic_map_derivatives():
    fm = ComponentwiseCubicMap(linear=[1.0, 2.0], quadratic=[0.5, 0.0],
                               cubic=[0.0, 1.0])
    y = np.array([2.0, -1.0])
    assert np.allclose(fm.value(y), [1 * 2 + 0.5 * 4, 2 * -1 + 1 * -1])
    dA, d2A = fm.derivatives(y)
    assert np.allclose(dA, [1 + 2 * 0.5 * 2, 2 + 3 * 1 * 1])
    assert np.allclose(d2A, [1.0, -6.0])
    batch_dA, batch_d2A = fm.derivatives(np.stack([y, 2 * y]))
    assert batch_dA.shape == batch_d2A.shape == (2, 2)
    assert np.array_equal(batch_dA[0], dA) and np.array_equal(batch_d2A[0], d2A)


def test_exp_map_vanishes_at_origin():
    fm = ExpMinusOneMap(3)
    assert np.array_equal(fm.value(np.zeros(3)), np.zeros(3))


# -- hilbert norm ---------------------------------------------------------------


def test_hilbert_norm_of_constant_curve():
    res = hilbert_norm(lambda x: 1.0, lambda xs: np.zeros_like(xs))
    assert res.value == 1.0
    assert res.tail_estimate == 0.0
    assert not res.divergence_warning


def test_hilbert_norm_gaussian_flat_state():
    res = curve_hilbert_norm(GaussianExampleModel(), [1.0])
    assert abs(res.total - 0.25) <= 1e-10


def test_hilbert_norm_gaussian_vs_quadrature_oracle():
    m = GaussianExampleModel()
    tail_weight, _ = quad(lambda x: m.dx(x, [0.0]) ** 2 * (1 + x) ** 1.5,
                          0.0, np.inf, limit=400)
    oracle = m.value(0.0, [0.0]) ** 2 + tail_weight
    res = curve_hilbert_norm(m, [0.0], x_max=200.0, n_nodes=4001)
    assert abs(res.total - oracle) <= 1e-6
    # coarse bound: phi(1)^2 + 2 * max_z (z*phi(z))^2
    assert res.total <= phi_oracle(1.0) ** 2 + 2.0 * float(norm_pdf(1.0)) ** 2


def test_hilbert_norm_monotone_in_truncation():
    m = builtin_models()["affine2-identity"]
    y = [0.5, -0.3]
    v100 = curve_hilbert_norm(m, y, x_max=100.0, n_nodes=1001).value
    v200 = curve_hilbert_norm(m, y, x_max=200.0, n_nodes=2001).value
    assert v100 <= v200 + 1e-15
    assert np.isfinite(v200)


def test_hilbert_norm_flags_growing_integrand():
    res = hilbert_norm(lambda x: x, lambda xs: np.ones_like(xs), x_max=50.0)
    assert res.divergence_warning


def test_hilbert_norm_fd_fallback_matches_analytic():
    m = GaussianExampleModel()
    with_analytic = curve_hilbert_norm(m, [0.0], x_max=50.0, n_nodes=501)
    fd = hilbert_norm(lambda x: m.value(x, [0.0]), None,
                      x_max=50.0, n_nodes=501)
    assert abs(with_analytic.value - fd.value) < 1e-7


def test_hilbert_norm_validates_inputs():
    with pytest.raises(ValueError):
        hilbert_norm(lambda x: 1.0, None, x_max=5.0)
    with pytest.raises(ValueError):
        hilbert_norm(lambda x: 1.0, None, n_nodes=10)


# -- serialisation ----------------------------------------------------------------


def test_affine_model_json_round_trip():
    m = builtin_models()["affine3-cubic"]
    m2 = model_from_dict(m.to_dict())
    y = [0.2, -0.4, 0.9]
    xs = np.linspace(0.0, 4.0, 7)
    assert np.allclose(m.curve(y, xs), m2.curve(y, xs), rtol=0, atol=0)


def test_gaussian_model_json_round_trip():
    m2 = model_from_dict(GaussianExampleModel().to_dict())
    assert isinstance(m2, GaussianExampleModel)


def test_model_from_dict_builtin_and_errors():
    m = model_from_dict({"builtin": "affine1-exp-identity"})
    assert m.d == 1
    with pytest.raises(ValueError):
        model_from_dict({"builtin": "no-such-model"})
    with pytest.raises(ValueError):
        model_from_dict({"type": "affine", "c": {}, "u": [], "amap": {}, "x": 1})
    with pytest.raises(ValueError):
        model_from_dict({"type": "mystery"})


def test_builtin_zoo_contains_all_documented_models():
    zoo = builtin_models()
    assert set(zoo) == {
        "affine1-exp-identity", "affine1-exp-expmap", "affine2-identity",
        "affine2-oscillator", "affine3-cubic", "gaussian-example",
    }
    for name, m in zoo.items():
        assert m.derivative_mode == "analytic", name


# -- basis cache -----------------------------------------------------------------------


def test_basis_cache_is_bounded():
    m = builtin_models()["affine2-identity"]
    for k in range(3 * _BASIS_CACHE_SIZE):
        m.derivative_tables(np.linspace(0.0, 1.0 + 0.1 * k, 9), [0.2, -0.1])
        assert len(m._tables) <= _BASIS_CACHE_SIZE
    assert len(m._tables) == _BASIS_CACHE_SIZE


def test_basis_cache_evicts_oldest_grid_first():
    m = simple_affine()
    grids = [np.linspace(0.0, 1.0 + k, 5) for k in range(_BASIS_CACHE_SIZE + 1)]
    for xs in grids:
        m.derivative_tables(xs, [0.3])
    assert grids[0].tobytes() not in m._tables
    assert all(xs.tobytes() in m._tables for xs in grids[1:])


def test_pricing_leaves_basis_cache_unchanged():
    m = builtin_models()["affine2-identity"]
    grid = XGrid.chebyshev()
    solve_drift(m, [0.1, 0.2], np.eye(2), grid)
    before = dict(m._tables)
    spec = SdeSpec(d=2, drift=lambda y: 0.0 * y, sigma=0.3 * np.eye(2),
                   y0=[0.1, 0.2])
    ps = simulate(spec, 0.005, 0.5, 20, seed=3)
    assert ps.n_times == 101
    martingale_test(m, ps, FuturesSpec(1.0, 2.0))
    m.curve_matrix(np.linspace(0.0, 2.0, 17), ps.paths[:, -1])
    assert m._tables.keys() == before.keys()
