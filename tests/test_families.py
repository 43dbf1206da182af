"""Curve families: evaluation, derivative cross-checks, Hilbert norms."""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fdcurves.families import (_BASIS_CACHE_SIZE, FD_FIRST_STEP, AffineModel,
                               ComponentwiseCubicMap, ExpMinusOneMap,
                               GaussianExampleModel, IdentityMap, NumericCurveFamily,
                               _simpson_weights, builtin_models, check_c12,
                               curve_hilbert_norm, eval_curve, hilbert_norm,
                               model_from_dict, norm_pdf)
from fdcurves.noarb import XGrid, scc_probe, solve_drift
from fdcurves.qe import QEFunction
from fdcurves.sim import (FuturesSpec, SdeSpec, futures_price, martingale_test, scc_loop,
                          simulate)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
    got = eval_curve(m, [0.0], [0.0, 1.0])[0]
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


@pytest.mark.parametrize("step", [0.0, -1e-6, np.nan, np.inf])
@pytest.mark.parametrize("name", ["first_step", "second_step"])
def test_finite_difference_steps_must_be_finite_and_positive(name, step):
    match = f"{name} must be finite and positive, got {step!r}"
    with pytest.raises(ValueError, match=re.escape(match)):
        NumericCurveFamily(lambda x, y: float(y[0]), d=1, **{name: step})
    with pytest.raises(ValueError, match=re.escape(match)):
        check_c12(GaussianExampleModel(), [0.0], [0.0, 1.0], **{name: step})


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


# -- one evaluation contract ----------------------------------------------------


def contract_models():
    models = dict(builtin_models())
    custom = json.loads((SCENARIOS / "custom_affine.json").read_text())["model"]
    models["custom_affine.json"] = model_from_dict(custom)
    models["numeric"] = NumericCurveFamily(
        lambda x, y: float(np.sin(y[0]) * np.cos(2.0 * y[1]) * np.exp(-x)), d=2)
    return models


@pytest.mark.parametrize("name", sorted(contract_models()))
def test_scalar_methods_read_one_node_of_the_batched_ones(name):
    m = contract_models()[name]
    assert not {"value", "dx", "grad_y", "hess_y"} & set(vars(type(m)))
    rng = np.random.default_rng(23)
    xs = np.concatenate([[0.0, 1e-7], np.sort(rng.uniform(0.0, 6.0, 5))])
    Y = rng.uniform(-1.5, 1.5, (3, m.d))
    values = m.curve_matrix(xs, Y)
    for j, y in enumerate(Y):
        tables = m.derivative_tables(xs, y)
        assert np.array_equal(m.curve_matrix(xs, y), m.curve_matrix(xs, y[None, :])[0])
        for k, x in enumerate(xs):
            node = np.array([x])
            assert m.value(x, y) == m.curve_matrix(node, y[None, :])[0, 0]
            assert m.value(x, y) == values[j, k]
            scalars = (m.dx(x, y), m.grad_y(x, y), m.hess_y(x, y))
            for got, one_node, batch in zip(scalars, m.derivative_tables(node, y), tables):
                assert np.array_equal(got, one_node[0])
                assert np.array_equal(got, batch[k])


def test_check_c12_reads_one_derivative_table_of_an_affine_model():
    m = builtin_models()["affine3-cubic"]
    check_c12(m, [0.3, -0.5, 0.8], np.linspace(0.0, 5.0, 9))
    assert len(m._tables) <= 1


def test_check_c12_certifies_the_tables_the_solvers_read(monkeypatch):
    m = GaussianExampleModel()
    tables = m.derivative_tables

    def wrong_hessian_sign(xs, y):
        dxg, grads, hesses = tables(xs, y)
        return dxg, grads, -hesses

    monkeypatch.setattr(m, "derivative_tables", wrong_hessian_sign)
    assert check_c12(m, [0.0], np.linspace(0.0, 5.0, 9)) > 1e-3


def per_node_fd_tables(f, xs, y, h1, h2):
    """Reference stencils, node by node and one f(x, y) call per point."""
    d = y.shape[0]
    dxg, grads, hesses = np.empty(len(xs)), np.empty((len(xs), d)), np.empty((len(xs), d, d))
    for k, x in enumerate(xs):
        x = float(x)
        if x >= h1:
            dxg[k] = (f(x + h1, y) - f(x - h1, y)) / (2 * h1)
        else:
            dxg[k] = (-3 * f(x, y) + 4 * f(x + h1, y) - f(x + 2 * h1, y)) / (2 * h1)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h1
            grads[k, i] = (f(x, y + e) - f(x, y - e)) / (2 * h1)
        f0 = f(x, y)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h2
            hesses[k, i, i] = (f(x, y + ei) - 2 * f0 + f(x, y - ei)) / h2**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h2
                hesses[k, i, j] = hesses[k, j, i] = (
                    f(x, y + ei + ej) - f(x, y + ei - ej)
                    - f(x, y - ei + ej) + f(x, y - ei - ej)) / (4 * h2**2)
    return dxg, grads, hesses


@pytest.mark.parametrize("name", ["affine1-exp-expmap", "affine2-oscillator",
                                  "affine3-cubic"])
def test_fd_stencils_match_per_node_reference_bitwise(name):
    m = builtin_models()[name]
    rng = np.random.default_rng(41)
    # x = 0 and 5e-7 take the one-sided stencil, x = 1e-6 the central one
    xs = np.concatenate([[0.0, 5e-7, 1e-6], XGrid.chebyshev(12, 5.0).nodes[1:]])
    numeric = NumericCurveFamily(m.value, m.d)
    for y in rng.uniform(-1.0, 1.0, (2, m.d)):
        ref = per_node_fd_tables(m.value, xs, y, numeric.h1, numeric.h2)
        for got, want in zip(numeric.derivative_tables(xs, y), ref):
            assert np.array_equal(got, want), name
        discrepancy = max(np.max(np.abs(got - want))
                          for got, want in zip(m.derivative_tables(xs, y), ref))
        assert check_c12(m, y, xs) == discrepancy, name


def test_check_c12_evaluates_the_curve_twice(monkeypatch):
    # one curve_matrix call for the x stencils, one for the y offsets
    m = builtin_models()["affine3-cubic"]
    curve_matrix = m.curve_matrix
    calls = []

    def counted(xs, Y):
        calls.append(np.atleast_2d(Y).shape[0])
        return curve_matrix(xs, Y)

    monkeypatch.setattr(m, "curve_matrix", counted)
    check_c12(m, [0.3, -0.5, 0.8], XGrid.chebyshev().nodes)
    assert len(calls) == 2


def contract_inputs(d):
    """A (2, 3) stack, a state, a stack and a strided stack of states."""
    rng = np.random.default_rng(29)
    stacked = rng.uniform(-1.2, 1.2, (2, 3, d))
    return {"(2, 3, d)": stacked, "(d,)": rng.uniform(-1.2, 1.2, d),
            "(n, d)": rng.uniform(-1.2, 1.2, (4, d)),
            "strided (n, d)": rng.uniform(-1.2, 1.2, (4, 2 * d))[:, ::2]}


@pytest.mark.parametrize("name", sorted(contract_models()))
def test_batched_derivative_tables_equal_per_state_tables_bitwise(name):
    # one contract for both batched methods: batch axes of y leading,
    # C-ordered, each state's rows the bits of that state alone, and a
    # ValueError naming d for a state of another width
    m = contract_models()[name]
    xs = np.concatenate([[0.0, 5e-7], XGrid.chebyshev(12, 5.0).nodes[1:]])
    K, d = xs.shape[0], m.d
    for kind, Y in contract_inputs(d).items():
        curves = m.curve_matrix(xs, Y)
        batch = m.derivative_tables(xs, Y)
        for got, shape in zip((curves, *batch), [(K,), (K,), (K, d), (K, d, d)]):
            assert got.shape == Y.shape[:-1] + shape, (name, kind)
            # C order keeps a stacked solve on the BLAS path of a single state
            assert got.flags.c_contiguous, (name, kind)
        for idx in np.ndindex(Y.shape[:-1]):
            y = np.array(Y[idx])
            assert np.array_equal(curves[idx], m.curve_matrix(xs, y)), (name, kind, idx)
            for got, want in zip(batch, m.derivative_tables(xs, y)):
                assert np.array_equal(got[idx], want), (name, kind, idx)
            assert [m.value(x, y) for x in xs] == curves[idx].tolist(), (name, kind, idx)
    for y in (np.zeros(d + 1), np.zeros((2, 3, d + 1))):
        message = (f"a state needs d={d} factors, shape (d,) or (..., d); "
                   f"got shape {y.shape}")
        for method in (m.curve_matrix, m.derivative_tables):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                method(xs, y)


def narrow_calls():
    """Every entry point given one-factor states for the d = 2 affine2-identity."""
    m = builtin_models()["affine2-identity"]
    grid = XGrid.chebyshev()
    fs = FuturesSpec(1.0, 2.0)
    ps = simulate(SdeSpec(d=1, drift=lambda y: 0.0 * y, sigma=[[0.3]], y0=[1.0]),
                  0.01, 0.2, 20, seed=3)
    return {
        "scc_probe": lambda: scc_probe(m, [1.0], grid),
        "eval_curve": lambda: eval_curve(m, [1.0], grid),
        "solve_drift": lambda: solve_drift(m, [1.0], np.eye(2), grid),
        "value": lambda: m.value(0.5, [1.0]),
        "futures_price": lambda: futures_price(m, [1.0], 0.0, fs),
        "martingale_test": lambda: martingale_test(m, ps, fs),
        "scc_loop": lambda: scc_loop(m, ps, grid),
    }


@pytest.mark.parametrize("name", sorted(narrow_calls()))
def test_a_state_with_the_wrong_factor_count_raises_naming_d(name):
    # a (1,) state or a d = 1 path set once broadcast against a d = 2 model
    shape = (20, 21, 1) if name in ("martingale_test", "scc_loop") else (1,)
    message = f"a state needs d=2 factors, shape (d,) or (..., d); got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        narrow_calls()[name]()


def test_fd_tables_evaluate_the_curve_twice_for_any_batch(monkeypatch):
    m = contract_models()["numeric"]
    curve_matrix = m.curve_matrix
    calls = []

    def counted(xs, Y):
        calls.append(np.prod(Y.shape[:-1]))
        return curve_matrix(xs, Y)

    monkeypatch.setattr(m, "curve_matrix", counted)
    m.derivative_tables(XGrid.chebyshev(8, 5.0).nodes, np.zeros((7, 2)))
    # x stencils at 7 states, then 7 x (1 + 4d + 4 d(d-1)/2) y stencil states
    assert calls == [7, 7 * 13]


# -- factor maps ----------------------------------------------------------------


def test_cubic_map_derivatives():
    fm = ComponentwiseCubicMap(linear=[1.0, 2.0], quadratic=[0.5, 0.0],
                               cubic=[0.0, 1.0])
    y = np.array([2.0, -1.0])
    assert np.allclose(fm.value(y), [1 * 2 + 0.5 * 4, 2 * -1 + 1 * -1])
    _, dA, d2A = fm.jet(y)
    assert np.allclose(dA, [1 + 2 * 0.5 * 2, 2 + 3 * 1 * 1])
    assert np.allclose(d2A, [1.0, -6.0])
    _, batch_dA, batch_d2A = fm.jet(np.stack([y, 2 * y]))
    assert batch_dA.shape == batch_d2A.shape == (2, 2)
    assert np.array_equal(batch_dA[0], dA) and np.array_equal(batch_d2A[0], d2A)


def test_cubic_map_value_matches_exact_closed_form():
    # exact rational arithmetic as the oracle: A, A' and A'' are each within
    # 2 eps of the sum of their term magnitudes, and jet's A is value's A
    fm = ComponentwiseCubicMap(linear=[1.0, -0.7], quadratic=[0.3, 0.0],
                               cubic=[0.1, 2.5])
    Y = np.random.default_rng(125).normal(scale=3.0, size=(50, 32, 2))
    got = fm.value(Y)
    jet = fm.jet(Y)
    assert np.array_equal(jet[0], got)
    for idx in np.ndindex(*Y.shape[:2]):
        for k in range(2):
            y = Fraction(Y[idx][k])
            lin, quad, cub = [Fraction(c[k]) for c in (fm.linear, fm.quadratic, fm.cubic)]
            exact = ([lin * y, quad * y**2, cub * y**3],
                     [lin, 2 * quad * y, 3 * cub * y**2],
                     [2 * quad, 6 * cub * y])
            for value, terms in zip((got, *jet[1:]), exact):
                scale = float(sum(abs(t) for t in terms))
                err = abs(Fraction(value[idx][k]) - sum(terms))
                assert float(err) <= 2 * np.finfo(float).eps * scale, (idx, k)


@pytest.mark.parametrize("fm", [
    IdentityMap(2), ExpMinusOneMap(2),
    ComponentwiseCubicMap(linear=[1.0, -0.7], quadratic=[0.3, 0.0], cubic=[0.1, 2.5]),
], ids=["identity", "exp-minus-one", "cubic"])
@pytest.mark.parametrize("shape", [(2,), (9, 2), (9, 5, 2)])
def test_factor_map_value_is_the_jet_value_bit_for_bit(fm, shape):
    # pricing asks for A alone; it must be the A the drift reads off the jet
    Y = np.random.default_rng(126).normal(scale=2.0, size=shape)
    got = fm.value(Y)
    assert got.shape == shape
    assert got.tobytes() == np.ascontiguousarray(fm.jet(Y)[0]).tobytes()
    assert len(fm.jet(Y, 0)) == 1 and len(fm.jet(Y, 1)) == 2 and len(fm.jet(Y)) == 3


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


def test_hilbert_norm_flags_a_nan_tail():
    res = hilbert_norm(lambda x: 1.0, lambda xs: np.where(xs > 40.0, np.nan, 0.0),
                       x_max=50.0)
    assert np.isnan(res.tail_estimate)
    assert res.divergence_warning


@pytest.mark.parametrize("x_max", [np.nan, np.inf])
def test_hilbert_norm_rejects_a_non_finite_truncation(x_max):
    with pytest.raises(ValueError, match="x_max must be finite and >= 10"):
        hilbert_norm(lambda x: 1.0, lambda xs: np.zeros_like(xs), x_max=x_max)


def test_hilbert_norm_fd_fallback_matches_analytic():
    m = GaussianExampleModel()
    with_analytic = curve_hilbert_norm(m, [0.0], x_max=50.0, n_nodes=501)
    fd = hilbert_norm(lambda x: m.value(x, [0.0]), None,
                      x_max=50.0, n_nodes=501)
    assert abs(with_analytic.value - fd.value) < 1e-7


def per_node_fd_derivative(h, xs, step):
    """A finite-difference h' by one expression per node: one-sided second
    order at x = 0, central everywhere else."""
    dvals = np.empty(xs.shape[0])
    dvals[0] = (-3 * h(0.0) + 4 * h(step) - h(2 * step)) / (2 * step)
    for k in range(1, xs.shape[0]):
        dvals[k] = (h(xs[k] + step) - h(xs[k] - step)) / (2 * step)
    return dvals


@pytest.mark.parametrize("x_max, n_nodes", [(200.0, 2001), (50.0, 501), (10.0, 100)])
def test_hilbert_norm_fd_fallback_equals_a_per_node_reference_bit_for_bit(x_max, n_nodes):
    m = GaussianExampleModel()
    for h in (lambda x: np.exp(-x), lambda x: m.value(x, [0.0]),
              lambda x: 1.0 / (1.0 + x) ** 2):
        xs = _simpson_weights(0.0, x_max, n_nodes)[0]
        ref = per_node_fd_derivative(h, xs, FD_FIRST_STEP)
        # repr: every float field to the bit
        assert repr(hilbert_norm(h, None, x_max, n_nodes)) == repr(
            hilbert_norm(h, lambda _: ref, x_max, n_nodes))


def test_hilbert_norm_validates_inputs():
    with pytest.raises(ValueError):
        hilbert_norm(lambda x: 1.0, None, x_max=5.0)
    with pytest.raises(ValueError):
        hilbert_norm(lambda x: 1.0, None, n_nodes=10)
    for n in (200.0, 200.5, True):
        with pytest.raises(ValueError, match=f"n_nodes must be an integer, got {n!r}"):
            hilbert_norm(lambda x: 1.0, None, n_nodes=n)


# -- serialisation ----------------------------------------------------------------


def test_affine_model_json_round_trip():
    # every factor-map tag of the zoo (identity, exp-minus-one, cubic)
    # survives a JSON round trip bit for bit
    rng = np.random.default_rng(23)
    xs = np.sort(rng.uniform(0.0, 4.0, 9))
    affine = {name: m for name, m in builtin_models().items()
              if isinstance(m, AffineModel)}
    tags = {m.factor_map.tag for m in affine.values()}
    assert tags == {"identity", "exp-minus-one", "componentwise-cubic"}
    for name, m in affine.items():
        m2 = model_from_dict(json.loads(json.dumps(m.to_dict())))
        Y = rng.uniform(-1.0, 1.0, (4, m.d))
        assert type(m2.factor_map) is type(m.factor_map), name
        assert np.array_equal(m.curve_matrix(xs, Y), m2.curve_matrix(xs, Y)), name


def test_gaussian_model_json_round_trip():
    m2 = model_from_dict(GaussianExampleModel().to_dict())
    assert isinstance(m2, GaussianExampleModel)


def test_model_from_dict_builtin_and_errors():
    m = model_from_dict({"builtin": "affine1-exp-identity"})
    assert m.d == 1
    with pytest.raises(ValueError) as err:
        model_from_dict({"builtin": "no-such-model"})
    assert str(err.value) == (f"unknown builtin model 'no-such-model'; "
                              f"available: {sorted(builtin_models())}")
    with pytest.raises(ValueError):
        model_from_dict({"type": "affine", "c": {}, "u": [], "amap": {}, "x": 1})
    with pytest.raises(ValueError):
        model_from_dict({"type": "mystery"})


def test_model_from_dict_builds_only_the_named_builtin(monkeypatch):
    built = []
    init = AffineModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AffineModel, "__init__", counted)
    m = model_from_dict({"builtin": "affine3-cubic"})
    assert built == [m]
    assert m.to_dict() == builtin_models()["affine3-cubic"].to_dict()


def test_model_from_dict_builtin_is_a_fresh_instance_per_call():
    # no two callers may share an AffineModel's basis cache
    a = model_from_dict({"builtin": "affine2-identity"})
    b = model_from_dict({"builtin": "affine2-identity"})
    assert a is not b and a._tables is not b._tables
    a.derivative_tables(XGrid.chebyshev().nodes, [0.1, 0.2])
    assert a._tables and not b._tables


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
