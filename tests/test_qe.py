"""Quasi-exponential core: oracle comparisons first, then invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from fdcurves.families import builtin_models
from fdcurves.qe import (MatrixExponentialOverflowError, QEFunction,
                         fit_linear_ode, mat_exp, qe_derivative, qe_eval,
                         qe_integral)

COS_TRIPLE = QEFunction(A=[[0.0, -1.0], [1.0, 0.0]], b=[1.0, 0.0], c=[1.0, 0.0])


def expm_series(M, x):
    """Power-series oracle for exp(M*x), summed to machine precision."""
    M = np.asarray(M, dtype=float) * x
    term = np.eye(M.shape[0])
    total = term.copy()
    for k in range(1, 300):
        term = term @ M / k
        total = total + term
        if np.abs(term).max() <= 1e-18 * max(1.0, np.abs(total).max()):
            break
    return total


def central_fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def stable_matrix(rng, n, spectrum_low=-3.0, spectrum_high=-0.1):
    """Random matrix with real spectrum inside [spectrum_low, spectrum_high]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(spectrum_low, spectrum_high, size=n)
    return q @ np.diag(lam) @ q.T


# -- mat_exp ----------------------------------------------------------------


def test_mat_exp_zero_matrix_is_identity():
    assert np.array_equal(mat_exp(np.zeros((1, 1)), 7.0), np.eye(1))


def test_mat_exp_scalar_exponential():
    out = mat_exp([[-1.0]], 1.0)
    assert abs(out[0, 0] - np.exp(-1.0)) < 1e-15


def test_mat_exp_rotation_vs_series_oracle():
    rot = [[0.0, -1.0], [1.0, 0.0]]
    got = mat_exp(rot, np.pi)
    oracle = expm_series(rot, np.pi)
    assert np.allclose(got, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-12)
    assert np.max(np.abs(got - oracle)) < 1e-13


@pytest.mark.parametrize("seed", range(5))
def test_mat_exp_random_vs_series_oracle(seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.5, 1.5, size=(3, 3))
    x = rng.uniform(0.0, 3.0)
    got = mat_exp(M, x)
    oracle = expm_series(M, x)
    scale = max(1.0, np.abs(oracle).max())
    assert np.max(np.abs(got - oracle)) < 1e-12 * scale


def test_mat_exp_overflow_raises_instead_of_inf():
    with pytest.raises(MatrixExponentialOverflowError):
        mat_exp([[1000.0]], 1.0)


def test_mat_exp_rejects_non_finite_input():
    with pytest.raises(ValueError):
        mat_exp([[np.nan]], 1.0)
    with pytest.raises(ValueError):
        mat_exp([[1.0]], np.inf)


def test_mat_exp_stack_equals_scalar_calls_bitwise():
    rng = np.random.default_rng(11)
    M = rng.uniform(-1.5, 1.5, size=(3, 3))
    xs = np.array([0.0, 0.25, 1.0, 2.5])
    stack = mat_exp(M, xs)
    assert stack.shape == (4, 3, 3)
    for k, x in enumerate(xs):
        assert np.array_equal(stack[k], mat_exp(M, x))


def test_mat_exp_scalar_result_unchanged():
    M = np.array([[0.0, -1.0], [1.0, -0.5]])
    out = mat_exp(M, 0.7)
    assert out.shape == (2, 2)
    assert np.array_equal(out, expm(M * 0.7))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_mat_exp_1x1_equals_scipy_expm_bitwise():
    # mat_exp takes np.exp for a 1x1 generator, as scipy's expm does, so
    # that it need not import scipy.linalg; this pins the two together
    xs = np.array([0.0, 1.0, -1.0, 0.37, -45.2, 300.0, 709.0])
    for a in (0.0, 1.0, -2.3, 0.75, -15.0):
        A = np.array([[a]])
        for x in xs:
            assert same_bits(mat_exp(A, x), expm(A * x)), (a, x)
        assert same_bits(mat_exp(A, xs), expm(A[None] * xs[:, None, None])), a
    with pytest.raises(MatrixExponentialOverflowError):
        mat_exp([[1000.0]], 1.0)
    M = np.array([[0.0, -1.0], [1.0, -0.5]])
    assert same_bits(mat_exp(M, xs[:5]), expm(M[None] * xs[:5, None, None]))


def test_mat_exp_stack_overflow_raises():
    with pytest.raises(MatrixExponentialOverflowError):
        mat_exp([[1.0]], np.array([1.0, 1000.0]))
    with pytest.raises(MatrixExponentialOverflowError):
        mat_exp(COS_TRIPLE.A + np.eye(2), np.array([0.5, 1000.0]))


def test_mat_exp_stack_rejects_non_finite_and_high_rank_factors():
    with pytest.raises(ValueError):
        mat_exp([[1.0]], np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        mat_exp([[1.0]], np.ones((2, 2)))


# -- qe_eval ----------------------------------------------------------------


def test_eval_constant_function():
    f = QEFunction(A=[[0.0]], b=[1.0], c=[1.0])
    assert qe_eval(f, 3.2) == 1.0


def test_eval_exponential_at_zero():
    f = QEFunction(A=[[-1.0]], b=[1.0], c=[1.0])
    assert qe_eval(f, 0.0) == 1.0


def test_eval_cosine_at_pi_third():
    oracle = float(np.array([1.0, 0.0]) @ expm_series(COS_TRIPLE.A, np.pi / 3)
                   @ np.array([1.0, 0.0]))
    got = qe_eval(COS_TRIPLE, np.pi / 3)
    assert abs(got - 0.5) < 1e-14
    assert abs(got - oracle) < 1e-14


def test_eval_rejects_negative_maturity():
    with pytest.raises(ValueError):
        qe_eval(COS_TRIPLE, -0.1)


# -- eval_grid ----------------------------------------------------------------

OSCILLATOR_LOADINGS = builtin_models()["affine2-oscillator"].u


@pytest.mark.parametrize("f", [
    QEFunction.constant(2.5),
    QEFunction.exponential(-1.3, 0.7),
    COS_TRIPLE,
    *OSCILLATOR_LOADINGS,
    QEFunction.from_poly_trig([(-0.5, 1.0, [1.0, 0.3], [0.2, -1.0]),
                               (-1.0, 0.0, [1.0, 2.0, 3.0], [])]),
], ids=["constant", "exponential", "cos-triple", "oscillator-cos",
        "oscillator-sin", "poly-trig-8-state"])
def test_eval_grid_matches_pointwise_eval_bitwise(f):
    xs = np.concatenate([[0.0], np.linspace(0.05, 6.0, 129)])
    got = f.eval_grid(xs)
    assert np.array_equal(got, [qe_eval(f, x) for x in xs])


def test_eval_grid_zero_empty_and_shape():
    assert COS_TRIPLE.eval_grid(np.array([0.0]))[0] == 1.0
    empty = COS_TRIPLE.eval_grid(np.array([]))
    assert empty.shape == (0,)
    xs = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 2.5]])
    got = COS_TRIPLE.eval_grid(xs)
    assert got.shape == (2, 3)
    assert np.array_equal(got.ravel(), [qe_eval(COS_TRIPLE, x) for x in xs.ravel()])


def test_eval_grid_rejects_negative_maturity():
    with pytest.raises(ValueError, match=">= 0"):
        COS_TRIPLE.eval_grid(np.array([0.5, -0.1, 1.0]))


def test_eval_grid_overflow_raises():
    with pytest.raises(MatrixExponentialOverflowError):
        QEFunction.exponential(1.0).eval_grid(np.array([1.0, 1000.0]))


# -- qe_derivative -----------------------------------------------------------


def test_derivative_of_constant_is_zero():
    df = qe_derivative(QEFunction.constant(4.0))
    assert all(qe_eval(df, x) == 0.0 for x in (0.0, 1.0, 7.5))


def test_derivative_of_exponential_at_zero():
    df = qe_derivative(QEFunction.exponential(-1.0))
    assert abs(qe_eval(df, 0.0) + 1.0) < 1e-15


def test_derivative_of_cosine_matches_finite_difference():
    df = qe_derivative(COS_TRIPLE)
    x = np.pi / 2
    fd = central_fd(lambda z: qe_eval(COS_TRIPLE, z), x)
    assert abs(qe_eval(df, x) + 1.0) < 1e-8
    assert abs(qe_eval(df, x) - fd) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 3.0))
def test_derivative_matches_fd_for_random_qe(seed, x):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    f = QEFunction(A=rng.uniform(-2, 2, (n, n)), b=rng.uniform(-2, 2, n),
                   c=rng.uniform(-2, 2, n))
    lhs = qe_eval(qe_derivative(f), x)
    rhs = central_fd(lambda z: qe_eval(f, z), x)
    assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(qe_eval(f, x)))


# -- qe_integral ------------------------------------------------------------


def test_integral_of_constant():
    assert abs(qe_integral(QEFunction.constant(1.0), 0.0, 5.0) - 5.0) < 1e-12


def test_integral_of_decaying_exponential():
    f = QEFunction.exponential(-1.0)
    assert abs(qe_integral(f, 0.0, 30.0) - (1.0 - np.exp(-30.0))) < 1e-12


def test_integral_of_cosine_vs_quadrature_oracle():
    got = qe_integral(COS_TRIPLE, 0.0, np.pi)
    oracle, _ = quad(lambda z: qe_eval(COS_TRIPLE, z), 0.0, np.pi)
    assert abs(got - oracle) < 1e-10
    assert abs(got) < 1e-12


def test_integral_rejects_bad_interval():
    f = QEFunction.constant(1.0)
    with pytest.raises(ValueError):
        qe_integral(f, 2.0, 1.0)
    with pytest.raises(ValueError):
        qe_integral(f, -1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000),
       st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
def test_integral_additive_over_adjacent_intervals(seed, points):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    f = QEFunction(A=stable_matrix(rng, n, -2.0, -0.1),
                   b=rng.uniform(-2, 2, n), c=rng.uniform(-2, 2, n))
    a, b, c = sorted(points)
    whole = qe_integral(f, a, c)
    split = qe_integral(f, a, b) + qe_integral(f, b, c)
    assert abs(whole - split) <= 1e-12 * (1.0 + abs(whole))


# -- fit_linear_ode ----------------------------------------------------------


def _samples(fn, x0, x1, h):
    xs = np.arange(x0, x1 + h / 2, h)
    return [(float(x), np.atleast_1d(fn(x))) for x in xs]


def test_fit_recovers_decay_rate():
    fit = fit_linear_ode(_samples(lambda x: np.exp(-x), 0.0, 2.0, 1e-2))
    assert abs(fit.B[0, 0] + 1.0) < 1e-4
    assert fit.residual <= 1e-6
    assert not fit.rank_deficient


def test_fit_constant_trajectory_gives_zero_generator():
    fit = fit_linear_ode(_samples(lambda x: 1.0, 0.0, 1.0, 1e-2))
    assert abs(fit.B[0, 0]) <= 1e-12
    assert fit.residual <= 1e-12


def test_fit_recovers_rotation_generator():
    fit = fit_linear_ode(
        _samples(lambda x: np.array([np.cos(x), np.sin(x)]), 0.0, 2.0, 1e-2))
    assert np.max(np.abs(fit.B - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-4
    assert fit.residual <= 1e-6


def test_fit_flags_rank_deficient_samples():
    fit = fit_linear_ode(
        _samples(lambda x: np.array([np.exp(-x), 2.0 * np.exp(-x)]), 0.0, 2.0, 1e-2))
    assert fit.rank_deficient
    assert np.isfinite(fit.B).all()  # minimal-norm solution still returned


def test_fit_rejects_non_uniform_grid():
    samples = [(0.0, [1.0]), (0.1, [0.9]), (0.3, [0.7])]
    with pytest.raises(ValueError):
        fit_linear_ode(samples)


def test_fit_rejects_too_few_samples():
    with pytest.raises(ValueError):
        fit_linear_ode([(0.0, [1.0]), (0.1, [0.9])])


@pytest.mark.parametrize("seed", range(6))
def test_fit_recovers_generator_of_qe_state(seed):
    # state trajectories e^(Ax) b satisfy v' = A v; the fit must close the
    # loop with residual <= 1e-4 on an h = 1e-2 grid
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 4))
    A = stable_matrix(rng, n)
    b = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    xs = np.arange(0.0, 2.0 + 5e-3, 1e-2)
    samples = [(float(x), mat_exp(A, x) @ b) for x in xs]
    fit = fit_linear_ode(samples)
    assert fit.residual <= 1e-4
    assert np.max(np.abs(fit.B - A)) < 1e-3


# -- construction and serialisation ------------------------------------------


def test_poly_trig_cosine_matches_rotation_triple():
    f = QEFunction.from_poly_trig([(0.0, 1.0, [1.0], [0.0])])
    for x in np.linspace(0.0, 6.0, 13):
        assert abs(qe_eval(f, x) - np.cos(x)) < 1e-12


def test_poly_trig_polynomial_times_exponential():
    # (1 + 2x + x^2) e^(-x)
    f = QEFunction.from_poly_trig([(-1.0, 0.0, [1.0, 2.0, 1.0], [0.0])])
    for x in np.linspace(0.0, 4.0, 9):
        expect = (1.0 + 2.0 * x + x * x) * np.exp(-x)
        assert abs(qe_eval(f, x) - expect) < 1e-12 * max(1.0, expect)


def test_poly_trig_damped_oscillation():
    f = QEFunction.from_poly_trig([(-0.5, 2.0, [1.0], [3.0])])
    for x in np.linspace(0.0, 5.0, 11):
        expect = np.exp(-0.5 * x) * (np.cos(2 * x) + 3.0 * np.sin(2 * x))
        assert abs(qe_eval(f, x) - expect) < 1e-12


def test_poly_trig_xsin_term():
    f = QEFunction.from_poly_trig([(0.0, 1.0, [0.0, 0.0], [0.0, 1.0])])
    for x in np.linspace(0.0, 3.0, 7):
        assert abs(qe_eval(f, x) - x * np.sin(x)) < 1e-12


def test_json_round_trip():
    f = QEFunction(A=[[0.0, -2.0], [2.0, -0.5]], b=[1.0, 0.5], c=[0.3, -1.0])
    g = QEFunction.from_dict(f.to_dict())
    assert np.array_equal(f.A, g.A)
    assert np.array_equal(f.b, g.b)
    assert np.array_equal(f.c, g.c)


def test_from_dict_rejects_unknown_keys_and_bad_n():
    base = {"n": 1, "A": [[0.0]], "b": [1.0], "c": [1.0]}
    with pytest.raises(ValueError):
        QEFunction.from_dict({**base, "extra": 1})
    with pytest.raises(ValueError):
        QEFunction.from_dict({**base, "n": 2})


def test_validation_rejects_bad_shapes_and_nan():
    with pytest.raises(ValueError):
        QEFunction(A=[[0.0, 1.0]], b=[1.0], c=[1.0])
    with pytest.raises(ValueError):
        QEFunction(A=[[0.0]], b=[1.0, 2.0], c=[1.0])
    with pytest.raises(ValueError):
        QEFunction(A=[[np.nan]], b=[1.0], c=[1.0])


def test_qefunction_arrays_are_immutable():
    f = QEFunction.exponential(-1.0)
    with pytest.raises(ValueError):
        f.A[0, 0] = 5.0
