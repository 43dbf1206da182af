"""Drift condition, consistency probe, affine detection, reconstruction."""

import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcurves import noarb
from fdcurves.families import (AffineModel, ComponentwiseCubicMap, GaussianExampleModel,
                               IdentityMap, NumericCurveFamily, _grid_nodes, builtin_models,
                               check_c12, eval_curve, model_from_dict)
from fdcurves.noarb import (AFFINE_RANK_TOL, RANK_TOL, DegenerateFamilyError,
                            XGrid, detect_affine,
                            eta_field_from_model, reconstruct_from_eta,
                            rn_residual, scc_probe, solve_drift)
from fdcurves.qe import QEFunction
from fdcurves.sim import FuturesSpec, futures_price

GRID = XGrid.chebyshev()        # 40 Chebyshev nodes on [0, 5]
GRID3 = XGrid.uniform(40, 3.0)  # the Gaussian separation grid


def simple_affine():
    """g(x, y) = y * e^(-x); hand computation gives b(y) = -y for any sigma."""
    return AffineModel(c=QEFunction.constant(0.0),
                       u=[QEFunction.exponential(-1.0)],
                       factor_map=IdentityMap(1))


def constant_model():
    return AffineModel(c=QEFunction.constant(3.0),
                       u=[QEFunction.constant(0.0)],
                       factor_map=IdentityMap(1))


def brute_force_best_rms(model, y, sigma_scalar, grid, lo=-10.0, hi=10.0,
                         n=20001):
    """1-d scan oracle for the best scalar drift, independent of lstsq."""
    best = np.inf
    for b in np.linspace(lo, hi, n):
        rms, _ = rn_residual(model, y, [[sigma_scalar]], [b], grid)
        best = min(best, rms)
    return best


# -- XGrid -------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        XGrid([1.0, 0.5])
    with pytest.raises(ValueError):
        XGrid([-0.5, 1.0])
    with pytest.raises(ValueError):
        XGrid([1.0])


def test_default_grid_shape():
    assert len(GRID) == 40
    assert GRID.nodes[0] == 0.0
    assert abs(GRID.nodes[-1] - 5.0) < 1e-12


def test_grid_dict_round_trip_and_unknown_keys():
    g = XGrid.from_dict({"kind": "uniform", "n": 11, "x_max": 2.0})
    assert len(g) == 11
    g2 = XGrid.from_dict(g.to_dict())
    assert np.array_equal(g.nodes, g2.nodes)
    with pytest.raises(ValueError):
        XGrid.from_dict({"kind": "uniform", "n": 11, "x_max": 2.0, "zz": 1})


def test_grid_dict_node_count_is_an_exact_integer():
    assert len(XGrid.from_dict({"kind": "uniform", "n": np.int64(11), "x_max": 2.0})) == 11
    for n in (40.7, 40.0, True, "40"):
        with pytest.raises(ValueError, match=re.escape(f"grid.n must be an integer, got {n!r}")):
            XGrid.from_dict({"n": n})


@pytest.mark.parametrize("n", [1, 0])
def test_chebyshev_grid_rejects_too_few_nodes_before_dividing(n):
    # the node count is checked before n - 1 divides, so numpy never warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid needs at least two nodes"):
            XGrid.chebyshev(n)
        with pytest.raises(ValueError, match="grid needs at least two nodes"):
            XGrid.from_dict({"kind": "chebyshev", "n": n})


@pytest.mark.parametrize("nodes, message", [
    ([np.nan, 0.5, 1.0, 2.0], "grid nodes must be finite"),
    ([2.0, 1.0, 0.5, 0.0], "grid nodes must be strictly increasing and >= 0"),
    ([0.0, 0.5, 0.5, 1.0], "grid nodes must be strictly increasing and >= 0"),
    ([0.0], "grid needs at least two nodes"),
])
def test_raw_grids_get_the_checks_of_an_xgrid(nodes, message, capfd):
    # one node check for every grid: a raw array is checked as XGrid checks
    # its nodes, before LAPACK (which prints to stderr on a NaN) or a stencil
    m = GaussianExampleModel()
    calls = [XGrid,
             lambda g: solve_drift(m, [0.3], [[1.0]], g),
             lambda g: rn_residual(m, [0.3], [[1.0]], [0.0], g),
             lambda g: scc_probe(m, [0.3], g),
             lambda g: check_c12(m, [0.3], g),
             lambda g: eval_curve(m, [0.3], g)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(nodes)
    assert capfd.readouterr() == ("", "")


def test_an_xgrid_passes_through_with_no_copy():
    assert _grid_nodes(GRID) is GRID.nodes


# -- rn_residual ----------------------------------------------------------------


def test_residual_hand_computed_affine_drift():
    # dx g = -y e^(-x), grad g = e^(-x), hess = 0  =>  b = -y exactly
    rms, rmax = rn_residual(simple_affine(), [1.0], [[1.0]], [-1.0], GRID)
    assert rms <= 1e-12 and rmax <= 1e-12


def test_residual_gaussian_unit_vol_zero_drift():
    rms, rmax = rn_residual(GaussianExampleModel(), [0.0], [[1.0]], [0.0], GRID)
    assert rms <= 1e-10 and rmax <= 1e-10


def test_residual_constant_model_zero_everything():
    rms, rmax = rn_residual(constant_model(), [0.0], [[0.0]], [0.0], GRID)
    assert rms == 0.0 and rmax == 0.0


def test_residual_max_dominates_rms():
    rms, rmax = rn_residual(GaussianExampleModel(), [0.0], [[1.5]], [0.3], GRID3)
    assert rmax >= rms >= 0.0


# -- solve_drift ------------------------------------------------------------------


def test_solve_drift_affine_hand_case():
    res = solve_drift(simple_affine(), [3.0], [[1.0]], GRID)
    assert abs(res.b[0] + 3.0) <= 1e-12
    assert res.residual_rms <= 1e-12
    assert res.rank_ok


def test_solve_drift_gaussian_unit_vol():
    res = solve_drift(GaussianExampleModel(), [0.0], [[1.0]], GRID)
    assert abs(res.b[0]) <= 1e-8
    assert res.residual_rms <= 1e-8


def test_solve_drift_gaussian_off_vol_has_no_solution():
    grid = XGrid(np.arange(0.0, 3.001, 0.5))
    res = solve_drift(GaussianExampleModel(), [0.0], [[1.5]], grid)
    assert res.residual_rms >= 1e-3
    # brute-force scan confirms the positive minimum is intrinsic
    assert brute_force_best_rms(GaussianExampleModel(), [0.0], 1.5, grid) >= 1e-3


def test_solve_drift_reports_what_checker_recomputes():
    res = solve_drift(GaussianExampleModel(), [0.3], [[1.2]], GRID3)
    rms, rmax = rn_residual(GaussianExampleModel(), [0.3], [[1.2]], res.b, GRID3)
    assert abs(res.residual_rms - rms) <= 1e-12
    assert abs(res.residual_max - rmax) <= 1e-12


def test_solve_drift_degenerate_family():
    with pytest.raises(DegenerateFamilyError, match="degenerate"):
        solve_drift(constant_model(), [1.0], [[1.0]], GRID)


def test_solve_drift_needs_enough_nodes():
    m = builtin_models()["affine3-cubic"]
    with pytest.raises(ValueError):
        solve_drift(m, [0.0, 0.0, 0.0], np.eye(3), XGrid([0.0, 1.0]))


def test_rn_residual_needs_the_nodes_solve_drift_needs():
    m = builtin_models()["affine3-cubic"]
    message = "grid has 2 nodes, need at least d=3"
    for call in (solve_drift, lambda m, y, s, grid: rn_residual(m, y, s, np.zeros(3), grid)):
        with pytest.raises(ValueError) as err:
            call(m, [0.0, 0.0, 0.0], np.eye(3), XGrid([0.0, 1.0]))
        assert str(err.value) == message


@pytest.mark.parametrize("y, b", [
    (np.array([0.1, 0.2]), np.zeros((3, 2))),           # three drifts for one state
    (np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 0.5]]), np.zeros(2)),  # one drift for three
    (np.array([[0.1, 0.2], [0.3, -0.4]]), np.zeros((2, 1, 2))),
], ids=["one-state", "broadcast", "extra-axis"])
def test_rn_residual_refuses_a_drift_of_another_shape_than_y(y, b):
    with pytest.raises(ValueError) as err:
        rn_residual(builtin_models()["affine2-identity"], y, np.eye(2), b, GRID)
    assert str(err.value) == f"b needs the shape of y, {y.shape}, got {b.shape}"


def test_solve_drift_sigma_independent_for_identity_maps():
    # zero Hessian kills the diffusion term: b is the same for every sigma
    for name in ("affine1-exp-identity", "affine2-identity", "affine2-oscillator"):
        m = builtin_models()[name]
        y = np.full(m.d, 0.6)
        b_ref = solve_drift(m, y, np.eye(m.d), GRID).b
        for _, cov in sweep_covariances(m.d):
            b = noarb._solve_drift_cov(m, y, cov, GRID).b
            assert np.max(np.abs(b - b_ref)) <= 1e-10, name


def test_solve_drift_stable_under_grid_refinement():
    m = builtin_models()["affine2-identity"]
    y = [0.8, -0.2]
    b40 = solve_drift(m, y, np.eye(2), XGrid.chebyshev(40)).b
    b80 = solve_drift(m, y, np.eye(2), XGrid.chebyshev(80)).b
    assert np.max(np.abs(b40 - b80)) <= 1e-8


# -- scc_probe ---------------------------------------------------------------------


def unit(d, i, j):
    """E_ij, the d x d matrix with a single 1 at (i, j)."""
    m = np.zeros((d, d))
    m[i, j] = 1.0
    return m


def sweep_covariances(d):
    """(label, covariance) for I, I + E_ii for each i, I + E_ij + E_ji for
    i < j row by row, and 2I: the covariances whose drift differences give
    eta and gamma, so solving each one alone is an oracle for the probe."""
    eye = np.eye(d)
    return ([("I", eye)] + [(f"I+e{i + 1}{i + 1}", eye + unit(d, i, i)) for i in range(d)]
            + [(f"I+e{i + 1}{j + 1}", eye + unit(d, i, j) + unit(d, j, i))
               for i in range(d) for j in range(i + 1, d)] + [("2I", 2.0 * eye)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_probe_pair_index(d):
    # the pairs i <= j, row by row: the columns of the probe's projection
    iu, ju = noarb._pairs(d)
    assert iu.dtype == ju.dtype == np.intp
    assert list(zip(iu.tolist(), ju.tolist())) == [(i, j) for i in range(d) for j in range(i, d)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_probe_constants_are_read_only_and_built_once(d):
    pairs = noarb._pairs(d)
    assert noarb._pairs(d) is pairs
    for arr in pairs:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_scc_probe_affine_identity_map():
    rep = scc_probe(simple_affine(), [1.0], GRID)
    assert np.max(np.abs(rep.eta)) <= 1e-10
    assert rep.hessian_identity_residual <= 1e-10
    assert rep.x_identity_residual <= 1e-10
    assert not rep.inconclusive


def test_scc_probe_exp_map_unit_eta():
    # g = u(x) (e^y - 1): d2y g == dy g, so eta_11 must be exactly one
    rep = scc_probe(builtin_models()["affine1-exp-expmap"], [0.7], GRID)
    assert abs(rep.eta[0, 0, 0] - 1.0) <= 1e-8
    assert rep.hessian_identity_residual <= 1e-8


def test_scc_probe_gaussian_violates_x_identity():
    # the ratio d2y g / dy g depends on x, so no gamma(y) can exist
    rep = scc_probe(GaussianExampleModel(), [0.0], GRID3)
    assert rep.x_identity_residual >= 1e-3


def test_scc_probe_eta_is_symmetric():
    rep = scc_probe(builtin_models()["affine3-cubic"], [0.2, -0.1, 0.4], GRID)
    assert np.array_equal(rep.eta, np.swapaxes(rep.eta, 0, 1))


def test_scc_probe_separation_on_all_builtins():
    for name, m in builtin_models().items():
        if isinstance(m, GaussianExampleModel):
            continue
        y = np.full(m.d, 0.7)
        rep = scc_probe(m, y, GRID)
        assert rep.x_identity_residual <= 1e-8, name
        assert rep.hessian_identity_residual <= 1e-8, name


def test_scc_probe_marks_a_rank_deficient_gradient_inconclusive():
    # collinear loadings make the gradient rows rank one for d = 2
    m = AffineModel(c=QEFunction.constant(0.0),
                    u=[QEFunction.exponential(-1.0),
                       QEFunction.exponential(-1.0, scale=2.0)],
                    factor_map=IdentityMap(2))
    rep = scc_probe(m, [0.5, 0.5], GRID)
    assert rep.inconclusive and rep.condition_number > 1.0 / RANK_TOL
    # every covariance shares that design matrix, so every solve is rank deficient
    for _, cov in sweep_covariances(2):
        res = noarb._solve_drift_cov(m, [0.5, 0.5], cov, GRID)
        assert not res.rank_ok and res.condition_number == rep.condition_number


def test_scc_probe_needs_wide_grid():
    m = builtin_models()["affine3-cubic"]
    with pytest.raises(ValueError):
        scc_probe(m, np.zeros(3), XGrid.chebyshev(6))


def test_scc_report_serialises():
    rep = scc_probe(simple_affine(), [1.0], GRID)
    d = rep.to_dict()
    assert set(d) == {"eta", "gamma", "hessian_identity_residual",
                      "x_identity_residual", "condition_number", "inconclusive"}
    assert d["condition_number"] == 1.0 and d["inconclusive"] is False
    json.dumps(d)  # plain JSON types only


# -- detect_affine ------------------------------------------------------------------


def test_detect_affine_rank_equals_factor_dimension():
    rng = np.random.default_rng(7)
    for name, d in (("affine1-exp-identity", 1), ("affine2-identity", 2),
                    ("affine3-cubic", 3)):
        m = builtin_models()[name]
        ys = rng.uniform(-1.0, 1.0, size=(10, d))
        det = detect_affine(m, ys, np.zeros(d), GRID)
        assert det.rank == d, name


def test_detect_affine_rank_never_exceeds_d():
    rng = np.random.default_rng(11)
    m = builtin_models()["affine2-oscillator"]
    ys = rng.uniform(-2.0, 2.0, size=(20, 2))
    det = detect_affine(m, ys, np.zeros(2), XGrid.chebyshev(40))
    assert det.rank <= 2


def test_detect_affine_constant_family_is_degenerate():
    det = detect_affine(constant_model(), [[0.0], [1.0], [2.0], [3.0], [4.0]],
                        [0.0], XGrid.chebyshev(12))
    assert det.rank == 0
    assert det.degenerate


def test_detect_affine_gaussian_needs_many_dimensions():
    ys = np.arange(-2.0, 2.51, 0.5)[:, None]
    det = detect_affine(GaussianExampleModel(), ys, [0.0],
                        XGrid.uniform(60, 20.0))
    assert det.rank >= 6


def test_detect_affine_validates_sample_and_grid_sizes():
    m = builtin_models()["affine2-identity"]
    with pytest.raises(ValueError):
        detect_affine(m, [[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0], GRID)
    ys = np.random.default_rng(0).uniform(-1, 1, (25, 2))
    with pytest.raises(ValueError):
        detect_affine(m, ys, [0.0, 0.0], GRID)  # 40 nodes < 2 * 25


@pytest.mark.parametrize("samples, base, shape", [
    (np.zeros((6, 2)), [0.0], (1,)), (np.zeros((6, 1)), [0.0, 0.0], (6, 1))])
def test_detect_affine_names_d_when_a_width_is_wrong(samples, base, shape):
    m = builtin_models()["affine2-identity"]
    message = f"a state needs d=2 factors, shape (d,) or (..., d); got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        detect_affine(m, samples, base, GRID)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("samples, base, where", [
    ([[0.1], [800.0], [0.2], [np.nan], [0.3]], [0.0], "y_samples[1]=[800.0]"),
    ([[0.1], [0.2], [0.3], [np.nan]], [0.0], "y_samples[3]=[nan]"),
    ([[0.1], [0.2], [0.3], [0.4]], [np.inf], "base_y=[inf]"),
    ([[0.1], [0.2], [0.3], [np.nan]], [900.0], "base_y=[900.0]")])
def test_detect_affine_names_the_first_state_with_a_non_finite_curve(samples, base, where):
    # exp(800) overflows: LAPACK would return NaN singular values and rank 0
    m = builtin_models()["affine1-exp-expmap"]
    with pytest.raises(ValueError, match=f"^{re.escape('curve is non-finite at ' + where)}$"):
        detect_affine(m, samples, base, GRID)


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, 1.0, 2.0, -1.0])
def test_detect_affine_rejects_a_cutoff_outside_the_unit_interval(rel_tol):
    m = builtin_models()["affine2-identity"]
    ys = np.random.default_rng(3).uniform(-1, 1, (8, 2))
    with pytest.raises(ValueError, match=r"rel_tol must be a number in \[0, 1\)"):
        detect_affine(m, ys, [0.0, 0.0], GRID, rel_tol=rel_tol)


# -- reconstruct_from_eta --------------------------------------------------------------


def test_reconstruct_zero_eta_is_affine():
    got = reconstruct_from_eta(lambda y: np.zeros((1, 1, 1)), 1.0, [2.0],
                               [3.0], 100)
    assert abs(got - 7.0) <= 1e-12


def test_reconstruct_unit_eta_exponential():
    got = reconstruct_from_eta(lambda y: np.ones((1, 1, 1)), 0.0, [1.0],
                               [1.0], 1000)
    assert abs(got - (np.e - 1.0)) <= 1e-8


def test_reconstruct_fourth_order_convergence():
    target = np.e - 1.0

    def run(n):
        return reconstruct_from_eta(lambda y: np.ones((1, 1, 1)), 0.0, [1.0],
                                    [1.0], n)

    e1 = abs(run(100) - target)
    e2 = abs(run(200) - target)
    assert 8.0 <= e1 / e2 <= 32.0


def test_reconstruct_matches_model_through_probed_eta():
    m = builtin_models()["affine1-exp-expmap"]
    field = eta_field_from_model(m, GRID)
    g0 = m.value(0.0, [0.0])
    grad0 = m.grad_y(0.0, [0.0])
    for y in (-1.0, -0.5, 0.5, 1.0):
        got = reconstruct_from_eta(field, g0, grad0, [y], 200)
        assert abs(got - m.value(0.0, [y])) <= 1e-6


def test_reconstruct_rejects_small_step_counts():
    with pytest.raises(ValueError):
        reconstruct_from_eta(lambda y: np.zeros((1, 1, 1)), 0.0, [1.0],
                             [1.0], 50)


@pytest.mark.parametrize("n_steps", [150.0, 150.5, True])
def test_reconstruct_rejects_a_step_count_that_is_not_an_integer(n_steps):
    with pytest.raises(ValueError, match=f"n_steps must be an integer, got {n_steps!r}"):
        reconstruct_from_eta(lambda y: np.zeros((1, 1, 1)), 0.0, [1.0],
                             [1.0], n_steps)


@pytest.mark.parametrize("grad0", [[1.0], [1.0, 0.5, 0.0]])
def test_reconstruct_refuses_a_gradient_of_another_length_than_y(grad0):
    with pytest.raises(ValueError) as err:
        reconstruct_from_eta(lambda y: np.zeros((2, 2, 2)), 0.0, grad0, [0.3, 0.4], 100)
    assert str(err.value) == f"grad0 needs the shape of y, (2,), got ({len(grad0)},)"


def test_reconstruct_raises_on_blowup():
    with pytest.raises(ArithmeticError, match="t="):
        reconstruct_from_eta(lambda y: np.full((1, 1, 1), 1e308), 0.0, [1.0],
                             [1.0], 100)


# -- batched probe against the per-sigma reference --------------------------------

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def custom_scenario_model():
    raw = json.loads((SCENARIOS / "custom_affine.json").read_text())
    return model_from_dict(raw["model"])


def probe_cases():
    """(name, model, grid) over the builtin zoo and the shipped custom model."""
    cases = [(name, m, GRID3 if isinstance(m, GaussianExampleModel) else GRID)
             for name, m in builtin_models().items()]
    return cases + [("custom_affine", custom_scenario_model(), GRID)]


def assert_the_gates_stay_quiet(model, ys, sigma, grid):
    """Drift, residual, probe and price calls at in-range states return
    finite values without raising."""
    res = solve_drift(model, ys, sigma, grid)
    rep = scc_probe(model, ys, grid)
    for value in (res.b, res.residual_rms, res.residual_max, *rn_residual(model, ys, sigma,
                                                                       res.b, grid),
                  rep.eta, rep.gamma, rep.max_residual,
                  futures_price(model, ys, 0.0, FuturesSpec(1.0, 2.0))):
        assert np.isfinite(value).all()


GATE_CASES = {name: (m, grid) for name, m, grid in probe_cases()}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_the_non_finite_gates_never_fire_in_the_sweep_box(data):
    # consistency_sweep's states: [-1, 1]^d, and [-1, 0.5] for gaussian-example
    name = data.draw(st.sampled_from(sorted(GATE_CASES)), label="model")
    m, grid = GATE_CASES[name]
    hi = 0.5 if name == "gaussian-example" else 1.0
    coords = st.floats(-1.0, hi, allow_nan=False)
    n = data.draw(st.integers(1, 4), label="n")
    ys = np.array(data.draw(st.lists(st.lists(coords, min_size=m.d, max_size=m.d),
                                     min_size=n, max_size=n), label="ys"))
    entries = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                 min_size=m.d * m.d, max_size=m.d * m.d), label="sigma")
    sigma = np.tril(np.reshape(entries, (m.d, m.d)))
    assert_the_gates_stay_quiet(m, ys[0], sigma, grid)
    assert_the_gates_stay_quiet(m, ys, sigma, grid)


@pytest.mark.parametrize("scenario", ["affine_demo.json", "custom_affine.json",
                                      "gaussian_probe.json"])
def test_the_non_finite_gates_never_fire_at_the_shipped_states(scenario):
    # each scenario's y_samples on its own model and on every model of its d
    raw = json.loads((SCENARIOS / scenario).read_text())
    ys = np.array(raw["y_samples"], dtype=float)
    own = model_from_dict(raw["model"]), XGrid.from_dict(raw["grid"])
    cases = [own] + [case for case in GATE_CASES.values() if case[0].d == ys.shape[-1]]
    assert len(cases) >= 3
    for m, grid in cases:
        assert_the_gates_stay_quiet(m, ys, np.array(raw["sigma"]), grid)


def reference_solve_drift(model, y, cov, grid, rank_tol=RANK_TOL):
    """The single-right-hand-side solve for the covariance cov: its own
    tables, lstsq and residuals (in the library's arithmetic order)."""
    xs = np.asarray(grid.nodes)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dxg, grads, hesses = model.derivative_tables(xs, y)
    trace = 0.5 * np.einsum("ij,kij->k", cov, hesses)
    b, _, rank, sv = np.linalg.lstsq(grads, dxg - trace, rcond=rank_tol)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    r = dxg - grads @ b - trace
    rms, rmax = float(np.sqrt(np.mean(r**2))), float(np.max(np.abs(r)))
    return b, rms, rmax, cond, bool(rank == model.d)


def reference_scc_probe(model, y, grid):
    """One solve per sweep covariance, then the eta/gamma formulas."""
    d = model.d
    per_sigma = {label: reference_solve_drift(model, y, mat, grid)
                 for label, mat in sweep_covariances(d)}
    b_id = per_sigma["I"][0]
    eta = np.empty((d, d, d))
    for i in range(d):
        eta[i, i] = 2.0 * (b_id - per_sigma[f"I+e{i + 1}{i + 1}"][0])
        for j in range(i + 1, d):
            eta[i, j] = eta[j, i] = b_id - per_sigma[f"I+e{i + 1}{j + 1}"][0]
    gamma = 2.0 * b_id - per_sigma["2I"][0]
    dxg, grads, hesses = model.derivative_tables(np.asarray(grid.nodes), y)
    hess_res = float(np.max(np.abs(hesses - np.einsum("km,ijm->kij", grads, eta))))
    x_res = float(np.max(np.abs(dxg - grads @ gamma)))
    return eta, gamma, hess_res, x_res, per_sigma


def test_solve_drift_equals_single_rhs_reference_bitwise():
    rng = np.random.default_rng(21)
    for name, m, grid in probe_cases():
        y = rng.uniform(-1.0, 1.0, m.d)
        sigma = rng.uniform(-1.0, 1.0, (m.d, m.d))
        res = solve_drift(m, y, sigma, grid)
        b, rms, rmax, cond, rank_ok = reference_solve_drift(m, y, sigma @ sigma.T, grid)
        assert np.array_equal(res.b, b), name
        assert (res.residual_rms, res.residual_max) == (rms, rmax), name
        assert (res.condition_number, res.rank_ok) == (cond, rank_ok), name


def test_scc_probe_eta_and_gamma_are_least_squares_projections():
    # eta[i][j] = G^+ hess_y g[i,j] and gamma = G^+ dx g, with G = grad_y g:
    # linear in the solve's target, so independent of the sweep's convention
    rng = np.random.default_rng(29)
    for name, m, grid in probe_cases():
        for y in rng.uniform(-1.0, 1.0, (3, m.d)):
            rep = scc_probe(m, y, grid)
            dxg, grads, hesses = m.derivative_tables(np.asarray(grid.nodes), y)
            rhs = np.column_stack([dxg, hesses.reshape(len(dxg), -1)])
            proj = np.linalg.lstsq(grads, rhs, rcond=RANK_TOL)[0]
            assert np.max(np.abs(rep.gamma - proj[:, 0])) <= 1e-12, name
            eta = proj[:, 1:].reshape(m.d, m.d, m.d).transpose(1, 2, 0)
            assert np.max(np.abs(rep.eta - eta)) <= 1e-12, name


def test_scc_probe_reads_eta_gamma_and_conditioning_off_one_projection():
    # gamma and eta[i][j] (i <= j) are the columns of one projection of
    # [dx g | hess_y g[i,j]], and the conditioning is that projection's
    rng = np.random.default_rng(31)
    for name, m, grid in probe_cases():
        iu, ju = np.triu_indices(m.d)
        for y in rng.uniform(-1.0, 1.0, (3, m.d)):
            rep = scc_probe(m, y, grid)
            dxg, grads, hesses = m.derivative_tables(np.asarray(grid.nodes), y)
            rhs = np.column_stack([dxg, hesses[:, iu, ju]])
            proj, _, rank, sv = np.linalg.lstsq(grads, rhs, rcond=RANK_TOL)
            assert np.array_equal(rep.gamma, proj[:, 0]), name
            assert np.array_equal(rep.eta[iu, ju], proj[:, 1:].T), name
            assert np.array_equal(rep.eta, rep.eta.transpose(1, 0, 2)), name
            assert rep.inconclusive == (rank < m.d), name
            assert rep.condition_number == lstsq_cond(sv), name


def test_scc_probe_gamma_is_c_ordered_and_owns_its_data():
    m = builtin_models()["affine3-cubic"]
    Y = np.random.default_rng(41).uniform(-0.5, 0.5, (4, 3, m.d))
    stacked = scc_probe(m, Y, GRID)
    for y, gamma in ((Y[1, 2], scc_probe(m, Y[1, 2], GRID).gamma),
                     (Y, stacked.gamma)):
        assert gamma.shape == y.shape
        assert gamma.flags.c_contiguous and gamma.base is None
    assert np.array_equal(stacked.gamma[1, 2], scc_probe(m, Y[1, 2], GRID).gamma)


def test_scc_probe_matches_the_sweep_difference_oracle():
    # eta and gamma against differences of drifts solved one covariance at a
    # time, and each such drift against gamma - 1/2 sum a_ij eta_ij
    rng = np.random.default_rng(17)
    for name, m, grid in probe_cases():
        for y in rng.uniform(-1.0, 1.0, (3, m.d)):
            rep = scc_probe(m, y, grid)
            eta, gamma, hess_res, x_res, per_sigma = reference_scc_probe(m, y, grid)
            assert np.max(np.abs(rep.eta - eta)) <= 1e-12, name
            assert np.max(np.abs(rep.gamma - gamma)) <= 1e-12, name
            assert abs(rep.hessian_identity_residual - hess_res) <= 1e-12, name
            assert abs(rep.x_identity_residual - x_res) <= 1e-12, name
            for label, cov in sweep_covariances(m.d):
                b, _, _, cond, rank_ok = per_sigma[label]
                b_rep = rep.gamma - 0.5 * np.einsum("ij,ijk->k", cov, rep.eta)
                assert np.max(np.abs(b_rep - b)) <= 1e-12, (name, label)
                assert (rep.condition_number, rep.inconclusive) == (cond, not rank_ok), name


def test_drift_of_any_covariance_is_read_off_the_report():
    # b_a = gamma - 1/2 sum_ij a_ij eta_ij, for covariances of full and of low rank
    rng = np.random.default_rng(53)
    for name, m, grid in probe_cases():
        for y in rng.uniform(-1.0, 1.0, (2, m.d)):
            rep = scc_probe(m, y, grid)
            for k in range(20):
                root = rng.uniform(-1.5, 1.5, (m.d, m.d if k % 4 else 1))
                cov = root @ root.T
                b = noarb._solve_drift_cov(m, y, cov, grid).b
                b_rep = rep.gamma - 0.5 * np.einsum("ij,ijk->k", cov, rep.eta)
                assert np.max(np.abs(b_rep - b)) <= 1e-12, (name, k)


@pytest.mark.parametrize("layout", ["one", "stack", "grid"])
def test_scc_probe_condition_number_is_that_of_solve_drift(layout):
    # one design matrix G = grad_y g per state, whatever the covariance: the
    # probe's condition number is the drift solve's, bit for bit
    rng = np.random.default_rng(59)
    for name, m, grid in probe_cases():
        Y = state_layouts(m.d, rng)[layout]
        rep = scc_probe(m, Y, grid)
        for sigma in (np.eye(m.d), rng.uniform(-1.0, 1.0, (m.d, m.d))):
            res = solve_drift(m, Y, sigma, grid)
            assert_state_bits(rep.condition_number, ..., res.condition_number, name)
            assert np.array_equal(rep.inconclusive, ~res.rank_ok), name


# -- work-count guards -----------------------------------------------------------


def count_calls(monkeypatch, obj, name):
    calls = []
    inner = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


def test_solve_drift_and_scc_probe_build_one_derivative_table(monkeypatch):
    m = builtin_models()["affine3-cubic"]
    calls = count_calls(monkeypatch, m, "derivative_tables")
    solve_drift(m, [0.2, -0.1, 0.4], np.eye(3), GRID)
    assert len(calls) == 1
    scc_probe(m, [0.2, -0.1, 0.4], GRID)
    assert len(calls) == 2


def test_scc_probe_makes_no_trace_term_call(monkeypatch):
    # r_a = r_x - 1/2 a:r_H for every covariance: no per-covariance trace term
    calls = count_calls(monkeypatch, noarb, "_trace_term")
    for _, m, grid in probe_cases():
        scc_probe(m, np.full(m.d, 0.3), grid)
    assert calls == []


def test_detect_affine_makes_one_curve_matrix_call(monkeypatch):
    rng = np.random.default_rng(5)
    for name, m, grid in probe_cases():
        ys = rng.uniform(-1.0, 1.0, (m.d + 5, m.d))
        base = rng.uniform(-0.5, 0.5, m.d)
        xs = np.asarray(grid.nodes)
        curves = m.curve_matrix(xs, ys)
        base_curve = m.curve_matrix(xs, base[None, :])[0]
        ref = np.linalg.svd((curves - base_curve).T, compute_uv=False)
        with monkeypatch.context() as mp:
            calls = count_calls(mp, m, "curve_matrix")
            det = detect_affine(m, ys, base, grid)
        assert len(calls) == 1, name
        assert np.max(np.abs(det.singular_values - ref)) <= 1e-12 * ref[0], name
        assert det.rank == int(np.sum(ref > AFFINE_RANK_TOL * ref[0])), name


def four_probe_rk4(eta_field, g0, grad0, y, n_steps):
    """The classical RK4 loop that probes eta at every stage."""
    y = np.atleast_1d(np.asarray(y, dtype=float))

    def rhs(t, state):
        M = np.einsum("j,ijk->ik", y, np.asarray(eta_field(t * y), dtype=float))
        return np.concatenate(([state[1:] @ y], M @ state[1:]))

    state = np.concatenate(([float(g0)], np.atleast_1d(grad0)))
    h = 1.0 / n_steps
    for k in range(n_steps):
        t = k * h
        f1 = rhs(t, state)
        f2 = rhs(t + 0.5 * h, state + 0.5 * h * f1)
        f3 = rhs(t + 0.5 * h, state + 0.5 * h * f2)
        f4 = rhs(t + h, state + h * f3)
        state = state + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return float(state[0])


def test_reconstruct_probes_each_time_point_once():
    seen = []

    def field(y):
        seen.append(np.array(y))
        return np.ones((1, 1, 1))

    reconstruct_from_eta(field, 0.0, [1.0], [2.0], 150)
    assert len(seen) == 2 * 150 + 1
    ts = np.array([p[0] for p in seen]) / 2.0
    assert np.allclose(ts, np.linspace(0.0, 1.0, 2 * 150 + 1), rtol=0, atol=1e-15)


def test_eta_field_equals_scc_probe_eta_bitwise():
    rng = np.random.default_rng(17)
    for name, m, grid in probe_cases():
        field = eta_field_from_model(m, grid)
        for y in rng.uniform(-0.8, 0.8, (4, m.d)):
            assert np.array_equal(field(y), scc_probe(m, y, grid).eta), name


def test_reconstruct_matches_four_probe_rk4():
    def field(y):
        # state-dependent, so a probe at the wrong time point would show
        return np.array([[[0.3 + np.sin(y[0]), 0.1 * y[1]],
                          [0.2 * y[0], -0.4]],
                         [[0.2 * y[0], -0.4],
                          [np.cos(y[1]), 0.5 * y[0] * y[1]]]])

    for y in ([0.7, -0.4], [-1.0, 1.2]):
        got = reconstruct_from_eta(field, 0.5, [1.0, -0.5], y, 1000)
        assert abs(got - four_probe_rk4(field, 0.5, [1.0, -0.5], y, 1000)) <= 1e-12
    m = builtin_models()["affine1-exp-expmap"]
    probed = eta_field_from_model(m, GRID)
    got = reconstruct_from_eta(probed, 0.0, [1.0], [0.8], 1000)
    assert abs(got - four_probe_rk4(probed, 0.0, [1.0], [0.8], 1000)) <= 1e-12


# -- the stacked projection ------------------------------------------------------


def projection_stack(d, n_rhs, seed):
    """Six design matrices with columns of mixed scale, the third rank
    deficient when d >= 2, and their right-hand sides and states."""
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((6, 40, d)) * np.exp(rng.standard_normal((6, 1, d)))
    grads[2, :, -1] = grads[2, :, 0]
    return grads, rng.standard_normal((6, 40, n_rhs)), rng.standard_normal((6, d))


def lstsq_cond(sv):
    return float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")


@pytest.mark.parametrize("n_rhs", [1, 4])
@pytest.mark.parametrize("d", range(1, 7))
def test_stacked_projection_equals_per_slice_lstsq_bitwise(d, n_rhs):
    grads, rhs, Y = projection_stack(d, n_rhs, seed=d)
    sol, rank_ok, cond = noarb._project(grads, rhs, Y)
    assert sol.shape == (6, d, n_rhs) and rank_ok.shape == cond.shape == (6,)
    for k in range(6):
        x, _, rank, sv = np.linalg.lstsq(grads[k], rhs[k], rcond=RANK_TOL)
        assert np.array_equal(sol[k], x), k
        assert (bool(rank_ok[k]), float(cond[k])) == (rank == d, lstsq_cond(sv)), k
        if n_rhs == 1:  # the drift's single right-hand side
            x1 = np.linalg.lstsq(grads[k], rhs[k, :, 0], rcond=RANK_TOL)[0]
            assert np.array_equal(sol[k, :, 0], x1), k
        # a single state is the same function with no batch axes
        one, one_ok, one_cond = noarb._project(grads[k], rhs[k], Y[k])
        assert np.array_equal(one, x) and one_ok.shape == one_cond.shape == ()
        assert (bool(one_ok), float(one_cond)) == (rank == d, lstsq_cond(sv)), k
    assert bool(rank_ok[2]) == (d == 1)


def test_stacked_projection_keeps_a_nan_in_its_own_slice():
    grads, rhs, Y = projection_stack(3, 1, seed=8)
    rhs[4, 17, 0] = np.nan
    sol, rank_ok, cond = noarb._project(grads, rhs, Y)
    assert np.isnan(sol[4]).all()
    for k in (0, 1, 2, 3, 5):
        x = np.linalg.lstsq(grads[k], rhs[k], rcond=RANK_TOL)[0]
        assert np.array_equal(sol[k], x)
    assert np.isfinite(cond).all()


def test_stacked_projection_names_the_first_degenerate_state():
    rng = np.random.default_rng(3)
    grads = rng.standard_normal((2, 3, 40, 2))
    grads[1, 0] = grads[1, 2] = 0.0
    Y = np.arange(12.0).reshape(2, 3, 2)
    with pytest.raises(DegenerateFamilyError, match=re.escape("y=[6.0, 7.0]")):
        noarb._project(grads, rng.standard_normal((2, 3, 40, 1)), Y)
    # A(y) = y^2 has a vanishing gradient at y = 0 only
    m = AffineModel(c=QEFunction.constant(0.0), u=[QEFunction.exponential(-1.0)],
                    factor_map=ComponentwiseCubicMap([0.0], quadratic=[1.0]))
    with pytest.raises(DegenerateFamilyError, match=re.escape("y=[0.0]")):
        noarb._solve_drift_cov(m, [[1.0], [0.0], [2.0], [0.0]], np.eye(1), GRID)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_stacked_projection_names_the_first_state_with_a_non_finite_gradient(bad, capfd):
    # refused before LAPACK, which would print to stderr and fail to converge
    rng = np.random.default_rng(4)
    grads = rng.standard_normal((2, 3, 40, 2))
    grads[1, 1, 7, 0] = bad
    grads[1, 2] = 0.0  # a degenerate state after it does not mask it
    Y = np.arange(12.0).reshape(2, 3, 2)
    message = re.escape("grad_y g is non-finite at y=[8.0, 9.0]")
    with pytest.raises(ValueError, match=message) as err:
        noarb._project(grads, rng.standard_normal((2, 3, 40, 1)), Y)
    assert not isinstance(err.value, DegenerateFamilyError)
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_probes_and_solves_refuse_a_gradient_that_leaves_the_double_range(capfd):
    # g = u(x) (e^y - 1): grad_y g = u(x) e^y overflows at y = 800
    m = builtin_models()["affine1-exp-expmap"]
    ys = [[0.1], [800.0]]
    for call in (lambda: solve_drift(m, ys, [[1.0]], GRID),
                 lambda: scc_probe(m, ys, GRID),
                 lambda: eta_field_from_model(m, GRID)(ys)):
        with pytest.raises(ValueError, match=re.escape("grad_y g is non-finite at y=[800.0]")):
            call()
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("ys, where", [
    ([1e120, 0.0], [1e120, 0.0]),
    ([[0.5, -0.5], [0.0, 2e120], [1e120, 0.0]], [0.0, 2e120]),
    ([[[0.5, -0.5]], [[1.0, 0.25]]] + [[[1e120, 0.0]]], [1e120, 0.0]),
], ids=["one", "stack", "grid"])
def test_residuals_that_leave_the_double_range_are_refused_naming_the_state(ys, where):
    # the cubic map's A = y + 0.1 y^3 overflows while A' and A'' stay finite,
    # so grad_y g passes _project's gate and dx g carries the inf into b
    m = custom_scenario_model()
    ys = np.array(ys)
    cases = {
        "drift": [lambda: solve_drift(m, ys, np.eye(2), GRID),
                  lambda: noarb._solve_drift_cov(m, ys, np.eye(2), GRID),
                  lambda: rn_residual(m, ys, np.eye(2), np.zeros(ys.shape), GRID)],
        "identity": [lambda: scc_probe(m, ys, GRID)],
    }
    for which, calls in cases.items():
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"{which} residual is non-finite at y={where}"
    # the eta field skips the residuals: it returns the non-finite eta
    assert not np.isfinite(eta_field_from_model(m, GRID)(ys)).all()


def state_layouts(d, rng):
    """States in each layout of the batch convention: one state (d,), a
    stack (n, d), a strided (n, d) view and a (2, 3, d) grid."""
    return {
        "one": rng.uniform(-1.0, 1.0, d),
        "stack": rng.uniform(-1.0, 1.0, (5, d)),
        "strided": rng.uniform(-1.0, 1.0, (10, d + 1))[::2, 1:],
        "grid": rng.uniform(-1.0, 1.0, (2, 3, d)),
    }


def assert_state_bits(stacked, idx, alone, where):
    """Every field of a stacked result, at the batch index idx, has the
    dtype, shape and bits of the result of that state alone."""
    if dataclasses.is_dataclass(alone):
        for f in dataclasses.fields(alone):
            assert_state_bits(getattr(stacked, f.name), idx, getattr(alone, f.name),
                              (where, f.name))
    elif isinstance(alone, (dict, tuple)):
        assert len(stacked) == len(alone), where
        for key in (alone if isinstance(alone, dict) else range(len(alone))):
            assert_state_bits(stacked[key], idx, alone[key], (where, key))
    else:
        got, want = np.asarray(stacked)[idx], np.asarray(alone)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where


def numeric_d2():
    return NumericCurveFamily(
        lambda x, y: np.exp(-x) * y[0] + np.exp(-2.0 * x) * np.sin(y[1]) + 0.1 * y[0] * y[1],
        d=2)


@pytest.mark.parametrize("layout", ["one", "stack", "strided", "grid"])
def test_stacked_drift_solves_equal_solve_drift_on_every_field(layout):
    rng = np.random.default_rng(19)
    fs = FuturesSpec(1.0, 2.0)
    cases = probe_cases() + [("numeric-d2", numeric_d2(), GRID)]
    assert {m.d for _, m, _ in cases} == {1, 2, 3}  # every d the probe constants serve
    for name, m, grid in cases:
        Y = state_layouts(m.d, rng)[layout]
        sigma = rng.uniform(-1.0, 1.0, (m.d, m.d))
        batch = Y.shape[:-1]

        def results(y):
            res = solve_drift(m, y, sigma, grid)
            return {"solve_drift": res, "rn_residual": rn_residual(m, y, sigma, res.b, grid),
                    "scc_probe": scc_probe(m, y, grid),
                    "eta_field": eta_field_from_model(m, grid)(y),
                    "futures_price": futures_price(m, y, 0.0, fs)}

        got = results(Y)
        res, rep = got["solve_drift"], got["scc_probe"]
        assert res.b.shape == Y.shape and res.residual_rms.shape == batch, name
        assert rep.eta.shape == batch + (m.d,) * 3 and rep.max_residual.shape == batch, name
        assert np.shape(got["futures_price"]) == batch, name
        json.dumps([res.to_dict(), rep.to_dict()])  # plain JSON types only
        for idx in np.ndindex(batch):
            alone = results(np.array(Y[idx]))
            assert_state_bits(got, idx, alone, name)
            assert_state_bits(rep.max_residual, idx, alone["scc_probe"].max_residual, name)
        if layout == "one":
            fields = (res.residual_rms, res.residual_max, res.condition_number, res.rank_ok,
                      rep.max_residual, rep.inconclusive, got["futures_price"])
            assert [type(f) for f in fields] == (
                [np.float64] * 3 + [np.bool_, np.float64, np.bool_, np.float64]), name
        # a NaN in either identity residual is a NaN max_residual at that state only
        hess = np.array(rep.hessian_identity_residual)
        x_res = np.array(rep.x_identity_residual)
        hess.flat[0] = x_res.flat[-1] = np.nan
        nan_rep = dataclasses.replace(rep, hessian_identity_residual=hess,
                                      x_identity_residual=x_res)
        want = np.zeros(batch, dtype=bool)
        want.flat[0] = want.flat[-1] = True
        assert np.array_equal(np.isnan(nan_rep.max_residual), want), name
        assert np.array_equal(nan_rep.max_residual[~want], rep.max_residual[~want]), name
