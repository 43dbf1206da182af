"""Finite-dimensional futures-curve models and their consistency checks.

The package builds curve families g(x, y) driven by a d-dimensional factor
process, solves and verifies the risk-neutral drift condition on maturity
grids, probes whether a family stays arbitrage-free under every constant
diffusion matrix, measures the affine dimension of its curve set, and
backs it all with reproducible Monte Carlo simulation of the factor
dynamics and delivery-period futures prices.
"""

from .families import (AffineModel, ComponentwiseCubicMap, CurveFamily,
                       ExpMinusOneMap, FactorMap, GaussianExampleModel,
                       HilbertNormResult, IdentityMap, NumericCurveFamily,
                       builtin_models, check_c12, curve_hilbert_norm,
                       eval_curve, hilbert_norm, model_from_dict)
from .noarb import (AffineDetection, DegenerateFamilyError, DriftSolveResult,
                    SCCReport, XGrid, detect_affine, eta_field_from_model,
                    reconstruct_from_eta, rn_residual, scc_probe, solve_drift)
from .qe import (MatrixExponentialOverflowError, OdeFitResult, QEFunction,
                 fit_linear_ode, mat_exp, qe_derivative, qe_eval, qe_integral)
from .sim import (FuturesSpec, MartingaleTestResult, PathSet, RiskNeutralDrift,
                  SccLoopReport, SdeSpec, SimulationError, estimate_vol,
                  futures_price, martingale_test, nearest_psd, rn_drift,
                  scc_loop, simulate)

__version__ = "0.1.0"

__all__ = [
    "AffineDetection", "AffineModel", "ComponentwiseCubicMap", "CurveFamily",
    "DegenerateFamilyError", "DriftSolveResult", "ExpMinusOneMap",
    "FactorMap", "FuturesSpec", "GaussianExampleModel", "HilbertNormResult",
    "IdentityMap", "MartingaleTestResult",
    "MatrixExponentialOverflowError", "NumericCurveFamily", "OdeFitResult",
    "PathSet", "QEFunction", "RiskNeutralDrift", "SCCReport",
    "SccLoopReport", "SdeSpec",
    "SimulationError", "XGrid", "builtin_models", "check_c12",
    "curve_hilbert_norm", "detect_affine",
    "estimate_vol", "eta_field_from_model", "eval_curve", "fit_linear_ode",
    "futures_price", "hilbert_norm", "martingale_test", "mat_exp",
    "model_from_dict", "nearest_psd", "qe_derivative", "qe_eval",
    "qe_integral", "reconstruct_from_eta", "rn_drift", "rn_residual",
    "scc_loop", "scc_probe", "simulate", "solve_drift",
]
