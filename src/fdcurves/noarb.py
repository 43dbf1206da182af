"""Risk-neutral drift condition, diffusion-consistency probe, affine detection.

For a family g(x, y) driven by a d-dimensional diffusion with constant
covariance a = sigma sigma^T, absence of drift arbitrage pins the factor
drift b through the pointwise identity

    dx g(x, y) = grad_y g(x, y) . b + 1/2 * sum_ij a[i,j] * hess_y g(x, y)[i,j]

for all maturities x. On a finite maturity grid this is an overdetermined
linear system in b, solved here by SVD least squares: with G = grad_y g on
the grid, b = G^+ (dx g - trace term). Every drift solve of the package,
``sim``'s closed form included, is one call of that projection. The
consistency probe projects dx g and each hess_y g[i,j] at once, giving
fields gamma and eta[i][j] with b = gamma - 1/2 sum_ij a[i,j] eta[i][j]
for every covariance a. One drift exists per covariance exactly when they express
the x-derivative and the y-Hessian through the y-gradient alone:

    hess_y g[i,j] = grad_y g . eta[i][j]        (Hessian identity)
    dx g          = grad_y g . gamma            (x identity)

Families that violate these identities cannot absorb an arbitrary
estimated diffusion matrix into the drift; the residuals quantify the
failure. When the identities do hold, the curve family is affine --
``detect_affine`` measures the dimension of the attainable curve set
directly, and ``reconstruct_from_eta`` rebuilds g(y) from the eta field,
the value and the gradient at the origin by integrating the induced linear
ODE along the ray from 0 to y.

``solve_drift``, ``rn_residual``, ``scc_probe`` and the field of
``eta_field_from_model`` take a state y (d,) or a stack y (..., d), as the
families do, and return fields led by the batch axes of y (numpy scalars
for one state): one table evaluation and one stacked projection, with each
state's results the bits of that state solved alone.

Everything operates on immutable inputs with deterministic reduction
order, so results are reproducible and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

# XGrid lives in families, beside the node checks every grid goes through
from .families import CurveFamily, XGrid, _finite, _grid_nodes, _states  # noqa: F401
from .qe import _integer, _plain

RANK_TOL = 1e-10         # relative singular-value cutoff for drift projections
AFFINE_RANK_TOL = 1e-8   # relative singular-value cutoff for rank detection

# The gufunc np.linalg.lstsq itself runs: LAPACK gelsd on every slice of a
# stack, so a stacked solve equals a loop of lstsq calls bit for bit. It is
# private and may be named differently in other numpy versions, so a numpy
# without it fails here, at import, not in the middle of a solve.
_LSTSQ = getattr(_umath_linalg, "lstsq", None)
if _LSTSQ is None:
    raise ImportError(
        "fdcurves needs numpy.linalg._umath_linalg.lstsq, the gufunc behind "
        f"np.linalg.lstsq; numpy {np.__version__} has no such gufunc")


class DegenerateFamilyError(ValueError):
    """The y-gradient vanishes on the whole grid; no drift is identifiable."""


@dataclass(frozen=True)
class DriftSolveResult:
    """Drift b, of the shape of y, at a state y (d,) or a stack y (..., d),
    with fit diagnostics of its batch shape (numpy scalars for one state)."""

    b: np.ndarray
    residual_rms: np.ndarray
    residual_max: np.ndarray
    condition_number: np.ndarray
    rank_ok: np.ndarray

    to_dict = _plain


def _trace_term(cov: np.ndarray, hesses: np.ndarray) -> np.ndarray:
    """1/2 sum_ij a[i,j] hess_y g[i,j] on the grid, for the covariance a."""
    return 0.5 * np.einsum("ij,...kij->...k", cov, hesses)


def _covariance(sigma: np.ndarray, d: int) -> np.ndarray:
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape != (d, d):
        raise ValueError(f"sigma needs shape (d, d) with d={d}, got shape {sigma.shape}")
    return sigma @ sigma.T


def _drift_tables(model: CurveFamily, y: np.ndarray, cov: np.ndarray,
                  grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx g, grad_y g, trace term of ``cov``) at y, on a grid of at least d nodes."""
    xs = _grid_nodes(grid)
    if xs.shape[0] < model.d:
        raise ValueError(f"grid has {xs.shape[0]} nodes, need at least d={model.d}")
    dxg, grads, hesses = model.derivative_tables(xs, y)
    return dxg, grads, _trace_term(cov, hesses)


def _residual_stats(y: np.ndarray, dxg: np.ndarray, grads: np.ndarray,
                    trace_term: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rms, max) of the drift residual over the grid per state of y; a non-finite rms raises."""
    # a column matmul equals grads @ b bit for bit (einsum does not for d >= 2),
    # and the rms is np.mean's sum and division, without its overhead
    r = dxg - np.matmul(grads, b[..., None])[..., 0] - trace_term
    rms = np.sqrt(np.add.reduce(r * r, axis=-1) / r.shape[-1])
    _finite(y, "drift residual", rms)
    return rms, np.abs(r).max(axis=-1)


def rn_residual(model: CurveFamily, y: np.ndarray, sigma: np.ndarray,
                b: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """(rms, max) residual of the drift identity for a candidate drift b of
    the shape of y, a state (d,) or a stack (..., d)."""
    tables = _drift_tables(model, y, _covariance(sigma, model.d), grid)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    shape = tables[1].shape[:-2] + (model.d,)  # y's, from grad_y g (..., K, d)
    if b.shape != shape:
        raise ValueError(f"b needs the shape of y, {shape}, got {b.shape}")
    return _residual_stats(y, *tables, b)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _project(grads: np.ndarray, rhs: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G^+ rhs by SVD least squares, with G = grad_y g on the grid, for every
    slice of a stack: grads (..., K, d), rhs (..., K, r) and the states
    y (..., d) share their leading axes, which may be none.

    Returns the solutions (..., d, r), whether each G has full column rank
    at the relative cutoff ``RANK_TOL``, and the condition number of each
    G. One gufunc call runs the LAPACK solve of ``np.linalg.lstsq`` on each
    slice, so every slice equals its own ``lstsq`` bit for bit and a NaN in rhs
    stays in its slice. A G that vanishes on the grid raises :class:`DegenerateFamilyError`,
    one with a non-finite entry a ValueError, each naming the first such state.
    """
    scale = np.abs(grads).max(axis=(-2, -1))  # 0 if degenerate, inf or NaN if non-finite
    ok = (scale > 0.0) & (scale < np.inf)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        if scale[first] == 0.0:
            raise DegenerateFamilyError(f"degenerate family at y={y[first].tolist()}")
        raise ValueError(f"grad_y g is non-finite at y={y[first].tolist()}")
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        sol, _, rank, sv = _LSTSQ(grads, rhs, RANK_TOL, signature="ddd->ddid")
        # G is finite, so sv is: a zero last one gives an infinite condition number
        cond = sv[..., 0] / sv[..., -1]
    return sol, rank == grads.shape[-1], cond


def solve_drift(model: CurveFamily, y: np.ndarray, sigma: np.ndarray,
                grid) -> DriftSolveResult:
    """Least-squares drift b making the family risk neutral at a state y
    (d,) or at every state of a stack y (..., d).

    Builds one equation per grid node (design row grad_y g, target
    dx g minus the trace term of the covariance sigma sigma^T) and solves
    by SVD with minimal-norm fallback. ``rank_ok`` is False when the design
    matrix has numerical rank below d at the relative cutoff ``RANK_TOL``.
    The reported residuals come from the same residual helper that
    :func:`rn_residual` uses, in the same arithmetic order, so solver and
    checker always agree; a residual that is not finite is a ValueError
    naming the first such state.
    """
    return _solve_drift_cov(model, y, _covariance(sigma, model.d), grid)


def _drift_stack(model: CurveFamily, y: np.ndarray, cov: np.ndarray,
                 grid) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray]:
    """Drift solves for the covariance ``cov`` at a state y (d,) or a stack
    of states y (..., d): (b, tables, condition_number, rank_ok), each with
    the batch axes of y leading, where tables = (dx g, grad_y g, trace
    term) are the grid tables b was solved on. One table evaluation and one
    stacked projection serve every state; each row equals the solve at its
    state alone bit for bit. Callers that report the residual compute it.
    """
    tables = dxg, grads, trace = _drift_tables(model, y, cov, grid)
    b, rank_ok, cond = _project(grads, (dxg - trace)[..., None], _states(y, model.d))
    return b[..., 0], tables, cond, rank_ok


def _solve_drift_cov(model: CurveFamily, y: np.ndarray, cov: np.ndarray,
                     grid) -> DriftSolveResult:
    """:func:`solve_drift` for the covariance ``cov`` in place of sigma."""
    b, tables, cond, rank_ok = _drift_stack(model, y, cov, grid)
    return DriftSolveResult(b, *_residual_stats(y, *tables, b), cond, rank_ok)


@lru_cache(maxsize=8)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe's i <= j pair index (iu, ju), row-major, built once per d, read-only."""
    iu, ju = np.triu_indices(d)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _probe_nodes(model: CurveFamily, grid) -> np.ndarray:
    """Grid nodes of the consistency probe, checked against its minimum size."""
    xs = _grid_nodes(grid)
    if xs.shape[0] < 2 * model.d + 2:
        raise ValueError(
            f"probe grid has {xs.shape[0]} nodes, need at least {2 * model.d + 2}")
    return xs


def _probe_fields(dxg: np.ndarray, grads: np.ndarray, hesses: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, eta, rank_ok, cond) at every state of the tables: gamma =
    G^+ dx g and the symmetric eta[i][j] = G^+ hess_y g[i,j], of shapes
    (..., d) and (..., d, d, d), from one projection of the columns
    [dx g | hess_y g[i,j] for i <= j]."""
    d = grads.shape[-1]
    iu, ju = _pairs(d)
    rhs = np.concatenate([dxg[..., None], hesses[..., iu, ju]], axis=-1)
    sol, rank_ok, cond = _project(grads, rhs, y)
    eta = np.empty(sol.shape[:-2] + (d, d, d))
    eta[..., iu, ju, :] = eta[..., ju, iu, :] = np.swapaxes(sol[..., 1:], -1, -2)
    # gamma copied out, C-ordered, so it does not keep the projection alive
    return sol[..., 0].copy(), eta, rank_ok, cond


@dataclass(frozen=True)
class SCCReport:
    """Result of the diffusion-consistency probe at a state y (d,) or a
    stack y (..., d): every field leads with the batch axes of y, and a
    per-state number is a numpy scalar for one state.

    ``eta[..., i, j, :]`` (exactly symmetric in i and j) and ``gamma`` are
    the projections of hess_y g[i,j] and dx g onto grad_y g; the two
    residuals measure how badly the Hessian identity and the x identity
    fail on the grid; the drift of any covariance a is gamma - 1/2 sum_ij
    a[i,j] eta[i][j]. ``condition_number`` is that of grad_y g on the grid, and
    ``inconclusive`` is set where it is rank deficient. That design matrix is
    the same for every covariance, so both belong to the state y: they are the
    ``condition_number`` and ``~rank_ok`` of :func:`solve_drift` at y, for every sigma.
    """

    eta: np.ndarray
    gamma: np.ndarray
    hessian_identity_residual: np.ndarray
    x_identity_residual: np.ndarray
    condition_number: np.ndarray
    inconclusive: np.ndarray

    @property
    def max_residual(self) -> np.ndarray:
        """The larger identity residual per state; a NaN in either gives NaN."""
        return np.maximum(self.hessian_identity_residual, self.x_identity_residual)

    to_dict = _plain


def scc_probe(model: CurveFamily, y: np.ndarray, grid) -> SCCReport:
    """Project dx g and hess_y g onto grad_y g and check the identities.

    With G = grad_y g on the grid, one least-squares projection gives

        gamma     = G^+ dx g
        eta[i][j] = G^+ hess_y g[i,j]

    and the drift for any covariance a is their combination
    b_a = G^+ (dx g - 1/2 sum_ij a_ij hess_y g[i,j])
        = gamma - 1/2 sum_ij a_ij eta[i][j].
    The report carries the worst-case grid residuals of the Hessian and x
    identities; the residual of b_a is r_x - 1/2 sum_ij a_ij r_H[i,j], so both
    vanish exactly when every covariance has a drift. Large residuals certify
    that no single drift can repair the corresponding covariance, i.e. the
    family's shape is incompatible with freely estimated volatility; a
    non-finite one is a ValueError naming the first such state.
    """
    xs = _probe_nodes(model, grid)
    y = _states(y, model.d)
    dxg, grads, hesses = model.derivative_tables(xs, y)
    gamma, eta, rank_ok, cond = _probe_fields(dxg, grads, hesses, y)
    r_x = dxg - np.matmul(grads, gamma[..., None])[..., 0]
    r_hess = hesses - np.einsum("...km,...ijm->...kij", grads, eta)
    hess_res, x_res = np.abs(r_hess).max(axis=(-3, -2, -1)), np.abs(r_x).max(axis=-1)
    _finite(y, "identity residual", hess_res, x_res)  # np.max keeps a NaN
    return SCCReport(
        eta=eta, gamma=gamma,
        hessian_identity_residual=hess_res,
        x_identity_residual=x_res,
        condition_number=cond,
        inconclusive=~rank_ok,
    )


def eta_field_from_model(model: CurveFamily,
                         grid) -> Callable[[np.ndarray], np.ndarray]:
    """The state-dependent eta tensor y -> eta(y) obtained by probing the model.

    The field takes a state (d,) or a stack (..., d), and each call equals
    ``scc_probe(model, y, grid).eta`` bit for bit: it makes the same
    projection but skips the residuals and the report, so it returns the
    non-finite eta that the probe's residual check refuses.
    """
    xs = _probe_nodes(model, grid)

    def field_fn(y: np.ndarray) -> np.ndarray:
        y = _states(y, model.d)
        return _probe_fields(*model.derivative_tables(xs, y), y)[1]

    return field_fn


@dataclass(frozen=True)
class AffineDetection:
    """Numerical rank of the attainable-curve set around a base state."""

    rank: int
    singular_values: np.ndarray
    degenerate: bool

    to_dict = _plain


def detect_affine(model: CurveFamily, y_samples: Sequence[np.ndarray],
                  base_y: np.ndarray, grid,
                  rel_tol: float = AFFINE_RANK_TOL) -> AffineDetection:
    """SVD rank of the sampled curve differences g(., y_k) - g(., base_y).

    An affine family of factor dimension d never exceeds rank d no matter how many states
    are sampled; families outside any finite-dimensional affine space keep producing new
    directions as samples accumulate. The cutoff ``rel_tol``, in [0, 1), is relative to
    the largest value. A non-finite curve is a ValueError naming its state.
    """
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError(f"rel_tol must be a number in [0, 1), got {rel_tol!r}")
    xs = _grid_nodes(grid)
    Y = np.atleast_2d(_states(y_samples, model.d))
    base = _states(base_y, model.d)
    if Y.shape[0] < model.d + 3:
        raise ValueError(f"need at least d+3={model.d + 3} samples, got {Y.shape[0]}")
    if xs.shape[0] < 2 * Y.shape[0]:
        raise ValueError(
            f"grid has {xs.shape[0]} nodes, need at least {2 * Y.shape[0]}")
    curves = model.curve_matrix(xs, np.vstack([base[None, :], Y]))
    k = np.flatnonzero(~np.isfinite(curves).all(axis=-1))  # LAPACK would return NaNs
    if k.size:
        raise ValueError("curve is non-finite at " + (
            f"y_samples[{k[0] - 1}]={Y[k[0] - 1].tolist()}" if k[0] else f"base_y={base.tolist()}"))
    # the (K, n) matrix of differences, one column per sample
    sv = np.linalg.svd((curves[1:] - curves[:1]).T, compute_uv=False)
    if sv[0] == 0.0:
        return AffineDetection(rank=0, singular_values=sv, degenerate=True)
    rank = int(np.sum(sv > rel_tol * sv[0]))
    return AffineDetection(rank=rank, singular_values=sv, degenerate=False)


def reconstruct_from_eta(eta_field: Callable[[np.ndarray], np.ndarray],
                         g0: float, grad0: np.ndarray, y: np.ndarray,
                         n_steps: int = 1000) -> float:
    """Rebuild h(y) from h(0), grad h(0) and the eta field.

    When every second derivative of h is a combination of first
    derivatives, ``hess h[i,j] = grad h . eta[i][j]``, the value and
    gradient along the ray t -> t*y satisfy a linear ODE system:

        d/dt grad h(t y) = M(t y) @ grad h(t y),
        M[i, k] = sum_j y[j] * eta[i][j][k],
        d/dt h(t y) = grad h(t y) . y.

    Classical fourth-order Runge-Kutta integrates it over t in [0, 1];
    the global error decays like n_steps^-4. M is probed once per distinct
    time point: the two midpoint stages share one probe and each step's
    endpoint is the next step's start, so ``eta_field`` runs 2 * n_steps + 1
    times, each just before the stage that first needs it.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grad0 = np.atleast_1d(np.asarray(grad0, dtype=float))
    if grad0.shape != y.shape:
        raise ValueError(f"grad0 needs the shape of y, {y.shape}, got {grad0.shape}")
    d = y.shape[0]
    if _integer(n_steps, "n_steps") < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")

    def ode_matrix(t: float) -> np.ndarray:
        return np.einsum("j,ijk->ik", y, np.asarray(eta_field(t * y), dtype=float))

    def f(M: np.ndarray, state: np.ndarray) -> np.ndarray:
        p = state[1:]
        out = np.empty(d + 1)
        out[0] = p @ y
        out[1:] = M @ p
        return out

    state = np.concatenate(([float(g0)], grad0))
    h_step = 1.0 / n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        M_start = ode_matrix(0.0)
        for k in range(n_steps):
            t = k * h_step
            f1 = f(M_start, state)
            M_mid = ode_matrix(t + 0.5 * h_step)
            f2 = f(M_mid, state + 0.5 * h_step * f1)
            f3 = f(M_mid, state + 0.5 * h_step * f2)
            M_start = ode_matrix((k + 1) * h_step)
            f4 = f(M_start, state + h_step * f3)
            state = state + (h_step / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            if not np.isfinite(state).all():
                raise ArithmeticError(
                    f"reconstruction blew up at t={t + h_step:.6g}")
    return float(state[0])
