"""Risk-neutral drift condition, diffusion-consistency probe, affine detection.

For a family g(x, y) driven by a d-dimensional diffusion with constant
matrix sigma, absence of drift arbitrage pins the factor drift b through
the pointwise identity

    dx g(x, y) = grad_y g(x, y) . b
                 + 1/2 * sum_ij sigma[i,j]*sigma[j,i] * hess_y g(x, y)[i,j]

for all maturities x. On a finite maturity grid this is an overdetermined
linear system in b, solved here by SVD least squares. Comparing the solved
drifts across a fixed sweep of diffusion matrices (identity, single-entry
bumps, doubled identity) extracts vector fields eta[i][j] and gamma that
must express the y-Hessian and the x-derivative through the y-gradient
alone whenever one drift exists per diffusion matrix:

    hess_y g[i,j] = grad_y g . eta[i][j]        (Hessian identity)
    dx g          = grad_y g . gamma            (x identity)

Families that violate these identities cannot absorb an arbitrary
estimated diffusion matrix into the drift; the residuals quantify the
failure. When the identities do hold, the curve family is affine --
``detect_affine`` measures the dimension of the attainable curve set
directly, and ``reconstruct_from_eta`` rebuilds g(y) from the eta field,
the value and the gradient at the origin by integrating the induced linear
ODE along the ray from 0 to y.

Everything operates on immutable inputs with deterministic reduction
order, so results are reproducible and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .families import CurveFamily
from .qe import _reject_unknown

RANK_TOL = 1e-10         # relative singular-value cutoff for drift solves
AFFINE_RANK_TOL = 1e-8   # relative singular-value cutoff for rank detection


class DegenerateFamilyError(ValueError):
    """The y-gradient vanishes on the whole grid; no drift is identifiable."""


@dataclass(frozen=True)
class XGrid:
    """Sorted maturity nodes discretising the 'for all x >= 0' statements."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.isfinite(nodes).all():
            raise ValueError("grid nodes must be finite")
        if np.any(nodes < 0) or np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing and >= 0")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @classmethod
    def chebyshev(cls, n: int = 40, x_max: float = 5.0) -> XGrid:
        """Chebyshev-Lobatto nodes mapped to [0, x_max] (the default grid)."""
        k = np.arange(n)
        return cls(0.5 * (1.0 - np.cos(np.pi * k / (n - 1))) * x_max)

    @classmethod
    def uniform(cls, n: int, x_max: float) -> XGrid:
        return cls(np.linspace(0.0, float(x_max), n))

    def to_dict(self) -> dict:
        return {"nodes": self.nodes.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> XGrid:
        if "nodes" in data:
            _reject_unknown(data, {"nodes"}, "grid")
            return cls(np.asarray(data["nodes"], dtype=float))
        kind = data.get("kind", "chebyshev")
        _reject_unknown(data, {"kind", "n", "x_max"}, "grid")
        n = int(data.get("n", 40))
        x_max = float(data.get("x_max", 5.0))
        if kind == "chebyshev":
            return cls.chebyshev(n, x_max)
        if kind == "uniform":
            return cls.uniform(n, x_max)
        raise ValueError(f"unknown grid kind: {kind!r}")


@dataclass(frozen=True)
class DriftSolveResult:
    """State-dependent drift at one y, with the fit diagnostics."""

    b: np.ndarray
    residual_rms: float
    residual_max: float
    condition_number: float
    rank_ok: bool

    def to_dict(self) -> dict:
        return {
            "b": np.asarray(self.b).tolist(),
            "residual_rms": self.residual_rms,
            "residual_max": self.residual_max,
            "condition_number": self.condition_number,
            "rank_ok": self.rank_ok,
        }




def _grid_nodes(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "nodes", grid), dtype=float)


def _diffusion_weights(sigma: np.ndarray) -> np.ndarray:
    """Weights W[i, j] of hess_y g[i, j] in the drift identity's trace term."""
    # Index pattern sigma[i,j]*sigma[j,i]: elementwise product with the
    # transpose, NOT the Gram matrix sigma @ sigma.T. The eta/gamma
    # extraction formulas in scc_probe assume exactly this weighting; it
    # coincides with the Gram matrix whenever sigma is diagonal.
    return sigma * sigma.T


def _trace_term(sigma: np.ndarray, hesses: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("ij,kij->k", _diffusion_weights(sigma), hesses)


def _residual_stats(dxg: np.ndarray, grads: np.ndarray, trace_term: np.ndarray,
                    b: np.ndarray) -> tuple[float, float]:
    r = dxg - grads @ b - trace_term
    return float(np.sqrt(np.mean(r**2))), float(np.max(np.abs(r)))


def rn_residual(model: CurveFamily, y: np.ndarray, sigma: np.ndarray,
                b: np.ndarray, grid) -> tuple[float, float]:
    """(rms, max) residual of the drift identity for a candidate drift b."""
    xs = _grid_nodes(grid)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    dxg, grads, hesses = model.derivative_tables(xs, y)
    return _residual_stats(dxg, grads, _trace_term(sigma, hesses), b)


def _lstsq_drifts(tables: tuple[np.ndarray, np.ndarray, np.ndarray],
                  sigmas: np.ndarray, y: np.ndarray, rank_tol: float):
    """Drifts B (one row per diffusion matrix), the trace terms, rank and
    singular values of the design matrix."""
    # Every diffusion matrix shares the design matrix grad_y g, so one SVD
    # least-squares call with one target column per matrix solves them all.
    dxg, grads, hesses = tables
    if not np.any(grads):
        raise DegenerateFamilyError(f"degenerate family at y={y.tolist()}")
    traces = [_trace_term(sigma, hesses) for sigma in sigmas]
    target = np.stack([dxg - t for t in traces], axis=1)
    B, _, rank, sv = np.linalg.lstsq(grads, target, rcond=rank_tol)
    return B.T.copy(), traces, rank, sv


def _solve_drifts(tables: tuple[np.ndarray, np.ndarray, np.ndarray],
                  sigmas: np.ndarray, y: np.ndarray,
                  rank_tol: float) -> list[DriftSolveResult]:
    dxg, grads, _ = tables
    B, traces, rank, sv = _lstsq_drifts(tables, sigmas, y, rank_tol)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    rank_ok = bool(rank == grads.shape[1])
    return [DriftSolveResult(b, *_residual_stats(dxg, grads, t, b), cond, rank_ok)
            for b, t in zip(B, traces)]


def solve_drift(model: CurveFamily, y: np.ndarray, sigma: np.ndarray,
                grid, rank_tol: float = RANK_TOL) -> DriftSolveResult:
    """Least-squares drift b making the family risk neutral at y.

    Builds one equation per grid node (design row grad_y g, target
    dx g minus the diffusion trace term) and solves by SVD with
    minimal-norm fallback. ``rank_ok`` is False when the design matrix has
    numerical rank below d at the relative cutoff ``rank_tol``. The
    reported residuals come from the same residual helper that
    :func:`rn_residual` uses, in the same arithmetic order, so solver and
    checker always agree.
    """
    xs = _grid_nodes(grid)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = model.d
    if xs.shape[0] < d:
        raise ValueError(f"grid has {xs.shape[0]} nodes, need at least d={d}")
    return _solve_drifts(model.derivative_tables(xs, y), sigma[None], y, rank_tol)[0]


def sigma_sweep(d: int) -> list[tuple[str, np.ndarray]]:
    """The fixed probe matrices: I, I + e_ii, I + e_ij (i<j), 2I."""
    out: list[tuple[str, np.ndarray]] = [("I", np.eye(d))]
    for i in range(d):
        m = np.eye(d)
        m[i, i] += 1.0
        out.append((f"I+e{i + 1}{i + 1}", m))
    for i in range(d):
        for j in range(i + 1, d):
            m = np.eye(d)
            m[i, j] += 1.0
            m[j, i] += 1.0
            out.append((f"I+e{i + 1}{j + 1}", m))
    out.append(("2I", 2.0 * np.eye(d)))
    return out


def _sweep_inputs(model: CurveFamily, grid) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Grid nodes, labels and stacked matrices of the probe sweep."""
    xs = _grid_nodes(grid)
    d = model.d
    if xs.shape[0] < 2 * d + 2:
        raise ValueError(
            f"probe grid has {xs.shape[0]} nodes, need at least {2 * d + 2}")
    labels, mats = zip(*sigma_sweep(d))
    return xs, labels, np.stack(mats)


def _sweep_eta(B: np.ndarray) -> np.ndarray:
    """eta from the sweep drifts B, one row per matrix in sigma_sweep order."""
    d = B.shape[1]
    eta = np.empty((d, d, d))
    pair = d + 1  # first I+e_ij row
    for i in range(d):
        eta[i, i] = (2.0 / 3.0) * (B[0] - B[1 + i])
        for j in range(i + 1, d):
            eta[i, j] = eta[j, i] = B[0] - B[pair]
            pair += 1
    return eta


@dataclass(frozen=True)
class SCCReport:
    """Result of the diffusion-consistency probe at one state y.

    ``eta[i, j]`` (shape (d, d, d), symmetric in the first two indices) and
    ``gamma`` are the drift-comparison fields; the two residuals measure
    how badly the Hessian identity and the x identity fail on the grid.
    ``inconclusive`` is set when the sweep's drift solves are rank
    deficient. Every solve in the sweep shares one design matrix,
    grad_y g on the grid, so rank deficiency is a property of the state y,
    not of a diffusion matrix: either every ``per_sigma`` entry has
    ``rank_ok`` or none has.
    """

    eta: np.ndarray
    gamma: np.ndarray
    hessian_identity_residual: float
    x_identity_residual: float
    per_sigma: dict[str, DriftSolveResult] = field(repr=False)
    inconclusive: bool = False

    @property
    def max_residual(self) -> float:
        return float(np.max([self.hessian_identity_residual, self.x_identity_residual]))

    def to_dict(self) -> dict:
        return {
            "eta": np.asarray(self.eta).tolist(),
            "gamma": np.asarray(self.gamma).tolist(),
            "hessian_identity_residual": self.hessian_identity_residual,
            "x_identity_residual": self.x_identity_residual,
            "per_sigma": {k: v.to_dict() for k, v in self.per_sigma.items()},
            "inconclusive": self.inconclusive,
        }


def scc_probe(model: CurveFamily, y: np.ndarray, grid,
              rank_tol: float = RANK_TOL) -> SCCReport:
    """Sweep the probe diffusion matrices and extract eta / gamma fields.

    The drift differences across the sweep are

        eta[i][i] = 2/3 * (b_I - b_{I+e_ii})
        eta[i][j] = b_I - b_{I+e_ij}            (i != j)
        gamma     = (4 b_I - b_{2I}) / 3

    and the report carries the worst-case grid residuals of the Hessian and
    x identities they are supposed to satisfy. Large residuals certify that
    no single drift can repair the corresponding diffusion matrix, i.e.
    the family's shape is incompatible with freely estimated volatility.
    """
    xs, labels, mats = _sweep_inputs(model, grid)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    tables = model.derivative_tables(xs, y)
    results = _solve_drifts(tables, mats, y, rank_tol)
    per_sigma = dict(zip(labels, results))
    B = np.stack([r.b for r in results])
    eta = _sweep_eta(B)
    gamma = (4.0 * B[0] - B[-1]) / 3.0

    dxg, grads, hesses = tables
    hess_res = float(np.max(np.abs(hesses - np.einsum("km,ijm->kij", grads, eta))))
    x_res = float(np.max(np.abs(dxg - grads @ gamma)))
    return SCCReport(
        eta=eta, gamma=gamma,
        hessian_identity_residual=hess_res,
        x_identity_residual=x_res,
        per_sigma=per_sigma,
        inconclusive=not all(r.rank_ok for r in per_sigma.values()),
    )


def eta_field_from_model(model: CurveFamily, grid,
                         rank_tol: float = RANK_TOL) -> Callable[[np.ndarray], np.ndarray]:
    """The state-dependent eta tensor y -> eta(y) obtained by probing the model.

    Each call equals ``scc_probe(model, y, grid, rank_tol).eta`` bit for bit
    but skips the residual statistics and the report.
    """
    xs, _, mats = _sweep_inputs(model, grid)

    def field_fn(y: np.ndarray) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        tables = model.derivative_tables(xs, y)
        return _sweep_eta(_lstsq_drifts(tables, mats, y, rank_tol)[0])

    return field_fn


@dataclass(frozen=True)
class AffineDetection:
    """Numerical rank of the attainable-curve set around a base state."""

    rank: int
    singular_values: np.ndarray
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "singular_values": np.asarray(self.singular_values).tolist(),
            "degenerate": self.degenerate,
        }


def detect_affine(model: CurveFamily, y_samples: Sequence[np.ndarray],
                  base_y: np.ndarray, grid,
                  rel_tol: float = AFFINE_RANK_TOL) -> AffineDetection:
    """SVD rank of the sampled curve differences g(., y_k) - g(., base_y).

    An affine family of factor dimension d never exceeds rank d no matter
    how many states are sampled; families outside any finite-dimensional
    affine space keep producing new directions as samples accumulate.
    """
    xs = _grid_nodes(grid)
    Y = np.atleast_2d(np.asarray(y_samples, dtype=float))
    base = np.atleast_1d(np.asarray(base_y, dtype=float))
    if Y.shape[0] < model.d + 3:
        raise ValueError(f"need at least d+3={model.d + 3} samples, got {Y.shape[0]}")
    if xs.shape[0] < 2 * Y.shape[0]:
        raise ValueError(
            f"grid has {xs.shape[0]} nodes, need at least {2 * Y.shape[0]}")
    curves = model.curve_matrix(xs, np.vstack([base[None, :], Y]))
    diff = curves[:, 1:] - curves[:, :1]
    sv = np.linalg.svd(diff, compute_uv=False)
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
    d = y.shape[0]
    if n_steps < 100:
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
