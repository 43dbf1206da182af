"""Curve families g(x, y) and the derivatives the drift condition needs.

A curve family maps a factor vector y in R^d to a futures curve
``x -> g(x, y)`` over time-to-maturity x >= 0. The no-arbitrage machinery
requires g to be C^(1,2): one x-derivative and a full y-gradient/Hessian.
Two concrete families ship here:

* :class:`AffineModel` -- g(x, y) = c(x) + sum_k u_k(x) * A_k(y) with
  quasi-exponential c, u_k and a smooth componentwise factor map A. Its
  attainable curves all live in the affine space c + span(u_1, ..., u_d).
* :class:`GaussianExampleModel` -- g(x, y) = Phi((1 - y) / sqrt(1 + x)),
  a one-factor family whose curve set spans an infinite-dimensional space;
  it satisfies the drift identity for unit volatility only and is the
  canonical counterexample for diffusion-consistency probes.

User-defined families enter through :class:`NumericCurveFamily`, a closure
wrapper whose derivatives are finite differences (there is deliberately no
expression parser). Families are immutable; all operations are pure.

Every family implements the same two batched methods, ``curve_matrix`` and
``derivative_tables``, under one contract: a state y (d,) or a stack of
states y (..., d) in, arrays with the batch axes of y leading out. The
scalar evaluations are read off them, so each closed form exists once.
Maturity grids are :class:`XGrid` objects or raw node arrays, checked
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qe import (QEFunction, _built, _integer, _number, _numbers, _plain, _qe_from_dict,
                 _section, _sections, qe_derivative)

# Default finite-difference steps for cross-checks and closure-based
# families: central first differences and second-difference stencils on
# smooth closed-form functions. Overridable per call.
FD_FIRST_STEP = 1e-6
FD_SECOND_STEP = 1e-4
_BASIS_CACHE_SIZE = 8  # drift grids an AffineModel keeps basis values for

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)


def norm_cdf(t):
    """Standard normal distribution function via the complementary error function."""
    from scipy.special import erfc  # deferred: importing scipy triples start-up

    return 0.5 * erfc(-np.asarray(t, dtype=float) / _SQRT2)


def norm_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / _SQRT2PI


# ---------------------------------------------------------------------------
# Factor maps A : R^d -> R^d
# ---------------------------------------------------------------------------


class FactorMap:
    """Componentwise smooth map A(y) with analytic first and second derivatives;
    every method also maps a batch (..., d) row by row.

    A map implements one jet core, ``cm_jet``, on a component-major state
    yt (d, ...), so each formula for A exists once: ``jet`` runs it on a
    state as it is and on a stack through a contiguous copy of y.T, whose
    results it returns as transposed views, and ``value`` reads A off
    ``jet``, computing no derivative. ``coefficients`` holds the map's c
    coefficient rows (c, d), c = 0 for a map without any.
    """

    tag: str
    d: int
    coefficients: np.ndarray

    def value(self, y: np.ndarray) -> np.ndarray:
        return self.jet(y, 0)[0]

    def jet(self, y: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        """(A_k, dA_k / dy_k, d^2 A_k / dy_k^2), truncated to the first
        ``order + 1`` entries; the Jacobian and every Hessian of A are
        diagonal, with these entries."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:  # one state is its own component-major form
            return self.cm_jet(y, order)
        yt = np.ascontiguousarray(y.T)
        return tuple([a.T for a in self.cm_jet(yt, order)])

    def cm_jet(self, yt: np.ndarray, order: int = 2,
               coefs: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """The entries of ``jet`` for a component-major state yt (d, ...),
        each of yt's shape; yt is contiguous for speed, not for correctness.
        ``coefs`` is ``coefficients`` broadcast against yt, by default as
        (c, d, 1, ...) columns; a caller that evaluates many states of one
        width may pass them copied out to (c,) + yt.shape, which gives the
        same bits faster."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"tag": self.tag}


class IdentityMap(FactorMap):
    tag = "identity"

    def __init__(self, d: int):
        self.d = int(d)
        self.coefficients = np.empty((0, self.d))

    def cm_jet(self, yt, order=2, coefs=None):
        if order == 0:
            return (yt,)
        ones = np.empty(yt.shape)
        ones.fill(1.0)  # half the time of np.ones
        return (yt, ones, np.zeros(yt.shape))[:order + 1]


class ExpMinusOneMap(FactorMap):
    """A_k(y) = exp(y_k) - 1, normalised so that A(0) = 0."""

    tag = "exp-minus-one"

    def __init__(self, d: int):
        self.d = int(d)
        self.coefficients = np.empty((0, self.d))

    def cm_jet(self, yt, order=2, coefs=None):
        e = np.exp(yt)
        return (e - 1.0, e, e)[:order + 1]


class ComponentwiseCubicMap(FactorMap):
    """A_k(y) = l_k y_k + q_k y_k^2 + c_k y_k^3 (no constant term)."""

    tag = "componentwise-cubic"

    def __init__(self, linear, quadratic=None, cubic=None):
        self.linear = np.atleast_1d(np.asarray(linear, dtype=float))
        self.d = self.linear.shape[0]
        self.quadratic = (np.zeros(self.d) if quadratic is None
                          else np.atleast_1d(np.asarray(quadratic, dtype=float)))
        self.cubic = (np.zeros(self.d) if cubic is None
                      else np.atleast_1d(np.asarray(cubic, dtype=float)))
        if self.quadratic.shape != (self.d,) or self.cubic.shape != (self.d,):
            raise ValueError("coefficient arrays must share one length")
        # l, q, c, 2q, 3c, 6c, built once
        self.coefficients = np.stack([self.linear, self.quadratic, self.cubic,
                                      2.0 * self.quadratic, 3.0 * self.cubic,
                                      6.0 * self.cubic])

    # The arithmetic order is that of the row-major formulas, so the results
    # are the same bits; the in-place steps only swap the operands of a
    # commutative + or *.
    def cm_jet(self, yt, order=2, coefs=None):
        if coefs is None:
            coefs = self.coefficients.reshape((6, self.d) + (1,) * (yt.ndim - 1))
        lin, quad, cub, quad2, cub3, cub6 = coefs
        # y2 * y, not y**3: numpy sends cubes through pow, about 5x slower
        y2 = yt * yt
        A = lin * yt
        A += quad * y2
        y3 = y2 * yt
        y3 *= cub
        A += y3
        if order == 0:
            return (A,)
        dA = quad2 * yt
        dA += lin
        dA += cub3 * y2
        d2A = cub6 * yt
        d2A += quad2
        return (A, dA, d2A)[:order + 1]

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "linear": self.linear.tolist(),
            "quadratic": self.quadratic.tolist(),
            "cubic": self.cubic.tolist(),
        }


def factor_map_from_dict(data: dict, d: int) -> FactorMap:
    """The factor map ``model.amap``: its keys checked against every tag's, then its own."""
    coefficients = ("linear", "quadratic", "cubic")
    tag = _section(data, "model.amap", ("tag",), coefficients)["tag"]
    if tag in ("identity", "exp-minus-one"):
        _section(data, "model.amap", ("tag",))
        return IdentityMap(d) if tag == "identity" else ExpMinusOneMap(d)
    if tag == "componentwise-cubic":
        _section(data, "model.amap", ("tag", "linear"), coefficients)
        m = _built("model.amap", ComponentwiseCubicMap,
                   *(_numbers(data[k], f"model.amap.{k}", 1) if k in data else None
                     for k in coefficients))
        if m.d != d:
            raise ValueError(f"cubic map has {m.d} components, model has d={d}")
        return m
    raise ValueError(f"unknown factor map tag: {tag!r}")


# ---------------------------------------------------------------------------
# Maturity grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XGrid:
    """Sorted maturity nodes discretising the 'for all x >= 0' statements."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = _grid_nodes(self.nodes).copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @classmethod
    def chebyshev(cls, n: int = 40, x_max: float = 5.0) -> XGrid:
        """Chebyshev-Lobatto nodes mapped to [0, x_max] (the default grid)."""
        if n < 2:  # before dividing by n - 1
            raise ValueError("grid needs at least two nodes")
        k = np.arange(n)
        return cls(0.5 * (1.0 - np.cos(np.pi * k / (n - 1))) * x_max)

    @classmethod
    def uniform(cls, n: int, x_max: float) -> XGrid:
        return cls(np.linspace(0.0, float(x_max), n))

    to_dict = _plain

    @classmethod
    def from_dict(cls, data: dict) -> XGrid:
        if "nodes" in _section(data, "grid", (), ("nodes", "kind", "n", "x_max")):
            _section(data, "grid", ("nodes",))
            return cls(_numbers(data["nodes"], "grid.nodes", 1))
        kind = data.get("kind", "chebyshev")
        n = _integer(data.get("n", 40), "grid.n")
        x_max = _number(data.get("x_max", 5.0), "grid.x_max")
        if kind == "chebyshev":
            return cls.chebyshev(n, x_max)
        if kind == "uniform":
            return cls.uniform(n, x_max)
        raise ValueError(f"unknown grid kind: {kind!r}")


def _grid_nodes(grid) -> np.ndarray:
    """The nodes of an :class:`XGrid`, as they are (it checked them when it
    was built), or of a raw array, checked: at least two nodes, finite,
    strictly increasing and >= 0."""
    if isinstance(grid, XGrid):
        return grid.nodes
    nodes = np.atleast_1d(np.asarray(grid, dtype=float))
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("grid needs at least two nodes")
    if not np.isfinite(nodes).all():
        raise ValueError("grid nodes must be finite")
    if np.any(nodes < 0) or np.any(np.diff(nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing and >= 0")
    return nodes


# ---------------------------------------------------------------------------
# Curve families
# ---------------------------------------------------------------------------


def _states(y, d: int) -> np.ndarray:
    """A state y (d,) or a stack of states y (..., d) as a float array; any
    other last axis is a ValueError naming d and the shape it got."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[-1] != d:
        raise ValueError(f"a state needs d={d} factors, shape (d,) or (..., d); "
                         f"got shape {y.shape}")
    return y


def _finite(y, what: str, *values: np.ndarray) -> None:
    """A ValueError naming ``what`` and the first state of y (..., d) where one
    of ``values``, each holding one number per state, is not finite."""
    for v in values:  # math.isfinite reads one state's scalar 20x faster than np.isfinite
        if not (math.isfinite(v) if v.ndim == 0 else np.isfinite(v).all()):
            ok = np.logical_and.reduce([np.isfinite(u) for u in values])
            y = np.reshape(np.asarray(y, dtype=float), ok.shape + (-1,))
            raise ValueError(f"{what} is non-finite at y="
                             f"{y[np.unravel_index(np.argmin(ok), ok.shape)].tolist()}")


class CurveFamily:
    """Base interface: value and C^(1,2) derivatives of g(x, y).

    A family implements exactly two batched methods, ``curve_matrix`` and
    ``derivative_tables``, with one contract: each takes a grid xs (K,)
    and a state y (d,) or a stack of states y (..., d), and returns arrays
    whose leading axes are the batch axes of y (none for a single state),
    C-ordered. Each state's rows equal that state evaluated alone, bit for
    bit; a state whose last axis is not d is a ValueError. ``value``,
    ``dx``, ``grad_y`` and ``hess_y`` read one node of them, so every
    scalar evaluation runs the code the drift solvers run.
    """

    d: int
    derivative_mode: str = "analytic"

    def curve_matrix(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """g on the grid, shape (..., K): out[..., k] = g(xs[k], y[...])."""
        raise NotImplementedError

    def derivative_tables(
        self, xs: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx g, grad_y g, hess_y g) on the grid, of shapes (..., K),
        (..., K, d) and (..., K, d, d)."""
        raise NotImplementedError

    def value(self, x: float, y: np.ndarray) -> float:
        return float(self.curve_matrix(np.array([float(x)]), y)[0])

    def dx(self, x: float, y: np.ndarray) -> float:
        return float(self.derivative_tables(np.array([float(x)]), y)[0][0])

    def grad_y(self, x: float, y: np.ndarray) -> np.ndarray:
        return self.derivative_tables(np.array([float(x)]), y)[1][0]

    def hess_y(self, x: float, y: np.ndarray) -> np.ndarray:
        return self.derivative_tables(np.array([float(x)]), y)[2][0]

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} is not serialisable")


class AffineModel(CurveFamily):
    """g(x, y) = c(x) + sum_k u_k(x) * A_k(y) with quasi-exponential c, u.

    The attainable curves lie in the affine space c + span(u_1, ..., u_d);
    with the identity factor map the y-Hessian vanishes identically.
    """

    def __init__(self, c: QEFunction, u: Sequence[QEFunction], factor_map: FactorMap):
        self.c = c
        self.u = tuple(u)
        self.d = len(self.u)
        if self.d < 1:
            raise ValueError("need at least one loading function u_k")
        if factor_map.d != self.d:
            raise ValueError(
                f"factor map dimension {factor_map.d} != number of loadings {self.d}")
        self.factor_map = factor_map
        self._dc = qe_derivative(c)
        self._du = tuple(qe_derivative(f) for f in self.u)
        self._tables: dict[bytes, tuple] = {}  # grid -> cached basis values

    # derivative_tables' basis values depend on x only; cache the newest
    # _BASIS_CACHE_SIZE grids, evicting the oldest first (single-writer
    # dict insertion, safe under concurrent readers)
    def _basis(self, xs: np.ndarray):
        xs = np.ascontiguousarray(xs, dtype=float)
        key = xs.tobytes()
        hit = self._tables.get(key)
        if hit is None:
            dc_vals = self._dc.eval_grid(xs)
            U = np.stack([f.eval_grid(xs) for f in self.u], axis=1)
            dU = np.stack([f.eval_grid(xs) for f in self._du], axis=1)
            hit = (dc_vals, U, dU)
            if len(self._tables) >= _BASIS_CACHE_SIZE:
                self._tables.pop(next(iter(self._tables)), None)
            self._tables[key] = hit
        return hit

    def curve_matrix(self, xs, y):
        # evaluated afresh, never cached: the callers (detect_affine, value,
        # eval_curve and check_c12's stencils) rarely repeat a grid, unlike
        # the drift solvers
        xs = np.asarray(xs, dtype=float)
        U = np.stack([f.eval_grid(xs) for f in self.u], axis=1)
        A = self.factor_map.value(_states(y, self.d))
        # row-local sums, not matmuls, so a node never depends on the batch;
        # C-ordered products, as the jet may return transposed views
        UA = np.multiply(U, A[..., None, :], order="C")
        return self.c.eval_grid(xs) + UA.sum(axis=-1)

    def derivative_tables(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        y = _states(y, self.d)
        dc_vals, U, dU = self._basis(xs)
        # (..., 1, d): one factor row per state, broadcast over the grid. The
        # jet may return transposed views; C-ordered products keep every
        # later matmul on the BLAS path a single state takes
        A, dA, d2A = (a[..., None, :] for a in self.factor_map.jet(y))
        hesses = np.zeros(y.shape[:-1] + U.shape + (self.d,))
        diag = np.arange(self.d)
        hesses[..., diag, diag] = U * d2A
        dxg = dc_vals + np.multiply(dU, A, order="C").sum(axis=-1)
        return dxg, np.multiply(U, dA, order="C"), hesses

    def to_dict(self) -> dict:
        return {
            "type": "affine",
            "c": self.c.to_dict(),
            "u": [f.to_dict() for f in self.u],
            "amap": self.factor_map.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> AffineModel:
        _section(data, "model", ("c", "u", "amap"), ("type",))
        u = [_qe_from_dict(f, "model.u") for f in _sections(data["u"], "model.u")]
        return cls(c=_qe_from_dict(data["c"], "model.c"), u=u,
                   factor_map=factor_map_from_dict(data["amap"], len(u)))


class GaussianExampleModel(CurveFamily):
    """One-factor family g(x, y) = Phi((1 - y) / sqrt(1 + x)).

    Every derivative is closed form. The family satisfies
    ``dx g = 0.5 * d2y g`` pointwise, so it is risk neutral exactly when the
    factor has unit volatility and zero drift; no drift repairs any other
    volatility. Its curve set is not contained in any finite-dimensional
    affine space.
    """

    d = 1

    def curve_matrix(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        return norm_cdf((1.0 - _states(y, 1)) / np.sqrt(1.0 + xs))

    def derivative_tables(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        w = 1.0 - _states(y, 1)  # (..., 1)
        s = np.sqrt(1.0 + xs)
        z = w / s
        pdf = norm_pdf(z)
        dxg = -w / (2.0 * s**3) * pdf
        grads = (-pdf / s)[..., None]
        hesses = (-z * pdf / (1.0 + xs))[..., None, None]
        return dxg, grads, hesses

    def to_dict(self) -> dict:
        return {"type": "gaussian-example"}


def _fd_tables(curve_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray],
               xs: np.ndarray, y: np.ndarray, h1: float,
               h2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-difference (dx g, grad_y g, hess_y g) over ``xs x {y}``, for a
    state y (d,) or a batch y (..., d), shaped as ``derivative_tables``.

    dx g is :func:`_dx_stencil` with step h1, grad_y g central differences
    with step h1 and hess_y g second differences with step h2. ``curve_matrix``
    runs twice whatever the batch: on the stacked x stencils at every y, and
    on the grid for the stack (..., m, d) of the m y stencil states of each y.
    """
    batch, d = y.shape[:-1], y.shape[-1]
    dxg = _dx_stencil(lambda x: curve_matrix(x, y), xs, h1)

    e1, e2 = np.diag(np.full(d, h1)), np.diag(np.full(d, h2))
    iu, ju = np.triu_indices(d, 1)
    y1 = y[..., None, :]
    p2, m2 = y1 + e2, y1 - e2
    S = np.concatenate([y1, y1 + e1, y1 - e1, p2, m2,
                        p2[..., iu, :] + e2[ju], p2[..., iu, :] - e2[ju],
                        m2[..., iu, :] + e2[ju], m2[..., iu, :] - e2[ju]], axis=-2)
    F = curve_matrix(xs, S)  # (..., m, K)
    f1p, f1m, f2p, f2m = np.split(F[..., 1:1 + 4 * d, :], 4, axis=-2)
    pp, pm, mp, mm = np.split(F[..., 1 + 4 * d:, :], 4, axis=-2)
    # filled through grid-last views, so both tables stay C-ordered
    grads = np.empty(batch + xs.shape + (d,))
    hesses = np.empty(batch + xs.shape + (d, d))
    g_view, h_view = np.moveaxis(grads, -2, -1), np.moveaxis(hesses, -3, -1)
    diag = np.arange(d)
    g_view[...] = (f1p - f1m) / (2 * h1)
    h_view[..., diag, diag, :] = (f2p - 2 * F[..., :1, :] + f2m) / h2**2
    h_view[..., iu, ju, :] = h_view[..., ju, iu, :] = (pp - pm - mp + mm) / (4 * h2**2)
    return dxg, grads, hesses


def _dx_stencil(f: Callable, xs: np.ndarray, h1: float) -> np.ndarray:
    """d/dx of f (..., K) on the nodes xs (K,): central differences with step
    h1 where x >= h1, one-sided second order below, so no x < 0 is evaluated;
    ``f`` maps maturities (n,) to values (..., n) and runs once."""
    K = xs.shape[0]
    central = xs >= h1
    fx = f(np.concatenate([xs + h1, np.where(central, xs - h1, xs),
                           xs[~central] + 2 * h1]))
    up, lo = fx[..., :K], fx[..., K:2 * K]
    dx = np.empty(fx.shape[:-1] + (K,))
    dx[..., central] = (up[..., central] - lo[..., central]) / (2 * h1)
    dx[..., ~central] = (-3 * lo[..., ~central] + 4 * up[..., ~central]
                         - fx[..., 2 * K:]) / (2 * h1)
    return dx


def _fd_steps(first_step, second_step) -> tuple[float, float]:
    """(h1, h2) as floats; a step that is not finite and positive is a
    ValueError naming it."""
    for name, h in (("first_step", first_step), ("second_step", second_step)):
        if not 0.0 < float(h) < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {h!r}")
    return float(first_step), float(second_step)


class NumericCurveFamily(CurveFamily):
    """Closure-backed family with finite-difference derivatives.

    ``fn(x, y) -> float`` defines the curve; ``derivative_tables`` applies
    the stencils of :func:`_fd_tables` to ``curve_matrix``, with
    ``first_step`` for first derivatives (one-sided at the x = 0 boundary)
    and ``second_step`` for second derivatives. Cross-checks against
    analytic derivatives do not apply here: the finite differences *are*
    the definition, so ``derivative_mode`` is "finite-difference". It is
    the one pointwise family: ``curve_matrix`` calls ``fn`` once per node
    and state.
    """

    derivative_mode = "finite-difference"

    def __init__(self, fn: Callable[[float, np.ndarray], float], d: int,
                 first_step: float = FD_FIRST_STEP,
                 second_step: float = FD_SECOND_STEP):
        self.fn = fn
        self.d = int(d)
        self.h1, self.h2 = _fd_steps(first_step, second_step)

    def curve_matrix(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        y = _states(y, self.d)
        Y = y.reshape(-1, self.d)
        out = np.empty((Y.shape[0], xs.shape[0]))
        for j, state in enumerate(Y):
            for k, x in enumerate(xs):
                out[j, k] = float(self.fn(float(x), state))
        return out.reshape(y.shape[:-1] + xs.shape)

    def derivative_tables(self, xs, y):
        return _fd_tables(self.curve_matrix, np.asarray(xs, dtype=float),
                          _states(y, self.d), self.h1, self.h2)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def eval_curve(model: CurveFamily, y: np.ndarray, grid) -> np.ndarray:
    """Evaluate the curve g(., y) on a grid of maturities.

    Raises if any value comes out non-finite, naming the offending x.
    """
    xs = _grid_nodes(grid)
    vals = model.curve_matrix(xs, y)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"curve value is non-finite at x={xs[bad.nonzero()[-1][0]]:g}")
    return vals


def check_c12(model: CurveFamily, y: np.ndarray, grid,
              first_step: float = FD_FIRST_STEP,
              second_step: float = FD_SECOND_STEP) -> float:
    """Cross-check analytic derivatives against finite differences.

    Returns the maximum absolute discrepancy between the model's
    ``derivative_tables`` (dx g, grad_y g, hess_y g) over ``grid x {y}``,
    the tables the drift solvers read, and the finite-difference tables of
    :func:`_fd_tables` on the model's ``curve_matrix`` (the stencils of
    :class:`NumericCurveFamily`). A NaN discrepancy makes the result NaN.
    Only defined for analytic-mode families; finite-difference families
    skip the check by definition.
    """
    if model.derivative_mode != "analytic":
        raise ValueError("cross-check requires analytic derivatives; "
                         "finite-difference mode is its own definition")
    xs = _grid_nodes(grid)
    y = _states(y, model.d)
    fd = _fd_tables(model.curve_matrix, xs, y, *_fd_steps(first_step, second_step))
    tables = zip(model.derivative_tables(xs, y), fd)
    return float(np.max([np.max(np.abs(got - fd), initial=0.0) for got, fd in tables]))


@dataclass(frozen=True)
class HilbertNormResult:
    """Weighted Sobolev norm of a curve, split into truncated part and tail.

    ``value`` is h(0)^2 plus the composite-Simpson integral of
    h'(x)^2 * (1+x)^(3/2) over [0, x_max]; ``tail_estimate`` extrapolates
    the remaining mass beyond x_max from the last interval. ``total`` is
    their sum. ``divergence_warning`` is set unless the integrand decreases
    at the truncation point (so also for a NaN): the tail cannot be trusted.
    """

    value: float
    tail_estimate: float
    divergence_warning: bool

    @property
    def total(self) -> float:
        return self.value + self.tail_estimate

    to_dict = _plain


def _simpson_weights(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (n - 1) / 3.0
    return xs, w


def hilbert_norm(h: Callable[[float], float],
                 h_prime: Callable[[np.ndarray], np.ndarray] | None = None,
                 x_max: float = 200.0, n_nodes: int = 2001) -> HilbertNormResult:
    """Squared norm h(0)^2 + int_0^inf h'(x)^2 (1+x)^(3/2) dx, truncated.

    Parameters
    ----------
    h : callable
        The curve. Only h(0) is used when ``h_prime`` is supplied.
    h_prime : callable, optional
        Vectorised derivative. When omitted, the stencil of :func:`_dx_stencil`
        with step ``FD_FIRST_STEP`` is applied to ``h``, one call per stencil node.
    x_max : float
        Truncation point, finite and >= 10. The integral over [x_max, inf) is
        estimated by fitting the slowly varying prefactor
        ``h'(x)^2 (1+x)^3 ~ a + b/(1+x)`` through the last two nodes and
        integrating the model exactly; the estimate is reported (and added
        into ``total``) rather than folded into ``value``.
    n_nodes : int
        Simpson node count, >= 100 (forced odd).
    """
    if not 10 <= x_max < np.inf:
        raise ValueError(f"x_max must be finite and >= 10, got {x_max}")
    if _integer(n_nodes, "n_nodes") < 100:
        raise ValueError(f"n_nodes must be >= 100, got {n_nodes}")
    xs, weights = _simpson_weights(0.0, float(x_max), n_nodes)
    if h_prime is not None:
        dvals = np.asarray(h_prime(xs), dtype=float)
    else:
        dvals = _dx_stencil(lambda x: np.fromiter(map(h, x.tolist()), float, x.size),
                            xs, FD_FIRST_STEP)
    integrand = dvals**2 * (1.0 + xs) ** 1.5
    value = float(h(0.0)) ** 2 + float(weights @ integrand)

    # Tail model: integrand = P(x) * (1+x)^(-3/2) with P approximately
    # linear in 1/(1+x) near the truncation point.
    q1, q2 = integrand[-2], integrand[-1]
    x1, x2 = xs[-2], xs[-1]
    P1, P2 = q1 * (1.0 + x1) ** 1.5, q2 * (1.0 + x2) ** 1.5
    w1, w2 = 1.0 / (1.0 + x1), 1.0 / (1.0 + x2)
    slope = (P1 - P2) / (w1 - w2)
    a = P2 - slope * w2
    tail = 2.0 * a / np.sqrt(1.0 + x2) + (2.0 * slope / 3.0) * (1.0 + x2) ** -1.5
    tail = max(float(tail), 0.0)
    return HilbertNormResult(value=value, tail_estimate=tail,
                             divergence_warning=not q2 <= q1)


def curve_hilbert_norm(model: CurveFamily, y: np.ndarray,
                       x_max: float = 200.0, n_nodes: int = 2001) -> HilbertNormResult:
    """Hilbert norm of the model curve g(., y) using analytic derivatives."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return hilbert_norm(lambda x: model.value(x, y),
                        lambda xs: model.derivative_tables(xs, y)[0],
                        x_max=x_max, n_nodes=n_nodes)


# ---------------------------------------------------------------------------
# Built-in models and serialisation entry points
# ---------------------------------------------------------------------------


_E1 = QEFunction.exponential(-1.0)
_E2 = QEFunction.exponential(-2.0)
_ZERO = QEFunction.constant(0.0)

# one constructor per shipped model: each call builds a fresh instance, so
# no two callers share an AffineModel's basis cache
_BUILTINS: dict[str, Callable[[], CurveFamily]] = {
    "affine1-exp-identity": lambda: AffineModel(
        c=_ZERO, u=[_E1], factor_map=IdentityMap(1)),
    "affine1-exp-expmap": lambda: AffineModel(
        c=_ZERO, u=[_E1], factor_map=ExpMinusOneMap(1)),
    "affine2-identity": lambda: AffineModel(
        c=_E1, u=[_E1, _E2], factor_map=IdentityMap(2)),
    "affine2-oscillator": lambda: AffineModel(
        c=_ZERO,
        u=[QEFunction.from_poly_trig([(-0.5, 1.0, [1.0], [0.0])]),
           QEFunction.from_poly_trig([(-0.5, 1.0, [0.0], [1.0])])],
        factor_map=IdentityMap(2)),
    "affine3-cubic": lambda: AffineModel(
        c=_ZERO, u=[_E1, _E2, QEFunction.exponential(-3.0)],
        factor_map=ComponentwiseCubicMap(
            linear=[1.0, 1.0, 1.0], cubic=[0.1, 0.1, 0.1])),
    "gaussian-example": GaussianExampleModel,
}


def builtin_models() -> dict[str, CurveFamily]:
    """The shipped model zoo.

    Every affine entry keeps its loading span closed under d/dx and its
    factor map invertible, so an exact risk-neutral drift exists for every
    constant diffusion matrix. The Gaussian example is the deliberate
    outlier.
    """
    return {name: build() for name, build in _BUILTINS.items()}


def model_from_dict(data: dict) -> CurveFamily:
    """Instantiate a curve family from its JSON form.

    Accepts ``{"builtin": name}``, ``{"type": "gaussian-example"}`` or a
    full affine specification ``{"type": "affine", "c": ..., "u": [...],
    "amap": {...}}``.
    """
    if "builtin" in _section(data, "model", (), ("builtin", "type", "c", "u", "amap")):
        name = _section(data, "model", ("builtin",))["builtin"]
        if not isinstance(name, str) or name not in _BUILTINS:  # a list is unhashable
            raise ValueError(f"unknown builtin model {name!r}; available: {sorted(_BUILTINS)}")
        return _BUILTINS[name]()
    kind = data.get("type")
    if kind == "gaussian-example":
        _section(data, "model", ("type",))
        return GaussianExampleModel()
    if kind == "affine":
        return AffineModel.from_dict(data)
    raise ValueError(f"unknown model type: {kind!r}")
