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
``derivative_tables``; the scalar evaluations are read off them, so each
closed form exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qe import QEFunction, _integer, _plain, _reject_unknown, qe_derivative

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

    A map implements ``jet`` alone, so each formula for A exists once;
    ``value`` reads A off it, computing no derivative.
    """

    tag: str
    d: int

    def value(self, y: np.ndarray) -> np.ndarray:
        return self.jet(y, 0)[0]

    def jet(self, y: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        """(A_k, dA_k / dy_k, d^2 A_k / dy_k^2), truncated to the first
        ``order + 1`` entries; the Jacobian and every Hessian of A are
        diagonal, with these entries."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"tag": self.tag}


class IdentityMap(FactorMap):
    tag = "identity"

    def __init__(self, d: int):
        self.d = int(d)

    def jet(self, y, order=2):
        y = np.asarray(y, dtype=float)
        return (y, np.ones_like(y), np.zeros_like(y))[:order + 1]


class ExpMinusOneMap(FactorMap):
    """A_k(y) = exp(y_k) - 1, normalised so that A(0) = 0."""

    tag = "exp-minus-one"

    def __init__(self, d: int):
        self.d = int(d)

    def jet(self, y, order=2):
        e = np.exp(np.asarray(y, dtype=float))
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

    # The jet works on a contiguous component-major copy y.T (d, ...), with
    # each coefficient a (d, 1, ...) column, and returns .T views: a (d,)
    # vector broadcast over a short last axis runs one inner loop of length
    # d per state. The arithmetic order is that of the row-major formulas,
    # so the results are the same bits.
    def jet(self, y, order=2):
        yt = np.ascontiguousarray(np.asarray(y, dtype=float).T)
        col = (-1,) + (1,) * (yt.ndim - 1)
        lin, quad, cub = (c.reshape(col) for c in (self.linear, self.quadratic, self.cubic))
        # y2 * y, not y**3: numpy sends cubes through pow, about 5x slower
        y2 = yt * yt
        A = (lin * yt + quad * y2 + cub * (y2 * yt)).T
        if order == 0:
            return (A,)
        dA = lin + (2.0 * quad) * yt + (3.0 * cub) * y2
        d2A = 2.0 * quad + (6.0 * cub) * yt
        return (A, dA.T, d2A.T)[:order + 1]

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "linear": self.linear.tolist(),
            "quadratic": self.quadratic.tolist(),
            "cubic": self.cubic.tolist(),
        }


def factor_map_from_dict(data: dict, d: int) -> FactorMap:
    tag = data.get("tag")
    if tag == "identity":
        _reject_unknown(data, {"tag"}, "identity map")
        return IdentityMap(d)
    if tag == "exp-minus-one":
        _reject_unknown(data, {"tag"}, "exp-minus-one map")
        return ExpMinusOneMap(d)
    if tag == "componentwise-cubic":
        _reject_unknown(data, {"tag", "linear", "quadratic", "cubic"}, "cubic map")
        m = ComponentwiseCubicMap(
            data["linear"], data.get("quadratic"), data.get("cubic"))
        if m.d != d:
            raise ValueError(f"cubic map has {m.d} components, model has d={d}")
        return m
    raise ValueError(f"unknown factor map tag: {tag!r}")


# ---------------------------------------------------------------------------
# Curve families
# ---------------------------------------------------------------------------


class CurveFamily:
    """Base interface: value and C^(1,2) derivatives of g(x, y).

    A family implements exactly two batched methods, ``curve_matrix`` and
    ``derivative_tables``. ``value``, ``dx``, ``grad_y``, ``hess_y`` and
    ``curve`` read one node (or one column) of them, so every scalar
    evaluation runs the code the drift solvers run.
    """

    d: int
    derivative_mode: str = "analytic"

    def curve_matrix(self, xs: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Evaluate g on a grid for a batch of factors: out[k, j] = g(xs[k], Y[j])."""
        raise NotImplementedError

    def derivative_tables(
        self, xs: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx g, grad_y g, hess_y g) stacked over the grid, for a state
        y (d,) or a batch of states y (..., d).

        Returns arrays of shapes (..., K), (..., K, d) and (..., K, d, d),
        where ... are the batch axes of y (none for a single state). Each
        state's tables equal the tables of that state alone, bit for bit.
        """
        raise NotImplementedError

    def value(self, x: float, y: np.ndarray) -> float:
        return float(self.curve(y, [x])[0])

    def dx(self, x: float, y: np.ndarray) -> float:
        return float(self.derivative_tables(np.array([float(x)]), y)[0][0])

    def grad_y(self, x: float, y: np.ndarray) -> np.ndarray:
        return self.derivative_tables(np.array([float(x)]), y)[1][0]

    def hess_y(self, x: float, y: np.ndarray) -> np.ndarray:
        return self.derivative_tables(np.array([float(x)]), y)[2][0]

    def curve(self, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return self.curve_matrix(np.asarray(xs, dtype=float), y[None, :])[:, 0]

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

    def curve_matrix(self, xs, Y):
        # evaluated afresh, never cached: the callers (detect_affine, value and
        # curve, check_c12) rarely repeat a grid, unlike the drift solvers
        xs = np.asarray(xs, dtype=float)
        U = np.stack([f.eval_grid(xs) for f in self.u], axis=1)
        A = self.factor_map.value(np.atleast_2d(np.asarray(Y, dtype=float)))
        # row-local sums, not matmuls, so a node never depends on the batch
        return self.c.eval_grid(xs)[:, None] + (U[:, None, :] * A).sum(axis=-1)

    def derivative_tables(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
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
        _reject_unknown(data, {"type", "c", "u", "amap"}, "affine model")
        u = [QEFunction.from_dict(f) for f in data["u"]]
        return cls(
            c=QEFunction.from_dict(data["c"]),
            u=u,
            factor_map=factor_map_from_dict(data["amap"], len(u)),
        )


class GaussianExampleModel(CurveFamily):
    """One-factor family g(x, y) = Phi((1 - y) / sqrt(1 + x)).

    Every derivative is closed form. The family satisfies
    ``dx g = 0.5 * d2y g`` pointwise, so it is risk neutral exactly when the
    factor has unit volatility and zero drift; no drift repairs any other
    volatility. Its curve set is not contained in any finite-dimensional
    affine space.
    """

    d = 1

    def curve_matrix(self, xs, Y):
        xs = np.asarray(xs, dtype=float)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        z = (1.0 - Y[:, 0][None, :]) / np.sqrt(1.0 + xs)[:, None]
        return norm_cdf(z)

    def derivative_tables(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        w = 1.0 - np.atleast_1d(np.asarray(y, dtype=float))  # (..., 1)
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

    dx g is a central difference with step h1 where x >= h1 and the
    one-sided second-order stencil otherwise, so g is never evaluated at
    x < 0; grad_y g uses central differences with step h1 and hess_y g the
    second-difference stencils with step h2. ``curve_matrix`` runs twice
    whatever the batch: once on the stacked x stencils at every y, once on
    the grid for the y stencil states of every y.
    """
    batch, d = y.shape[:-1], y.shape[-1]
    Y = y.reshape(-1, d)
    K = xs.shape[0]
    central = xs >= h1
    edge = xs[~central]
    fx = curve_matrix(np.concatenate([xs + h1, np.where(central, xs - h1, xs),
                                      edge + 2 * h1]), Y).T
    up, lo = fx[:, :K], fx[:, K:2 * K]
    dxg = np.empty((Y.shape[0], K))
    dxg[:, central] = (up[:, central] - lo[:, central]) / (2 * h1)
    dxg[:, ~central] = (-3 * lo[:, ~central] + 4 * up[:, ~central]
                        - fx[:, 2 * K:]) / (2 * h1)

    e1, e2 = np.diag(np.full(d, h1)), np.diag(np.full(d, h2))
    iu, ju = np.triu_indices(d, 1)
    y1 = Y[:, None, :]
    p2, m2 = y1 + e2, y1 - e2
    S = np.concatenate([y1, y1 + e1, y1 - e1, p2, m2,
                        p2[:, iu] + e2[ju], p2[:, iu] - e2[ju],
                        m2[:, iu] + e2[ju], m2[:, iu] - e2[ju]], axis=1)
    # (K, n * m) -> (n, K, m), C-ordered: the m stencil states of each y
    F = np.ascontiguousarray(
        curve_matrix(xs, S.reshape(-1, d)).reshape(K, *S.shape[:2]).transpose(1, 0, 2))
    f1p, f1m, f2p, f2m = np.split(F[..., 1:1 + 4 * d], 4, axis=-1)
    pp, pm, mp, mm = np.split(F[..., 1 + 4 * d:], 4, axis=-1)
    grads = (f1p - f1m) / (2 * h1)
    hesses = np.empty((Y.shape[0], K, d, d))
    diag = np.arange(d)
    hesses[..., diag, diag] = (f2p - 2 * F[..., :1] + f2m) / h2**2
    hesses[..., iu, ju] = hesses[..., ju, iu] = (pp - pm - mp + mm) / (4 * h2**2)
    return (dxg.reshape(batch + (K,)), grads.reshape(batch + (K, d)),
            hesses.reshape(batch + (K, d, d)))


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

    def curve_matrix(self, xs, Y):
        xs = np.asarray(xs, dtype=float)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        out = np.empty((xs.shape[0], Y.shape[0]))
        for k, x in enumerate(xs):
            for j in range(Y.shape[0]):
                out[k, j] = float(self.fn(float(x), Y[j]))
        return out

    def derivative_tables(self, xs, y):
        return _fd_tables(self.curve_matrix, np.asarray(xs, dtype=float),
                          np.atleast_1d(np.asarray(y, dtype=float)), self.h1, self.h2)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _grid_nodes(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "nodes", grid), dtype=float)


def eval_curve(model: CurveFamily, y: np.ndarray, grid) -> np.ndarray:
    """Evaluate the curve g(., y) on a sorted grid of maturities.

    Raises if any value comes out non-finite, naming the offending x.
    """
    xs = _grid_nodes(grid)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("grid must be a non-empty 1-d collection of maturities")
    if np.any(xs < 0) or np.any(np.diff(xs) < 0):
        raise ValueError("grid must be sorted and non-negative")
    vals = model.curve(np.atleast_1d(np.asarray(y, dtype=float)), xs)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"curve value is non-finite at x={xs[bad][0]:g}")
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
    y = np.atleast_1d(np.asarray(y, dtype=float))
    fd = _fd_tables(model.curve_matrix, xs, y, *_fd_steps(first_step, second_step))
    tables = zip(model.derivative_tables(xs, y), fd)
    return float(np.max([np.max(np.abs(got - fd), initial=0.0) for got, fd in tables]))


@dataclass(frozen=True)
class HilbertNormResult:
    """Weighted Sobolev norm of a curve, split into truncated part and tail.

    ``value`` is h(0)^2 plus the composite-Simpson integral of
    h'(x)^2 * (1+x)^(3/2) over [0, x_max]; ``tail_estimate`` extrapolates
    the remaining mass beyond x_max from the last interval. ``total`` is
    their sum. ``divergence_warning`` is set when the integrand is not
    decreasing at the truncation point, i.e. the tail cannot be trusted.
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
        Vectorised derivative. When omitted, central finite differences of
        ``h`` with step ``FD_FIRST_STEP`` are used (one-sided at x = 0).
    x_max : float
        Truncation point, >= 10. The integral over [x_max, inf) is
        estimated by fitting the slowly varying prefactor
        ``h'(x)^2 (1+x)^3 ~ a + b/(1+x)`` through the last two nodes and
        integrating the model exactly; the estimate is reported (and added
        into ``total``) rather than folded into ``value``.
    n_nodes : int
        Simpson node count, >= 100 (forced odd).
    """
    if x_max < 10:
        raise ValueError(f"x_max must be >= 10, got {x_max}")
    if _integer(n_nodes, "n_nodes") < 100:
        raise ValueError(f"n_nodes must be >= 100, got {n_nodes}")
    xs, weights = _simpson_weights(0.0, float(x_max), n_nodes)
    n_nodes = xs.shape[0]
    if h_prime is not None:
        dvals = np.asarray(h_prime(xs), dtype=float)
    else:
        step = FD_FIRST_STEP
        dvals = np.empty(n_nodes)
        dvals[0] = (-3 * h(0.0) + 4 * h(step) - h(2 * step)) / (2 * step)
        for k in range(1, n_nodes):
            dvals[k] = (h(xs[k] + step) - h(xs[k] - step)) / (2 * step)
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
                             divergence_warning=bool(q2 > q1))


def curve_hilbert_norm(model: CurveFamily, y: np.ndarray,
                       x_max: float = 200.0, n_nodes: int = 2001) -> HilbertNormResult:
    """Hilbert norm of the model curve g(., y) using analytic derivatives."""
    y = np.atleast_1d(np.asarray(y, dtype=float))

    def deriv(xs: np.ndarray) -> np.ndarray:
        dxg, _, _ = model.derivative_tables(np.asarray(xs, dtype=float), y)
        return dxg

    return hilbert_norm(lambda x: model.value(x, y), deriv,
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
    if not isinstance(data, dict):
        raise ValueError("model specification must be an object")
    if "builtin" in data:
        _reject_unknown(data, {"builtin"}, "builtin model reference")
        name = data["builtin"]
        if name not in _BUILTINS:
            raise ValueError(
                f"unknown builtin model {name!r}; available: {sorted(_BUILTINS)}")
        return _BUILTINS[name]()
    kind = data.get("type")
    if kind == "gaussian-example":
        _reject_unknown(data, {"type"}, "gaussian model")
        return GaussianExampleModel()
    if kind == "affine":
        return AffineModel.from_dict(data)
    raise ValueError(f"unknown model type: {kind!r}")
