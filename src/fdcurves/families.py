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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc

from .qe import QEFunction, _reject_unknown, qe_derivative, qe_eval

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
    return 0.5 * erfc(-np.asarray(t, dtype=float) / _SQRT2)


def norm_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / _SQRT2PI


# ---------------------------------------------------------------------------
# Factor maps A : R^d -> R^d
# ---------------------------------------------------------------------------


class FactorMap:
    """Componentwise smooth map A(y) with analytic first and second derivatives;
    every method also maps a batch (n, d) row by row."""

    tag: str
    d: int

    def value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dA_k / dy_k, d^2 A_k / dy_k^2); the Jacobian and every Hessian
        of A are diagonal, with these entries."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"tag": self.tag}


class IdentityMap(FactorMap):
    tag = "identity"

    def __init__(self, d: int):
        self.d = int(d)

    def value(self, y):
        return np.asarray(y, dtype=float)

    def derivatives(self, y):
        y = np.asarray(y, dtype=float)
        return np.ones_like(y), np.zeros_like(y)


class ExpMinusOneMap(FactorMap):
    """A_k(y) = exp(y_k) - 1, normalised so that A(0) = 0."""

    tag = "exp-minus-one"

    def __init__(self, d: int):
        self.d = int(d)

    def value(self, y):
        return np.exp(np.asarray(y, dtype=float)) - 1.0

    def derivatives(self, y):
        e = np.exp(np.asarray(y, dtype=float))
        return e, e


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

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.linear * y + self.quadratic * y**2 + self.cubic * y**3

    def derivatives(self, y):
        y = np.asarray(y, dtype=float)
        return (self.linear + 2.0 * self.quadratic * y + 3.0 * self.cubic * y**2,
                2.0 * self.quadratic + 6.0 * self.cubic * y)

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

    Subclasses provide ``value``, ``dx``, ``grad_y`` and ``hess_y`` at a
    single (x, y) and may override the batched helpers ``curve_matrix`` and
    ``derivative_tables`` for speed; the defaults just loop.
    """

    d: int
    derivative_mode: str = "analytic"

    def value(self, x: float, y: np.ndarray) -> float:
        raise NotImplementedError

    def dx(self, x: float, y: np.ndarray) -> float:
        raise NotImplementedError

    def grad_y(self, x: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_y(self, x: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def curve_matrix(self, xs: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Evaluate g on a grid for a batch of factors: out[k, j] = g(xs[k], Y[j])."""
        xs = np.asarray(xs, dtype=float)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        out = np.empty((xs.shape[0], Y.shape[0]))
        for k, x in enumerate(xs):
            for j in range(Y.shape[0]):
                out[k, j] = self.value(float(x), Y[j])
        return out

    def curve(self, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return self.curve_matrix(np.asarray(xs, dtype=float), y[None, :])[:, 0]

    def derivative_tables(
        self, xs: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dx g, grad_y g, hess_y g) stacked over the grid.

        Returns arrays of shapes (K,), (K, d) and (K, d, d).
        """
        xs = np.asarray(xs, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        K = xs.shape[0]
        dxg = np.empty(K)
        grads = np.empty((K, self.d))
        hesses = np.empty((K, self.d, self.d))
        for k, x in enumerate(xs):
            dxg[k] = self.dx(float(x), y)
            grads[k] = self.grad_y(float(x), y)
            hesses[k] = self.hess_y(float(x), y)
        return dxg, grads, hesses

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

    def value(self, x, y):
        a = self.factor_map.value(np.atleast_1d(y))
        return qe_eval(self.c, x) + float(
            sum(qe_eval(f, x) * a[k] for k, f in enumerate(self.u)))

    def dx(self, x, y):
        a = self.factor_map.value(np.atleast_1d(y))
        return qe_eval(self._dc, x) + float(
            sum(qe_eval(f, x) * a[k] for k, f in enumerate(self._du)))

    def grad_y(self, x, y):
        return self.derivative_tables(np.array([float(x)]), y)[1][0]

    def hess_y(self, x, y):
        return self.derivative_tables(np.array([float(x)]), y)[2][0]

    def curve_matrix(self, xs, Y):
        # pricing grids shift with the valuation time: evaluate, never cache
        xs = np.asarray(xs, dtype=float)
        U = np.stack([f.eval_grid(xs) for f in self.u], axis=1)
        A = self.factor_map.value(np.atleast_2d(np.asarray(Y, dtype=float)))
        return self.c.eval_grid(xs)[:, None] + U @ A.T

    def derivative_tables(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        dc_vals, U, dU = self._basis(xs)
        dA, d2A = self.factor_map.derivatives(y)
        hesses = np.zeros(U.shape + (self.d,))
        diag = np.arange(self.d)
        hesses[:, diag, diag] = U * d2A
        return dc_vals + dU @ self.factor_map.value(y), U * dA, hesses

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

    @staticmethod
    def _z(x, y):
        return (1.0 - y) / np.sqrt(1.0 + x)

    def value(self, x, y):
        y0 = float(np.atleast_1d(y)[0])
        return float(norm_cdf(self._z(x, y0)))

    def dx(self, x, y):
        y0 = float(np.atleast_1d(y)[0])
        z = self._z(x, y0)
        return float(-(1.0 - y0) / (2.0 * (1.0 + x) ** 1.5) * norm_pdf(z))

    def grad_y(self, x, y):
        y0 = float(np.atleast_1d(y)[0])
        z = self._z(x, y0)
        return np.array([-norm_pdf(z) / np.sqrt(1.0 + x)])

    def hess_y(self, x, y):
        y0 = float(np.atleast_1d(y)[0])
        z = self._z(x, y0)
        return np.array([[-z * norm_pdf(z) / (1.0 + x)]])

    def curve_matrix(self, xs, Y):
        xs = np.asarray(xs, dtype=float)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        z = (1.0 - Y[:, 0][None, :]) / np.sqrt(1.0 + xs)[:, None]
        return norm_cdf(z)

    def derivative_tables(self, xs, y):
        xs = np.asarray(xs, dtype=float)
        y0 = float(np.atleast_1d(y)[0])
        s = np.sqrt(1.0 + xs)
        z = (1.0 - y0) / s
        pdf = norm_pdf(z)
        dxg = -(1.0 - y0) / (2.0 * s**3) * pdf
        grads = (-pdf / s)[:, None]
        hesses = (-z * pdf / (1.0 + xs))[:, None, None]
        return dxg, grads, hesses

    def to_dict(self) -> dict:
        return {"type": "gaussian-example"}


class NumericCurveFamily(CurveFamily):
    """Closure-backed family with finite-difference derivatives.

    ``fn(x, y) -> float`` defines the curve; first derivatives use central
    differences with ``first_step`` (one-sided at the x = 0 boundary) and
    second derivatives use ``second_step``. Cross-checks against analytic
    derivatives do not apply here: the finite differences *are* the
    definition, so ``derivative_mode`` is "finite-difference".
    """

    derivative_mode = "finite-difference"

    def __init__(self, fn: Callable[[float, np.ndarray], float], d: int,
                 first_step: float = FD_FIRST_STEP,
                 second_step: float = FD_SECOND_STEP):
        self.fn = fn
        self.d = int(d)
        self.h1 = float(first_step)
        self.h2 = float(second_step)

    def value(self, x, y):
        return float(self.fn(float(x), np.atleast_1d(np.asarray(y, dtype=float))))

    def dx(self, x, y):
        h = self.h1
        if x >= h:
            return (self.value(x + h, y) - self.value(x - h, y)) / (2 * h)
        # one-sided second-order stencil inside the x >= 0 domain
        return (-3 * self.value(x, y) + 4 * self.value(x + h, y)
                - self.value(x + 2 * h, y)) / (2 * h)

    def grad_y(self, x, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        h = self.h1
        g = np.empty(self.d)
        for i in range(self.d):
            e = np.zeros(self.d)
            e[i] = h
            g[i] = (self.value(x, y + e) - self.value(x, y - e)) / (2 * h)
        return g

    def hess_y(self, x, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        h = self.h2
        H = np.empty((self.d, self.d))
        f0 = self.value(x, y)
        for i in range(self.d):
            ei = np.zeros(self.d)
            ei[i] = h
            H[i, i] = (self.value(x, y + ei) - 2 * f0 + self.value(x, y - ei)) / h**2
            for j in range(i + 1, self.d):
                ej = np.zeros(self.d)
                ej[j] = h
                H[i, j] = (self.value(x, y + ei + ej) - self.value(x, y + ei - ej)
                           - self.value(x, y - ei + ej) + self.value(x, y - ei - ej)
                           ) / (4 * h**2)
                H[j, i] = H[i, j]
        return H


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def eval_curve(model: CurveFamily, y: np.ndarray, grid) -> np.ndarray:
    """Evaluate the curve g(., y) on a sorted grid of maturities.

    Raises if any value comes out non-finite, naming the offending x.
    """
    xs = np.asarray(getattr(grid, "nodes", grid), dtype=float)
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

    Returns the maximum absolute discrepancy of (dx g, grad_y g, hess_y g)
    versus central-difference estimates over ``grid x {y}``. Only defined
    for analytic-mode families; finite-difference families skip the check
    by definition.
    """
    if model.derivative_mode != "analytic":
        raise ValueError("cross-check requires analytic derivatives; "
                         "finite-difference mode is its own definition")
    xs = np.asarray(getattr(grid, "nodes", grid), dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    probe = NumericCurveFamily(lambda x, yy: model.value(x, yy), model.d,
                               first_step=first_step, second_step=second_step)
    err = 0.0
    for x in xs:
        x = float(x)
        err = max(err, abs(model.dx(x, y) - probe.dx(x, y)))
        err = max(err, float(np.max(np.abs(model.grad_y(x, y) - probe.grad_y(x, y)))))
        err = max(err, float(np.max(np.abs(model.hess_y(x, y) - probe.hess_y(x, y)))))
    return err


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

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_estimate": self.tail_estimate,
            "total": self.total,
            "divergence_warning": self.divergence_warning,
        }


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
    if n_nodes < 100:
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


def builtin_models() -> dict[str, CurveFamily]:
    """The shipped model zoo.

    Every affine entry keeps its loading span closed under d/dx and its
    factor map invertible, so an exact risk-neutral drift exists for every
    constant diffusion matrix. The Gaussian example is the deliberate
    outlier.
    """
    zoo: dict[str, CurveFamily] = {}
    e1 = QEFunction.exponential(-1.0)
    zoo["affine1-exp-identity"] = AffineModel(
        c=QEFunction.constant(0.0), u=[e1], factor_map=IdentityMap(1))
    zoo["affine1-exp-expmap"] = AffineModel(
        c=QEFunction.constant(0.0), u=[e1], factor_map=ExpMinusOneMap(1))
    zoo["affine2-identity"] = AffineModel(
        c=QEFunction.exponential(-1.0),
        u=[QEFunction.exponential(-1.0), QEFunction.exponential(-2.0)],
        factor_map=IdentityMap(2))
    zoo["affine2-oscillator"] = AffineModel(
        c=QEFunction.constant(0.0),
        u=[QEFunction.from_poly_trig([(-0.5, 1.0, [1.0], [0.0])]),
           QEFunction.from_poly_trig([(-0.5, 1.0, [0.0], [1.0])])],
        factor_map=IdentityMap(2))
    zoo["affine3-cubic"] = AffineModel(
        c=QEFunction.constant(0.0),
        u=[QEFunction.exponential(-1.0), QEFunction.exponential(-2.0),
           QEFunction.exponential(-3.0)],
        factor_map=ComponentwiseCubicMap(
            linear=[1.0, 1.0, 1.0], cubic=[0.1, 0.1, 0.1]))
    zoo["gaussian-example"] = GaussianExampleModel()
    return zoo


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
        zoo = builtin_models()
        if name not in zoo:
            raise ValueError(
                f"unknown builtin model {name!r}; available: {sorted(zoo)}")
        return zoo[name]
    kind = data.get("type")
    if kind == "gaussian-example":
        _reject_unknown(data, {"type"}, "gaussian model")
        return GaussianExampleModel()
    if kind == "affine":
        return AffineModel.from_dict(data)
    raise ValueError(f"unknown model type: {kind!r}")
