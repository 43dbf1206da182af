"""Quasi-exponential functions in matrix-exponential form.

A quasi-exponential (QE) function is a finite sum of terms

    e^(a*x) * [p(x)*cos(w*x) + q(x)*sin(w*x)]

with real polynomials p, q. Every such function can be written canonically
as ``f(x) = c . (exp(A*x) @ b)`` for a square matrix ``A`` and vectors
``b, c``; equivalently, it is one component of the solution of a constant
coefficient linear ODE system. This module stores QE functions only in the
``(c, A, b)`` form and provides exact evaluation, differentiation and
integration on top of it, plus a least-squares fit that recovers the ODE
generator from samples of a vector-valued trajectory.

All objects are immutable after construction and all operations are pure
functions, so everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import numbers
import operator
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterable, Sequence

import numpy as np


class MatrixExponentialOverflowError(ArithmeticError):
    """exp(M*x) left the representable double-precision range."""


def _section(data, name: str, required=(), optional=()) -> dict:
    """A scenario section: a JSON object with every key in ``required`` and
    no key outside ``required`` and ``optional``, else a ValueError naming
    ``name``, such as ``sim`` or ``model.amap``. Returns ``data``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, got {data!r}")
    unknown = data.keys() - {*required, *optional}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise ValueError(f"{name} is missing required key {key!r}")
    return data


def _sections(value, name: str) -> list:
    """A list of scenario sections, such as ``futures``, each read with :func:`_section`."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of objects, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """An exact integer: 1.5 or true is a ValueError naming ``name``, such as
    the scenario field ``sim.seed``, never truncated to 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    """A real number: true, "3" or an integer past the double range is a ValueError
    naming ``name``, such as the scenario field ``sim.dt``, never read as 1.0 or 3.0."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} must be within the double range, got {value!r}") from None
    raise ValueError(f"{name} must be a number, got {value!r}")


def _numbers(value, name: str, ndim: int) -> np.ndarray:
    """A scenario array such as the field ``sigma`` as a float array of rank
    ``ndim``, leading axes of length 1 added as by ``np.atleast_2d``. A true,
    "3", NaN or infinite entry, an integer past the double range, a ragged
    array or one of higher rank is a ValueError naming ``name``."""
    pending = [value]
    while pending:
        v = pending.pop()
        if type(v) is not float:  # JSON's usual entry skips the slower checks
            if isinstance(v, (list, tuple)):
                pending.extend(reversed(v))  # entries in order: the first bad one is named
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} entries must be numbers, got {v!r}")
        if not -sys.float_info.max <= v <= sys.float_info.max:  # exact for ints, false for NaN
            raise ValueError(f"{name} entries must be finite, got {v!r}")
    try:
        array = np.array(value, dtype=float, ndmin=ndim)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{name} must be a rectangular array, got {value!r}") from None
    if array.ndim > ndim:
        raise ValueError(f"{name} must be an array of rank <= {ndim}, got rank {array.ndim}")
    return array


def _built(name: str, make, *args):
    """``make(*args)``, its ValueError prefixed with the scenario section ``name``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _plain(value):
    """The JSON form of a result: a dataclass is the dict of its fields in
    field order, containers recurse and numpy values go through ``tolist``.
    Result dataclasses set ``to_dict = _plain``."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def mat_exp(matrix: np.ndarray, x) -> np.ndarray:
    """Matrix exponential exp(matrix * x), for one scale factor or a stack.

    Delegates to scipy's scaling-and-squaring Pade-13 implementation, which
    holds relative accuracy well below 1e-12 for ``||matrix * x|| <= 50``.
    A 1-d ``x`` goes to scipy as one (K, n, n) stack whose slices equal the
    scalar calls bit for bit. A 1x1 matrix takes ``np.exp``, which is what
    scipy's ``expm`` returns for it, so scipy is imported only for n >= 2.
    An exponential that overflows the double range raises instead of
    returning silent infinities.

    Parameters
    ----------
    matrix : (n, n) array_like
        Real square matrix.
    x : float or (K,) array_like
        Scale factor(s) (typically times-to-maturity).

    Returns
    -------
    (n, n) ndarray for a scalar ``x``, (K, n, n) ndarray for a 1-d ``x``
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"scale factors must be a scalar or 1-d, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError(f"scale factor must be finite, got {xs[~np.isfinite(xs)][0]}")
    scaled = m * x if xs.ndim == 0 else m[None] * xs[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if m.shape == (1, 1):
            result = np.exp(scaled)
        else:
            from scipy.linalg import expm  # deferred: importing scipy triples start-up
            result = expm(scaled)
    if not np.isfinite(result).all():
        raise MatrixExponentialOverflowError(
            f"exp(M*x) overflowed for ||M*x||_inf = "
            f"{np.abs(scaled).sum(axis=-1).max():.3g}"
        )
    return result


@dataclass(frozen=True)
class QEFunction:
    """A quasi-exponential function f(x) = c . (exp(A*x) @ b).

    Attributes
    ----------
    A : (n, n) ndarray
        ODE generator; units are 1 / time-to-maturity.
    b : (n,) ndarray
        Initial state of the underlying linear ODE.
    c : (n,) ndarray
        Readout vector.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise ValueError("state dimension must be >= 1")
        if b.shape != (n,) or c.shape != (n,):
            raise ValueError(
                f"b and c must have shape ({n},), got {b.shape} and {c.shape}"
            )
        for name, arr in (("A", A), ("b", b), ("c", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "A", _as_readonly(A))
        object.__setattr__(self, "b", _as_readonly(b))
        object.__setattr__(self, "c", _as_readonly(c))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __call__(self, x: float) -> float:
        return qe_eval(self, x)

    def eval_grid(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate on an array of points x >= 0 (shape kept) with one stacked
        matrix exponential; each value equals ``c @ (mat_exp(A, x) @ b)``
        bit for bit."""
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        if np.any(flat < 0):
            raise ValueError(f"time-to-maturity must be >= 0, got {flat[flat < 0][0]}")
        if self.n == 1:
            # elementwise, about 5x cheaper than two stacked 1x1 matmuls; the
            # + 0.0 terms are the matmuls' zero-started sums, so -0.0 reads
            # out as +0.0 exactly as in c @ (e @ b)
            e = mat_exp(self.A, flat)[:, 0, 0]
            return ((e * self.b[0] + 0.0) * self.c[0] + 0.0).reshape(xs.shape)
        states = mat_exp(self.A, flat) @ self.b
        # row-wise readout sums like the one-state c @ state; (K, n) @ (n,) may not
        return np.matmul(states[:, None, :], self.c).reshape(xs.shape)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> QEFunction:
        return cls(A=np.zeros((1, 1)), b=np.ones(1), c=np.array([float(value)]))

    @classmethod
    def exponential(cls, rate: float, scale: float = 1.0) -> QEFunction:
        """scale * e^(rate*x)."""
        return cls(A=np.array([[float(rate)]]), b=np.ones(1), c=np.array([float(scale)]))

    @classmethod
    def from_poly_trig(
        cls, terms: Iterable[tuple[float, float, Sequence[float], Sequence[float]]]
    ) -> QEFunction:
        """Build the (c, A, b) form from polynomial-trigonometric terms.

        Each term is ``(alpha, omega, p, q)`` representing
        ``e^(alpha*x) * (p(x)*cos(omega*x) + q(x)*sin(omega*x))`` with
        polynomial coefficients ``p, q`` in increasing-degree order. A term
        of degree deg becomes one companion block: deg + 1 copies of
        R = [alpha] (omega == 0) or [[alpha, -omega], [omega, alpha]] on
        the diagonal and identity couplings below, so state block k is
        x^k/k! e^(alpha*x), rotated by omega*x, and reads out through
        (p_k k!, q_k k!). The blocks of the terms are direct summed.
        """
        parts = []
        for alpha, omega, p, q in terms:
            p = np.atleast_1d(np.asarray(p, dtype=float))
            q = np.atleast_1d(np.asarray(q, dtype=float))
            if omega == 0.0:
                if np.any(q != 0.0):
                    raise ValueError("sine coefficients require omega != 0")
                R, coef = np.array([[alpha]], dtype=float), p[None]
            else:
                m = max(len(p), len(q))
                R = np.array([[alpha, -omega], [omega, alpha]], dtype=float)
                coef = np.stack([np.pad(p, (0, m - len(p))), np.pad(q, (0, m - len(q)))])
            if coef.size == 0:
                raise ValueError("every term needs at least one coefficient")
            parts.append((R, coef))
        if not parts:
            raise ValueError("at least one term is required")
        n = sum(coef.size for _, coef in parts)
        # filled block by block: np.kron would write 0 * -omega = -0.0 into A
        A, b, c = np.zeros((n, n)), np.zeros(n), np.zeros(n)
        pos = 0
        for R, coef in parts:
            r, m = coef.shape
            idx = np.arange(pos, pos + coef.size).reshape(m, r)  # block k is idx[k]
            A[idx[:, :, None], idx[:, None, :]] = R
            A[idx[1:], idx[:-1]] = 1.0
            b[pos], c[idx] = 1.0, (coef * np.cumprod([1.0, *range(1, m)])).T
            pos += coef.size
        return cls(A=A, b=b, c=c)

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> QEFunction:
        return _qe_from_dict(data, "QEFunction")


def _qe_from_dict(data, name: str) -> QEFunction:
    """A QE function from its JSON form; errors name ``name``, such as ``model.c``."""
    _section(data, name, ("A", "b", "c"), ("n",))
    f = _built(name, QEFunction, _numbers(data["A"], f"{name}.A", 2),
               _numbers(data["b"], f"{name}.b", 1), _numbers(data["c"], f"{name}.c", 1))
    if "n" in data and _integer(data["n"], "declared n") != f.n:
        raise ValueError(f"declared n={data['n']} does not match A shape {f.A.shape}")
    return f


def qe_eval(f: QEFunction, x: float) -> float:
    """Evaluate f at time-to-maturity x >= 0: one node of ``eval_grid``."""
    return float(f.eval_grid(np.array([x], dtype=float))[0])


def qe_derivative(f: QEFunction) -> QEFunction:
    """Exact derivative; same generator and state, readout becomes A^T c."""
    return QEFunction(A=f.A, b=f.b, c=f.A.T @ f.c)


def qe_integral(f: QEFunction, x0: float, x1: float) -> float:
    """Integrate f exactly over [x0, x1] via the augmented generator.

    The block matrix ``[[A, b], [0, 0]]`` has the running integral of the
    state in the last column of its exponential, so no quadrature is needed
    and both endpoints take one stacked exponential:

        int_0^x f(z) dz = c . exp([[A, b], [0, 0]] * x)[:n, n]
    """
    if not (0 <= x0 <= x1):
        raise ValueError(f"need 0 <= x0 <= x1, got x0={x0}, x1={x1}")
    aug = np.block([[f.A, f.b[:, None]], [np.zeros((1, f.n + 1))]])
    top = mat_exp(aug, np.array([x1, x0], dtype=float))[:, :-1, -1]
    return float(f.c @ top[0]) - float(f.c @ top[1])


@dataclass(frozen=True)
class OdeFitResult:
    """Least-squares generator fit for v'(x) = B v(x).

    ``residual`` is the root-mean-square misfit over the interior sample
    points; ``rank_deficient`` flags a sample matrix whose numerical rank is
    below the state dimension (B is then the minimal-norm solution).
    """

    B: np.ndarray
    residual: float
    rank_deficient: bool = field(default=False)


def fit_linear_ode(samples: Sequence[tuple[float, np.ndarray]]) -> OdeFitResult:
    """Fit the constant generator of a linear ODE from trajectory samples.

    Parameters
    ----------
    samples : sequence of (x, v(x))
        Uniformly spaced samples of a d-dimensional trajectory. At least
        ``max(2*d, 3)`` samples are required (three for the central
        differences that estimate v').

    Returns
    -------
    OdeFitResult
        ``B`` minimising ``||v'(x) - B v(x)||`` over the interior points,
        with v' taken as second-order central differences.
    """
    xs = np.array([float(x) for x, _ in samples])
    V = np.array([np.atleast_1d(np.asarray(v, dtype=float)) for _, v in samples])
    if V.ndim != 2:
        raise ValueError("sample vectors must share one dimension")
    m, d = V.shape
    if m < max(2 * d, 3):
        raise ValueError(f"need at least {max(2 * d, 3)} samples, got {m}")
    if not (np.isfinite(xs).all() and np.isfinite(V).all()):
        raise ValueError("samples contain non-finite values")
    steps = np.diff(xs)
    h = steps.mean()
    if h <= 0 or np.any(np.abs(steps - h) > 1e-8 * max(abs(h), 1.0)):
        raise ValueError("samples must lie on a uniform, increasing grid")

    dV = (V[2:] - V[:-2]) / (2.0 * h)  # central differences, interior points
    Vi = V[1:-1]
    Bt, _, rank, sv = np.linalg.lstsq(Vi, dV, rcond=1e-10)
    misfit = Vi @ Bt - dV
    residual = float(np.sqrt(np.mean(misfit**2)))
    return OdeFitResult(B=_as_readonly(Bt.T), residual=residual,
                        rank_deficient=bool(rank < d))
