"""Independent reference computations for the benchmark's output checks.

Curves are rebuilt from their JSON specification: quasi-exponential
functions are evaluated as ``c . expm(A x) b`` straight through
``scipy.linalg.expm``, factor maps from their closed forms, and the Gaussian
example family from ``Phi((1 - y) / sqrt(1 + x))``. None of this goes
through the library's own curve or drift code, so a check compares the
library with a second implementation of the same mathematics.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtri

import fdcurves as fd


def model_spec(spec: dict) -> dict:
    """Full JSON form of a model: built-in references are expanded."""
    if "builtin" in spec:
        return fd.builtin_models()[spec["builtin"]].to_dict()
    return spec


class FactorMapOracle:
    """A(y), A'(y) and A''(y) of a componentwise factor map, per component."""

    def __init__(self, amap: dict, d: int):
        self.exp = amap["tag"] == "exp-minus-one"
        if amap["tag"] == "identity":
            self.lin, self.quad, self.cub = np.ones(d), np.zeros(d), np.zeros(d)
        elif amap["tag"] == "componentwise-cubic":
            self.lin = np.asarray(amap["linear"], dtype=float)
            self.quad = np.asarray(amap.get("quadratic", np.zeros(d)), dtype=float)
            self.cub = np.asarray(amap.get("cubic", np.zeros(d)), dtype=float)
        elif not self.exp:
            raise ValueError(f"no oracle for factor map {amap['tag']!r}")

    def value(self, Y: np.ndarray) -> np.ndarray:
        if self.exp:
            return np.exp(Y) - 1.0
        return self.lin * Y + self.quad * Y**2 + self.cub * Y**3

    def first(self, Y: np.ndarray) -> np.ndarray:
        if self.exp:
            return np.exp(Y)
        return self.lin + 2.0 * self.quad * Y + 3.0 * self.cub * Y**2

    def second(self, Y: np.ndarray) -> np.ndarray:
        if self.exp:
            return np.exp(Y)
        return 2.0 * self.quad + 6.0 * self.cub * Y


def _qe_values(qe: dict, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f(xs), f'(xs)) of a QE function given as {"A", "b", "c"}."""
    A = np.atleast_2d(np.asarray(qe["A"], dtype=float))
    b = np.asarray(qe["b"], dtype=float)
    c = np.asarray(qe["c"], dtype=float)
    states = np.array([expm(A * x) @ b for x in xs])
    return states @ c, states @ (A.T @ c)


class CurveOracle:
    """Closed-form (dx g, grad_y g, hess_y g) of a model on a fixed grid."""

    def __init__(self, spec: dict, xs: np.ndarray):
        spec = model_spec(spec)
        self.xs = np.asarray(xs, dtype=float)
        self.gaussian = spec.get("type") == "gaussian-example"
        if self.gaussian:
            self.d = 1
            return
        self.d = len(spec["u"])
        self.amap = FactorMapOracle(spec["amap"], self.d)
        _, self.dc = _qe_values(spec["c"], self.xs)
        pairs = [_qe_values(u, self.xs) for u in spec["u"]]
        self.U = np.stack([p[0] for p in pairs], axis=1)   # (K, d)
        self.dU = np.stack([p[1] for p in pairs], axis=1)  # (K, d)

    def tables(self, y: np.ndarray):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.gaussian:
            s = np.sqrt(1.0 + self.xs)
            z = (1.0 - y[0]) / s
            pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
            dxg = -(1.0 - y[0]) / (2.0 * s**3) * pdf
            return dxg, (-pdf / s)[:, None], (-z * pdf / (1.0 + self.xs))[:, None, None]
        dxg = self.dc + self.dU @ self.amap.value(y)
        grads = self.U * self.amap.first(y)
        hesses = np.zeros((self.xs.shape[0], self.d, self.d))
        idx = np.arange(self.d)
        hesses[:, idx, idx] = self.U * self.amap.second(y)
        return dxg, grads, hesses

    def drift_residual(self, y: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
        """max_x |dx g - grad_y g . b - 1/2 sum_ij weights[i,j] hess_y g[i,j]|."""
        dxg, grads, hesses = self.tables(y)
        r = dxg - grads @ b - 0.5 * np.einsum("ij,kij->k", weights, hesses)
        return float(np.max(np.abs(r)))

    def probe_residual(self, y: np.ndarray, eta: np.ndarray, gamma: np.ndarray) -> float:
        """Worst grid residual of hess g = grad g . eta and dx g = grad g . gamma."""
        dxg, grads, hesses = self.tables(y)
        hess_res = np.max(np.abs(hesses - np.einsum("km,ijm->kij", grads, eta)))
        return float(max(hess_res, np.max(np.abs(dxg - grads @ gamma))))


def martingale_z(spec: dict, paths: np.ndarray, horizon: float,
                 window: tuple[float, float]) -> float:
    """z-score of F(T, Y_T) - F(0, Y_0) with exactly integrated window averages.

    For an affine family the delivery-period price is
    ``cbar(t) + sum_k ubar_k(t) A_k(Y_t)``; the window averages come from
    ``qe_integral`` over [T1 - t, T2 - t], not from quadrature.
    """
    spec = model_spec(spec)
    T1, T2 = window
    amap = FactorMapOracle(spec["amap"], len(spec["u"]))
    qes = [fd.QEFunction.from_dict(spec["c"])] + [fd.QEFunction.from_dict(u) for u in spec["u"]]

    def price(t: float, Y: np.ndarray) -> np.ndarray:
        avg = np.array([fd.qe_integral(f, T1 - t, T2 - t) for f in qes]) / (T2 - T1)
        return avg[0] + amap.value(Y) @ avg[1:]

    total = price(horizon, paths[:, -1]) - price(0.0, paths[:, 0])
    return float(np.mean(total) / (np.std(total, ddof=1) / np.sqrt(total.shape[0])))


def euler_paths(y0, sigma, drift, dt: float, n_steps: int, n_paths: int,
                seed: int) -> np.ndarray:
    """Euler-Maruyama with the documented per-path Philox inverse-CDF normals."""
    y0 = np.asarray(y0, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    d = y0.shape[0]
    z = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        u = np.random.Generator(np.random.Philox(key=[seed, p])).random((n_steps, d))
        z[p] = ndtri(np.maximum(u, 1e-300))
    out = np.empty((n_paths, n_steps + 1, d))
    out[:, 0] = y0
    for k in range(n_steps):
        y = out[:, k]
        out[:, k + 1] = y + drift(y) * dt + np.sqrt(dt) * z[:, k] @ sigma.T
    return out


def realised_covariation(paths: np.ndarray, horizon: float) -> np.ndarray:
    inc = np.diff(paths, axis=1).reshape(-1, paths.shape[2])
    return inc.T @ inc / (paths.shape[0] * horizon)

