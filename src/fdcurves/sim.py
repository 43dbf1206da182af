"""Factor simulation, delivery-period pricing and statistical verification.

The factor process follows dY = b(Y) dt + sigma dW and is discretised by
Euler-Maruyama with a fixed step. Randomness comes from one counter-based
Philox stream per path, keyed by (seed, path index), with normal variates
drawn through the inverse CDF -- so path sets are reproducible bit for bit
on any platform and independent of execution order.

Delivery-period futures prices average the instantaneous curve over the
delivery window,

    F_t(T1, T2) = 1/(T2 - T1) * int_T1^T2 g(u - t, Y_t) du,

evaluated by composite Simpson quadrature. Under the risk-neutral drift
these prices are local martingales, which :func:`martingale_test` checks
with a Monte Carlo z-score on terminal-minus-initial increments. The loop
closes with :func:`estimate_vol` (realised covariation of the factor
increments) and :func:`scc_loop`, which re-estimates the diffusion matrix
from simulated data and asks whether the curve family still admits a
risk-neutral drift for it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .families import AffineModel, CurveFamily, _simpson_weights
from .noarb import (RANK_TOL, DriftSolveResult, _diffusion_weights, _grid_nodes,
                    solve_drift)
from .qe import _reject_unknown

PATHSET_MAGIC = b"FDCURVEPATHSET01"  # exactly 16 bytes
DEFAULT_N_QUAD = 129  # Simpson nodes per delivery window; 65 misses 1e-10 on slow decays


class SimulationError(RuntimeError):
    """A path produced a non-finite drift or state."""


@dataclass(frozen=True)
class SdeSpec:
    """Factor dynamics dY = drift(Y) dt + sigma dW started at y0.

    ``drift`` maps a batch of states (n, d) to (n, d), row by row; it is
    called once per step on all paths.
    """

    d: int
    drift: Callable[[np.ndarray], np.ndarray]
    sigma: np.ndarray
    y0: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if sigma.shape != (self.d, self.d):
            raise ValueError(f"sigma must be ({self.d}, {self.d}), got {sigma.shape}")
        if y0.shape != (self.d,):
            raise ValueError(f"y0 must have shape ({self.d},), got {y0.shape}")
        if not (np.isfinite(sigma).all() and np.isfinite(y0).all()):
            raise ValueError("sigma and y0 must be finite")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class PathSet:
    """Simulated factor paths on a uniform time grid.

    ``paths`` has shape (n_paths, n_times, d), n_times >= 2, with
    ``paths[:, 0] == y0``. Identical (spec, dt, T, n_paths, seed) reproduce
    the same array bit for bit; the seed is carried along for provenance.
    """

    times: np.ndarray
    paths: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        paths = np.asarray(self.paths, dtype=float)
        if times.ndim != 1 or paths.ndim != 3 or paths.shape[1] != times.shape[0]:
            raise ValueError("times (n_times,) and paths (n_paths, n_times, d) "
                             "must be consistent")
        if times.shape[0] < 2:
            raise ValueError(
                f"a path set needs at least 2 times, got n_times={times.shape[0]}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_times(self) -> int:
        return self.paths.shape[1]

    @property
    def d(self) -> int:
        return self.paths.shape[2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def save(self, path) -> None:
        """Binary layout: 16-byte magic, u64 (n_paths, n_times, d), f64 (dt,
        horizon), u64 seed, then the path array as little-endian float64."""
        header = PATHSET_MAGIC + struct.pack(
            "<QQQddQ", self.n_paths, self.n_times, self.d,
            self.dt, self.horizon, self.seed)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(self.paths, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> PathSet:
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:16] != PATHSET_MAGIC:
            raise ValueError("not a path-set file (bad magic header)")
        n_paths, n_times, d, dt, horizon, seed = struct.unpack_from("<QQQddQ", raw, 16)
        offset = 16 + struct.calcsize("<QQQddQ")
        expected = n_paths * n_times * d
        data = np.frombuffer(raw, dtype="<f8", offset=offset)
        if data.shape[0] != expected:
            raise ValueError(f"payload has {data.shape[0]} floats, expected {expected}")
        times = dt * np.arange(n_times)
        if n_times > 1 and abs(times[-1] - horizon) > 1e-9 * max(1.0, abs(horizon)):
            raise ValueError("header horizon inconsistent with dt and n_times")
        return cls(times=times,
                   paths=data.reshape(n_paths, n_times, d).copy(),
                   seed=int(seed))

    def export_csv(self, path) -> None:
        """Long-format CSV with columns path, time, y_1..y_d."""
        cols = ",".join(f"y_{i + 1}" for i in range(self.d))
        with open(path, "w", newline="") as fh:
            fh.write(f"path,time,{cols}\n")
            for p in range(self.n_paths):
                for k in range(self.n_times):
                    vals = ",".join(repr(float(v)) for v in self.paths[p, k])
                    fh.write(f"{p},{float(self.times[k])!r},{vals}\n")


@dataclass(frozen=True)
class FuturesSpec:
    """Delivery window (T1, T2) in years, 0 < T1 < T2."""

    T1: float
    T2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.T1 < self.T2):
            raise ValueError(f"need 0 < T1 < T2, got T1={self.T1}, T2={self.T2}")

    def to_dict(self) -> dict:
        return {"T1": self.T1, "T2": self.T2}

    @classmethod
    def from_dict(cls, data: dict) -> FuturesSpec:
        _reject_unknown(data, {"T1", "T2"}, "futures")
        return cls(T1=float(data["T1"]), T2=float(data["T2"]))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _normals(seed: int, path_index: int, n_steps: int, d: int) -> np.ndarray:
    # One Philox substream per path: key = (seed, path index). Inverse-CDF
    # normals keep the stream identical across platforms.
    gen = np.random.Generator(np.random.Philox(key=[seed, path_index]))
    u = gen.random((n_steps, d))
    return ndtri(np.maximum(u, 1e-300))


def simulate(spec: SdeSpec, dt: float, T: float, n_paths: int, seed: int) -> PathSet:
    """Euler-Maruyama paths Y_{k+1} = Y_k + drift(Y_k) dt + sigma sqrt(dt) Z_k.

    Parameters
    ----------
    spec : SdeSpec
        Dynamics; the drift is called on all paths at once.
    dt, T : float
        Step and horizon; the number of steps is round(T / dt) >= 1.
    n_paths : int
        Path count, >= 1.
    seed : int
        Base seed; path p consumes the Philox stream keyed (seed, p), so
        enlarging n_paths never changes existing paths.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {T} shorter than one step {dt}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    d = spec.d
    z = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        z[p] = _normals(seed, p, n_steps, d)

    paths = np.empty((n_paths, n_steps + 1, d))
    paths[:, 0] = spec.y0
    y = np.tile(spec.y0, (n_paths, 1))
    sqrt_dt = np.sqrt(dt)
    sigma_t = spec.sigma.T
    for k in range(n_steps):
        mu = np.asarray(spec.drift(y), dtype=float)
        if mu.shape != y.shape:
            raise ValueError(f"drift must map a batch (n_paths, d) = {y.shape} "
                             f"to the same shape, got {mu.shape}")
        finite = np.isfinite(mu).all(axis=1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise SimulationError(
                f"drift returned non-finite values on path {bad} at t={k * dt:.6g}")
        y = y + mu * dt + (z[:, k] @ sigma_t) * sqrt_dt
        paths[:, k + 1] = y
    return PathSet(times=dt * np.arange(n_steps + 1), paths=paths, seed=int(seed))


# ---------------------------------------------------------------------------
# Futures pricing and the martingale test
# ---------------------------------------------------------------------------


def futures_price(model: CurveFamily, y: np.ndarray, t: float,
                  fs: FuturesSpec, n_quad: int = DEFAULT_N_QUAD) -> float:
    """Delivery-period price 1/(T2-T1) * int_T1^T2 g(u - t, y) du at time t."""
    if t > fs.T1:
        raise ValueError(f"contract in delivery: t={t} > T1={fs.T1}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(_futures_prices_batch(model, y[None, :], t, fs, n_quad)[0])


def _futures_prices_batch(model: CurveFamily, Y: np.ndarray, t: float,
                          fs: FuturesSpec, n_quad: int) -> np.ndarray:
    us, w = _simpson_weights(fs.T1, fs.T2, n_quad)
    return (w @ model.curve_matrix(us - t, Y)) / (fs.T2 - fs.T1)


@dataclass(frozen=True)
class MartingaleTestResult:
    """Monte Carlo drift statistics of the futures price along the paths."""

    drift_estimate: float
    std_error: float
    z_score: float
    max_abs_increment: float
    n_paths: int

    def to_dict(self) -> dict:
        return {
            "drift_estimate": self.drift_estimate,
            "std_error": self.std_error,
            "z_score": self.z_score,
            "max_abs_increment": self.max_abs_increment,
            "n_paths": self.n_paths,
        }


def martingale_test(model: CurveFamily, ps: PathSet, fs: FuturesSpec,
                    n_quad: int = DEFAULT_N_QUAD) -> MartingaleTestResult:
    """Check that futures prices have no systematic drift along the paths.

    Prices F(t_k, Y_k) are evaluated at every sample time; the statistic is
    the cross-path mean of the terminal-minus-initial change divided by its
    standard error. Under the risk-neutral drift the z-score is standard
    normal; a misspecified drift shows up as |z| far outside [-3, 3].
    """
    if ps.horizon > fs.T1 + 1e-12:
        raise ValueError(
            f"path horizon {ps.horizon} exceeds delivery start T1={fs.T1}")
    n_times = ps.n_times
    prices = np.empty((ps.n_paths, n_times))
    for k in range(n_times):
        prices[:, k] = _futures_prices_batch(
            model, ps.paths[:, k, :], float(ps.times[k]), fs, n_quad)
    increments = np.diff(prices, axis=1)
    total = prices[:, -1] - prices[:, 0]
    drift_estimate = float(np.mean(total))
    if ps.n_paths > 1:
        std_error = float(np.std(total, ddof=1) / np.sqrt(ps.n_paths))
    else:
        std_error = 0.0
    if std_error > 0.0:
        z = drift_estimate / std_error
    else:
        z = 0.0 if drift_estimate == 0.0 else float("inf") * np.sign(drift_estimate)
    return MartingaleTestResult(
        drift_estimate=drift_estimate, std_error=std_error, z_score=float(z),
        max_abs_increment=float(np.max(np.abs(increments))) if increments.size else 0.0,
        n_paths=ps.n_paths)


# ---------------------------------------------------------------------------
# Volatility estimation and the statistical consistency loop
# ---------------------------------------------------------------------------


def estimate_vol(ps: PathSet) -> np.ndarray:
    """Realised covariation sum_k dY_k dY_k^T / T, averaged across paths.

    An estimator of sigma sigma^T; insensitive to any bounded drift as the
    step shrinks. Requires at least 100 increments in total.
    """
    increments = np.diff(ps.paths, axis=1)
    n_inc = increments.shape[0] * increments.shape[1]
    if n_inc < 100:
        raise ValueError(f"need at least 100 increments, got {n_inc}")
    cov = np.einsum("pki,pkj->ij", increments, increments)
    return cov / (ps.n_paths * ps.horizon)


def nearest_psd_factor(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """A factor S with S S^T equal to `matrix` projected onto the PSD cone.

    Uses Cholesky when the matrix is already positive definite; otherwise
    clips negative eigenvalues to zero and returns the symmetric
    eigen-factor, flagging the projection.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    m = 0.5 * (m + m.T)
    try:
        return np.linalg.cholesky(m), False
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(m)
        vals = np.clip(vals, 0.0, None)
        return vecs @ np.diag(np.sqrt(vals)), True


@dataclass(frozen=True)
class SccLoopReport:
    """Outcome of estimating volatility from paths and re-solving the drift.

    The verdict is positive when every sampled state admits a drift with
    residual at or below ``tol`` for the estimated (or overridden)
    diffusion factor. ``y_box`` bounds the sampled states: the verdict
    certifies nothing outside that box. ``max_drift_norm`` tracks local
    boundedness of the solved drifts over the box.
    """

    sigma_sq_hat: np.ndarray
    sigma_factor: np.ndarray
    psd_projected: bool
    y_samples: np.ndarray
    per_state: list[DriftSolveResult] = field(repr=False)
    max_residual: float = 0.0
    max_drift_norm: float = 0.0
    y_box: tuple[np.ndarray, np.ndarray] = (None, None)
    tol: float = 1e-6
    verdict: bool = False
    any_rank_deficient: bool = False

    def to_dict(self) -> dict:
        lo, hi = self.y_box
        return {
            "sigma_sq_hat": np.asarray(self.sigma_sq_hat).tolist(),
            "sigma_factor": np.asarray(self.sigma_factor).tolist(),
            "psd_projected": self.psd_projected,
            "max_residual": self.max_residual,
            "max_drift_norm": self.max_drift_norm,
            "y_box": [np.asarray(lo).tolist(), np.asarray(hi).tolist()],
            "tol": self.tol,
            "verdict": self.verdict,
            "any_rank_deficient": self.any_rank_deficient,
            "per_state": [r.to_dict() for r in self.per_state],
        }


def scc_loop(model: CurveFamily, observed: PathSet, grid,
             sigma_override: np.ndarray | None = None,
             n_y_samples: int = 32, tol: float = 1e-6) -> SccLoopReport:
    """Estimate the diffusion from data, then demand a risk-neutral drift.

    This is the estimation loop that motivates the consistency probes: fit
    sigma sigma^T by realised covariation, factor it, and re-solve the
    drift at states visited by the paths. A family with affine structure
    passes for any estimate; a family without it fails as soon as the
    estimate wanders off the one diffusion value it can support.

    ``sigma_override`` replaces the estimated factor with a prescribed
    matrix (useful for stress-testing a perturbed estimate).
    """
    if sigma_override is not None:
        factor = np.atleast_2d(np.asarray(sigma_override, dtype=float))
        sigma_sq = factor @ factor.T
        projected = False
    else:
        sigma_sq = estimate_vol(observed)
        factor, projected = nearest_psd_factor(sigma_sq)

    flat = observed.paths.reshape(-1, observed.d)
    idx = np.unique(np.linspace(0, flat.shape[0] - 1, n_y_samples).round().astype(int))
    samples = flat[idx]
    per_state = [solve_drift(model, yk, factor, grid) for yk in samples]
    max_res = max(r.residual_rms for r in per_state)
    max_b = max(float(np.linalg.norm(r.b)) for r in per_state)
    any_bad_rank = any(not r.rank_ok for r in per_state)
    return SccLoopReport(
        sigma_sq_hat=sigma_sq, sigma_factor=factor, psd_projected=projected,
        y_samples=samples, per_state=per_state,
        max_residual=float(max_res), max_drift_norm=max_b,
        y_box=(flat.min(axis=0), flat.max(axis=0)),
        tol=float(tol), verdict=bool(max_res <= tol and not any_bad_rank),
        any_rank_deficient=any_bad_rank)


# ---------------------------------------------------------------------------
# Risk-neutral drift
# ---------------------------------------------------------------------------


class RiskNeutralDrift:
    """y -> b(y), the drift that makes ``model`` risk neutral under ``sigma``.

    Maps a state (d,) to (d,) or a batch (n, d) to (n, d), row by row, and
    equals the least-squares drift of :func:`solve_drift` at every state.
    For an affine model whose loadings U have full column rank on the grid,
    grad_y g = U diag(A'(y)) and U^+ U = I give the closed form

        b(y) = (p + Q A(y) - 1/2 A''(y) * diag(W)) / A'(y),
        p = U^+ c',  Q = U^+ U',  W = the trace term's diffusion weights,

    with p and Q computed once here; it is non-finite where A'(y) = 0. Every
    other model is solved state by state.
    """

    def __init__(self, model: CurveFamily, sigma: np.ndarray, grid):
        self.model = model
        self.sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        self.grid = grid
        self._rows = self._solved
        if isinstance(model, AffineModel):
            dc, U, dU = model._basis(_grid_nodes(grid))
            pq, _, rank, _ = np.linalg.lstsq(U, np.column_stack([dc, dU]),
                                             rcond=RANK_TOL)
            if rank == model.d:
                self._p, self._q = pq[:, 0], pq[:, 1:]
                self._half_w = 0.5 * np.diag(_diffusion_weights(self.sigma))
                self._rows = self._closed_form

    def _closed_form(self, Y: np.ndarray) -> np.ndarray:
        fm = self.model.factor_map
        dA, d2A = fm.derivatives(Y)
        # a row-local sum, not a matmul, so a row never depends on the batch
        qa = (fm.value(Y)[:, None, :] * self._q).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self._p + qa - d2A * self._half_w) / dA

    def _solved(self, Y: np.ndarray) -> np.ndarray:
        return np.stack([solve_drift(self.model, y, self.sigma, self.grid).b
                         for y in Y])

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = self._rows(np.atleast_2d(y))
        return out[0] if y.ndim == 1 else out


# Alias kept only for the benchmark tracer (perfbench/spans.py), which
# wraps sim.LatticeDrift.__call__.
LatticeDrift = RiskNeutralDrift


def rn_drift(model: CurveFamily, sigma: np.ndarray, grid) -> RiskNeutralDrift:
    """The model's risk-neutral drift for `sigma`, as a batched callable."""
    return RiskNeutralDrift(model, sigma, grid)


def corollary_split(model: AffineModel, y: np.ndarray, t: float,
                    fs: FuturesSpec, n_quad: int = DEFAULT_N_QUAD) -> float:
    """Futures price of an affine model through its transformed factor.

    Averages the intercept and loading curves over the delivery window
    separately and contracts with z = A(y): algebraically identical to
    :func:`futures_price`, which makes the transformed factor an observable
    affine state.
    """
    us, w = _simpson_weights(fs.T1, fs.T2, n_quad)
    xs = us - t
    length = fs.T2 - fs.T1
    c_avg = float(w @ model.c.eval_grid(xs)) / length
    u_avg = np.array([float(w @ f.eval_grid(xs)) for f in model.u]) / length
    z = model.factor_map.value(np.atleast_1d(np.asarray(y, dtype=float)))
    return c_avg + float(u_avg @ z)
