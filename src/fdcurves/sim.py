"""Factor simulation, delivery-period pricing and statistical verification.

The factor process follows dY = b(Y) dt + sigma dW and is discretised by
Euler-Maruyama with a fixed step. Randomness comes from one counter-based
Philox stream per path, keyed exactly by the 128-bit key (seed, path index)
for a seed in [0, 2**64), with normal variates drawn through the inverse
CDF -- so path sets are reproducible bit for bit on any platform and
independent of execution order. One bit generator is re-keyed per path.

Delivery-period futures prices average the instantaneous curve over the
delivery window,

    F_t(T1, T2) = 1/(T2 - T1) * int_T1^T2 g(u - t, Y_t) du,

evaluated by composite Simpson quadrature on N_QUAD = 129 fixed nodes. An
affine family prices as F_t = cbar(t) + sum_k ubar_k(t) A_k(Y_t), with its
intercept and loadings averaged over the window. Under the risk-neutral drift
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

from .families import AffineModel, CurveFamily, _grid_nodes, _simpson_weights
from .noarb import (RANK_TOL, DriftSolveResult, _covariance, _drift_stack,
                    _solve_drift_cov)
from .qe import _integer, _plain, _reject_unknown

PATHSET_MAGIC = b"FDCURVEPATHSET01"  # exactly 16 bytes
N_QUAD = 129  # Simpson nodes per delivery window; 65 misses 1e-10 on slow decays
# time slices martingale_test prices per factor-map evaluation; chunks sized
# by a 65,536-state budget ran slower and raised peak RSS
_CHUNK = 32
# states per stacked drift solve of a non-affine family: on 2000 states no
# larger stack was faster (d = 1 and d = 3), and a drift call peaks at
# 0.6 MB (d = 1) to 1.4 MB (d = 3) under tracemalloc
_DRIFT_CHUNK = 256


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

    ``paths`` has shape (n_paths, n_times, d), n_paths >= 1, n_times >= 2,
    with ``paths[:, 0] == y0``. Identical (spec, dt, T, n_paths, seed)
    reproduce the same array bit for bit; the seed is kept for provenance.
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
        if paths.shape[0] < 1:
            raise ValueError(
                f"a path set needs at least 1 path, got n_paths={paths.shape[0]}")
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
        offset = 16 + struct.calcsize("<QQQddQ")
        if len(raw) < offset:
            raise ValueError(
                f"path-set file has {len(raw)} bytes, its header needs {offset}")
        n_paths, n_times, d, dt, horizon, seed = struct.unpack_from("<QQQddQ", raw, 16)
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
        times = [repr(t) for t in self.times.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write(f"path,time,{cols}\n")
            for p in range(self.n_paths):
                fh.write("".join(f"{p},{t},{','.join(map(repr, row))}\n"
                                 for t, row in zip(times, self.paths[p].tolist())))


@dataclass(frozen=True)
class FuturesSpec:
    """Delivery window (T1, T2) in years, 0 < T1 < T2."""

    T1: float
    T2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.T1 < self.T2):
            raise ValueError(f"need 0 < T1 < T2, got T1={self.T1}, T2={self.T2}")

    to_dict = _plain

    @classmethod
    def from_dict(cls, data: dict) -> FuturesSpec:
        _reject_unknown(data, {"T1", "T2"}, "futures")
        return cls(T1=float(data["T1"]), T2=float(data["T2"]))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _normals(seed: int, n_paths: int, n_steps: int, d: int) -> np.ndarray:
    """Standard normals (n_paths, n_steps, d); path p reads the Philox stream
    keyed (seed, p) from counter 0, through the inverse CDF so the stream is
    identical across platforms."""
    from scipy.special import ndtri  # deferred: importing scipy triples start-up

    # one generator, re-keyed per path through its state: constructing a
    # Philox runs a SeedSequence (and reads OS entropy) even given a key
    bg = np.random.Philox()
    gen = np.random.Generator(bg)
    state = bg.state
    key = state["state"]["key"]
    key[0] = seed
    u = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        key[1] = p
        bg.state = state
        gen.random(out=u[p])
    return ndtri(np.maximum(u, 1e-300, out=u), out=u)


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
        Base seed, an integer in [0, 2**64) (the u64 that ``PathSet.save``
        stores). Path p consumes the Philox stream keyed exactly by
        (seed, p), so enlarging n_paths never changes existing paths.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {T} shorter than one step {dt}")
    if _integer(n_paths, "n_paths") < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    try:
        key = _integer(seed, "seed")
    except ValueError:
        key = -1
    if not 0 <= key < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    d = spec.d
    z = _normals(key, n_paths, n_steps, d)

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
        if not np.isfinite(mu).all():
            bad = int(np.flatnonzero(~np.isfinite(mu).all(axis=1))[0])
            raise SimulationError(
                f"drift returned non-finite values on path {bad} at t={k * dt:.6g}")
        y = y + mu * dt + (z[:, k] @ sigma_t) * sqrt_dt
        paths[:, k + 1] = y
    return PathSet(times=dt * np.arange(n_steps + 1), paths=paths, seed=key)


# ---------------------------------------------------------------------------
# Futures pricing and the martingale test
# ---------------------------------------------------------------------------


def _window_pricer(model: CurveFamily, ts: np.ndarray,
                   fs: FuturesSpec) -> Callable[[np.ndarray, slice], np.ndarray]:
    """price(Y, rows): the prices (n, k) of the states Y (n, k, d) at the
    times ts[rows], by Simpson on N_QUAD nodes over the delivery window.

    An affine family averages c and each u_k over the window once here, for
    every time in ts, and each call evaluates A(Y) alone; any other family
    builds its curves on the window's nodes. Every sum is row-local, so a
    price never depends on the block it was computed in.
    """
    us, w = _simpson_weights(fs.T1, fs.T2, N_QUAD)
    xs, length = us[None, :] - ts[:, None], fs.T2 - fs.T1
    if isinstance(model, AffineModel):
        c_avg = (model.c.eval_grid(xs) * w).sum(axis=-1) / length
        u_avg = np.stack([(f.eval_grid(xs) * w).sum(axis=-1) for f in model.u],
                         axis=-1) / length
        return lambda Y, rows: (c_avg[rows]
                                + (model.factor_map.value(Y) * u_avg[rows]).sum(axis=-1))
    return lambda Y, rows: np.stack(
        [(np.ascontiguousarray(model.curve_matrix(x, Y[:, j]).T) * w).sum(axis=1)
         for j, x in enumerate(xs[rows])], axis=1) / length


def futures_price(model: CurveFamily, y: np.ndarray, t: float,
                  fs: FuturesSpec) -> float:
    """Delivery-period price 1/(T2-T1) * int_T1^T2 g(u - t, y) du at time t,
    by Simpson on N_QUAD nodes (affine families: cbar(t) + ubar(t) . A(y))."""
    if t > fs.T1:
        raise ValueError(f"contract in delivery: t={t} > T1={fs.T1}")
    price = _window_pricer(model, np.array([float(t)]), fs)
    return float(price(np.asarray(y, float).reshape(1, 1, -1), slice(None))[0, 0])


@dataclass(frozen=True)
class MartingaleTestResult:
    """Monte Carlo drift statistics of the futures price along the paths."""

    drift_estimate: float
    std_error: float
    z_score: float
    max_abs_increment: float
    n_paths: int

    to_dict = _plain


def martingale_test(model: CurveFamily, ps: PathSet,
                    fs: FuturesSpec) -> MartingaleTestResult:
    """Check that futures prices have no systematic drift along the paths.

    Prices F(t_k, Y_k) are those of :func:`futures_price`, bit for bit, at
    every sample time: one window pricer serves the whole call and prices
    ``_CHUNK`` times at once, so an affine family averages its intercept
    and loadings once per call and builds no curve. The statistic is the
    cross-path mean of the terminal-minus-initial change divided by its
    standard error. Under the risk-neutral drift the z-score is standard
    normal; a misspecified drift shows up as |z| far outside [-3, 3].
    """
    if ps.horizon > fs.T1 + 1e-12:
        raise ValueError(
            f"path horizon {ps.horizon} exceeds delivery start T1={fs.T1}")
    price = _window_pricer(model, ps.times, fs)
    # stream the slices in chunks: keep the last price column and each
    # path's max |increment|, never the (n_paths, n_times) price matrix
    max_inc = np.zeros(ps.n_paths)
    for k in range(0, ps.n_times, _CHUNK):
        rows = slice(k, k + _CHUNK)
        block = price(ps.paths[:, rows], rows)
        if k == 0:
            first = prev = block[:, 0]
        steps = np.diff(block, axis=1, prepend=prev[:, None])
        np.maximum(max_inc, np.abs(steps).max(axis=1), out=max_inc)
        prev = block[:, -1]
    total = prev - first
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
        max_abs_increment=float(np.max(max_inc)),
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


def nearest_psd(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """(a, projected): the symmetric part of `matrix`, projected onto the
    PSD cone by clipping negative eigenvalues to zero when it has any."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    if np.all(vals >= 0.0):
        return m, False
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T, True


@dataclass(frozen=True)
class SccLoopReport:
    """Outcome of estimating volatility from paths and re-solving the drift.

    ``covariance`` is the matrix every drift solve read: the estimate
    ``sigma_sq_hat`` projected onto the PSD cone (``psd_projected`` says
    whether that moved it) or the override's covariance. The verdict is
    positive when every sampled state admits a drift with residual at or
    below ``tol`` for it. ``y_box`` bounds the sampled states: the verdict
    certifies nothing outside that box. ``y_samples`` are the states the
    drift was re-solved at; ``to_dict`` carries them. ``max_drift_norm``
    tracks local boundedness of the solved drifts over the box.
    """

    sigma_sq_hat: np.ndarray
    covariance: np.ndarray
    psd_projected: bool
    y_samples: np.ndarray
    per_state: list[DriftSolveResult] = field(repr=False)
    max_residual: float = 0.0
    max_drift_norm: float = 0.0
    y_box: tuple[np.ndarray, np.ndarray] = (None, None)
    tol: float = 1e-6
    verdict: bool = False
    any_rank_deficient: bool = False

    to_dict = _plain


def scc_loop(model: CurveFamily, observed: PathSet, grid,
             sigma_override: np.ndarray | None = None,
             n_y_samples: int = 32, tol: float = 1e-6) -> SccLoopReport:
    """Estimate the diffusion from data, then demand a risk-neutral drift.

    This is the estimation loop that motivates the consistency probes:
    estimate the covariance a = sigma sigma^T by realised covariation,
    project it onto the PSD cone, and re-solve the drift for it at states
    visited by the paths, all in one stacked solve whose rows equal
    :func:`solve_drift` at each state. A family with affine structure
    passes for any estimate; a family without it fails as soon as the
    estimate wanders off the one diffusion value it can support. NaN fails
    the verdict.

    ``sigma_override`` replaces the estimate with the covariance of a
    prescribed sigma (useful for stress-testing a perturbed estimate).
    ``n_y_samples``, an integer >= 1, caps the number of sampled states.
    """
    if _integer(n_y_samples, "n_y_samples") < 1:
        raise ValueError(f"n_y_samples must be >= 1, got {n_y_samples}")
    if sigma_override is not None:
        sigma_sq = cov = _covariance(sigma_override)
        projected = False
    else:
        sigma_sq = estimate_vol(observed)
        cov, projected = nearest_psd(sigma_sq)

    flat = observed.paths.reshape(-1, observed.d)
    idx = np.unique(np.linspace(0, flat.shape[0] - 1, n_y_samples).round().astype(int))
    samples = flat[idx]
    per_state = _solve_drift_cov(model, samples, cov, grid)
    max_res = float(np.max([r.residual_rms for r in per_state]))
    max_b = float(np.max([np.linalg.norm(r.b) for r in per_state]))
    any_bad_rank = any(not r.rank_ok for r in per_state)
    # the box from axis-1 reductions of the transposed copy: their inner
    # loop runs over all states, not over the d columns of one state
    cols = np.ascontiguousarray(flat.T)
    return SccLoopReport(
        sigma_sq_hat=sigma_sq, covariance=cov, psd_projected=projected,
        y_samples=samples, per_state=per_state,
        max_residual=max_res, max_drift_norm=max_b,
        y_box=(cols.min(axis=1), cols.max(axis=1)),
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
    grad_y g = U diag(A'(y)), U^+ U = I and a = sigma sigma^T give

        b(y) = (p + Q A(y) - 1/2 A''(y) * diag(a)) / A'(y),
        p = U^+ c',  Q = U^+ U',

    with p and Q computed once here; it is non-finite where A'(y) = 0. Every
    other model is solved in stacks of ``_DRIFT_CHUNK`` states, one table
    evaluation and one stacked projection per stack; a row does not depend
    on the stack it was solved in.
    """

    def __init__(self, model: CurveFamily, sigma: np.ndarray, grid):
        self.model = model
        self.cov = _covariance(sigma)
        self.grid = grid
        self._rows = self._solved
        if isinstance(model, AffineModel):
            dc, U, dU = model._basis(_grid_nodes(grid))
            pq, _, rank, _ = np.linalg.lstsq(U, np.column_stack([dc, dU]),
                                             rcond=RANK_TOL)
            if rank == model.d:
                # (d, 1) columns: the closed form runs component-major
                self._p, self._q = pq[:, :1], pq[:, 1:]
                self._half_a = 0.5 * np.diag(self.cov)[:, None]
                self._rows = self._closed_form

    def _closed_form(self, Y: np.ndarray) -> np.ndarray:
        A, dA, d2A = (a.T for a in self.model.factor_map.jet(Y))
        # Q A(y) as a row-local sum in j order, not a matmul, so a row never
        # depends on the batch
        qa = self._q[:, :1] * A[0]
        for j in range(1, A.shape[0]):
            qa += self._q[:, j:j + 1] * A[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            return ((self._p + qa - d2A * self._half_a) / dA).T

    def _solved(self, Y: np.ndarray) -> np.ndarray:
        out = np.empty(Y.shape)
        for k in range(0, Y.shape[0], _DRIFT_CHUNK):
            rows = slice(k, k + _DRIFT_CHUNK)
            out[rows] = _drift_stack(self.model, Y[rows], self.cov, self.grid)[0]
        return out

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
