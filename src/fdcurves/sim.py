"""Factor simulation, delivery-period pricing and statistical verification.

The factor process follows dY = b(Y) dt + sigma dW and is discretised by
Euler-Maruyama with a fixed step. Randomness comes from one counter-based
Philox stream per path, keyed exactly by the 128-bit key (seed, path index)
for a seed in [0, 2**64), with normal variates drawn through the inverse
CDF -- so path sets are reproducible bit for bit on any platform and
independent of execution order. One bit generator is re-keyed per path.
The inverse CDF is Cephes ndtri: :func:`_ndtri`, a NumPy port equal to
``scipy.special.ndtri`` bit for bit, for a process's first _PORT_BUDGET
normals, so that a small simulation need not import scipy, and scipy's
ufunc, about 6x faster per normal, after that.

Delivery-period futures prices average the instantaneous curve over the
delivery window,

    F_t(T1, T2) = 1/(T2 - T1) * int_T1^T2 g(u - t, Y_t) du,

evaluated by composite Simpson quadrature on N_QUAD = 129 fixed nodes. An
affine family prices as F_t = cbar(t) + sum_k ubar_k(t) A_k(Y_t), each
average read out of one window-integrated QE state. Under the risk-neutral
drift these prices are local martingales, which :func:`martingale_test`
checks with a Monte Carlo z-score on terminal-minus-initial increments.
The loop closes with :func:`estimate_vol` (realised covariation) and
:func:`scc_loop`, which re-estimates the diffusion matrix from simulated
data and asks whether the curve family still admits a risk-neutral drift.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .families import (AffineModel, CurveFamily, IdentityMap, _finite, _grid_nodes,
                       _simpson_weights, _states)
from .noarb import (DriftSolveResult, _covariance, _drift_stack, _project,
                    _solve_drift_cov)
from .qe import (MatrixExponentialOverflowError, _integer, _number, _plain, _section,
                 mat_exp)

PATHSET_MAGIC = b"FDCURVEPATHSET01"  # exactly 16 bytes
N_QUAD = 129  # Simpson nodes per delivery window; 65 misses 1e-10 on slow decays
# states per stacked drift solve of a non-affine family: on 2000 states no
# larger stack was faster (d = 1 and d = 3), and a drift call peaks at
# 0.6 MB (d = 1) to 1.4 MB (d = 3) under tracemalloc
_DRIFT_CHUNK = 256
# normal rows per block of the Euler noise at d >= 2, whose temporaries hold
# (d + 2) * d * _NOISE_ROWS floats (256 KB at d = 2): at 200 x 100, d = 2,
# 2**12 rows ran as fast as 2**14 (82 against 85 us, 2-core x86-64 VM)
_NOISE_ROWS = 2**12


class SimulationError(RuntimeError):
    """A path produced a non-finite drift."""


@dataclass(frozen=True)
class SdeSpec:
    """Factor dynamics dY = drift(Y) dt + sigma dW started at y0.

    ``d`` is an integer >= 1. ``drift`` maps a batch of states (n, d) to
    (n, d), row by row. In :func:`simulate` it is called once per step on
    all paths, each time with a fresh C-contiguous float array (n_paths, d)
    that it may keep or overwrite (only the Euler step writes the state),
    and must return that shape; a closed-form :class:`RiskNeutralDrift` is
    evaluated on its component-major core instead, with the same bits and
    the same errors.
    """

    d: int
    drift: Callable[[np.ndarray], np.ndarray]
    sigma: np.ndarray
    y0: np.ndarray

    def __post_init__(self) -> None:
        d = _integer(self.d, "d")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        object.__setattr__(self, "d", d)
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
    """Simulated factor paths on a time grid.

    ``paths`` has shape (n_paths, n_times, d), n_paths >= 1, n_times >= 2,
    with ``paths[:, 0] == y0``; a non-finite state is a ValueError naming
    its path and time index. Identical (spec, dt, T, n_paths, seed)
    reproduce the same array bit for bit; the seed is kept for provenance.
    ``times`` may be any finite increasing grid, but only the uniform grid
    dt * arange(n_times) of :func:`simulate` can be saved.
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
        bad = ~np.isfinite(times)
        bad[1:] |= ~(times[1:] > times[:-1])
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            at = f"times[{k}] = {float(times[k])!r}"
            raise ValueError("times must be finite and increasing, got " + (
                f"{at} after times[{k - 1}] = {float(times[k - 1])!r}" if k else at))
        # min and max keep a NaN, and make no temporary of the paths' size
        if not (math.isfinite(paths.min()) and math.isfinite(paths.max())):
            p, k = np.argwhere(~np.isfinite(paths).all(axis=2))[0]
            raise ValueError(f"path {p} is non-finite at times[{k}] = "
                             f"{float(times[k])!r}: y={paths[p, k].tolist()}")
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
        horizon), u64 seed, then the path array as little-endian float64.

        The header stores no times, so :meth:`load` rebuilds them as
        dt * arange(n_times): the grid must be exactly that, uniform from 0
        (as :func:`simulate` and :meth:`load` make it), or a ValueError
        names the first time that differs and no file is written.
        """
        grid = self.dt * np.arange(self.n_times)
        off = np.flatnonzero(self.times != grid)
        if off.size:
            k = int(off[0])
            raise ValueError(
                f"a path set saves only the grid dt * arange(n_times) from 0: "
                f"times[{k}] = {self.times[k]!r}, not {grid[k]!r} (dt={self.dt!r})")
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
        if not 0.0 < dt < math.inf:
            raise ValueError(f"path-set header dt must be positive and finite, got {dt}")
        times = dt * np.arange(n_times)
        if n_times > 1 and not abs(times[-1] - horizon) <= 1e-9 * max(1.0, abs(horizon)):
            raise ValueError(f"header horizon {horizon} inconsistent with dt={dt} "
                             f"and n_times={n_times}")
        return cls(times=times,
                   paths=data.reshape(n_paths, n_times, d).copy(),
                   seed=int(seed))


@dataclass(frozen=True)
class FuturesSpec:
    """Delivery window (T1, T2) in years, 0 < T1 < T2 < inf."""

    T1: float
    T2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.T1 < self.T2 < np.inf):
            raise ValueError(f"need 0 < T1 < T2 < inf, got T1={self.T1}, T2={self.T2}")

    to_dict = _plain

    @classmethod
    def from_dict(cls, data: dict) -> FuturesSpec:
        _section(data, "futures", ("T1", "T2"))
        return cls(T1=_number(data["T1"], "futures.T1"),
                   T2=_number(data["T2"], "futures.T2"))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


# Cephes ndtri, the algorithm of scipy.special.ndtri, highest degree first.
# central region, exp(-2) < y < 1 - exp(-2), s = y - 1/2:
#   x = sqrt(2 pi) (s + s (s^2 P0(s^2) / Q0(s^2)))
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, z = sqrt(-2 log y) in [2, 8): x = -(z - log(z) / z - (1/z) P1(1/z) / Q1(1/z))
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# far tails, z >= 8, that is y <= exp(-32)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242E0
# uniforms per in-place block of _ndtri: its temporaries stay near 1 MB
_NDTRI_BLOCK = 2**14
# Normals a process draws through _ndtri before it imports scipy.special for
# the rest, a ski-rental rule: the import is paid once the port has cost about
# as much. On a 2-core x86-64 VM (Python 3.11, numpy 2.4.6, scipy 1.17.1) a
# `from scipy.special import ndtri` after `import fdcurves.cli` took
# 0.17-0.32 s in fresh processes, and _ndtri ran 73-94 ns per normal slower
# than scipy's ufunc (blocks of 2**14 to 2**21 normals, about 90 against 15),
# so the import pays for itself after 1.8-4.4e6 normals; the low end rounded
# down to a power of two. Both routes give the same bits: the rule moves no
# output.
_PORT_BUDGET = 2**20
_drawn = 0  # normals drawn by this process so far


def _polevl(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """Cephes polevl (monic: p1evl, leading 1 implied) in its operation
    order, a = a * x + c with no fused multiply-add."""
    a = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        a *= x
        a += c
    return a


def _libm_log(x: np.ndarray) -> np.ndarray:
    # the C library's log, which scipy's compiled ndtri calls: np.log is
    # numpy's own SIMD log and differs from it in the last bit
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri_block(y: np.ndarray) -> None:
    upper = y > 1.0 - _EXP_M2
    np.subtract(1.0, y, out=y, where=upper)
    tail = np.flatnonzero(y <= _EXP_M2)
    t, upper = y[tail], upper[tail]
    # the central formula on the whole block is cheaper than gathering the
    # central values; the tail entries it computes are overwritten below
    s = y - 0.5
    s2 = s * s
    s += s * (s2 * _polevl(s2, _P0) / _polevl(s2, _Q0, True))
    np.multiply(s, _S2PI, out=y)

    x = np.sqrt(-2.0 * _libm_log(t))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1, True)
    far = x >= 8.0
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, True)
    x = x0 - x1
    np.negative(x, out=x, where=~upper)
    y[tail] = x


def _ndtri(u: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri(u) bit for bit for u in (0, 1), computed in place
    in the float64 C-contiguous array ``u``, which is returned.

    A NumPy port of Cephes ndtri with its branch points, coefficients and
    operation order; both tail logs go through the C library's log, as in
    scipy. Blocks of _NDTRI_BLOCK values bound the temporaries. It has no
    special-value branch: :func:`_normals` passes u in [1e-300, 1).
    """
    flat = u.reshape(-1)
    for k in range(0, flat.size, _NDTRI_BLOCK):
        _ndtri_block(flat[k:k + _NDTRI_BLOCK])
    return u


def _normals(seed: int, n_paths: int, n_steps: int, d: int) -> np.ndarray:
    """Standard normals (n_paths, n_steps, d); path p reads the Philox stream
    keyed (seed, p) from counter 0, through the inverse CDF so the stream is
    identical across platforms.

    The inverse CDF is _ndtri while this process has drawn at most
    _PORT_BUDGET normals and has not imported scipy.special, and
    scipy.special.ndtri after that; the two agree bit for bit.
    """
    global _drawn
    # one generator, re-keyed per path through its state: constructing a
    # Philox runs a SeedSequence (and reads OS entropy) even given a key.
    # The state holds plain Python ints, not numpy's uint64 arrays: the
    # setter takes them in about half the time
    bg = np.random.Philox()
    gen = np.random.Generator(bg)
    state = bg.state
    state["buffer"] = state["buffer"].tolist()
    state["state"] = {name: v.tolist() for name, v in state["state"].items()}
    key = state["state"]["key"]
    key[0] = seed
    u = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        key[1] = p
        bg.state = state
        gen.random(out=u[p])
    np.maximum(u, 1e-300, out=u)
    _drawn += u.size
    if _drawn <= _PORT_BUDGET and "scipy.special" not in sys.modules:
        return _ndtri(u)
    from scipy.special import ndtri  # deferred: importing scipy triples start-up

    return ndtri(u, out=u)


def _noise(z: np.ndarray, sigma: np.ndarray, sqrt_dt: float) -> np.ndarray:
    """The Euler noise (sum_j z_j sigma_ij, summed in j order) * sqrt_dt of
    the normals z (..., d), written into z, which is returned.

    Each entry is a sum over its own row alone and no BLAS routine runs, so
    a row's bits depend neither on how many rows there are nor on the BLAS
    library. For d >= 2 the rows go _NOISE_ROWS at a time: one same-shape
    product with row i of sigma tiled over the block gives every z_j
    sigma_ij, and the j sum reads them back per row.
    """
    d = sigma.shape[0]
    if d == 1:  # one product per entry, in place, with no temporaries
        z *= sigma[0, 0]
        z *= sqrt_dt
        return z
    flat = z.reshape(-1)
    size = min(_NOISE_ROWS, flat.size // d) * d
    tiled = np.tile(sigma, size // d)  # (d, size): row i is sigma[i] repeated
    prod = np.empty(size)
    acc = np.empty((size // d, d))
    for k in range(0, flat.size, size):
        block = flat[k:k + size]
        n = block.size
        terms, out = prod[:n].reshape(-1, d), acc[:n // d]
        for i in range(d):
            np.multiply(block, tiled[i, :n], out=prod[:n])
            np.add(terms[:, 0], terms[:, 1], out=out[:, i])
            for j in range(2, d):
                out[:, i] += terms[:, j]
        np.multiply(out, sqrt_dt, out=block.reshape(-1, d))
    return z


def simulate(spec: SdeSpec, dt: float, T: float, n_paths: int, seed: int) -> PathSet:
    """Euler-Maruyama paths Y_{k+1} = Y_k + drift(Y_k) dt + sigma sqrt(dt) Z_k.

    Parameters
    ----------
    spec : SdeSpec
        Dynamics. The drift is called once per step on all paths, each
        time with a fresh C-contiguous float copy (n_paths, d) of the state,
        and must return that shape; a non-finite value raises
        SimulationError naming the first such path, and a non-finite state
        the :class:`PathSet`'s ValueError.
    dt, T : float
        Step and horizon; the number of steps is round(T / dt) >= 1.
    n_paths : int
        Path count, >= 1.
    seed : int
        Base seed, an integer in [0, 2**64) (the u64 that ``PathSet.save``
        stores). Path p consumes the Philox stream keyed exactly by
        (seed, p), so enlarging n_paths never changes existing paths.

    The noise sigma sqrt(dt) Z_k of every step is formed once, before the
    steps, in the normals' own buffer (see :func:`_noise`): each entry sums
    its own row in j order and no BLAS routine runs, so path p is the same
    bits whatever n_paths and whatever BLAS library. One loop steps every
    drift: step k writes the contiguous plane k + 1, (d, n_paths)
    component-major, of a step-major buffer, and one transposing copy
    writes the paths over the spent normals, drawn for one step more so
    that they have the paths' shape; beyond the normals and the step-major
    paths it holds O(n_paths d) floats. A closed-form
    :class:`RiskNeutralDrift` (``rn_drift`` of an affine model with
    full-rank loadings) is evaluated on its core, with the bits of calling
    it, inside one ``np.errstate`` silencing divide, invalid and overflow
    for the whole loop; it is checked for finiteness once, after the loop,
    with the errors of a per-step check. Every other drift is called as
    described above, under the caller's error state.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    steps = T / dt
    if not math.isfinite(steps):
        raise ValueError(f"T / dt must be finite, got T={T} and dt={dt}")
    n_steps = int(round(steps))
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
    # normals for one step more than are read, so that their buffer has the
    # paths' shape and later takes them; path p reads its own stream from
    # counter 0, so the spare row changes no other value
    noise = _noise(_normals(key, n_paths, n_steps + 1, d), spec.sigma, math.sqrt(dt))

    ys = np.empty((n_steps + 1, d, n_paths))
    ys[0] = spec.y0[:, None]
    drift = spec.drift
    # one loop for every drift, rows(y, arg) at the state y (d, n_paths);
    # only the closed form's numpy warnings are silenced, so any other
    # drift's surface as the caller has them set
    closed = type(drift) is RiskNeutralDrift and drift._consts is not None
    if closed:
        _states(ys[0].T, drift.model.d)  # the drift's own error for another width
        rows, arg, silenced = drift._cm_rows, _planes(drift._consts, n_paths), "ignore"
    else:
        rows, arg, silenced = _called, drift, None
    with np.errstate(divide=silenced, invalid=silenced, over=silenced):
        for k in range(n_steps):
            y, nxt = ys[k], ys[k + 1]
            mu = rows(y, arg)
            # a closed form is checked once, after the loop
            if not closed and not np.isfinite(mu).all():
                raise _drift_error(mu, k, dt)
            # y + mu dt + noise in that order, built in the step's own plane
            np.multiply(mu, dt, out=nxt)
            nxt += y
            nxt += noise[:, k].T
        # each step adds the state, so a non-finite entry stays non-finite
        # to the horizon, where one min and max find it; the drift is then
        # replayed from the step that made the first such state, for the
        # error of a per-step check (if it stays finite, the PathSet's own)
        if closed and not (math.isfinite(ys[-1].min()) and math.isfinite(ys[-1].max())):
            first = int(np.flatnonzero(~np.isfinite(ys).all(axis=(1, 2)))[0])
            for k in range(first - 1, n_steps):
                mu = rows(ys[k], arg)
                if not np.isfinite(mu).all():
                    raise _drift_error(mu, k, dt)
    paths = noise  # spent: the one transposing copy writes the paths over it
    np.copyto(paths, ys.transpose(2, 0, 1))
    return PathSet(times=dt * np.arange(n_steps + 1), paths=paths, seed=key)


def _drift_error(mu: np.ndarray, k: int, dt: float) -> SimulationError:
    """The error for the non-finite drift rows mu (d, n) of step k."""
    bad = int(np.flatnonzero(~np.isfinite(mu).all(axis=0))[0])
    return SimulationError(f"drift returned non-finite values on path {bad} at t={k * dt:.6g}")


def _called(y: np.ndarray, drift: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """drift at the component-major states y (d, n), as a (d, n) view; the
    drift gets a fresh C-contiguous (n, d) copy of y to keep or overwrite."""
    x = y.T.copy()
    mu = np.asarray(drift(x), dtype=float)
    if mu.shape != x.shape:
        raise ValueError(f"drift must map a batch (n_paths, d) = {x.shape} "
                         f"to the same shape, got {mu.shape}")
    return mu.T


# ---------------------------------------------------------------------------
# Futures pricing and the martingale test
# ---------------------------------------------------------------------------


def _window_prices(model: CurveFamily, Y: np.ndarray, ts: np.ndarray,
                   fs: FuturesSpec) -> np.ndarray:
    """The prices (n, k) of the states Y (n, k, d) at the k times ts <= T1,
    by Simpson on N_QUAD nodes over the delivery window.

    An affine family averages c and each u_k over the window, then
    evaluates A(Y) alone. A loading c e^(Ax) b at the node T1 + s_j is
    c e^(A(T1 - t)) e^(A s_j) b, so its window average is c e^(A(T1 - t)) W,
    W = sum_j (w_j / L) e^(A s_j) b: one mat_exp stack of (N_QUAD + k) n^2
    floats per loading. Other families build curves on the window's nodes,
    one ``curve_matrix`` call per time. Sums are row-local with no BLAS
    call: a price never depends on the other states or times.
    """
    us, w = _simpson_weights(fs.T1, fs.T2, N_QUAD)
    length = fs.T2 - fs.T1
    if isinstance(model, AffineModel):
        xs = np.concatenate([us - fs.T1, fs.T1 - ts])
        avg = np.empty((ts.shape[0], 1 + model.d))
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            for i, f in enumerate((model.c, *model.u)):
                e = mat_exp(f.A, xs)
                W = np.einsum("j,ji->i", w / length, (e[:N_QUAD] * f.b).sum(axis=-1))
                avg[:, i] = (e[N_QUAD:] * (f.c[:, None] * W)).sum(axis=(1, 2))
        if not np.isfinite(avg).all():
            raise MatrixExponentialOverflowError("a window average left the double range")
        return avg[:, 0] + (model.factor_map.value(Y) * avg[:, 1:]).sum(axis=-1)
    return np.stack([(model.curve_matrix(us - t, Y[:, j]) * w).sum(axis=1)
                     for j, t in enumerate(ts)], axis=1) / length


def futures_price(model: CurveFamily, y: np.ndarray, t: float,
                  fs: FuturesSpec) -> np.ndarray:
    """Delivery-period price 1/(T2-T1) * int_T1^T2 g(u - t, y) du at time t,
    by Simpson on N_QUAD nodes (affine families: cbar(t) + ubar(t) . A(y) by
    window states), for a state y (d,) or a stack y (..., d): prices of the
    batch shape of y. A price that is not finite is a ValueError naming the
    first such state, t and the window."""
    if not math.isfinite(t):
        raise ValueError(f"valuation time t must be finite, got {t}")
    if t > fs.T1:
        raise ValueError(f"contract in delivery: t={t} > T1={fs.T1}")
    y = _states(y, model.d)
    prices = _window_prices(model, y.reshape(-1, 1, model.d), np.array([float(t)]),
                            fs).reshape(y.shape[:-1])
    _finite(y, f"price at t={float(t)!r} in {_window(fs)}", prices)
    return prices[()]


def _window(fs: FuturesSpec) -> str:
    return f"the window [T1, T2]=[{fs.T1!r}, {fs.T2!r}]"


@dataclass(frozen=True)
class MartingaleTestResult:
    """Mean, standard error and z of the paths' terminal-minus-initial price change."""

    drift_estimate: float
    std_error: float
    z_score: float
    n_paths: int

    to_dict = _plain


def martingale_test(model: CurveFamily, ps: PathSet,
                    fs: FuturesSpec) -> MartingaleTestResult:
    """Check that futures prices have no systematic drift along the paths.

    The statistic is the cross-path mean of the terminal-minus-initial
    change F(t_N, Y_N) - F(t_0, Y_0) divided by its standard error, so
    only the first and the last sample slice are priced, both in one
    window-price call: prices are those of :func:`futures_price`, bit for
    bit, an affine family averages its intercept and loadings once, and the
    cost does not grow with the number of sample times. Under the
    risk-neutral drift the z-score is standard normal; a misspecified
    drift shows up as |z| far outside [-3, 3]. A non-finite price at
    either slice, or changes that leave the double range, are a ValueError
    naming the state or the window: the z-score is never NaN.
    """
    # the affine pricer reads the factor map directly, which would
    # broadcast states of another width
    _states(ps.paths, model.d)
    if ps.horizon > fs.T1 + 1e-12:
        raise ValueError(
            f"path horizon {ps.horizon} exceeds delivery start T1={fs.T1}")
    # a horizon within the 1e-12 tolerance past T1 is priced at T1, so the
    # window's nodes never fall before the valuation time
    ends = ps.paths[:, [0, -1]]
    prices = _window_prices(model, ends, np.minimum(ps.times[[0, -1]], fs.T1), fs)
    _finite(ends, "price in " + _window(fs), prices)
    with np.errstate(invalid="ignore", over="ignore"):  # raised below
        total = prices[:, 1] - prices[:, 0]
        drift_estimate = float(np.mean(total))
        std_error = (float(np.std(total, ddof=1) / np.sqrt(ps.n_paths))
                     if ps.n_paths > 1 else 0.0)
    if not np.isfinite([drift_estimate, std_error]).all():
        raise ValueError("price increments leave the double range in " + _window(fs))
    if std_error > 0.0:
        z = drift_estimate / std_error
    else:
        z = 0.0 if drift_estimate == 0.0 else float("inf") * np.sign(drift_estimate)
    return MartingaleTestResult(drift_estimate=drift_estimate, std_error=std_error,
                                z_score=float(z), n_paths=ps.n_paths)


# ---------------------------------------------------------------------------
# Volatility estimation and the statistical consistency loop
# ---------------------------------------------------------------------------


def estimate_vol(ps: PathSet) -> np.ndarray:
    """Realised covariation sum_k dY_k dY_k^T / (t_last - t_0), averaged
    across paths (Barndorff-Nielsen and Shephard, 2004).

    An estimator of sigma sigma^T; insensitive to any bounded drift as the
    step shrinks. Requires at least 100 increments in total. The divisor
    is the elapsed time, so the grid may start at any time. The
    increments are formed once, component-major, and each entry i <= j is
    one einsum inner product of two contiguous columns, written to [i, j]
    and [j, i]: the matrix is exactly symmetric, and no BLAS routine runs,
    so its bits do not depend on the BLAS thread count. An entry outside
    the double range is a ValueError naming its component's largest step.
    """
    n_paths, n_times, d = ps.paths.shape
    n_inc = n_paths * (n_times - 1)
    if n_inc < 100:
        raise ValueError(f"need at least 100 increments, got {n_inc}")
    by_component = ps.paths.transpose(2, 0, 1)
    inc = np.empty((d, n_paths, n_times - 1))
    with np.errstate(over="ignore"):  # raised below
        np.subtract(by_component[..., 1:], by_component[..., :-1], out=inc)
    cols = inc.reshape(d, n_inc)
    cov = np.empty((d, d))
    # not one einsum "ik,jk->ij": for d >= 2 it sums each entry in
    # sequence (1.4e-14 off math.fsum at 2000 x 501, d = 2, against 3.6e-16
    # here) and was slower at d = 6 and at 500 x 501 (2-core x86-64 VM)
    for i in range(d):
        for j in range(i, d):
            cov[i, j] = cov[j, i] = np.einsum("k,k->", cols[i], cols[j])
    cov /= n_paths * (ps.times[-1] - ps.times[0])
    if not np.isfinite(cov).all():
        i, j = np.argwhere(~np.isfinite(cov))[0]
        p, k = np.unravel_index(np.argmax(np.abs(inc[i])), inc[i].shape)
        raise ValueError(f"realised covariation [{i}, {j}] leaves the double range; its "
                         f"largest increment is on path {p} at times[{k + 1}]")
    return cov


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
    drift was re-solved at; ``to_dict`` carries them, and ``drift`` is the
    solve there, its fields led by the state axis. ``max_drift_norm``
    tracks local boundedness of the solved drifts over the box.
    """

    sigma_sq_hat: np.ndarray
    covariance: np.ndarray
    psd_projected: bool
    y_samples: np.ndarray
    drift: DriftSolveResult = field(repr=False)
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
    estimate wanders off the one diffusion value it can support. A
    non-finite covariation or residual is a ValueError naming where.

    ``sigma_override`` replaces the estimate with the covariance of a
    prescribed sigma (useful for stress-testing a perturbed estimate).
    ``n_y_samples``, an integer >= 1, caps the number of sampled states;
    ``tol`` is a finite number >= 0.
    """
    _states(observed.paths, model.d)
    if _integer(n_y_samples, "n_y_samples") < 1:
        raise ValueError(f"n_y_samples must be >= 1, got {n_y_samples}")
    # a NaN or negative tol would fail every state: a configuration error
    if not 0.0 <= _number(tol, "tol") < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if sigma_override is not None:
        sigma_sq = cov = _covariance(sigma_override, model.d)
        projected = False
    else:
        sigma_sq = estimate_vol(observed)
        cov, projected = nearest_psd(sigma_sq)

    flat = observed.paths.reshape(-1, observed.d)
    idx = np.unique(np.linspace(0, flat.shape[0] - 1, n_y_samples).round().astype(int))
    samples = flat[idx]
    drift = _solve_drift_cov(model, samples, cov, grid)
    max_res = float(np.max(drift.residual_rms))
    # each b_k . b_k as a (1, d) @ (d, 1) matmul: the dot that
    # np.linalg.norm(b_k) takes, bit for bit (a row sum is not)
    max_b = float(np.sqrt(np.matmul(drift.b[:, None, :], drift.b[:, :, None]).max()))
    any_bad_rank = not drift.rank_ok.all()
    # the box from axis-1 reductions of the transposed copy: their inner
    # loop runs over all states, not over the d columns of one state
    cols = np.ascontiguousarray(flat.T)
    return SccLoopReport(
        sigma_sq_hat=sigma_sq, covariance=cov, psd_projected=projected,
        y_samples=samples, drift=drift,
        max_residual=max_res, max_drift_norm=max_b,
        y_box=(cols.min(axis=1), cols.max(axis=1)),
        tol=float(tol), verdict=bool(max_res <= tol and not any_bad_rank),
        any_rank_deficient=any_bad_rank)


# ---------------------------------------------------------------------------
# Risk-neutral drift
# ---------------------------------------------------------------------------


class RiskNeutralDrift:
    """y -> b(y), the drift that makes ``model`` risk neutral under ``sigma``.

    Maps a state (d,) to (d,) or a stack (..., d) to (..., d), row by row,
    and equals the least-squares drift of :func:`solve_drift` at every
    state; a state whose last axis is not d is a ValueError naming d. For
    an affine model whose loadings U have full column rank on the grid,
    grad_y g = U diag(A'(y)), U^+ U = I and a = sigma sigma^T give

        b(y) = (p + Q A(y) - 1/2 A''(y) * diag(a)) / A'(y),
        p = U^+ c',  Q = U^+ U',

    with p, Q and the full-rank test from the projection of every drift
    solve, once here, where loadings that vanish on the grid raise
    DegenerateFamilyError; it is non-finite where A'(y) = 0. For the
    identity factor map it computes p + Q y, the formula's bits. The
    closed form runs component-major on m states, reading its constants --
    the d columns of Q, p, 1/2 diag(a) and the factor map's c coefficient
    rows (c = 6 for the cubic map, 0 for the identity and exp maps) --
    copied out to (d, m) planes, so that its products have same-shape
    operands (bar the rows A_j(y) that Q A scales at d >= 2). A call builds
    the planes for its own states; :func:`simulate` builds them once for
    its paths and steps on the core, with the bits of calling the drift.
    Every other model is solved in stacks of ``_DRIFT_CHUNK`` states, one
    table evaluation and one stacked projection per stack; a row does not
    depend on the stack it was solved in. Nothing changes after
    ``__init__``, so one drift may serve calls of any width in any thread.
    """

    def __init__(self, model: CurveFamily, sigma: np.ndarray, grid):
        self.model = model
        self.cov = _covariance(sigma, model.d)
        self.grid = grid
        self._consts = None  # the closed form's constants, if it has one
        self._identity = False  # whether that closed form's factor map is the identity
        if isinstance(model, AffineModel):
            dc, U, dU = model._basis(_grid_nodes(grid))
            # a U that vanishes degenerates every state: the error names y = 0
            pq, full_rank, _ = _project(U, np.column_stack([dc, dU]), np.zeros(model.d))
            if full_rank:
                # the constants as (d,) rows: the d columns of Q, then p,
                # then 1/2 diag(a), then the map's coefficient rows
                self._consts = np.vstack([pq[:, 1:].T, pq[:, 0],
                                          0.5 * np.diag(self.cov),
                                          model.factor_map.coefficients])
                self._identity = type(model.factor_map) is IdentityMap

    def _cm_rows(self, yt: np.ndarray, planes: np.ndarray) -> np.ndarray:
        """The closed form's core: b (d, m), a fresh array, at the
        component-major states yt (d, m), read from ``planes`` of width m.
        It checks no width and enters no error-state scope: where A'(y) = 0
        numpy warns unless the caller has silenced divide and invalid."""
        d = self.model.d
        if self._identity:
            A = yt
        else:
            A, dA, d2A = self.model.factor_map.cm_jet(yt, 2, planes[d + 2:])
        # Q A(y) as a row-local sum in j order, not a matmul, so a row never
        # depends on the batch (A[j:j + 1] is (1, m), the planes' own shape
        # at d = 1); then (p + QA - A'' a/2) / A' in place, in that order
        # (qa += p is p + qa: IEEE + is commutative)
        qa = planes[0] * A[:1]
        for j in range(1, d):
            qa += planes[j] * A[j:j + 1]
        qa += planes[d]
        # the identity's A'' a/2 is 0 * (a_ii / 2 >= 0) = +0 and its A' is 1,
        # and x - (+0) and x / 1 are x bit for bit, signed zeros and NaNs too
        if not self._identity:
            qa -= d2A * planes[d + 1]
            qa /= dA
        return qa

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = _states(y, self.model.d)
        Y = y.reshape(-1, y.shape[-1])
        if self._consts is None:
            out = np.empty(Y.shape)
            for k in range(0, Y.shape[0], _DRIFT_CHUNK):
                rows = slice(k, k + _DRIFT_CHUNK)
                out[rows] = _drift_stack(self.model, Y[rows], self.cov, self.grid)[0]
            return out.reshape(y.shape)
        Yt = np.ascontiguousarray(Y.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = self._cm_rows(Yt, _planes(self._consts, Yt.shape[1]))
        return b.T.reshape(y.shape)


def _planes(consts: np.ndarray, m: int) -> np.ndarray:
    """The closed form's constants (k, d) copied out to planes (k, d, m)."""
    planes = np.empty(consts.shape + (m,))
    planes[...] = consts[:, :, None]  # faster than np.repeat or np.tile
    return planes


# Alias kept only for the benchmark tracer (perfbench/spans.py), which
# wraps sim.LatticeDrift.__call__.
LatticeDrift = RiskNeutralDrift


def rn_drift(model: CurveFamily, sigma: np.ndarray, grid) -> RiskNeutralDrift:
    """The model's risk-neutral drift for `sigma`, as a batched callable."""
    return RiskNeutralDrift(model, sigma, grid)
