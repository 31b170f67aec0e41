"""Band-limited white-in-time forcing, the damped stochastic convolution, the
one loop that records time paths and the one loop that runs replicas.

Noise model: every Fourier mode inside the cutoff band carries an
independent Brownian motion with ``E|dW(w)|^2 = dt``.  Increments are
realized by transforming iid standard normals on the grid, so conjugate
symmetry (and reality of the self-conjugate modes) is automatic.  Generation
is counter based: each step draws from its own Philox stream keyed by
``(seed; role, replica, step)``, which gives random access, order independent
replicas, and exact refinement couplings (a coarse increment is the sum of
its fine halves).

The damped integrator ``I(f)(t) = int_0^t e^{alpha(t,u)} e^{(t-u) Lap} f(u) du``
is discretized with the first-order exponential time-differencing (ETD1) rule
``I(t_{j+1}) = P_j I(t_j) + E_j f(t_j)``, ``P_j`` the damped heat step and
``E_j`` the integral of the propagator over the step with the damping at its
step mean (:meth:`StepKernel.etd_weight`).  Every stepper in the package (the direct
solvers, the symbol integrals and the remainder pair) takes this one step, so
the two solution routes are one discrete map.  The quartic constant the
commands use is the exact mean of that discrete map: :func:`quartic_constant`
sums the Isserlis pairings of the stepped covariances and ETD weights on the
run's own time grid, O(M^2) dealiased products under a fixed work budget, and
:func:`quartic_renorm_mc` samples the same pairing as its Monte Carlo oracle.
The noise itself is injected with the exact per-step variance kernel
(closed form for constant damping, boundary-layer Gauss-Legendre quadrature
for polynomial damping, on the 48 nodes of numpy's ``leggauss``), so the
discrete stochastic convolution has the exact continuum marginal law at
every grid time, and the quadratic renormalization constant can be
evaluated without discretization bias.

The :class:`StepKernel` keeps, per step, one read-only row each of the
propagator, the ETD weight, the in-step variance and the noise amplitude
``sqrt(variance / dt)`` over the distinct ``|w|^2``; constant damping keeps
one row for every step.  The kernel is a function of the grid, the time grid
and the damping ``a(t)`` alone, so no caller builds or passes one:
:func:`step_kernel` looks it up, one kernel per key, and every path of a
configuration shares it.

:func:`record` steps any state over a :class:`TimeGrid` and keeps named
fields of it at every ``every``-th grid time and at ``T``; every recorded
path in the package (solver routes, the symbol ensemble, the stochastic
convolution, the symbol norm table) goes through it, under one memory budget.

:func:`replicate` runs any family of independent indexed tasks, on one
forked process per CPU this process may use (:func:`replica_workers`):
every Monte Carlo in the package (the tail curves, the quartic constant's
estimator, the OU check of ``verify`` and the demos), the rows of the
Isserlis sum of :func:`quartic_constant` and the passes of
:func:`.solvers.equivalence_report` go through it.  The counter-based
streams make a replica a pure function of (seed, replica), and a row or a
pass is a pure function of its index, so the values, assembled in index
order, are the same bits on any number of processes.
"""

from __future__ import annotations

import os
import pickle
import threading
from functools import cache, lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss

from .coeffs import CoefficientSet
from .grids import TorusGrid, _to_spectrum, binary_size, product_spectra
from .paley import default_partition

__all__ = [
    "ROLE_MAIN",
    "ROLE_RENORM",
    "TimeGrid",
    "record",
    "replica_workers",
    "replicate",
    "NoiseRealization",
    "StepKernel",
    "step_kernel",
    "LinearPath",
    "lin_variance_curve",
    "lin_variance_path",
    "quartic_renorm_mc",
    "quartic_constant",
]

ROLE_MAIN = 0
ROLE_RENORM = 1

_GL_NODES = 48
# distinct eigenvalues per block of the variance quadrature
_QUAD_ROWS = 128
# the in-step variance integrand is cut where exp(-2 L tau) has dropped to
# exp(-40) ~ 4e-18 of its boundary value; the neglected tail is below roundoff
_TAIL = 20.0
# largest total size of the arrays one call of record() may keep
_RECORD_BUDGET_BYTES = 768 * 2**20
# the work of one quartic_constant sum, in binary-grid points: a dealiased
# product counts its points plus this floor, the fixed cost of one call
# (measured in BENCH_exact_constant.json)
_PRODUCT_FLOOR_POINTS = 4000
# largest work one quartic_constant sum may take, about 48 s on one CPU at
# 32 ns a point; 64^3 at 50 steps needs 1.23e9
_CONSTANT_BUDGET_POINTS = 1_500_000_000


class TimeGrid:
    """Uniform time grid on ``[0, T]`` with ``M`` steps."""

    def __init__(self, T: float, M: int):
        M = int(M)
        if T <= 0:
            raise ValueError(f"horizon must be positive, got {T}")
        if M < 1:
            raise ValueError(f"need at least one step, got {M}")
        self.T = float(T)
        self.M = M
        self.dt = self.T / M
        self.ts = np.linspace(0.0, self.T, M + 1)

    def __repr__(self):
        return f"TimeGrid(T={self.T}, M={self.M})"


def record(timegrid: TimeGrid, every: int, step, fields) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Step over the whole grid and keep named fields at the recorded times.

    ``step`` advances the caller's state by one step; ``fields`` maps names
    to zero-argument readers of that state.  The readers run at ``t_0``,
    after every ``every``-th step and at ``T``.  Returns the recorded times
    and, per name, the reads stacked along a leading axis, with shape and
    dtype taken from the first read.  A recording that would need more than
    ``_RECORD_BUDGET_BYTES`` is refused before the first step.
    """
    first = {name: np.asarray(read()) for name, read in fields.items()}
    idx = _recorded_indices(timegrid, every, sum(a.nbytes for a in first.values()))
    out = {name: np.empty((len(idx),) + a.shape, dtype=a.dtype) for name, a in first.items()}
    for name in out:
        # keep no reference to the first reads: held for the whole run they
        # raised the peak RSS of a 32^3 v/w solve by 8 MiB
        out[name][0] = first.pop(name)
    k = 1
    for j in range(1, timegrid.M + 1):
        step()
        if j == idx[k]:
            for name, read in fields.items():
                out[name][k] = read()
            k += 1
    return timegrid.ts[idx], out


def _recorded_indices(timegrid: TimeGrid, every: int, bytes_per_time: int) -> list[int]:
    """Grid indices :func:`record` keeps; refuses a recording over the budget.

    ``bytes_per_time`` is the size kept at each index, so a caller that knows
    it can ask before building anything.
    """
    every, M = int(every), timegrid.M
    if every < 1:
        raise ValueError(f"record_every must be at least 1, got {every}")
    idx = list(range(0, M + 1, every))
    if idx[-1] != M:
        idx.append(M)
    need = len(idx) * bytes_per_time
    if need > _RECORD_BUDGET_BYTES:
        raise ValueError(
            f"recorded path would need ~{need / 2**20:.0f} MiB, over the "
            f"{_RECORD_BUDGET_BYTES // 2**20} MiB budget; record fewer times"
        )
    return idx


def replica_workers(replicas: int) -> int:
    """Processes :func:`replicate` runs ``replicas`` replicas on.

    One per CPU this process may run on (``os.sched_getaffinity``), and no
    more than there are replicas.  One where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, and while other Python threads
    run: a fork copies only the calling thread, so a lock another thread
    holds at that moment would stay held in the child.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), replicas)


def _shape_error(replica: int, shape: tuple, before: tuple) -> ValueError:
    return ValueError(f"replica {replica} gave a value of shape {shape}, "
                      f"where the replicas before it gave {before}")


def _replica_share(statistic, worker: int, workers: int, replicas: int, seed):
    """``(values, failure)`` of the replicas ``worker, worker + workers, ...``.

    ``values`` stacks the statistic's float64 values in replica order.  The
    share stops at its first replica that raises, gives a non-finite entry,
    or gives a value of another shape than the share's first, and
    ``failure`` is then ``(replica, exception)``; it is ``None`` otherwise.
    """
    values = []
    for i in range(worker, replicas, workers):
        try:
            value = np.asarray(statistic(i, seed), dtype=np.float64)
            bad = ~np.isfinite(value)
            if bad.any():
                where = tuple(np.argwhere(bad)[0].tolist())
                at = "" if value.ndim == 0 else f" at index {where}"
                raise ValueError(f"replica {i} gave the non-finite value {value[bad][0]}{at}")
            if values and value.shape != values[0].shape:
                raise _shape_error(i, value.shape, values[0].shape)
        except Exception as exc:
            return np.array(values), (i, exc)
        values.append(value)
    return np.array(values), None


def replicate(statistic, replicas: int, seed) -> np.ndarray:
    """``statistic(i, seed)`` for every replica ``i < replicas``, in replica order.

    A replica is any independent indexed task: a Monte Carlo replica of
    ``seed``, a row of the Isserlis sum of :func:`quartic_constant`, or a
    pass of :func:`.solvers.equivalence_report` (the last two ignore
    ``seed``).  A replica's value is a float or a float array, and every
    replica's has the shape of replica 0's: the result has shape
    ``(replicas,) + shape``.  The statistic must be a pure function of
    ``(replica, seed)``, as a :class:`NoiseRealization` of that seed and
    replica is: what a replica run in a child process changes (a list it
    appends to, a cache it fills) is not seen by the caller.

    The calling process is worker 0 and forks the other
    :func:`replica_workers`; worker ``w`` computes the replicas with
    ``i % workers == w`` and a child sends its share back pickled over a
    pipe, then leaves through ``os._exit``, so it never returns into the
    caller.  A forked child inherits the statistic and its scratch buffers,
    so nothing is pickled on the way in and no buffer is shared.  Every
    child is reaped before this returns or raises, and one still running
    when the caller fails is killed first.

    A replica that raises raises the same exception type and message here; a
    non-finite entry, or a shape other than that of the replicas before it,
    raises a ``ValueError`` naming the replica.  Of the failures, the one at
    the lowest replica index is raised, the one a serial loop would meet
    first, so the result and the error do not depend on the worker count.
    """
    replicas = int(replicas)
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    workers = replica_workers(replicas)
    children = []  # (pid, read end of its pipe)
    shares = []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    for _, fd in children:
                        os.close(fd)
                    share = pickle.dumps(_replica_share(statistic, w, workers, replicas, seed))
                    with os.fdopen(write, "wb") as out:
                        out.write(share)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, read))
        shares.append(_replica_share(statistic, 0, workers, replicas, seed))
        for w, (_, read) in enumerate(children, start=1):
            with open(read, "rb", closefd=False) as src:
                try:
                    shares.append(pickle.load(src))
                except EOFError:
                    raise RuntimeError(f"replica worker {w} ended without sending "
                                       "its values") from None
    finally:
        if len(shares) < workers:  # the caller fails: stop every child before reaping it
            import signal  # here, not at the top: no command that succeeds pays for it

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    # each share checked its own shapes; replica w, the first of its share,
    # is checked here against replica 0
    shape = shares[0][0].shape[1:]
    failures = [(w, _shape_error(w, share.shape[1:], shape))
                for w, (share, _) in enumerate(shares) if len(share) and share.shape[1:] != shape]
    failures += [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    values = np.empty((replicas,) + shape)
    for w, (share, _) in enumerate(shares):
        values[w::workers] = share
    return values


class _Increments:
    """The increments of a realization, keeping the last one drawn.

    The direct route and the v/w route step one realization in lockstep, so
    each asks for the step the other has just drawn; the kept increment is
    read-only, which makes handing it out twice safe.
    """

    _last: tuple = (None, None)

    def increment(self, j: int) -> np.ndarray:
        """Spectral Brownian increment over step ``j`` (half layout), read-only."""
        last, dw = self._last
        if j != last:
            if not 0 <= j < self.timegrid.M:
                raise ValueError(f"step {j} outside [0, {self.timegrid.M})")
            dw = _frozen(self._draw(j))
            self._last = (j, dw)
        return dw


class NoiseRealization(_Increments):
    """One replica of the band-limited space-time noise.

    Parameters
    ----------
    grid, timegrid : discretization
    cutoff : int
        Spatial band ``max_i |w_i| <= cutoff``; at most ``N/2``.
    seed : int
        Master entropy shared by a whole experiment.
    replica, role : int
        Stream coordinates; distinct pairs give independent noise.
    """

    def __init__(
        self,
        grid: TorusGrid,
        timegrid: TimeGrid,
        cutoff: int,
        seed: int,
        replica: int = 0,
        role: int = ROLE_MAIN,
    ):
        cutoff = int(cutoff)
        if not 0 <= cutoff <= grid.N // 2:
            raise ValueError(f"cutoff {cutoff} outside [0, {grid.N // 2}]")
        self.grid = grid
        self.timegrid = timegrid
        self.cutoff = cutoff
        self.seed = int(seed)
        self.replica = int(replica)
        self.role = int(role)
        self._mask = grid.kinf <= cutoff
        self._scale = np.sqrt(timegrid.dt) / grid.N ** (grid.dim / 2.0)

    def _draw(self, j: int) -> np.ndarray:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.role, self.replica, j)
        )
        rng = np.random.Generator(np.random.Philox(ss))
        z = rng.standard_normal(self.grid.shape)
        dw = _to_spectrum(z, self.grid.N) * self._scale
        return np.where(self._mask, dw, 0.0)

    def aggregate(self, factor: int) -> "_AggregatedNoise":
        """Coarse view with ``M/factor`` steps; increments sum exactly."""
        factor = int(factor)
        if factor < 1 or self.timegrid.M % factor:
            raise ValueError(f"factor {factor} does not divide M={self.timegrid.M}")
        return _AggregatedNoise(self, factor)


class _AggregatedNoise(_Increments):
    def __init__(self, base: NoiseRealization, factor: int):
        self.base = base
        self.factor = factor
        self.grid = base.grid
        self.cutoff = base.cutoff
        self.seed = base.seed
        self.replica = base.replica
        self.role = base.role
        self.timegrid = TimeGrid(base.timegrid.T, base.timegrid.M // factor)

    def _draw(self, j: int) -> np.ndarray:
        out = self.base.increment(j * self.factor)
        for i in range(1, self.factor):
            out = out + self.base.increment(j * self.factor + i)
        return out


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z extended continuously by 1 at z = 0."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0, np.expm1(safe) / safe)


class StepKernel:
    """Per-step spectral arrays of one grid, time grid and damping ``a(t)``.

    ``propagator(j)`` is the damped heat step, ``etd_weight(j)`` the
    classical first-order exponential forcing weight ``dt phi1(a dt - L dt)``
    that every stepper applies to its right-hand side, ``variance(j)`` the
    exact in-step variance of the stochastic convolution at unit noise
    amplitude, and ``amplitude(j)`` its noise factor ``sqrt(variance(j)/dt)``.
    ``a`` is the damping polynomial (``CoefficientSet.a``).

    The kernel keeps one table: ``_rows[j]`` holds the four rows of step
    ``j``, one value per distinct ``|w|^2``, built once on first use, so it
    holds O(M x distinct |w|^2) values, not O(M x grid).  Each call gathers
    its row onto the half spectrum as a fresh array.  Every array the kernel
    keeps is read-only: :func:`step_kernel` shares one kernel among every
    path, stepper and replica of a configuration in the process.
    """

    def __init__(self, grid: TorusGrid, timegrid: TimeGrid, a: Polynomial):
        self.grid = grid
        self.timegrid = timegrid
        self._A = A = a.integ()
        ts = timegrid.ts
        self._alphas = _frozen(np.array([float(A(t1) - A(t0)) for t0, t1 in zip(ts[:-1], ts[1:])]))
        self._const = a.degree() == 0
        lv, inv = np.unique(grid.k2.ravel(), return_inverse=True)
        self._Ld = _frozen(4.0 * np.pi**2 * lv.astype(np.float64))
        self._linv = _frozen(inv)
        self._rows: dict[int, tuple[np.ndarray, ...]] = {}

    def propagator(self, j: int) -> np.ndarray:
        return self._expand(self._step_rows(j)[0])

    def etd_weight(self, j: int) -> np.ndarray:
        return self._expand(self._step_rows(j)[1])

    def variance(self, j: int) -> np.ndarray:
        """Exact unit-amplitude variance injected over step ``j``, per mode."""
        return self._expand(self._step_rows(j)[2])

    def amplitude(self, j: int) -> np.ndarray:
        """``sqrt(variance(j) / dt)``: the per-mode factor of a unit noise increment."""
        return self._expand(self._step_rows(j)[3])

    def _expand(self, row: np.ndarray) -> np.ndarray:
        return row[self._linv].reshape(self.grid.hshape)

    def _step_rows(self, j: int) -> tuple[np.ndarray, ...]:
        """Rows of step ``j``; the one place that tells constant damping apart."""
        j = 0 if self._const else j
        rows = self._rows.get(j)
        if rows is None:
            dt, Ld, alpha = self.timegrid.dt, self._Ld, self._alphas[j]
            if self._const:
                var = dt * _phi1(2.0 * (alpha - Ld * dt))
            else:
                var = _damped_kernel_integral(Ld, self._A, self.timegrid.ts[j + 1], dt,
                                              _gauss_legendre())
            rows = (np.exp(alpha) * np.exp(-Ld * dt), dt * _phi1(alpha - Ld * dt), var,
                    np.sqrt(var / dt))
            rows = self._rows[j] = tuple(_frozen(r) for r in rows)
        return rows


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place."""
    arr.flags.writeable = False
    return arr


def step_kernel(grid: TorusGrid, timegrid: TimeGrid, coeffs: CoefficientSet) -> StepKernel:
    """The step kernel of ``grid``, ``timegrid`` and the damping ``coeffs.a``.

    One kernel per key, kept for the process: the key is everything a kernel
    reads, namely the grid, ``T``, ``M`` and the coefficients, domain and
    window of ``a``.  Two callers with equal keys share one kernel, and so
    its stored rows; a caller with any other grid, horizon, step count or
    damping gets its own.
    """
    a = coeffs.a
    damping = (tuple(a.coef.tolist()), tuple(a.domain.tolist()), tuple(a.window.tolist()))
    return _cached_kernel(grid, timegrid.T, timegrid.M, *damping)


@lru_cache(maxsize=8)
def _cached_kernel(grid: TorusGrid, T: float, M: int, coef, domain, window) -> StepKernel:
    return StepKernel(grid, TimeGrid(T, M), Polynomial(coef, domain, window))


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The ``_GL_NODES`` Gauss-Legendre nodes and weights on [-1, 1], once per process.

    From :func:`numpy.polynomial.legendre.leggauss`, which costs about 1.4 ms
    a call at 48 nodes.  The arrays are shared and read-only.
    """
    nodes, weights = leggauss(_GL_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _damped_kernel_integral(Ld: np.ndarray, A, t1: float, span: float, gl) -> np.ndarray:
    """``int_0^span exp(2[A(t1) - A(t1 - tau)] - 2 L tau) d tau`` per distinct L.

    The integrand lives in a boundary layer of width ``1/(2L)`` at ``tau = 0``
    for stiff modes, so the integration window is clipped to ``_TAIL / L``
    (relative truncation error ``exp(-2 _TAIL)``) and Gauss-Legendre nodes are
    placed inside the window.  The values of L are taken ``_QUAD_ROWS`` at a
    time, so each (L, node) temporary stays near 48 KiB: the rows are
    independent, so the result is the same bits as in one pass, and the
    temporaries come from the allocator's free lists instead of fresh pages.
    """
    with np.errstate(divide="ignore"):
        window = np.where(Ld > 0, _TAIL / np.maximum(Ld, 1e-300), np.inf)
    xi, wt = gl
    out = np.empty(len(Ld))
    for lo in range(0, len(Ld), _QUAD_ROWS):
        rows = slice(lo, lo + _QUAD_ROWS)
        tau_star = np.minimum(span, window[rows])
        tau = tau_star[:, None] * (xi[None, :] + 1.0) / 2.0
        weights = tau_star[:, None] / 2.0 * wt[None, :]
        expo = 2.0 * (A(t1) - A(t1 - tau)) - 2.0 * Ld[rows, None] * tau
        out[rows] = np.sum(weights * np.exp(expo), axis=1)
    return out


class LinearPath:
    """Streamed damped stochastic convolution of one noise replica.

    The state after ``j`` steps has the exact marginal law of the continuum
    object at time ``t_j`` thanks to the exact in-step variance; see module
    docstring.
    """

    def __init__(self, noise, coeffs: CoefficientSet, sigma: float):
        self.noise = noise
        self.sigma = float(sigma)
        self.kernel = step_kernel(noise.grid, noise.timegrid, coeffs)
        self.state = np.zeros(noise.grid.hshape, dtype=np.complex128)
        self.j = 0

    def step(self) -> None:
        k, j = self.kernel, self.j
        self.state = k.propagator(j) * self.state + self.sigma * k.amplitude(j) * self.noise.increment(j)
        self.j += 1


def _band_counts(grid: TorusGrid, cutoff: int):
    """Distinct |w|^2 values and conjugate-counted multiplicities in the band."""
    mask = grid.kinf <= cutoff
    lv, inv = np.unique(grid.k2[mask].ravel(), return_inverse=True)
    counts = np.bincount(inv, weights=grid.half_weights[mask].ravel())
    return 4.0 * np.pi**2 * lv.astype(np.float64), counts


def lin_variance_curve(
    grid: TorusGrid,
    cutoff: int,
    coeffs: CoefficientSet,
    sigma: float,
    times,
) -> np.ndarray:
    """Pointwise variance of the stochastic convolution by direct quadrature.

    Sums the exact per-mode integrals ``int_0^t exp(2 alpha(t,s) - 2L(t-s)) ds``
    over the cutoff band.  This is the quadratic renormalization constant as
    a function of time, evaluated independently of any time stepping.
    """
    Ld, counts = _band_counts(grid, cutoff)
    A = coeffs.a.integ()
    aconst = coeffs.a.degree() == 0
    gl = _gauss_legendre()
    out = np.empty(len(times))
    for i, t in enumerate(np.asarray(times, dtype=np.float64)):
        if t < 0:
            raise ValueError(f"negative time {t}")
        if t == 0.0:
            out[i] = 0.0
            continue
        if aconst:
            z = 2.0 * (coeffs.a(0.0) - Ld) * t
            v = t * _phi1(z)
        else:
            v = _damped_kernel_integral(Ld, A, float(t), float(t), gl)
        out[i] = sigma**2 * float(np.sum(counts * v))
    return out


def lin_variance_path(
    grid: TorusGrid,
    timegrid: TimeGrid,
    cutoff: int,
    coeffs: CoefficientSet,
    sigma: float,
) -> np.ndarray:
    """Variance of the discrete convolution at every grid time, by recursion.

    Uses the step kernel of :class:`LinearPath` (:func:`step_kernel`), so it
    is exactly the second moment of the sampled paths; it agrees with
    :func:`lin_variance_curve` to quadrature accuracy.
    """
    kern = step_kernel(grid, timegrid, coeffs)
    mask = (grid.kinf <= cutoff).astype(np.float64)
    hw = grid.half_weights * mask
    var = np.zeros(grid.hshape)
    out = np.empty(timegrid.M + 1)
    out[0] = 0.0
    for j in range(timegrid.M):
        var = kern.propagator(j) ** 2 * var + sigma**2 * kern.variance(j)
        out[j + 1] = float(np.sum(hw * var))
    return out


def _constant_path(value, timegrid: TimeGrid, what: str) -> np.ndarray:
    """A scalar or per-grid-time constant (named ``what``) as one float per grid time."""
    path = np.asarray(value, dtype=np.float64)
    if path.ndim == 0:
        return np.full(timegrid.M + 1, float(path))
    if path.shape != (timegrid.M + 1,):
        raise ValueError(f"{what} path must have one value per grid time")
    return path


def _require_centred_cutoff(grid: TorusGrid, cutoff: int) -> None:
    """Reject ``2 * cutoff >= N``, where the dealiased Wick square is not centred.

    At ``cutoff = N/2`` the square halves the Nyquist slots, so its zero mode
    falls short of the variance by half the Nyquist mass.
    """
    if 2 * int(cutoff) >= grid.N:
        raise ValueError(
            f"cutoff {cutoff} must be below N/2 = {grid.N // 2} "
            "for the Wick square to be centred"
        )


def quartic_renorm_mc(
    grid: TorusGrid,
    timegrid: TimeGrid,
    cutoff: int,
    coeffs: CoefficientSet,
    seed: int,
    replicas: int,
    sigma: float = 1.0,
) -> dict:
    """Monte Carlo estimate of the quartic renormalization constant.

    The constant is half the expected spatial average of the resonant product
    of the time-integrated Wick square with the Wick square itself; the half
    normalizes the two-fold pairing multiplicity so that subtracting twice
    the constant centers the resonant symbol exactly.

    The spatial average of a resonant product equals a weighted spectral
    inner product (Parseval), so no block decompositions are formed here.
    The simulation runs at unit noise amplitude and is scaled by
    ``sigma**4``, which is exact because every factor is homogeneous in the
    amplitude.  The time integral of the Wick square takes the same ETD step
    as :class:`.symbols.SymbolStepper`, so one replica's pairing is the zero
    mode of that stepper's uncentred ``res_iwick2_wick2`` on the same stream.
    The replicas run through :func:`replicate`.

    Returns a dict with the grid times, the estimates, standard errors, and
    the raw (unhalved) pairing means, one per grid time.
    """
    _require_centred_cutoff(grid, cutoff)
    M = timegrid.M
    kern = step_kernel(grid, timegrid, coeffs)
    N, dim = grid.N, grid.dim
    band = min(2 * cutoff, N // 2 - 1)
    zero = (0,) * dim

    # exact unit-amplitude variance path for the Wick subtraction
    c_unit = lin_variance_path(grid, timegrid, cutoff, coeffs, 1.0)
    w_pair = grid.half_weights * default_partition(grid).resonance_weight()

    def pairing(replica, seed):
        """The unit-amplitude pairing of one replica at every grid time."""
        noise = NoiseRealization(grid, timegrid, cutoff, seed, replica=replica, role=ROLE_RENORM)
        lin = LinearPath(noise, coeffs, 1.0)
        iw2 = np.zeros(grid.hshape, dtype=np.complex128)
        row = np.empty(M + 1)
        for j in range(M + 1):
            w2 = product_spectra([lin.state, lin.state], N, band=band)
            w2[zero] -= c_unit[j]
            row[j] = float(np.sum(w_pair * (iw2 * np.conj(w2)).real))
            if j == M:
                break
            iw2 = kern.propagator(j) * iw2 + kern.etd_weight(j) * w2
            lin.step()
        return row

    raw = replicate(pairing, replicas, seed)
    raw_mean = raw.mean(axis=0)
    raw_se = raw.std(axis=0, ddof=1) / np.sqrt(replicas) if replicas > 1 else np.zeros_like(raw_mean)
    scale = sigma**4
    return {
        "times": timegrid.ts.copy(),
        "estimate": 0.5 * scale * raw_mean,
        "se": 0.5 * scale * raw_se,
        "raw_mean": scale * raw_mean,
        "raw_se": scale * raw_se,
        "replicas": replicas,
    }


def _check_constant_budget(grid: TorusGrid, timegrid: TimeGrid) -> None:
    """Refuse a :func:`quartic_constant` sum whose work is over the budget.

    The sum takes ``M (M - 1) / 2`` dealiased products, each counted as the
    ``binary_size(N)**dim`` points of its grid plus ``_PRODUCT_FLOOR_POINTS``;
    more than ``_CONSTANT_BUDGET_POINTS`` in all raises a ``ValueError``.  The
    count reads the grid and ``M`` alone, so the answer is the same at any
    worker count, and a caller can ask before building anything.
    """
    M = timegrid.M
    products = M * (M - 1) // 2
    work = products * (binary_size(grid.N) ** grid.dim + _PRODUCT_FLOOR_POINTS)
    if work > _CONSTANT_BUDGET_POINTS:
        raise ValueError(
            f"the quartic constant's sum over {M} steps would take {products} dealiased "
            f"products ({work:.3g} grid points), over the budget of "
            f"{_CONSTANT_BUDGET_POINTS:.3g}; take fewer steps"
        )


def _constant_workers(timegrid: TimeGrid) -> int:
    """Processes the ``M - 1`` rows of :func:`quartic_constant` on ``timegrid`` run on."""
    return replica_workers(max(1, timegrid.M - 1))


def quartic_constant(grid: TorusGrid, timegrid: TimeGrid, cutoff: int, coeffs: CoefficientSet,
                     sigma: float = 1.0) -> np.ndarray:
    """The quartic constant at every time of ``timegrid``, one value per ``timegrid.ts``.

    The expectation that :func:`quartic_renorm_mc` estimates, summed exactly
    on ``timegrid`` itself.  The pairing is a product of two Wick squares of
    one Gaussian path, so its mean is the Isserlis sum (the product formula
    for Wiener chaos)

        raw_j = sum_k w_pair(k) sum_{0<i<j} G_ij(k) 2 (C_ij * C_ij)(k),

    with ``C_ij = P_{j-1}...P_i var_i`` the covariance of the stochastic
    convolution between steps ``i`` and ``j`` (``var_i`` the band-masked
    :func:`lin_variance_path` recursion, per mode), ``G_ij = P_{j-1}...P_{i+1}
    E_i`` the ETD weight the symbol integral puts on step ``i``, and ``*`` the
    convolution, taken by :func:`.grids.product_spectra` with the band cut of
    the Wick square.  The constant is ``0.5 sigma**4 raw``.  The sum costs
    ``M (M - 1) / 2`` dealiased products, O(M^2); a sum over the work budget
    of :func:`_check_constant_budget` raises a ``ValueError`` before any row
    runs.  The steppers take the constant as an input and never compute it.

    The rows of the sum are the tasks of one :func:`replicate` call: task
    ``i - 1`` returns the contributions of step ``i`` to every ``raw_j``,
    ``j > i`` (``M - i`` products), and worker ``w`` takes the rows with
    ``(i - 1) % workers == w``, so the shares differ by at most one row.
    The caller builds the step kernel's rows before the fork and every worker
    reads them; each worker runs the ``var_i`` recursion itself, the same
    operations in the same order as a serial loop.  The caller adds the rows
    up in ``i`` order, so ``raw`` is the same bits at any worker count.  A
    row that overflows (a fast-growing ``a(t)``) raises a ``RuntimeError``
    that names the time as a blow-up, the lowest row first.
    """
    _check_constant_budget(grid, timegrid)
    _require_centred_cutoff(grid, cutoff)
    kern = step_kernel(grid, timegrid, coeffs)
    M, N = timegrid.M, grid.N
    band = min(2 * cutoff, N // 2 - 1)
    mask = grid.kinf <= cutoff
    w_pair = grid.half_weights * default_partition(grid).resonance_weight()
    for j in range(M):  # every worker reads these rows; built before the fork, shared
        kern._step_rows(j)
    # this worker's var_i recursion, at i = done; replicate hands a worker its
    # rows in increasing i, so the recursion only moves forward
    var, done = np.zeros(grid.hshape), 0

    def row(task, _) -> np.ndarray:
        """The contributions of step ``i = task + 1`` to ``raw_j``, zero at ``j <= i``."""
        nonlocal var, done
        i = task + 1
        for k in range(done, i):
            var = kern.propagator(k) ** 2 * var + kern.variance(k)
        done = i
        cov = np.where(mask, var, 0.0)
        weight = kern.etd_weight(i)
        out = np.zeros(M + 1)
        for j in range(i + 1, M + 1):
            prop = kern.propagator(j - 1)
            cov = prop * cov
            if j > i + 1:
                weight = prop * weight
            square = product_spectra([cov, cov], N, band=band).real
            out[j] = 2.0 * float(np.sum(w_pair * weight * square))
        bad = ~np.isfinite(out)
        if bad.any():  # a growing a(t) overflowed the covariance: no constant to subtract
            j = int(np.argmax(bad))
            raise RuntimeError(f"blow-up: the quartic constant is {out[j]} at t = "
                               f"{timegrid.ts[j]:.6f} (step {j}, pairing step {i})")
        return out

    raw = np.zeros(M + 1)
    if M > 1:  # one row per step i = 1 .. M - 1
        for contributions in replicate(row, M - 1, None):  # in i order, as a serial loop adds
            raw += contributions
    return 0.5 * sigma**4 * raw
