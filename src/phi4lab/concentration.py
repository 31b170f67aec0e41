"""Path statistics, replica tail curves and Gaussian concentration checks.

Everything here works on recorded paths, so all suprema and Hölder constants
are exact maxima over grid times and grid-time pairs.  The block transform
behind the Besov norm is linear, which lets pair differences reuse one matrix
of scaled block point values per path instead of re-transforming every pair.
The dyadic partition and the step kernel are looked up from the grid (and
the time grid and damping), never passed: :func:`.paley.default_partition`
and :func:`.noise.step_kernel` keep one of each per key.  Paths longer than
``PAIR_CAP`` times are subsampled evenly before any pair enumeration.

The quantitative continuity bound :func:`grr_bound` converts a double time
integral of p-th power increments into an explicit-constant bound on the
Hölder constant with exponent shifted down by 1/p; the implementation keeps
the constant and the left-hand exponent tied together so the domination check
is a one-liner in the tests.

Tail curves count exceedances of nested events ``value > h`` over independent
replicas, carry exact binomial (Clopper-Pearson) intervals, and fit the
Gaussian shape ``exp(logD - C h^2 / sigma^2)`` by weighted least squares on
the log scale.  Thresholds whose count is zero are flagged rather than
dropped silently: past those cells the tail is below Monte Carlo resolution.
The replicas run through the package's one replica loop,
:func:`.noise.replicate`, on one forked process per CPU this process may use,
and the curve is the same on any number of them.  The replica statistics
here (:func:`linear_sup_statistic`, :func:`linear_zero_mode_statistic`) are
``(replica, seed) -> float`` callables for that loop.
"""

from __future__ import annotations

import csv
import json
import math
from statistics import NormalDist

import numpy as np
from numpy.polynomial.hermite_e import hermeval

from .grids import SpectralField
from .noise import LinearPath, NoiseRealization, record, replicate
from .paley import besov_norm, default_partition
from .solvers import SolutionPath

__all__ = [
    "TailCurve",
    "GaussianFit",
    "holder_constant",
    "grr_bound",
    "nelson_check",
    "tail_estimate",
    "gaussian_tail_fit",
    "tail_curve_csv",
    "tail_report_json",
    "linear_solution_path",
    "linear_sup_statistic",
    "linear_zero_mode_statistic",
]

# O(M^2) pair enumeration guard: longer paths are subsampled evenly.
PAIR_CAP = 512


def _unpack(path):
    """Normalize a path argument to ``(times, data, grid_or_None)``.

    Accepted forms: an object with ``times``/``coeffs``/``grid`` attributes
    (a :class:`~.solvers.SolutionPath`) or a ``(times, values)`` pair of
    plain real arrays.
    """
    if hasattr(path, "coeffs") and hasattr(path, "grid"):
        times = np.asarray(path.times, dtype=np.float64)
        data, grid = np.asarray(path.coeffs), path.grid
    elif isinstance(path, (tuple, list)) and len(path) == 2:
        times = np.asarray(path[0], dtype=np.float64)
        data, grid = np.asarray(path[1], dtype=np.float64), None
    else:
        raise TypeError("path must be a SolutionPath or a (times, values) pair")
    if len(times) != len(data):
        raise ValueError(f"{len(times)} times for {len(data)} path entries")
    return times, data, grid


def _pair_indices(n: int) -> np.ndarray:
    """All ``n`` indices, or ``PAIR_CAP`` of them spread evenly when ``n`` exceeds it."""
    if n <= PAIR_CAP:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, PAIR_CAP)).astype(int))


def _feature_rows(times, data, grid, index):
    """One row per time whose pairwise sup differences realize the path norm.

    Spectral data is expanded into dyadic block point values scaled by
    ``2**(index * k)``; because the block transform is linear, the norm of
    ``f(t) - f(s)`` is exactly ``max |row_t - row_s|``.  Plain arrays are
    flattened as-is and the smoothness index is ignored.
    """
    if grid is None:
        return data.reshape(len(times), -1).astype(np.float64, copy=False)
    part = default_partition(grid)
    scales = 2.0 ** (index * np.arange(-1, part.K + 1))
    rows = np.empty((len(times), part.nblocks * grid.npoints))
    for i in range(len(times)):
        vals = part.block_values(data[i])
        rows[i] = (scales[:, None] * vals.reshape(part.nblocks, -1)).ravel()
    return rows


def _pair_distances(rows: np.ndarray) -> np.ndarray:
    """Symmetric ``max |rows[j] - rows[i]|`` of every pair, in one pass over one buffer."""
    n = len(rows)
    dist = np.zeros((n, n))
    buf = np.empty((max(n - 1, 0), rows.shape[1]))
    for i in range(n - 1):
        diff = np.subtract(rows[i + 1 :], rows[i], out=buf[: n - 1 - i])
        np.abs(diff, out=diff)
        dist[i, i + 1 :] = dist[i + 1 :, i] = diff.max(axis=1)
    return dist


def holder_constant(path, beta: float, gamma: float) -> float:
    """Exact ``gamma``-Hölder constant of the path over recorded time pairs.

    ``max ||f(t) - f(s)|| / |t - s|**gamma`` with the spatial norm of
    smoothness ``beta`` (ignored for plain paths).  Requires ``gamma`` in
    (0, 1].  Paths longer than ``PAIR_CAP`` times are subsampled evenly
    before the O(M^2) pair enumeration.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    times, data, grid = _unpack(path)
    idx = _pair_indices(len(times))
    times = times[idx]
    dist = _pair_distances(_feature_rows(times, data[idx], grid, beta))
    first, second = np.triu_indices(len(times), k=1)
    return float(np.max(dist[first, second] / (times[second] - times[first]) ** gamma,
                        initial=0.0))


def grr_bound(path, p, gamma_prime: float, beta=None) -> float:
    """Explicit-constant continuity bound from a double integral of increments.

    Computes ``B``, the trapezoidal double time integral of
    ``||f(x) - f(y)||**p / |x - y|**(gamma_prime * p + 1)``, and returns

        ``(8 * 4**(1/p) * (gamma_prime + 1/p) / (gamma_prime - 1/p))**p * B``

    which dominates ``holder_constant(path, beta, gamma_prime - 1/p)**p``.
    ``p`` must be an even integer >= 2 and ``gamma_prime > 1/p``.  Spectral
    paths need the spatial smoothness ``beta``; plain paths ignore it.
    """
    if p != int(p) or int(p) < 2 or int(p) % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    p = int(p)
    if gamma_prime <= 1.0 / p:
        raise ValueError(f"gamma_prime must exceed 1/p = {1.0 / p:.4g}, got {gamma_prime}")
    times, data, grid = _unpack(path)
    if grid is not None and beta is None:
        raise ValueError("spectral paths need the spatial smoothness index beta")
    idx = _pair_indices(len(times))
    times = times[idx]
    dist = _pair_distances(_feature_rows(times, data[idx], grid, beta))
    gaps = np.abs(times[:, None] - times[None, :])
    integrand = np.zeros_like(dist)
    off = gaps > 0.0
    integrand[off] = dist[off] ** p / gaps[off] ** (gamma_prime * p + 1.0)
    B = np.trapezoid(np.trapezoid(integrand, times, axis=1), times)
    const = 8.0 * 4.0 ** (1.0 / p) * (gamma_prime + 1.0 / p) / (gamma_prime - 1.0 / p)
    return float(const**p * B)


def nelson_check(order, p, replicas: int = 200_000, seed: int = 0) -> float:
    """Empirical moment ratio of a pure-chaos variable against its bound.

    Samples ``X = He_order(g)`` for a standard Gaussian ``g`` (probabilists'
    Hermite polynomial, so X sits in the chaos of that order) and returns

        ``E[|X|^p]^(1/p) / ((p - 1)^(order/2) * E[X^2]^(1/2))``

    with both expectations replaced by sample means.  The hypercontractive
    bound says the exact ratio is at most 1; the empirical one carries Monte
    Carlo noise on top, which is why callers compare against a slack ceiling.
    """
    if p != int(p) or int(p) < 2 or int(p) % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if order != int(order) or int(order) < 1:
        raise ValueError(f"chaos order must be a positive integer, got {order}")
    p, order = int(p), int(order)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(int(replicas))
    coefs = np.zeros(order + 1)
    coefs[order] = 1.0
    x = hermeval(g, coefs)
    lhs = float(np.mean(np.abs(x) ** p) ** (1.0 / p))
    rhs = (p - 1.0) ** (order / 2.0) * math.sqrt(float(np.mean(x**2)))
    return lhs / rhs


class TailCurve:
    """Empirical exceedance probabilities of a replica statistic.

    ``p_hat[i]`` estimates ``P(statistic > h_grid[i])`` from ``replicas``
    independent draws, with exact binomial 95% bounds in ``ci_low``/
    ``ci_high``.  The events are nested in ``h``, so ``p_hat`` (and the raw
    ``counts`` when present) must be non-increasing; the constructor rejects
    anything else.  ``zero_cells`` flags thresholds with no exceedances at
    all: there the tail is below Monte Carlo resolution and only the upper
    confidence bound carries information.
    """

    def __init__(
        self,
        h_grid,
        p_hat,
        ci_low,
        ci_high,
        replicas: int,
        sigma=None,
        T=None,
        label: str = "statistic",
        seed=None,
        counts=None,
    ):
        self.h_grid = np.asarray(h_grid, dtype=np.float64)
        self.p_hat = np.asarray(p_hat, dtype=np.float64)
        self.ci_low = np.asarray(ci_low, dtype=np.float64)
        self.ci_high = np.asarray(ci_high, dtype=np.float64)
        self.replicas = int(replicas)
        self.sigma = None if sigma is None else float(sigma)
        self.T = None if T is None else float(T)
        self.label = str(label)
        self.seed = seed
        self.counts = None if counts is None else np.asarray(counts, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        h = self.h_grid
        if h.ndim != 1 or len(h) == 0:
            raise ValueError("h_grid must be a non-empty 1-d array")
        if np.any(h < 0.0) or np.any(np.diff(h) <= 0.0):
            raise ValueError("h_grid must be non-negative and strictly increasing")
        for name in ("p_hat", "ci_low", "ci_high"):
            q = getattr(self, name)
            if q.shape != h.shape:
                raise ValueError(f"{name} shape {q.shape} does not match h_grid")
            if np.any(q < 0.0) or np.any(q > 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if np.any(np.diff(self.p_hat) > 0.0):
            raise ValueError("p_hat must be non-increasing: exceedance events are nested in h")
        if self.counts is not None and np.any(np.diff(self.counts) > 0):
            raise ValueError("exceedance counts must be non-increasing in h")

    def __len__(self) -> int:
        return len(self.h_grid)

    @property
    def zero_cells(self) -> np.ndarray:
        if self.counts is not None:
            return self.counts == 0
        return self.p_hat == 0.0


def _binomial_tail(base: np.ndarray, k: int, x: float, at_least: bool) -> tuple[float, float]:
    """``P(X >= k)`` (``at_least``) or ``P(X <= k)``, and ``P(X = k)``, for ``X ~ Bin(n, x)``.

    ``base[i] = (n - i) / (i + 1)`` for ``i < n``.  The pmf follows the ratio
    recurrence ``p_{i+1} / p_i = base[i] * x / (1 - x)`` out from the mode,
    where it is anchored at 1, so every product shrinks and none overflows;
    dividing by the total normalizes it.  The tail asked for is summed
    directly, never as 1 minus its complement.  Requires ``0 < x < 1``.
    """
    n = len(base)
    ratio = base * (x / (1.0 - x))
    m = min(int((n + 1) * x), n)
    w = np.empty(n + 1)
    w[m] = 1.0
    np.cumprod(ratio[m:], out=w[m + 1 :])
    np.cumprod(1.0 / ratio[:m][::-1], out=w[:m][::-1])
    total = w.sum()
    tail = w[k:].sum() if at_least else w[: k + 1].sum()
    return tail / total, w[k] / total


def _binomial_bound(base: np.ndarray, k: int, tail: float, z: float, lower: bool) -> float:
    """The ``x`` with ``P(Bin(n, x) >= k) = tail`` (``lower``) or ``P(Bin(n, x) <= k) = tail``.

    Safeguarded Newton from the Wilson score bound of normal quantile ``z``:
    the derivative of either tail in ``x`` is ``P(X = k)`` times ``k / x``
    or ``(n - k) / (1 - x)``, a step that leaves the bracket of signs seen so
    far is replaced by bisection, and the iteration stops at a step below
    ``1e-13`` relative, past which Newton's quadratic convergence leaves only
    the rounding of the tail sum.
    """
    n = len(base)
    z2 = z * z
    half = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    x = (k + z2 / 2.0) / (n + z2) + (-half if lower else half)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        t, pk = _binomial_tail(base, k, x, lower)
        if lower:
            f, slope = t - tail, pk * k / x
        else:
            f, slope = tail - t, pk * (n - k) / (1.0 - x)
        if f < 0.0:
            lo = x
        else:
            hi = x
        step = f / slope if slope > 0.0 else math.inf
        if abs(step) <= 1e-13 * x:
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x


def _clopper_pearson(counts, n: int, level: float = 0.95):
    """Exact binomial confidence bounds for each count out of ``n`` trials.

    The lower bound for ``k`` solves ``P(Bin(n, L) >= k) = (1 - level)/2`` and
    the upper bound ``P(Bin(n, U) <= k) = (1 - level)/2`` (0 at ``k = 0`` and
    1 at ``k = n``), by :func:`_binomial_bound`: a few O(n) tail sums per
    count.  Against ``scipy.stats.beta.ppf`` the bounds agree to 6.5e-15
    relative at n = 50, 1.1e-14 at 100, 1.6e-14 at 200 and 6.1e-14 at 1000,
    over every k and the levels 0.90, 0.95 and 0.99.
    """
    tail = (1.0 - level) / 2.0
    z = NormalDist().inv_cdf(1.0 - tail)
    i = np.arange(n, dtype=np.float64)
    base = (n - i) / (i + 1.0)
    low = np.zeros(len(counts))
    high = np.ones(len(counts))
    for j, k in enumerate(np.asarray(counts, dtype=np.int64)):
        k = int(k)
        if k > 0:
            low[j] = _binomial_bound(base, k, tail, z, lower=True)
        if k < n:
            high[j] = _binomial_bound(base, k, tail, z, lower=False)
    return low, high


def tail_estimate(
    statistic,
    h_grid,
    replicas: int,
    master_seed: int,
    sigma=None,
    T=None,
    label: str = "statistic",
) -> TailCurve:
    """Monte Carlo exceedance curve of a replica statistic.

    ``statistic(replica, seed)`` gives one float and is called once per
    replica index with ``seed = master_seed``; independence across replicas
    is the statistic's responsibility (the noise layer binds its streams to
    the (seed, replica) pair, so passing both through is enough).  The
    replicas run through :func:`.noise.replicate`, so the statistic must be
    a pure function of ``(replica, seed)``, the whole curve is a
    deterministic function of ``master_seed`` whatever the number of worker
    processes, a replica that raises raises the same exception type and
    message here, and a non-finite value is rejected with a ``ValueError``
    naming its replica.  Exceedance events are the nested ``value > h``, which forces the raw
    counts to be non-increasing; the returned curve re-checks that along
    with the range invariants.
    """
    h = np.asarray(h_grid, dtype=np.float64)
    if h.ndim != 1 or len(h) == 0 or np.any(h < 0.0) or np.any(np.diff(h) <= 0.0):
        raise ValueError("h_grid must be non-negative and strictly increasing")
    replicas = int(replicas)
    values = replicate(statistic, replicas, master_seed)
    if values.ndim != 1:
        raise ValueError(f"the statistic gave values of shape {values.shape[1:]}, not floats")
    counts = (values[None, :] > h[:, None]).sum(axis=1)
    p_hat = counts / float(replicas)
    ci_low, ci_high = _clopper_pearson(counts, replicas)
    return TailCurve(
        h, p_hat, ci_low, ci_high, replicas,
        sigma=sigma, T=T, label=label, seed=master_seed, counts=counts,
    )


class GaussianFit:
    """Log-scale weighted fit of a tail curve to ``exp(logD - C h^2/sigma^2)``."""

    def __init__(self, slope_C: float, intercept_logD: float, r_squared: float, cells: int = 0):
        self.slope_C = float(slope_C)
        self.intercept_logD = float(intercept_logD)
        self.r_squared = float(r_squared)
        self.cells = int(cells)


def gaussian_tail_fit(curve: TailCurve) -> GaussianFit:
    """Fit ``log p_hat`` against ``h^2 / sigma^2`` by weighted least squares.

    Cells with ``p_hat`` in {0, 1} carry no log-scale information and are
    excluded; at least four usable cells are required.  Weights are the
    inverse delta-method variances ``n p / (1 - p)`` of ``log p_hat``, so
    deep-tail cells with a handful of hits do not dominate the fit.  A
    positive ``slope_C`` is what the Gaussian shape predicts; the fit reports
    whatever the data gives and leaves the pass/fail judgement to callers.
    """
    if curve.sigma is None or curve.sigma <= 0.0:
        raise ValueError("tail curve must carry a positive noise level sigma")
    p = curve.p_hat
    usable = (p > 0.0) & (p < 1.0)
    cells = int(usable.sum())
    if cells < 4:
        raise ValueError(f"need at least 4 cells with 0 < p_hat < 1, got {cells}")
    x = curve.h_grid[usable] ** 2 / curve.sigma**2
    y = np.log(p[usable])
    w = curve.replicas * p[usable] / (1.0 - p[usable])
    sw = np.sqrt(w)
    design = sw[:, None] * np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, sw * y, rcond=None)
    resid = y - (coef[0] + coef[1] * x)
    ss_res = float(np.sum(w * resid**2))
    ybar = float(np.sum(w * y) / np.sum(w))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    return GaussianFit(-coef[1], coef[0], r_squared, cells)


def tail_curve_csv(curve: TailCurve, path) -> None:
    """Write the curve as CSV with columns h, p_hat, ci_low, ci_high."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "p_hat", "ci_low", "ci_high"])
        for i in range(len(curve)):
            writer.writerow(
                [
                    f"{curve.h_grid[i]:.12g}",
                    f"{curve.p_hat[i]:.12g}",
                    f"{curve.ci_low[i]:.12g}",
                    f"{curve.ci_high[i]:.12g}",
                ]
            )


def tail_report_json(curve: TailCurve, fit, path, config=None) -> None:
    """Write the curve, optional fit parameters and a config echo as JSON."""
    doc = {
        "label": curve.label,
        "sigma": curve.sigma,
        "T": curve.T,
        "replicas": curve.replicas,
        "seed": curve.seed,
        "h_grid": [float(x) for x in curve.h_grid],
        "p_hat": [float(x) for x in curve.p_hat],
        "ci_low": [float(x) for x in curve.ci_low],
        "ci_high": [float(x) for x in curve.ci_high],
        "counts": None if curve.counts is None else [int(k) for k in curve.counts],
        "zero_cells": [int(i) for i in np.flatnonzero(curve.zero_cells)],
        "fit": None
        if fit is None
        else {
            "slope_C": fit.slope_C,
            "intercept_logD": fit.intercept_logD,
            "r_squared": fit.r_squared,
            "cells": fit.cells,
        },
        "config": config,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def linear_solution_path(
    noise,
    coeffs,
    sigma: float,
    record_every: int = 1,
) -> SolutionPath:
    """Record the damped stochastic convolution of one noise realization.

    :class:`~.noise.LinearPath` recorded by :func:`~.noise.record`.  The
    noise fixes the grid, horizon, band and stream.
    """
    walker = LinearPath(noise, coeffs, sigma)
    times, out = record(noise.timegrid, record_every, walker.step, {"state": lambda: walker.state})
    return SolutionPath(noise.grid, times, out["state"])


def linear_sup_statistic(grid, timegrid, cutoff, coeffs, sigma, alpha):
    """Replica statistic: running sup of the linear path's smoothness-``alpha`` norm.

    Returns a ``(replica, seed) -> float`` callable for :func:`tail_estimate`.
    One block-stack buffer is built per statistic and shared by every replica
    and step, so the callable is not reentrant: call it from one thread at a
    time.  The worker processes of :func:`.noise.replicate` each get their
    own copy of the buffer when they are forked, so they share none of it.  The
    step kernel is the one :func:`~.noise.step_kernel` keeps for the grid,
    time grid and damping, so statistics at other noise levels share it.
    """
    buf = np.empty((default_partition(grid).nblocks,) + grid.shape)

    def statistic(replica, seed):
        noise = NoiseRealization(grid, timegrid, cutoff, seed, replica=replica)
        walker = LinearPath(noise, coeffs, sigma)
        best = 0.0
        for _ in range(timegrid.M):
            walker.step()
            best = max(best, besov_norm(SpectralField(grid, walker.state), alpha, out=buf))
        return best

    return statistic


def linear_zero_mode_statistic(grid, timegrid, cutoff, coeffs, sigma):
    """Replica statistic: real part of the linear path's zero mode at ``T``.

    Returns a ``(replica, seed) -> float`` callable for
    :func:`.noise.replicate`.  For constant damping ``a`` the zero mode is
    an Ornstein-Uhlenbeck process, whose variance at ``T`` is
    ``sigma**2 (exp(2 a T) - 1) / (2 a)``: the check of ``verify`` and the
    noise demo compare the sample variance against it.
    """
    zero = (0,) * grid.dim

    def statistic(replica, seed):
        walker = LinearPath(NoiseRealization(grid, timegrid, cutoff, seed, replica=replica),
                            coeffs, sigma)
        for _ in range(timegrid.M):
            walker.step()
        return walker.state[zero].real

    return statistic
