"""Tests for path statistics, tail curves and concentration checks.

Oracles used here:

* scalar paths with closed-form Hölder constants (constants give 0, the
  identity path gives exactly 1) and the closed-form double integral
  B = 1/10 behind the continuity bound for f(t) = t with p = 8,
* per-pair Besov norms recomputed directly, against the stacked block
  evaluation used by the fast path,
* exact Gaussian moments: E He_2(g)^4 = 60 and E He_2(g)^2 = 2 by
  moment expansion with double factorials, plus the p = 2 degeneration
  of the moment ratio, which is identically 1,
* the binomial <-> beta quantile identities defining exact confidence
  bounds, cross-checked through the binomial CDF,
* synthetic tail curves sampled from a distribution whose exceedance
  function is exactly exp(-5 h^2 / sigma^2), fitted back with and
  without binomial noise,
* exact amplitude homogeneity of the noise recursion, which forces the
  fitted h^2 rate at sigma and 2 sigma to differ by a factor 4,
* the serial replica loop: with any number of worker processes the curve
  is bitwise equal (the loop itself, and the failures it raises, are
  tested with the noise layer, its home).
"""

import csv
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import binom

from phi4lab import concentration
from phi4lab.cli import tail_curve_csv, tail_report_json
from phi4lab.coeffs import CoefficientSet
from phi4lab.concentration import (
    TailCurve,
    _clopper_pearson,
    gaussian_tail_fit,
    grr_bound,
    holder_constant,
    linear_solution_path,
    linear_sup_statistic,
    nelson_check,
    tail_estimate,
)
from phi4lab.grids import SpectralField, TorusGrid
from phi4lab.noise import NoiseRealization, TimeGrid, quartic_renorm_mc, replica_workers, replicate
from phi4lab.paley import besov_norm
from phi4lab.solvers import SolutionPath
from phi4lab.symbols import SymbolStepper

DAMPED = CoefficientSet(0.0, -1.0, 1.0)


class TestPathNorms:
    def test_constant_path_has_zero_holder_constant(self):
        ts = np.linspace(0.0, 1.0, 101)
        path = (ts, np.full(101, 2.3))
        assert holder_constant(path, 0.0, 0.5) == 0.0
        assert holder_constant(path, 0.0, 1.0) == 0.0

    def test_identity_path_holder_constant_is_one(self):
        ts = np.linspace(0.0, 1.0, 101)
        assert holder_constant((ts, ts.copy()), 0.0, 1.0) == 1.0

    def test_spectral_holder_matches_per_pair_besov(self):
        grid = TorusGrid(16, 3)
        path = linear_solution_path(NoiseRealization(grid, TimeGrid(1.0, 24), 8, seed=3), DAMPED, 0.1)
        best = 0.0
        for i in range(len(path)):
            for j in range(i + 1, len(path)):
                d = besov_norm(SpectralField(grid, path.coeffs[j] - path.coeffs[i]), -0.7)
                best = max(best, d / (path.times[j] - path.times[i]) ** 0.05)
        fast = holder_constant(path, -0.7, 0.05)
        assert abs(fast - best) <= 1e-12 * best

    def test_subsampling_cap_keeps_linear_path_exact(self, monkeypatch):
        # the identity path attains its ratio on every pair, so the evenly
        # subsampled enumeration must still return exactly 1
        ts = np.linspace(0.0, 1.0, 1500)
        assert holder_constant((ts, ts.copy()), 0.0, 1.0) == 1.0
        monkeypatch.setattr(concentration, "PAIR_CAP", 16)
        assert holder_constant((ts, ts.copy()), 0.0, 1.0) == 1.0

    def test_subsampling_is_a_lower_bound_on_rough_paths(self, monkeypatch):
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 801)
        walk = np.cumsum(rng.standard_normal(801)) * 0.05
        monkeypatch.setattr(concentration, "PAIR_CAP", 801)
        full = holder_constant((ts, walk), 0.0, 0.5)
        monkeypatch.setattr(concentration, "PAIR_CAP", 64)
        sub = holder_constant((ts, walk), 0.0, 0.5)
        assert 0.0 < sub <= full

    def test_gamma_outside_unit_interval_rejected(self):
        ts = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="gamma"):
            holder_constant((ts, ts.copy()), 0.0, 0.0)
        with pytest.raises(ValueError, match="gamma"):
            holder_constant((ts, ts.copy()), 0.0, 1.2)

    def test_path_argument_validation(self):
        with pytest.raises(TypeError, match="path"):
            holder_constant(3.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="entries"):
            holder_constant((np.linspace(0, 1, 5), np.zeros(4)), 0.0, 0.5)


def _lag_loop_holder(path, beta, gamma):
    """The Hölder constant by the per-lag loop the pair pass replaced."""
    times, data, grid = concentration._unpack(path)
    idx = concentration._pair_indices(len(times))
    times = times[idx]
    rows = concentration._feature_rows(times, data[idx], grid, beta)
    best = 0.0
    for lag in range(1, len(times)):
        diff = np.abs(rows[lag:] - rows[:-lag])
        gaps = times[lag:] - times[:-lag]
        best = max(best, float(np.max(np.max(diff, axis=1) / gaps**gamma)))
    return best


def _row_loop_grr(path, p, gamma_prime, beta):
    """The continuity bound with the per-row distance loop the pair pass replaced."""
    times, data, grid = concentration._unpack(path)
    idx = concentration._pair_indices(len(times))
    times = times[idx]
    rows = concentration._feature_rows(times, data[idx], grid, beta)
    n = len(times)
    dist = np.zeros((n, n))
    for i in range(n - 1):
        diff = np.abs(rows[i + 1 :] - rows[i])
        dist[i, i + 1 :] = dist[i + 1 :, i] = diff.max(axis=1)
    gaps = np.abs(times[:, None] - times[None, :])
    integrand = np.zeros_like(dist)
    off = gaps > 0.0
    integrand[off] = dist[off] ** p / gaps[off] ** (gamma_prime * p + 1.0)
    B = np.trapezoid(np.trapezoid(integrand, times, axis=1), times)
    const = 8.0 * 4.0 ** (1.0 / p) * (gamma_prime + 1.0 / p) / (gamma_prime - 1.0 / p)
    return float(const**p * B)


class TestPairPass:
    """One pass of pairwise sup distances serves the Hölder constant and the bound."""

    @staticmethod
    def _paths():
        grid = TorusGrid(16, 2)
        spectral = linear_solution_path(NoiseRealization(grid, TimeGrid(1.0, 40), 7, seed=3),
                                        DAMPED, 0.1)
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 1.0, 61)
        plain = (ts, np.cumsum(rng.standard_normal((61, 5)), axis=0))
        return {"spectral": spectral, "plain": plain, "one time": (ts[:1], plain[1][:1])}

    def test_holder_constant_equals_the_lag_loop_bitwise(self):
        for name, path in self._paths().items():
            for beta, gamma in ((-0.7, 0.05), (0.0, 0.5), (-0.3, 1.0)):
                assert holder_constant(path, beta, gamma) == _lag_loop_holder(path, beta, gamma), name

    def test_grr_bound_equals_the_row_loop_bitwise(self):
        for name, path in self._paths().items():
            for p, gamma_prime in ((8, 0.5), (4, 0.3)):
                got = grr_bound(path, p, gamma_prime, beta=-0.7)
                assert got == _row_loop_grr(path, p, gamma_prime, -0.7), name

    def test_distances_are_the_per_pair_sup(self):
        rows = np.random.default_rng(5).standard_normal((9, 13))
        dist = concentration._pair_distances(rows)
        expect = np.array([[np.max(np.abs(a - b)) for b in rows] for a in rows])
        assert dist.tobytes() == expect.tobytes()


class TestRefinementStudy:
    def test_linear_path_holder_stable_under_time_refinement(self):
        # lam = 0.1: Hölder exponent lam/2 in smoothness -0.6 - lam, on one
        # shared noise realization aggregated to each coarser grid
        grid = TorusGrid(16, 3)
        lam = 0.1
        for seed in (1, 2):
            base = NoiseRealization(grid, TimeGrid(1.0, 256), 8, seed)
            consts = []
            for fac in (4, 2, 1):
                nz = base.aggregate(fac) if fac > 1 else base
                path = linear_solution_path(nz, DAMPED, 0.1)
                consts.append(holder_constant(path, -0.6 - lam, lam / 2.0))
            assert all(np.isfinite(c) and c > 0.0 for c in consts)
            for a, b in zip(consts, consts[1:]):
                assert 0.8 < b / a < 1.5


class TestGrrBound:
    def test_constant_path_bound_is_zero(self):
        ts = np.linspace(0.0, 1.0, 101)
        assert grr_bound((ts, np.full(101, 1.7)), 8, 0.5) == 0.0

    def test_identity_path_against_closed_form(self):
        # B = int int |x-y|^3 = 1/10 exactly; the trapezoidal value sits a
        # hair above it, and the bound must dominate the unit Hölder constant
        ts = np.linspace(0.0, 1.0, 101)
        bound = grr_bound((ts, ts.copy()), 8, 0.5)
        const = (8.0 * 4.0**0.125 * (0.5 + 0.125) / (0.5 - 0.125)) ** 8
        assert abs(bound - const * 0.1) <= 5e-3 * const * 0.1
        hol = holder_constant((ts, ts.copy()), 0.0, 0.5 - 0.125)
        assert hol == 1.0
        assert bound >= hol**8

    def test_parameter_validation(self):
        ts = np.linspace(0.0, 1.0, 11)
        path = (ts, ts.copy())
        with pytest.raises(ValueError, match="even integer"):
            grr_bound(path, 7, 0.5)
        with pytest.raises(ValueError, match="even integer"):
            grr_bound(path, 0, 0.5)
        with pytest.raises(ValueError, match="exceed 1/p"):
            grr_bound(path, 8, 0.125)
        grid = TorusGrid(8, 2)
        spath = SolutionPath(grid, ts, np.zeros((11,) + grid.hshape, dtype=np.complex128))
        with pytest.raises(ValueError, match="beta"):
            grr_bound(spath, 8, 0.5)

    def test_domination_on_fifty_noise_paths(self):
        # property sweep: the bound must dominate the matching Hölder power
        # on every sampled stochastic-convolution path, no exceptions
        grid = TorusGrid(8, 3)
        tg = TimeGrid(1.0, 48)
        p, gp, beta = 8, 0.3, -1.2
        for seed in range(50):
            path = linear_solution_path(NoiseRealization(grid, tg, 4, seed), DAMPED, 0.1)
            bound = grr_bound(path, p, gp, beta=beta)
            hol = holder_constant(path, beta, gp - 1.0 / p)
            assert np.isfinite(bound)
            assert bound >= hol**p


class TestNelson:
    def test_exact_fourth_moment_of_second_chaos(self):
        # E (g^2 - 1)^4 by moment expansion: sum C(4,j) (-1)^(4-j) (2j-1)!!
        dfact = {0: 1, 2: 1, 4: 3, 6: 15, 8: 105}
        ex4 = sum(math.comb(4, j) * (-1) ** (4 - j) * dfact[2 * j] for j in range(5))
        ex2 = dfact[4] - 2 * dfact[2] + 1
        assert ex4 == 60
        assert ex2 == 2
        # the exact ratio sits well under the bound even with constant 1
        exact_ratio = 60.0**0.25 / (3.0 * math.sqrt(2.0))
        assert exact_ratio < 1.0
        emp = nelson_check(2, 4, replicas=200_000, seed=24)
        assert abs(emp - exact_ratio) < 0.02

    def test_gaussian_fourth_moment(self):
        exact_ratio = 3.0**0.25 / math.sqrt(3.0)
        emp = nelson_check(1, 4, replicas=200_000, seed=14)
        assert abs(emp - exact_ratio) < 0.02

    def test_p_two_ratio_is_exactly_one(self):
        for order in (1, 2, 3):
            assert nelson_check(order, 2, replicas=50_000, seed=order) == 1.0

    def test_ratio_below_conservative_ceiling(self):
        for order in (1, 2, 3):
            for p in (2, 4, 6, 8):
                ratio = nelson_check(order, p, replicas=100_000, seed=10 * order + p)
                assert 0.2 < ratio <= 3.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="even"):
            nelson_check(2, 3)
        with pytest.raises(ValueError, match="order"):
            nelson_check(0, 4)


class TestTailEstimate:
    def test_threshold_zero_has_unit_probability(self):
        stat = lambda i, s: 1.0 + 0.1 * i
        curve = tail_estimate(stat, [0.0, 1.5], 200, 5)
        assert curve.p_hat[0] == 1.0
        assert curve.ci_low[0] < 1.0 == curve.ci_high[0]

    def test_degenerate_statistic(self):
        curve = tail_estimate(lambda i, s: 0.5, [0.0, 0.4, 0.6], 200, 5)
        assert list(curve.p_hat) == [1.0, 1.0, 0.0]
        assert list(curve.zero_cells) == [False, False, True]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_statistic_receives_replica_and_master_seed(self, tmp_path, monkeypatch, cpus):
        # a call in a child process leaves no trace in this one, so every
        # call creates a file named by its arguments; exclusive creation
        # fails on a second call with the same arguments, in any worker
        _use_cpus(monkeypatch, cpus)

        def stat(i, s):
            (tmp_path / f"{i}-{s}").open("x").close()
            return 1.0

        tail_estimate(stat, [0.5], 5, 42)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{i}-42" for i in range(5)]

    def test_deterministic_given_master_seed(self):
        def stat(i, seed):
            return np.random.default_rng((seed, i)).exponential()

        a = tail_estimate(stat, [0.2, 0.6, 1.8], 300, 9)
        b = tail_estimate(stat, [0.2, 0.6, 1.8], 300, 9)
        c = tail_estimate(stat, [0.2, 0.6, 1.8], 300, 10)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)
        assert np.all(np.diff(a.counts) <= 0)

    def test_confidence_bounds_solve_binomial_equations(self):
        values = np.concatenate([np.ones(37), np.zeros(63)])
        curve = tail_estimate(lambda i, s: values[i], [0.5, 2.0], 100, 1)
        assert list(curve.counts) == [37, 0]
        k, n = 37, 100
        low, high = curve.ci_low[0], curve.ci_high[0]
        assert abs(binom.cdf(k - 1, n, low) - 0.975) < 1e-9
        assert abs(binom.cdf(k, n, high) - 0.025) < 1e-9
        assert curve.ci_low[1] == 0.0
        assert abs(curve.ci_high[1] - (1.0 - 0.025 ** (1.0 / n))) < 1e-12

    # largest relative gap to beta.ppf measured over every k and the three
    # levels: 6.5e-15 (n = 50), 1.1e-14 (100), 1.6e-14 (200), 6.1e-14 (1000)
    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize("n", [50, 100, 200, 1000])
    def test_confidence_bounds_equal_beta_quantiles(self, n, level):
        from scipy.stats import beta

        k = np.arange(n + 1)
        tail = (1.0 - level) / 2.0
        low, high = _clopper_pearson(k, n, level=level)
        assert low[0] == 0.0 and high[n] == 1.0
        np.testing.assert_allclose(low[1:], beta.ppf(tail, k[1:], n - k[1:] + 1), rtol=1e-13, atol=0)
        np.testing.assert_allclose(high[:-1], beta.ppf(1.0 - tail, k[:-1] + 1, n - k[:-1]), rtol=1e-13, atol=0)
        # the edges in closed form: P(Bin(n, U) = 0) = tail and P(Bin(n, L) = n) = tail
        assert high[0] == pytest.approx(1.0 - tail ** (1.0 / n), rel=1e-13, abs=0)
        assert low[n] == pytest.approx(tail ** (1.0 / n), rel=1e-13, abs=0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="h_grid"):
            tail_estimate(lambda i, s: 1.0, [0.5, 0.4], 10, 0)
        with pytest.raises(ValueError, match="h_grid"):
            tail_estimate(lambda i, s: 1.0, [-0.1, 0.4], 10, 0)
        with pytest.raises(ValueError, match="replica"):
            tail_estimate(lambda i, s: 1.0, [0.5], 0, 0)

    def test_curve_invariants_enforced(self):
        ok = dict(replicas=100, sigma=0.1)
        TailCurve([0.1, 0.2], [0.8, 0.4], [0.7, 0.3], [0.9, 0.5], **ok)
        with pytest.raises(ValueError, match="non-increasing"):
            TailCurve([0.1, 0.2], [0.4, 0.8], [0.3, 0.7], [0.5, 0.9], **ok)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TailCurve([0.1, 0.2], [1.2, 0.4], [0.7, 0.3], [1.0, 0.5], **ok)
        with pytest.raises(ValueError, match="counts"):
            TailCurve([0.1, 0.2], [0.5, 0.5], [0.4, 0.4], [0.6, 0.6], counts=[50, 51], **ok)
        with pytest.raises(ValueError, match="shape"):
            TailCurve([0.1, 0.2], [0.8, 0.4, 0.1], [0.7, 0.3], [0.9, 0.5], **ok)


def _use_cpus(monkeypatch, n):
    """Let this process see ``n`` usable CPUs, so the replica loop runs up to ``n`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_children():
    # raises only when this process has no child at all, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exponential(i, seed):
    return np.random.default_rng((seed, i)).exponential()


class TestTailReplicas:
    """The curve on the replica loop of :func:`phi4lab.noise.replicate`."""

    @pytest.mark.parametrize("replicas", [1, 5, 100])
    def test_curve_is_bitwise_equal_for_every_worker_count(self, monkeypatch, replicas):
        curves = []
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            assert replica_workers(replicas) == min(cpus, replicas)
            curves.append(tail_estimate(_exponential, [0.2, 0.6, 1.8], replicas, 9))
        for curve in curves[1:]:
            for name in ("counts", "p_hat", "ci_low", "ci_high"):
                assert np.array_equal(getattr(curve, name), getattr(curves[0], name))
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_naming_its_replica(self, monkeypatch, cpus, bad):
        # a NaN is never above a threshold, so it would count as a non-exceedance
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="replica 3 gave the non-finite value"):
            tail_estimate(lambda i, s: bad if i == 3 else 1.0, [0.5], 5, 0)
        _assert_no_children()

    def test_array_values_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(2,\), not floats"):
            tail_estimate(lambda i, s: [1.0, 2.0], [0.5], 3, 0)
        _assert_no_children()


def _nested_gaussian_statistic(sig, rate):
    """Replica statistic with exceedance function exactly exp(-rate h^2/sig^2)."""

    def stat(i, seed):
        u = np.random.default_rng((seed, i)).random()
        return sig * math.sqrt(-math.log(u) / rate)

    return stat


class TestGaussianFit:
    def test_exact_synthetic_curve_recovered(self):
        h = np.linspace(0.05, 0.5, 8)
        sig = 0.25
        p = np.exp(-5.0 * h**2 / sig**2)
        curve = TailCurve(h, p, np.clip(0.9 * p, 0, 1), np.clip(1.1 * p, 0, 1), 1000, sigma=sig)
        fit = gaussian_tail_fit(curve)
        assert abs(fit.slope_C - 5.0) < 1e-9
        assert fit.r_squared > 1.0 - 1e-12
        assert abs(fit.intercept_logD) < 1e-10
        assert fit.cells == 8

    def test_noisy_recovery_within_fifteen_percent(self):
        h = np.linspace(0.05, 0.45, 9)
        for seed in (1, 2, 3):
            curve = tail_estimate(_nested_gaussian_statistic(0.3, 5.0), h, 1000, seed, sigma=0.3)
            fit = gaussian_tail_fit(curve)
            assert abs(fit.slope_C - 5.0) / 5.0 < 0.15
            assert fit.r_squared > 0.99

    def test_synthetic_sigma_scaling_of_raw_rate(self):
        h = np.linspace(0.04, 0.44, 11)
        for seed in (4, 11, 23):
            c1 = tail_estimate(_nested_gaussian_statistic(0.2, 2.0), h, 1000, seed, sigma=0.2)
            c2 = tail_estimate(_nested_gaussian_statistic(0.4, 2.0), h, 1000, seed, sigma=0.4)
            f1, f2 = gaussian_tail_fit(c1), gaussian_tail_fit(c2)
            raw_ratio = (f1.slope_C / 0.2**2) / (f2.slope_C / 0.4**2)
            assert 3.0 < raw_ratio < 5.3

    def test_insufficient_cells_rejected(self):
        curve = TailCurve([0.1, 0.2, 0.3], [1.0, 0.5, 0.0], [0.9, 0.4, 0.0],
                          [1.0, 0.6, 0.1], 100, sigma=0.1)
        with pytest.raises(ValueError, match="4 cells"):
            gaussian_tail_fit(curve)

    def test_missing_sigma_rejected(self):
        h = np.linspace(0.1, 0.8, 6)
        p = np.exp(-h)
        curve = TailCurve(h, p, p * 0.9, np.clip(p * 1.1, 0, 1), 100)
        with pytest.raises(ValueError, match="sigma"):
            gaussian_tail_fit(curve)


@pytest.fixture(scope="module")
def lin_tail_pair():
    """Stochastic-convolution sup-norm curves at sigma and 2 sigma."""
    grid = TorusGrid(8, 3)
    tg = TimeGrid(1.0, 24)
    h = np.linspace(0.15, 0.45, 11)
    c1 = tail_estimate(
        linear_sup_statistic(grid, tg, 4, DAMPED, 0.1, -0.6), h, 400, 3,
        sigma=0.1, label="lin sup -0.6",
    )
    c2 = tail_estimate(
        linear_sup_statistic(grid, tg, 4, DAMPED, 0.2, -0.6), 2.0 * h, 400, 104,
        sigma=0.2, label="lin sup -0.6",
    )
    return c1, c2


class TestLinearStatisticTails:
    def test_gaussian_shape_of_sup_norm_tail(self, lin_tail_pair):
        c1, c2 = lin_tail_pair
        for curve in (c1, c2):
            fit = gaussian_tail_fit(curve)
            assert fit.slope_C > 0.0
            assert fit.r_squared > 0.95
            assert fit.cells >= 8

    def test_raw_rate_scales_by_four_between_sigmas(self, lin_tail_pair):
        c1, c2 = lin_tail_pair
        f1, f2 = gaussian_tail_fit(c1), gaussian_tail_fit(c2)
        raw_ratio = (f1.slope_C / c1.sigma**2) / (f2.slope_C / c2.sigma**2)
        assert 3.0 < raw_ratio < 5.3
        # the normalized slopes themselves must collapse
        assert 0.8 < f1.slope_C / f2.slope_C < 1.25

    def test_statistic_is_deterministic_per_replica(self):
        grid = TorusGrid(8, 2)
        stat = linear_sup_statistic(grid, TimeGrid(0.5, 8), 4, DAMPED, 0.1, -0.6)
        assert stat(0, 7) == stat(0, 7)
        assert stat(0, 7) != stat(1, 7)

    def test_warm_replica_allocates_no_block_stacks(self):
        # one block stack at 64^2 is 7 x 64^2 doubles = 224 KiB; a warm replica
        # peaked at 725 KiB with a buffer per replica and a weighted stack and
        # transform temporary per step, and at 203 KiB with them kept
        import tracemalloc

        grid = TorusGrid(64, 2)
        tg = TimeGrid(0.25, 20)
        stat = linear_sup_statistic(grid, tg, 31, CoefficientSet(0.0, -1.0, 0.25), 1.0, -0.5)
        stat(0, 7)
        tracemalloc.start()
        try:
            stat(1, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * 1024


class TestChaosFamilyTails:
    def test_literal_power_thresholds_share_gaussian_shape(self):
        # events are sup ||tau|| > h^k for the degree-k member of the
        # ensemble; each curve must fit the same exp(-c h^2/sigma^2) form
        grid = TorusGrid(8, 2)
        tg = TimeGrid(1.0, 16)
        sig, seed, reps = 0.7, 77, 250
        ct = quartic_renorm_mc(grid, tg, 3, DAMPED, seed, replicas=64, sigma=sig)
        family = {"lin": 1, "iwick3": 3, "res_iwick3_wick2": 5}

        def running_sups(replica, seed):
            sym = SymbolStepper(
                NoiseRealization(grid, tg, 3, seed, replica=replica), DAMPED, sig,
                ctilde=ct["estimate"],
            )
            best = np.zeros(len(family))
            for _ in range(tg.M):
                sym.step()
                vals = sym.values()
                for k, name in enumerate(family):
                    best[k] = max(best[k], besov_norm(SpectralField(grid, vals[name]), -0.6))
            return best

        sups = dict(zip(family, np.array(replicate(running_sups, reps, seed).T)))
        hgrids = {
            "lin": np.linspace(1.1, 2.4, 8),
            "iwick3": np.linspace(0.36, 0.56, 8),
            "res_iwick3_wick2": np.linspace(0.52, 0.78, 8),
        }
        for name, k in family.items():
            h = hgrids[name]
            raw = tail_estimate(lambda i, s: sups[name][i], h**k, reps, seed, sigma=sig)
            # literal event check: counts really are exceedances of h**k
            recount = [(sups[name] > hk).sum() for hk in h**k]
            assert list(raw.counts) == recount
            curve = TailCurve(
                h, raw.p_hat, raw.ci_low, raw.ci_high, reps,
                sigma=sig, label=f"order {k}", counts=raw.counts, seed=seed,
            )
            fit = gaussian_tail_fit(curve)
            assert np.isfinite(fit.slope_C) and fit.slope_C > 0.0
            assert fit.r_squared > 0.9
            assert fit.cells >= 5


class TestSerialization:
    def _curve(self):
        h = np.linspace(0.1, 0.5, 5)
        p = np.exp(-4.0 * h**2 / 0.4**2)
        counts = np.round(p * 500).astype(int)
        p = counts / 500.0
        return TailCurve(h, p, np.clip(p * 0.9, 0, 1), np.clip(p * 1.1 + 1e-3, 0, 1),
                         500, sigma=0.4, T=1.0, label="demo", seed=7, counts=counts)

    def test_csv_roundtrip(self, tmp_path):
        curve = self._curve()
        out = tmp_path / "curve.csv"
        tail_curve_csv(curve, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "p_hat", "ci_low", "ci_high"]
        assert len(rows) == 1 + len(curve)
        got = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.allclose(got[:, 0], curve.h_grid, rtol=1e-10)
        assert np.allclose(got[:, 1], curve.p_hat, rtol=1e-10)

    def test_json_report_fields(self, tmp_path):
        curve = self._curve()
        fit = gaussian_tail_fit(curve)
        out = tmp_path / "report.json"
        tail_report_json(curve, fit, out, config={"N": 8, "dim": 2})
        doc = json.loads(out.read_text())
        assert doc["label"] == "demo"
        assert doc["replicas"] == 500
        assert doc["seed"] == 7
        assert doc["config"] == {"N": 8, "dim": 2}
        assert abs(doc["fit"]["slope_C"] - fit.slope_C) < 1e-12
        assert doc["counts"] == [int(k) for k in curve.counts]
        assert doc["zero_cells"] == [int(i) for i in np.flatnonzero(curve.zero_cells)]

    def test_json_without_fit_and_byte_stability(self, tmp_path):
        curve = self._curve()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        tail_report_json(curve, None, a)
        tail_report_json(curve, None, b)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["fit"] is None


class TestLinearSolutionPath:
    def test_replicas_are_independent(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 12)
        a = linear_solution_path(NoiseRealization(grid, tg, 4, seed=5, replica=0), DAMPED, 0.3)
        b = linear_solution_path(NoiseRealization(grid, tg, 4, seed=5, replica=1), DAMPED, 0.3)
        # equal at t = 0, where both start from zero, and apart at every later time
        assert np.array_equal(a.coeffs[0], b.coeffs[0])
        assert all(not np.array_equal(x, y) for x, y in zip(a.coeffs[1:], b.coeffs[1:]))
