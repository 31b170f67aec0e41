"""Noise stream, exact-variance kernel, replica loop and renormalization
constant checks."""

import math
import os
import threading
import time

import numpy as np
import pytest
from scipy.special import roots_legendre

from phi4lab import noise
from phi4lab.coeffs import CoefficientSet
from phi4lab.concentration import linear_sup_statistic, linear_zero_mode_statistic
from phi4lab.grids import SpectralField, TorusGrid, product_spectra
from phi4lab.noise import (
    LinearPath,
    NoiseRealization,
    StepKernel,
    TimeGrid,
    lin_variance_curve,
    lin_variance_path,
    quartic_renorm_mc,
    record,
    replica_workers,
    replicate,
)
from phi4lab.paley import resonant


class TestTimeGrid:
    def test_values(self):
        tg = TimeGrid(2.0, 8)
        assert tg.dt == 0.25
        assert tg.ts[0] == 0.0 and tg.ts[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestRecord:
    """The one recording loop, on a counter standing in for a stepper's state."""

    @staticmethod
    def counter():
        state = {"j": 0}

        def step():
            state["j"] += 1

        return state, step

    def test_scalar_fields_at_every_kth_step_and_the_end(self):
        # scalar reads, as the symbol norm table makes them
        tg = TimeGrid(1.0, 7)
        state, step = self.counter()
        times, out = record(tg, 3, step, {"j": lambda: state["j"], "half": lambda: state["j"] / 2})
        assert np.array_equal(times, tg.ts[[0, 3, 6, 7]])
        assert out["j"].shape == (4,) and out["j"].dtype == np.int64
        assert out["j"].tolist() == [0, 3, 6, 7]
        assert out["half"].tolist() == [0.0, 1.5, 3.0, 3.5]
        assert state["j"] == 7

    def test_every_beyond_the_horizon_keeps_both_ends(self):
        tg = TimeGrid(1.0, 4)
        state, step = self.counter()
        times, out = record(tg, 10, step, {"j": lambda: state["j"]})
        assert np.array_equal(times, tg.ts[[0, 4]])
        assert out["j"].tolist() == [0, 4]
        with pytest.raises(ValueError, match="record_every"):
            record(tg, 0, step, {"j": lambda: state["j"]})

    def test_refuses_over_budget_before_the_first_step(self):
        # 1001 reads of 1 MiB each exceed the 768 MiB budget
        def step():
            raise AssertionError("stepped past the budget check")

        field = np.zeros(2**17)
        with pytest.raises(ValueError, match="~1001 MiB, over the 768 MiB budget"):
            record(TimeGrid(1.0, 1000), 1, step, {"f": lambda: field})


def _use_cpus(monkeypatch, n):
    """Let this process see ``n`` usable CPUs, so the replica loop runs up to ``n`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_children():
    # raises only when this process has no child at all, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exponential(i, seed):
    return np.random.default_rng((seed, i)).exponential()


def _triple(i, seed):
    """An array-valued statistic: three draws of replica ``i``."""
    return np.random.default_rng((seed, i)).normal(size=3)


class _Abort(BaseException):
    """Stands for an interrupt: not an ``Exception``, so no share catches it."""


class TestReplicaWorkers:
    """The one replica loop: any worker count gives the serial loop's values and errors."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_values_come_back_in_replica_order(self, monkeypatch, cpus):
        # a tail curve's counts do not see the order of the values; this array does
        _use_cpus(monkeypatch, cpus)
        values = replicate(_exponential, 100, 9)
        assert values.shape == (100,)
        assert np.array_equal(values, [_exponential(i, 9) for i in range(100)])
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_array_values_come_back_in_replica_order(self, monkeypatch, cpus):
        _use_cpus(monkeypatch, cpus)
        values = replicate(_triple, 7, 4)
        assert values.shape == (7, 3)
        assert values.tobytes() == np.array([_triple(i, 4) for i in range(7)]).tobytes()
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("odd", [{1}, {4}, {1, 2, 3, 4, 5}], ids=["1", "4", "1-5"])
    def test_shape_mismatch_rejected_naming_its_replica(self, monkeypatch, cpus, odd):
        # replica 1 is the first of a child's share, where only the parent can
        # compare it with replica 0; replica 4 is checked inside its share
        _use_cpus(monkeypatch, cpus)

        def stat(i, s):
            return np.zeros(2 if i in odd else 3)

        first = min(odd)
        with pytest.raises(ValueError, match=rf"^replica {first} gave a value of shape \(2,\), "
                                             r"where the replicas before it gave \(3,\)$"):
            replicate(stat, 6, 0)
        _assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_array_entry_rejected_naming_its_replica(self, monkeypatch, cpus):
        _use_cpus(monkeypatch, cpus)

        def stat(i, s):
            value = np.ones((2, 2))
            if i == 3:
                value[1, 0] = -math.inf
            return value

        with pytest.raises(ValueError, match=r"^replica 3 gave the non-finite value -inf "
                                             r"at index \(1, 0\)$"):
            replicate(stat, 5, 0)
        _assert_no_children()

    def test_failure_in_a_child_raises_its_type_and_message(self, monkeypatch):
        _use_cpus(monkeypatch, 2)

        def stat(i, s):
            if i == 3:  # odd replicas run in the one child
                raise RuntimeError("blow-up at replica 3")
            return 1.0

        with pytest.raises(RuntimeError, match=r"^blow-up at replica 3$"):
            replicate(stat, 5, 0)
        _assert_no_children()

    def test_lowest_failing_replica_is_raised(self, monkeypatch):
        # replica 1 fails in a child and replica 2 in this process: the serial
        # loop meets replica 1 first, and so does every worker count
        _use_cpus(monkeypatch, 3)

        def stat(i, s):
            if i in (1, 2):
                raise KeyError(f"replica {i}")
            return 1.0

        with pytest.raises(KeyError, match="replica 1"):
            replicate(stat, 6, 0)
        _assert_no_children()

    def test_child_that_dies_without_values_is_reported(self, monkeypatch):
        _use_cpus(monkeypatch, 2)

        def stat(i, s):
            if i == 1:
                os._exit(7)
            return 1.0

        with pytest.raises(RuntimeError, match="replica worker 1 ended without sending"):
            replicate(stat, 4, 0)
        _assert_no_children()

    def test_interrupted_caller_stops_its_children(self, monkeypatch):
        # the child would sleep for a minute; it is killed and reaped at once
        _use_cpus(monkeypatch, 2)

        def stat(i, s):
            if i == 0:
                raise _Abort
            time.sleep(60.0)
            return 1.0

        start = time.monotonic()
        with pytest.raises(_Abort):
            replicate(stat, 2, 0)
        assert time.monotonic() - start < 30.0
        _assert_no_children()

    def test_at_least_one_replica(self):
        with pytest.raises(ValueError, match="need at least one replica, got 0"):
            replicate(_exponential, 0, 0)

    def test_one_worker_without_fork(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        assert replica_workers(5) == 1
        assert np.array_equal(replicate(_exponential, 5, 9), [_exponential(i, 9) for i in range(5)])

    def test_one_worker_while_another_thread_runs(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert replica_workers(5) == 1
        finally:
            stop.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert replica_workers(5) == 3

    def test_quartic_monte_carlo_is_bitwise_equal_for_every_worker_count(self, monkeypatch):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.25, 6)
        cs = CoefficientSet(f2=0.3, a=[-1.0, 0.5], T=0.25)
        reps = []
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            reps.append(quartic_renorm_mc(grid, tg, 3, cs, seed=41, replicas=7))
        for rep in reps[1:]:
            for key in ("estimate", "se", "raw_mean"):
                assert rep[key].tobytes() == reps[0][key].tobytes()
        _assert_no_children()


class TestNoiseRealization:
    def test_increment_is_kept_and_read_only(self):
        grid = TorusGrid(8, 2)
        fine = NoiseRealization(grid, TimeGrid(1.0, 8), 4, seed=5)
        coarse = fine.aggregate(2)
        for nz in (fine, coarse):
            dw = nz.increment(1)
            assert nz.increment(1) is dw
            assert not dw.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                dw[0, 0] = 1.0
        # the kept increment is the one a fresh realization draws
        fresh = NoiseRealization(grid, TimeGrid(1.0, 8), 4, seed=5)
        assert np.array_equal(fine.increment(1), fresh.increment(1))
        with pytest.raises(ValueError, match="step 8 outside"):
            fine.increment(8)

    def test_deterministic_and_random_access(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(1.0, 8)
        a = NoiseRealization(grid, tg, 4, seed=12345, replica=3)
        b = NoiseRealization(grid, tg, 4, seed=12345, replica=3)
        assert np.array_equal(a.increment(5), b.increment(5))
        # order of access must not matter
        first = a.increment(2).copy()
        a.increment(7)
        assert np.array_equal(a.increment(2), first)

    def test_streams_differ(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(1.0, 4)
        base = NoiseRealization(grid, tg, 4, seed=1, replica=0, role=0)
        assert not np.array_equal(
            base.increment(0),
            NoiseRealization(grid, tg, 4, seed=1, replica=1, role=0).increment(0),
        )
        assert not np.array_equal(
            base.increment(0),
            NoiseRealization(grid, tg, 4, seed=1, replica=0, role=1).increment(0),
        )
        assert not np.array_equal(base.increment(0), base.increment(1))

    def test_band_mask(self):
        grid = TorusGrid(16, 2)
        tg = TimeGrid(1.0, 4)
        noise = NoiseRealization(grid, tg, 3, seed=7)
        dw = noise.increment(0)
        assert np.all(dw[grid.kinf > 3] == 0)
        assert np.any(dw[grid.kinf <= 3] != 0)

    def test_increment_variance(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(1.0, 4)
        acc = np.zeros(grid.hshape)
        R = 600
        for r in range(R):
            dw = NoiseRealization(grid, tg, 4, seed=99, replica=r).increment(0)
            acc += np.abs(dw) ** 2
        acc /= R * tg.dt
        assert abs(acc.mean() - 1.0) < 0.05
        assert np.all(np.abs(acc - 1.0) < 0.5)

    def test_aggregate_sums_increments(self):
        grid = TorusGrid(8, 2)
        fine = NoiseRealization(grid, TimeGrid(1.0, 8), 4, seed=5)
        coarse = fine.aggregate(2)
        assert coarse.timegrid.M == 4
        expect = fine.increment(4) + fine.increment(5)
        assert np.array_equal(coarse.increment(2), expect)

    def test_aggregate_validation(self):
        grid = TorusGrid(8, 2)
        fine = NoiseRealization(grid, TimeGrid(1.0, 8), 4, seed=5)
        with pytest.raises(ValueError):
            fine.aggregate(3)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            NoiseRealization(TorusGrid(8, 2), TimeGrid(1.0, 4), 5, seed=0)


class TestStepKernel:
    def test_gauss_legendre_nodes_match_scipy_and_integrate_monomials(self):
        x, w = noise._gauss_legendre()
        assert noise._gauss_legendre() is noise._gauss_legendre()
        xs, ws = roots_legendre(noise._GL_NODES)
        # measured: 1.1e-16 absolute on the nodes, 1.8e-13 relative on the weights
        np.testing.assert_allclose(x, xs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(w, ws, rtol=1e-12, atol=0)
        # exact for polynomials of degree 2 * 48 - 1 (measured error 7.3e-15)
        for m in range(2 * noise._GL_NODES):
            exact = 0.0 if m % 2 else 2.0 / (m + 1)
            assert abs(np.sum(w * x**m) - exact) < 1e-14

    def test_constant_coefficient_closed_form_matches_quadrature(self):
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.5, 10)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.5)
        kern = StepKernel(grid, tg, cs.a)
        closed = kern.variance(3)
        lv, inv = np.unique(grid.k2.ravel(), return_inverse=True)
        Ld = 4.0 * np.pi**2 * lv.astype(np.float64)
        row = noise._damped_kernel_integral(Ld, cs.a.integ(), tg.ts[4], tg.dt,
                                            noise._gauss_legendre())
        gl = row[inv].reshape(grid.hshape)
        assert np.max(np.abs(closed - gl) / closed) < 1e-12

    def test_polynomial_coefficient_variance_consistent_over_steps(self):
        # for a(t) = const the polynomial path must agree with the cache
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 5)
        cs_poly = CoefficientSet(f2=0.0, a=[-1.0, 0.0], T=0.5)  # degree 1, constant value
        cs_const = CoefficientSet(f2=0.0, a=-1.0, T=0.5)
        kp = StepKernel(grid, tg, cs_poly.a)
        kc = StepKernel(grid, tg, cs_const.a)
        assert np.max(np.abs(kp.variance(2) - kc.variance(2))) < 1e-14
        assert np.max(np.abs(kp.propagator(2) - kc.propagator(2))) < 1e-15

    def test_etd_weight_limit(self):
        grid = TorusGrid(8, 1)
        tg = TimeGrid(1.0, 10)
        cs = CoefficientSet(f2=0.0, a=0.0, T=1.0)
        kern = StepKernel(grid, tg, cs.a)
        w = kern.etd_weight(0)
        assert abs(w[0] - tg.dt) < 1e-14  # zero mode: plain Euler weight
        assert np.all(w <= tg.dt + 1e-14)

    def test_propagator_matches_exact_exponential(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(1.0, 4)
        cs = CoefficientSet(f2=0.0, a=[-0.5, 1.0], T=1.0)
        kern = StepKernel(grid, tg, cs.a)
        j = 2
        expect = np.exp(cs.alpha(tg.ts[j + 1], tg.ts[j]) - 4 * np.pi**2 * grid.k2 * tg.dt)
        assert np.max(np.abs(kern.propagator(j) - expect)) < 1e-14

    def test_kept_arrays_are_read_only(self):
        # a looked-up kernel steps every path of its key, so no caller may write into
        # what it keeps; what it hands out is a fresh gather, free to write
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 5)
        for a in (-1.0, [-1.0, 0.5]):
            kern = noise.step_kernel(grid, tg, CoefficientSet(f2=0.0, a=a, T=0.5))
            for method in (kern.propagator, kern.etd_weight, kern.variance, kern.amplitude):
                out = method(2)
                out *= 2.0
                assert not np.array_equal(method(2), out)
            assert kern._rows
            kept = [row for rows in kern._rows.values() for row in rows]
            assert len(kept) == 4 * len(kern._rows)
            for arr in kept + [kern._Ld, kern._linv, kern._alphas]:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0

    @pytest.mark.parametrize("a", [-1.0, [-1.0, 0.5]], ids=["constant", "polynomial"])
    def test_amplitude_is_the_root_of_variance_over_dt(self, a):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 5)
        kern = StepKernel(grid, tg, CoefficientSet(f2=0.0, a=a, T=0.5).a)
        for j in range(tg.M):
            assert kern.amplitude(j).tobytes() == np.sqrt(kern.variance(j) / tg.dt).tobytes()

    def test_constant_damping_keeps_one_row(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 5)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.5)
        nz = NoiseRealization(grid, tg, 3, seed=5)
        path = LinearPath(nz, cs, 0.5)
        for _ in range(tg.M):
            path.step()
            path.kernel.etd_weight(path.j - 1)
        assert list(path.kernel._rows) == [0]


class TestStepKernelRows:
    """With non-constant damping each step's quadrature and ETD rows are computed once."""

    GRID = TorusGrid(8, 2)
    TG = TimeGrid(0.5, 6)
    COEFFS = CoefficientSet(f2=0.0, a=[-1.0, 0.5], T=0.5)

    def test_variance_equals_fresh_quadrature_expansion(self):
        grid, tg, cs = self.GRID, self.TG, self.COEFFS
        lv, inv = np.unique(grid.k2.ravel(), return_inverse=True)
        Ld = 4.0 * np.pi**2 * lv.astype(np.float64)
        gl = noise._gauss_legendre()
        kern = StepKernel(grid, tg, cs.a)
        for _ in range(2):  # the second pass reads the stored rows
            for j in range(tg.M):
                row = noise._damped_kernel_integral(Ld, cs.a.integ(), tg.ts[j + 1], tg.dt, gl)
                assert np.array_equal(kern.variance(j), row[inv].reshape(grid.hshape))

    def test_quadrature_blocks_equal_one_pass(self):
        # 64^2 has 457 distinct |w|^2, so the quadrature runs in four blocks
        lv = np.unique(TorusGrid(64, 2).k2.ravel())
        Ld = 4.0 * np.pi**2 * lv.astype(np.float64)
        assert len(Ld) > 3 * noise._QUAD_ROWS
        A = self.COEFFS.a.integ()
        xi, wt = noise._gauss_legendre()
        for t1, span in ((0.25, 0.05), (0.5, 0.5)):
            tau_star = np.minimum(span, noise._TAIL / np.maximum(Ld, 1e-300))
            tau_star[Ld == 0] = span
            tau = tau_star[:, None] * (xi[None, :] + 1.0) / 2.0
            weights = tau_star[:, None] / 2.0 * wt[None, :]
            expo = 2.0 * (A(t1) - A(t1 - tau)) - 2.0 * Ld[:, None] * tau
            one_pass = np.sum(weights * np.exp(expo), axis=1)
            got = noise._damped_kernel_integral(Ld, A, t1, span, (xi, wt))
            assert got.tobytes() == one_pass.tobytes()

    def test_quadrature_runs_once_per_step_across_replicas(self, monkeypatch):
        calls = []
        quad = noise._damped_kernel_integral

        def counting(*args):
            calls.append(args[2])
            return quad(*args)

        monkeypatch.setattr(noise, "_damped_kernel_integral", counting)
        noise._cached_kernel.cache_clear()  # no rows kept from an earlier test
        stat = linear_sup_statistic(self.GRID, self.TG, 4, self.COEFFS, 0.5, -0.55)
        for r in range(5):
            stat(r, 3)
        assert sorted(calls) == sorted(self.TG.ts[1:])

    def test_etd_weight_equals_fresh_evaluation(self):
        grid, tg, cs = self.GRID, self.TG, self.COEFFS
        L = 4.0 * np.pi**2 * grid.k2.astype(np.float64)
        kern = StepKernel(grid, tg, cs.a)
        for _ in range(2):  # the second pass reads the stored rows
            for j in range(tg.M):
                fresh = tg.dt * noise._phi1(cs.alpha(tg.ts[j + 1], tg.ts[j]) - L * tg.dt)
                got = kern.etd_weight(j)
                assert got.shape == fresh.shape
                assert got.tobytes() == fresh.tobytes()

    def test_etd_weight_runs_once_per_step_across_replicas(self, monkeypatch):
        calls = []
        phi1 = noise._phi1

        def counting(z):
            calls.append(np.size(z))
            return phi1(z)

        monkeypatch.setattr(noise, "_phi1", counting)
        noise._cached_kernel.cache_clear()  # no rows kept from an earlier test
        # one CPU: every replica runs in this process, where the count sees it
        _use_cpus(monkeypatch, 1)
        quartic_renorm_mc(self.GRID, self.TG, 3, self.COEFFS, 7, replicas=5)
        assert len(calls) == self.TG.M

    def test_rows_are_built_once_per_step_across_replicas(self):
        # every replica of a configuration steps with the rows the first one built
        noise._cached_kernel.cache_clear()  # no rows kept from an earlier test
        first = None
        for r in range(4):
            path = LinearPath(NoiseRealization(self.GRID, self.TG, 3, seed=5, replica=r),
                              self.COEFFS, 0.5)
            for _ in range(self.TG.M):
                path.step()
            if first is None:
                kern, first = path.kernel, dict(path.kernel._rows)
            assert path.kernel is kern
        for j in range(self.TG.M):
            kern.propagator(j), kern.etd_weight(j), kern.variance(j), kern.amplitude(j)
        assert sorted(kern._rows) == list(range(self.TG.M))
        assert all(kern._rows[j] is first[j] for j in kern._rows)


class TestLinearPath:
    def test_sigma_linearity_exact(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 8)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.5)

        def run(sigma):
            noise = NoiseRealization(grid, tg, 4, seed=11, replica=0)
            p = LinearPath(noise, cs, sigma)
            for _ in range(8):
                p.step()
            return p.state

        one = run(1.0)
        two = run(2.0)
        assert np.max(np.abs(two - 2.0 * one)) < 1e-14

    def test_mode_zero_matches_ou_law(self):
        # for a = -1 the zero mode is an OU process with
        # variance sigma^2 (1 - exp(-2t)) / 2
        grid = TorusGrid(2, 1)
        tg = TimeGrid(1.0, 16)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=1.0)
        sigma = 0.8
        R = 3000
        vals = replicate(linear_zero_mode_statistic(grid, tg, 0, cs, sigma), R, 2024)
        target = sigma**2 * (1 - np.exp(-2.0)) / 2.0
        vhat = vals.var(ddof=1)
        se = target * np.sqrt(2.0 / R)
        assert abs(vhat - target) < 4 * se


class TestVarianceCurves:
    def test_recursion_matches_quadrature_constant(self):
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.5, 20)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.5)
        path = lin_variance_path(grid, tg, 4, cs, sigma=0.7)
        curve = lin_variance_curve(grid, 4, cs, 0.7, tg.ts)
        assert np.max(np.abs(path - curve)) / curve[-1] < 1e-12

    def test_recursion_matches_quadrature_polynomial(self):
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.5, 20)
        cs = CoefficientSet(f2=0.0, a=[-1.0, -0.5, 0.3], T=0.5)
        path = lin_variance_path(grid, tg, 4, cs, sigma=1.0)
        curve = lin_variance_curve(grid, 4, cs, 1.0, tg.ts)
        assert np.max(np.abs(path - curve)) / curve[-1] < 1e-9

    def test_monte_carlo_agrees(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.5, 10)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.5)
        sigma = 0.7
        R = 500
        vals = np.empty(R)
        hw = grid.half_weights
        for r in range(R):
            noise = NoiseRealization(grid, tg, 4, seed=77, replica=r)
            p = LinearPath(noise, cs, sigma)
            for _ in range(10):
                p.step()
            vals[r] = np.sum(hw * np.abs(p.state) ** 2)
        exact = lin_variance_path(grid, tg, 4, cs, sigma)[-1]
        z = (vals.mean() - exact) / (vals.std(ddof=1) / np.sqrt(R))
        assert abs(z) < 4

    def test_negative_time_rejected(self):
        grid = TorusGrid(8, 2)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=1.0)
        with pytest.raises(ValueError):
            lin_variance_curve(grid, 4, cs, 1.0, [-0.1])

    def test_kernel_lookup_is_keyed_by_grid_horizon_steps_and_damping(self):
        # each variant changes one thing a kernel reads; in either call order,
        # each gets its own kernel, so each variance path is the recursion of
        # a fresh kernel bit for bit (a shared one would give a = 2 the 0.337
        # of a = -1, or a = -1 the 0.575 of a = 2)
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.25, 8)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.5)

        def fresh(grid, tg, cs):
            kern = StepKernel(grid, tg, cs.a)
            hw = grid.half_weights * (grid.kinf <= 3)
            var = np.zeros(grid.hshape)
            out = [0.0]
            for j in range(tg.M):
                var = kern.propagator(j) ** 2 * var + kern.variance(j)
                out.append(float(np.sum(hw * var)))
            return np.array(out)

        base = (grid, tg, cs)
        variants = [(grid, TimeGrid(0.5, 8), cs), (grid, TimeGrid(0.25, 16), cs),
                    (TorusGrid(8, 1), tg, cs), (grid, tg, CoefficientSet(f2=0.0, a=2.0, T=0.5))]
        for variant in variants:
            for order in ((base, variant), (variant, base)):
                noise._cached_kernel.cache_clear()
                for g, t, c in order:
                    got = lin_variance_path(g, t, 3, c, 1.0)
                    assert got.tobytes() == fresh(g, t, c).tobytes()
        assert abs(lin_variance_path(grid, tg, 3, cs, 1.0)[-1] - 0.337) < 5e-4
        assert abs(lin_variance_path(grid, tg, 3, variants[-1][2], 1.0)[-1] - 0.575) < 5e-4

    def test_equal_keys_share_one_kernel(self):
        grid = TorusGrid(8, 2)
        cs = CoefficientSet(f2=0.0, a=[-1.0, 0.5], T=0.5)
        kern = noise.step_kernel(grid, TimeGrid(0.25, 8), cs)
        # another TimeGrid, grid object and f2 with the same key: the same kernel
        other = CoefficientSet(f2=0.7, a=[-1.0, 0.5], T=1.0)
        assert noise.step_kernel(TorusGrid(8, 2), TimeGrid(0.25, 8), other) is kern
        nudged = CoefficientSet(f2=0.0, a=[-1.0, 0.4], T=0.5)
        assert noise.step_kernel(grid, TimeGrid(0.25, 8), nudged) is not kern


class TestQuarticConstant:
    def test_pairing_mean_equals_resonant_field_average(self):
        # the spectral inner product used by the estimator must equal the
        # spatial mean of the literal resonant product, path by path
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.25, 8)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.25)
        kern = StepKernel(grid, tg, cs.a)
        noise = NoiseRealization(grid, tg, 2, seed=13, replica=0, role=1)
        from phi4lab.grids import product_spectra
        from phi4lab.noise import ROLE_RENORM
        from phi4lab.paley import default_partition

        lin = LinearPath(noise, cs, 1.0)
        var = np.zeros(grid.hshape)
        iw2 = np.zeros(grid.hshape, dtype=np.complex128)
        band = min(4, grid.N // 2 - 1)
        hw = grid.half_weights
        mask = grid.kinf <= 2
        c = 0.0
        for j in range(8):
            w2 = product_spectra([lin.state, lin.state], grid.N, band=band)
            w2[0, 0, 0] -= c
            iw2 = kern.propagator(j) * iw2 + kern.etd_weight(j) * w2
            var = kern.propagator(j) ** 2 * var + kern.variance(j)
            c = float(np.sum(hw * np.where(mask, var, 0.0)))
            lin.step()
        w2 = product_spectra([lin.state, lin.state], grid.N, band=band)
        w2[0, 0, 0] -= c
        w_pair = hw * default_partition(grid).resonance_weight()
        inner = float(np.sum(w_pair * (iw2 * np.conj(w2)).real))
        res = resonant(SpectralField(grid, iw2), SpectralField(grid, w2))
        assert abs(inner - res.coeff((0, 0, 0)).real) < 1e-12 * max(1.0, abs(inner))

    @pytest.mark.parametrize("N,dim,cutoff", [(8, 3, 2), (16, 2, 5)])
    def test_one_replica_is_the_symbol_stepper_pairing(self, N, dim, cutoff):
        # the Monte Carlo's iwick2 recursion is the symbol stepper's: with one
        # replica, its raw pairing is the zero mode of the uncentred
        # res_iwick2_wick2 of that replica's stream at every grid time, so
        # subtracting twice the estimate centres the symbol it is built for
        from phi4lab.noise import ROLE_RENORM
        from phi4lab.symbols import SymbolStepper

        grid = TorusGrid(N, dim)
        tg = TimeGrid(0.25, 8)
        cs = CoefficientSet(f2=0.4, a=[-1.0, 0.5], T=0.25)
        rep = quartic_renorm_mc(grid, tg, cutoff, cs, seed=19, replicas=1)
        nz = NoiseRealization(grid, tg, cutoff, 19, replica=0, role=ROLE_RENORM)
        st = SymbolStepper(nz, cs, 1.0, ctilde=0.0)
        zero = (0,) * dim
        for j in range(tg.M + 1):
            r22 = st.catalog()["res_iwick2_wick2"][zero]
            assert abs(r22.imag) <= 1e-12 * abs(r22.real)
            assert abs(rep["raw_mean"][j] - r22.real) <= 1e-12 * abs(r22.real)
            if j < tg.M:
                st.step()
        assert rep["raw_mean"][-1] > 0.0

    def test_sigma_scaling_exact(self):
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.25, 6)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.25)
        one = quartic_renorm_mc(grid, tg, 2, cs, seed=21, replicas=8, sigma=1.0)
        # bitwise: chaos_components scales a unit-amplitude estimate by sigma**4
        for s in (2.0, 0.37):
            other = quartic_renorm_mc(grid, tg, 2, cs, seed=21, replicas=8, sigma=s)
            assert np.array_equal(other["estimate"], s**4 * one["estimate"])

    def test_initial_time_zero(self):
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.25, 6)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.25)
        rep = quartic_renorm_mc(grid, tg, 2, cs, seed=22, replicas=4)
        assert rep["estimate"][0] == 0.0

    def test_positive_at_later_times(self):
        grid = TorusGrid(8, 3)
        tg = TimeGrid(0.25, 8)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.25)
        rep = quartic_renorm_mc(grid, tg, 3, cs, seed=23, replicas=96)
        assert rep["estimate"][8] > 0
        assert rep["estimate"][8] > 2 * rep["se"][8]

    def test_quartic_constant_is_the_isserlis_sum_on_the_coarse_grid(self):
        # up to 50 steps the constant is the term-by-term Isserlis sum on the
        # caller's own grid; past 50 it is the 50-step constant, bit for bit
        grid = TorusGrid(8, 2)
        cs = CoefficientSet(f2=0.0, a=[-1.0, 0.5], T=0.25)
        for M in (1, 2, 8):
            got = noise.quartic_constant(grid, 0.25, M, 3, cs, sigma=0.5)
            want = 0.5**4 * isserlis_reference(grid, TimeGrid(0.25, M), 3, cs)
            assert np.array_equal(got["times"], TimeGrid(0.25, M).ts)
            assert np.allclose(got["estimate"], want, rtol=1e-12, atol=0.0)
        coarse = noise.quartic_constant(grid, 0.25, 80, 3, cs)
        assert np.array_equal(coarse["times"], TimeGrid(0.25, 50).ts)
        at_cap = noise.quartic_constant(grid, 0.25, 50, 3, cs)
        assert np.array_equal(coarse["estimate"], at_cap["estimate"])

    @pytest.mark.parametrize("N,dim,cutoff,M", [(8, 2, 3, 3), (6, 3, 2, 3)])
    def test_quartic_constant_within_monte_carlo_error(self, N, dim, cutoff, M):
        # the exact constant is the mean the Monte Carlo samples: within 4
        # standard errors at every grid time, and both are zero where the
        # pairing has no earlier step to integrate (t_0 and t_1)
        grid = TorusGrid(N, dim)
        cs = CoefficientSet(f2=0.3, a=[-1.0, 0.5], T=0.25)
        exact = noise.quartic_constant(grid, 0.25, M, cutoff, cs)["estimate"]
        mc = quartic_renorm_mc(grid, TimeGrid(0.25, M), cutoff, cs, seed=41, replicas=2000)
        assert np.all(exact[:2] == 0.0) and np.all(mc["estimate"][:2] == 0.0)
        assert np.all(mc["se"][2:] > 0.0)
        z = (exact[2:] - mc["estimate"][2:]) / mc["se"][2:]
        assert np.all(np.abs(z) <= 4.0), z
        assert np.all(exact[2:] > 0.0)

    def test_quartic_constant_scales_as_sigma_to_the_fourth_bitwise(self):
        grid = TorusGrid(8, 3)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.25)
        one = noise.quartic_constant(grid, 0.25, 6, 2, cs)["estimate"]
        for s in (2.0, 0.37):
            other = noise.quartic_constant(grid, 0.25, 6, 2, cs, sigma=s)["estimate"]
            assert np.array_equal(other, s**4 * one)


def serial_quartic_constant(grid, T, M, cutoff, cs, sigma=1.0):
    """The serial double loop ``quartic_constant`` ran before its rows were
    spread over the replica workers, kept as the bitwise reference."""
    from phi4lab.paley import default_partition

    coarse = TimeGrid(T, min(50, M))
    kern = StepKernel(grid, coarse, cs.a)
    band = min(2 * cutoff, grid.N // 2 - 1)
    mask = grid.kinf <= cutoff
    w_pair = grid.half_weights * default_partition(grid).resonance_weight()
    raw = np.zeros(coarse.M + 1)
    var = np.zeros(grid.hshape)
    for i in range(1, coarse.M):
        var = kern.propagator(i - 1) ** 2 * var + kern.variance(i - 1)
        cov = np.where(mask, var, 0.0)
        weight = kern.etd_weight(i)
        for j in range(i + 1, coarse.M + 1):
            prop = kern.propagator(j - 1)
            cov = prop * cov
            if j > i + 1:
                weight = prop * weight
            square = product_spectra([cov, cov], grid.N, band=band).real
            raw[j] += 2.0 * float(np.sum(w_pair * weight * square))
    return {"times": coarse.ts.copy(), "estimate": 0.5 * sigma**4 * raw}


class TestQuarticConstantRows:
    """The rows of the Isserlis sum run as the tasks of the replica loop."""

    @pytest.mark.parametrize("N,dim,cutoff,M", [(8, 2, 3, 8), (6, 3, 2, 6), (16, 2, 5, 20),
                                                (8, 2, 3, 1), (8, 2, 3, 2)],
                             ids=["8^2", "6^3", "16^2", "no-row", "one-row"])
    def test_bitwise_equal_to_the_serial_loop_at_every_worker_count(self, monkeypatch,
                                                                    N, dim, cutoff, M):
        grid = TorusGrid(N, dim)
        cs = CoefficientSet(f2=0.3, a=[-1.0, 0.5], T=0.25)
        want = serial_quartic_constant(grid, 0.25, M, cutoff, cs, sigma=0.7)
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            got = noise.quartic_constant(grid, 0.25, M, cutoff, cs, sigma=0.7)
            assert np.array_equal(got["times"], want["times"])
            assert np.array_equal(got["estimate"], want["estimate"])
        _assert_no_children()

    def test_step_rows_are_built_before_the_fork(self, monkeypatch):
        # every row the workers read is in the caller's kernel when it forks,
        # so no child builds its own copy
        grid = TorusGrid(8, 2)
        cs = CoefficientSet(f2=0.0, a=[-1.0, 0.25], T=0.25)
        kern = noise.step_kernel(grid, TimeGrid(0.25, 7), cs)
        at_fork = []
        fork = os.fork

        def recording_fork():
            at_fork.append(sorted(kern._rows))
            return fork()

        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", recording_fork)
        noise.quartic_constant(grid, 0.25, 7, 3, cs)
        assert at_fork == [list(range(7))] * 2
        _assert_no_children()


def isserlis_reference(grid, tg, cutoff, cs):
    """The unit-amplitude quartic constant written out term by term, O(M^3).

    ``0.5 sum_k w_pair(k) sum_{0<i<j} G_ij(k) 2 (C_ij * C_ij)(k)`` with every
    propagator product formed afresh for each pair of steps.
    """
    from phi4lab.paley import default_partition

    kern = StepKernel(grid, tg, cs.a)
    band = min(2 * cutoff, grid.N // 2 - 1)
    mask = grid.kinf <= cutoff
    w_pair = grid.half_weights * default_partition(grid).resonance_weight()
    var = [np.zeros(grid.hshape)]
    for j in range(tg.M):
        var.append(kern.propagator(j) ** 2 * var[-1] + kern.variance(j))

    def propagate(lo, hi):
        out = np.ones(grid.hshape)
        for step in range(lo, hi):
            out = out * kern.propagator(step)
        return out

    raw = np.zeros(tg.M + 1)
    for j in range(tg.M + 1):
        for i in range(1, j):
            cov = propagate(i, j) * np.where(mask, var[i], 0.0)
            weight = propagate(i + 1, j) * kern.etd_weight(i)
            square = product_spectra([cov, cov], grid.N, band=band).real
            raw[j] += np.sum(w_pair * weight * 2.0 * square)
    return 0.5 * raw


class TestWickCentring:
    """The zero mode of the dealiased square of a linear path is its Parseval
    sum at every cutoff the configuration accepts (below N/2); at N/2 the
    Nyquist slots are halved and the square falls short."""

    @pytest.mark.parametrize("N,dim", [(8, 2), (16, 3)])
    def test_square_zero_mode_is_parseval_sum(self, N, dim):
        grid = TorusGrid(N, dim)
        tg = TimeGrid(0.1, 3)
        cs = CoefficientSet(f2=0.0, a=-1.0, T=0.1)
        zero = (0,) * dim

        def square_and_sum(cutoff):
            path = LinearPath(NoiseRealization(grid, tg, cutoff, seed=31), cs, 1.0)
            for _ in range(tg.M):
                path.step()
            s = path.state
            square = product_spectra([s, s], N)[zero].real
            return square, float(np.sum(grid.half_weights * np.abs(s) ** 2))

        for cutoff in range(1, N // 2):
            square, parseval = square_and_sum(cutoff)
            assert abs(square - parseval) <= 1e-13 * parseval, cutoff
        square, parseval = square_and_sum(N // 2)
        assert square < parseval * (1.0 - 1e-6)


def test_centred_routes_reject_cutoff_at_half_grid():
    # the Wick square is centred only below N/2, so the steppers, the
    # quartic constant and its estimator refuse N/2 and name the field; the
    # noise and the linear path, which carry no Wick subtraction, accept it
    from phi4lab.solvers import RenormalizedStepper
    from phi4lab.symbols import SymbolStepper

    grid = TorusGrid(8, 2)
    tg = TimeGrid(0.1, 2)
    cs = CoefficientSet(f2=0.0, a=-1.0, T=0.1)
    at_half = NoiseRealization(grid, tg, 4, seed=0)
    with pytest.raises(ValueError, match="cutoff"):
        SymbolStepper(at_half, cs, 1.0, ctilde=0.0)
    with pytest.raises(ValueError, match="cutoff"):
        RenormalizedStepper(at_half, cs, 1.0, ctilde=0.0)
    with pytest.raises(ValueError, match="cutoff"):
        quartic_renorm_mc(grid, tg, 4, cs, seed=0, replicas=2)
    with pytest.raises(ValueError, match="cutoff"):
        noise.quartic_constant(grid, tg.T, tg.M, 4, cs)
    path = LinearPath(at_half, cs, 1.0)
    for _ in range(tg.M):
        path.step()
    SymbolStepper(NoiseRealization(grid, tg, 3, seed=0), cs, 1.0, ctilde=0.0).step()
