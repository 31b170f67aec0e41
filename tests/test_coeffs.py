"""Coefficient algebra checked against quadrature and ODE oracles."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad, solve_ivp

from phi4lab.coeffs import (
    CoefficientSet,
    as_poly,
    equilibrium_ode,
    normalize_cubic,
    poly_extrema,
    recentre,
)


class TestPolyBasics:
    def test_as_poly_accepts_scalar_sequence_poly(self):
        assert as_poly(2.0)(13.0) == 2.0
        assert as_poly([1.0, -2.0])(3.0) == -5.0
        p = Polynomial([0.0, 1.0])
        assert as_poly(p) is p

    def test_poly_extrema_against_dense_scan(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = Polynomial(rng.standard_normal(5))
            lo, hi = sorted(rng.uniform(-2, 2, size=2))
            if hi - lo < 1e-3:
                continue
            mn, mx = poly_extrema(p, lo, hi)
            ts = np.linspace(lo, hi, 20001)
            vals = p(ts)
            assert mn <= vals.min() + 1e-12
            assert mx >= vals.max() - 1e-12
            assert abs(mn - vals.min()) < 1e-6
            assert abs(mx - vals.max()) < 1e-6

    def test_poly_extrema_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            poly_extrema(Polynomial([1.0]), 1.0, 0.0)


class TestCoefficientSet:
    def test_alpha_matches_quadrature(self):
        cs = CoefficientSet(f2=0.5, a=[-1.0, -0.5, 0.25], T=2.0)
        for u, t in [(0.0, 1.0), (0.3, 1.7), (1.0, 1.0)]:
            ref, _ = quad(cs.a, u, t)
            assert abs(cs.alpha(t, u) - ref) < 1e-10

    def test_alpha_additive(self):
        cs = CoefficientSet(f2=0.0, a=[-2.0, 1.0], T=1.0)
        total = cs.alpha(0.9, 0.1)
        split = cs.alpha(0.5, 0.1) + cs.alpha(0.9, 0.5)
        assert abs(total - split) < 1e-14

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            CoefficientSet(f2=0.0, a=0.0, T=0.0)


class TestNormalizeCubic:
    def test_transform_identity(self):
        # the normalized reaction plus rescaling correction must reproduce
        # the original one pointwise: (1/lam) G(lam v) - (lam'/lam) v
        a3 = Polynomial([-2.0, -0.3])
        a2 = Polynomial([0.5, 1.0])
        a1 = Polynomial([1.0, 0.0, -0.2])
        a0 = Polynomial([0.1])
        nc = normalize_cubic(a3, a2, a1, a0, T=1.0)
        rng = np.random.default_rng(42)
        for _ in range(10):
            t = rng.uniform(0, 1)
            v = rng.uniform(-2, 2)
            lam = nc.lam(t)
            lamdot = -0.5 * a3.deriv()(t) / a3(t) * lam
            orig = a3(t) * (lam * v) ** 3 + a2(t) * (lam * v) ** 2 + a1(t) * lam * v + a0(t)
            lhs = orig / lam - (lamdot / lam) * v
            rhs = -(v**3) + nc.b2(t) * v**2 + nc.b1(t) * v + nc.b0(t)
            assert abs(lhs - rhs) < 1e-12

    def test_constant_leading_coefficient(self):
        nc = normalize_cubic(-2.0, 1.0, 0.5, 0.0, T=1.0)
        lam = 2.0**-0.5
        assert abs(nc.lam(0.3) - lam) < 1e-15
        assert abs(nc.b2(0.3) - lam) < 1e-15
        assert abs(nc.b1(0.3) - 0.5) < 1e-15  # constant a3 adds nothing
        assert abs(nc.noise_scale(0.3) - 1 / lam) < 1e-15

    def test_rejects_nonnegative_leading(self):
        with pytest.raises(ValueError):
            normalize_cubic([-1.0, 2.0], 0.0, 0.0, 0.0, T=1.0)


class TestRecentre:
    def test_pointwise_identity(self):
        # original reaction at phibar + x == recentred reaction at x
        # plus phibar' plus residual, identically in (t, x)
        b2 = Polynomial([0.4, -0.1])
        b1 = Polynomial([1.0, 0.5])
        b0 = Polynomial([-0.3])
        m = Polynomial([0.7, 0.2, -0.05])
        cs, res = recentre(b2, b1, b0, m, T=1.5)
        rng = np.random.default_rng(43)
        for _ in range(10):
            t = rng.uniform(0, 1.5)
            x = rng.uniform(-2, 2)
            tot = m(t) + x
            lhs = -(tot**3) + b2(t) * tot**2 + b1(t) * tot + b0(t)
            rhs = -(x**3) + cs.f2(t) * x**2 + cs.a(t) * x + m.deriv()(t) + res(t)
            assert abs(lhs - rhs) < 1e-10

    def test_equilibrium_reference_has_zero_residual(self):
        root = np.sqrt(3.0)
        cs, res = recentre(0.0, 3.0, 0.0, root, T=1.0)
        assert abs(res(0.5)) < 1e-12
        assert abs(cs.a(0.2) - (3.0 - 3.0 * root**2)) < 1e-12
        assert poly_extrema(cs.a, 0.0, cs.T)[1] < 0

    def test_sampled_path_fit(self):
        ts, vals = equilibrium_ode(0.0, 3.0, 0.0, 2.0, T=1.0, M=400)
        cs, res = recentre(0.0, 3.0, 0.0, (ts, vals), T=1.0, degree=8)
        dense = np.linspace(0, 1, 200)
        # the fast initial transient limits what a degree-8 fit can do;
        # the residual stays small but not at quadrature accuracy
        assert np.max(np.abs(res(dense))) < 0.05
        assert np.mean(np.abs(res(dense))) < 5e-3
        assert poly_extrema(cs.a, 0.0, 1.0)[1] < 0

    def test_sampled_path_validation(self):
        with pytest.raises(ValueError):
            recentre(0.0, 1.0, 0.0, (np.zeros(3), np.zeros(4)), T=1.0)


class TestEquilibriumOde:
    def test_bernoulli_case_exact(self):
        # x' = -x^3 - a x has the closed form
        # x(t) = ((x0^-2 + 1/a) exp(2 a t) - 1/a)^(-1/2)
        a, x0 = 1.5, 2.0
        ts, vals = equilibrium_ode(0.0, [-a], 0.0, x0, T=1.0, M=200)
        ref = ((x0**-2 + 1 / a) * np.exp(2 * a * ts) - 1 / a) ** -0.5
        assert np.max(np.abs(vals - ref)) < 1e-8

    def test_cubic_against_scipy(self):
        b2, b1, b0 = 0.3, [1.0, -0.5], 0.2

        def rhs(t, y):
            return -(y**3) + 0.3 * y**2 + (1.0 - 0.5 * t) * y + 0.2

        sol = solve_ivp(rhs, (0, 2.0), [1.5], rtol=1e-11, atol=1e-12, dense_output=True)
        ts, vals = equilibrium_ode(b2, b1, b0, 1.5, T=2.0, M=2000)
        assert np.max(np.abs(vals - sol.sol(ts)[0])) < 1e-8

    def test_attracted_to_stable_root(self):
        ts, vals = equilibrium_ode(0.0, 3.0, 0.0, 2.0, T=5.0, M=500)
        assert abs(vals[-1] - np.sqrt(3.0)) < 1e-6

    def test_step_budget(self):
        with pytest.raises(ValueError):
            equilibrium_ode(0.0, 1.0, 0.0, 1.0, T=1.0, M=2_000_000)
        with pytest.raises(ValueError):
            equilibrium_ode(0.0, 1.0, 0.0, 1.0, T=1.0, M=0)
