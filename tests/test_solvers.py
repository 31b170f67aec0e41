"""Tests for the solution routes and their cross-checks.

Oracles used here:

* the flat fixed point of -u^3 + 3u, which the exponential Euler step
  preserves exactly (the affine split telescopes),
* a scalar ODE reference integrated independently with solve_ivp at tight
  tolerance,
* bitwise reductions: sigma = 0 with zero counterterms must reproduce the
  deterministic solver on both routes, and the cubic-free f2 = 0 equation
  must reproduce the streamed stochastic convolution recursion,
* literal reassembly of every right-hand side from the public paraproduct
  and dealiased-product operations,
* algebraic product identities (partition of the product into paraproducts
  and the resonant part) that collapse the random-polynomial coefficients,
* dt-refinement on a single coupled noise path, where the direct route's
  self-difference must shrink first order,
* the two routes as one discrete map: at a fixed state the remainder
  right-hand sides plus the symbol integrands equal the direct nonlinearity,
  to rounding where every intermediate product fits the grid band, and the
  route gap is bounded by the band truncation elsewhere,
* zero in, zero out: a transform of an all-zero input runs no FFT and gives
  the values the FFT would.
"""

import csv
import gc
import os
import threading
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phi4lab import grids, noise, paley, solvers, symbols
from phi4lab.cli import norms_csv
from phi4lab.coeffs import CoefficientSet
from phi4lab.concentration import linear_solution_path
from phi4lab.grids import SpectralField, TorusGrid, binary_size, dealiased_product, random_band_field
from phi4lab.noise import LinearPath, NoiseRealization, TimeGrid, quartic_renorm_mc
from phi4lab.paley import besov_norm, nonresonant, para_gt, para_lt, para_resonant_commutator, resonant
from phi4lab.solvers import (
    F_rhs,
    G_rhs,
    RenormalizedStepper,
    VWStepper,
    equivalence_report,
    reconstruct_phi,
    solve_deterministic,
    solve_renormalized,
    solve_vw,
)
from phi4lab.symbols import SymbolStepper, build_ensemble


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestDeterministic:
    def test_flat_fixed_point(self):
        # -u^3 + 3u vanishes at sqrt(3); the kernel and the weight recombine
        # to exp(a dt) u + (exp(a dt) - 1) (-u^3 / a) which is again sqrt(3)
        grid = TorusGrid(8, 1)
        tg = TimeGrid(0.6, 60)
        s = np.sqrt(3.0)
        sol = solve_deterministic(grid, tg, 0.0, 3.0, 0.0, s)
        dev = max(abs(sol.coeffs[i][(0,)] - s) for i in range(len(sol)))
        assert dev <= 1e-12
        off = max(np.max(np.abs(sol.coeffs[i].ravel()[1:])) for i in range(len(sol)))
        assert off == 0.0

    def test_matches_scalar_ode(self):
        grid = TorusGrid(4, 1)
        tg = TimeGrid(0.5, 5000)
        sol = solve_deterministic(grid, tg, 0.0, 3.0, 0.0, 2.0, record_every=5000)
        ref = solve_ivp(
            lambda t, u: 3.0 * u - u**3, (0.0, 0.5), [2.0], rtol=1e-12, atol=1e-12
        )
        assert abs(sol.coeffs[-1][(0,)].real - ref.y[0, -1]) <= 1e-4

    def test_sup_norm_decays(self):
        grid = TorusGrid(16, 2)
        tg = TimeGrid(0.3, 60)
        rng = np.random.default_rng(1)
        phi0 = random_band_field(grid, rng, grid.N // 2 - 1, 0.5)
        sol = solve_deterministic(grid, tg, 0.0, -1.0, 0.0, phi0)
        sups = np.array([np.max(np.abs(sol.real_values(i))) for i in range(len(sol))])
        assert np.all(np.diff(sups) <= 1e-12)
        assert sups[-1] < 0.1 * sups[0]

    def test_blowup_abort_carries_timestamp(self):
        grid = TorusGrid(8, 1)
        tg = TimeGrid(1.0, 10)
        # dt far above the stability limit for this amplitude: the explicit
        # cubic overshoots and the guard must trip with the time in the text
        with pytest.raises(RuntimeError, match=r"blow-up.*at t = "):
            solve_deterministic(grid, tg, 0.0, 0.0, 0.0, 100.0)


class TestRenormalized:
    def test_noiseless_zero_counterterms_is_deterministic(self):
        # same kernel arrays, same product calls: the reduction is bitwise
        grid = TorusGrid(8, 2)
        T, M = 0.4, 40
        tg = TimeGrid(T, M)
        co = CoefficientSet(0.7, [-1.0, -0.5], T)
        det = solve_deterministic(grid, tg, [0.7], [-1.0, -0.5], [0.3, 0.1], 0.0)
        ren = solve_renormalized(
            grid, tg, 3, co, 0.0, ctilde=0.0, forcing=[0.3, 0.1],
        )
        assert np.array_equal(det.coeffs, ren.coeffs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_first_step_from_zero_is_the_convolution_step(self, dim):
        # the reaction and both counterterms vanish at the zero state (c is
        # zero at t = 0), so the first step injects the noise increment alone
        grid = TorusGrid(8, dim)
        tg = TimeGrid(0.4, 40)
        co = CoefficientSet(0.7, [-1.0, -0.5], 0.4)
        noise = NoiseRealization(grid, tg, 3, 77)
        st = RenormalizedStepper(noise, co, 0.4, ctilde=0.01)
        lp = LinearPath(noise, co, 0.4)
        assert st.kernel is lp.kernel
        st.step()
        lp.step()
        assert np.max(np.abs(lp.state)) > 0.0
        assert np.array_equal(st.phi, lp.state)

    def test_dt_self_convergence(self):
        # all band modes must satisfy L dt < 1 on the coarsest grid, else the
        # lumped-increment coupling of the fast modes stalls the halving
        grid = TorusGrid(8, 2)
        T = 0.3
        co = CoefficientSet(0.5, -1.0, T)
        Ms = (400, 800, 1600)
        for seed in (1, 2):
            fine = NoiseRealization(grid, TimeGrid(T, Ms[-1]), 3, seed)
            finals = []
            for M in Ms:
                nz = fine.aggregate(Ms[-1] // M) if M != Ms[-1] else fine
                st = RenormalizedStepper(nz, co, 0.1, ctilde=0.0, forcing=0.5)
                for _ in range(M):
                    st.step()
                finals.append(st.phi)
            e1 = np.max(np.abs(finals[0] - finals[1]))
            e2 = np.max(np.abs(finals[1] - finals[2]))
            assert 0.3 < e2 / e1 < 0.7

    def test_rejects_mismatched_paths(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.2, 10)
        co = CoefficientSet(0.5, -1.0, 0.2)
        noise = NoiseRealization(grid, tg, 3, 0)
        with pytest.raises(ValueError, match="one value per grid time"):
            RenormalizedStepper(noise, co, 0.1, ctilde=np.zeros(5))


@pytest.fixture(scope="module")
def rhs_setup():
    grid = TorusGrid(16, 2)
    T, M = 0.25, 10
    tg = TimeGrid(T, M)
    co = CoefficientSet(0.6, [-1.0, -0.5], T)
    sym = SymbolStepper(NoiseRealization(grid, tg, 4, 11), co, 0.6, ctilde=0.02)
    for _ in range(4):
        sym.step()
    rng = np.random.default_rng(5)
    v = random_band_field(grid, rng, grid.N // 2 - 1, 0.3).coeffs
    w = random_band_field(grid, rng, grid.N // 2 - 1, 0.2).coeffs
    t = tg.ts[sym.j]
    return {
        "grid": grid, "tg": tg, "co": co, "sym": sym, "v": v, "w": w,
        "syms": sym.catalog(), "wick2_stack": sym.wick2_stack, "lin_points": sym.lin_points,
        "part": sym.partition,
        "f2t": float(co.f2(t)), "ct": float(sym.ctilde[sym.j]),
    }


def _F(s, v, w):
    """F_rhs at ``(v, w)`` on the symbols of ``s``, with the stacks VWStepper.rhs reads."""
    xm = v + w - s["syms"]["iwick3"]
    bw2 = s["wick2_stack"]
    return F_rhs(s["part"].padded_blocks(xm), bw2, s["syms"]["wick2"], s["f2t"], s["grid"].N)


def _G(s, v, w):
    """G_rhs at ``(v, w)`` on the symbols of ``s``, its pairings with the Wick
    square formed by the public operations."""
    grid, syms = s["grid"], s["syms"]
    fld = lambda c: SpectralField(grid, c)
    x = v + w
    xm = x - syms["iwick3"]
    w2 = fld(syms["wick2"])
    paired = resonant(fld(x), w2).coeffs
    pgt = para_gt(fld(xm), w2).coeffs
    iw3_pts = grids._band_points(syms["iwick3"], grid.N, 2 * grid.N)
    return G_rhs(x, xm, paired, pgt, s["lin_points"], iw3_pts, s["f2t"], s["ct"], grid.N)


class TestRemainderRhs:
    def test_zero_state_at_time_zero(self, rhs_setup):
        # every symbol starts at zero, so both right-hand sides do too
        s = rhs_setup
        fresh = VWStepper(NoiseRealization(s["grid"], s["tg"], 4, 11), s["co"], 0.6, ctilde=0.02)
        F, G = fresh.rhs()
        assert np.max(np.abs(F)) == 0.0
        assert np.max(np.abs(G)) == 0.0

    def test_F_matches_public_assembly(self, rhs_setup):
        s = rhs_setup
        grid, syms = s["grid"], s["syms"]
        xm = SpectralField(grid, s["v"] + s["w"] - syms["iwick3"])
        w2 = SpectralField(grid, syms["wick2"])
        expected = (-3.0 * para_lt(xm, w2)).coeffs + s["f2t"] * syms["wick2"]
        got = _F(s, s["v"], s["w"])
        assert rel(got, expected) <= 1e-12

    def test_commutator_pairings_telescope(self, rhs_setup):
        # paired with the Wick square, the bracket paraproduct of the first
        # correction cancels the leading term of the second, so the three
        # resonant pairings of G are one pairing plus a binary product with
        # the unsubtracted resonant pairing of iwick2 and wick2
        s = rhs_setup
        grid, syms = s["grid"], s["syms"]
        fld = lambda c: SpectralField(grid, c)
        v, w = s["v"], s["w"]
        xm = v + w - syms["iwick3"]
        iw2, w2 = fld(syms["iwick2"]), fld(syms["wick2"])
        com1 = fld(v + para_lt(fld(3.0 * xm), iw2).coeffs)
        literal = (
            resonant(com1, w2).coeffs
            + para_resonant_commutator(fld(-3.0 * xm), iw2, w2).coeffs
            + resonant(fld(w), w2).coeffs
        )
        paired = resonant(fld(v + w), w2).coeffs
        telescoped = paired + 3.0 * dealiased_product(fld(xm), resonant(iw2, w2)).coeffs
        assert rel(telescoped, literal) <= 1e-12

    def test_G_matches_public_assembly(self, rhs_setup):
        # every cubic term is one three-field product, as G forms the cube
        # and the random polynomial whole; the quadratic d1 parts pair with X
        # as binary products
        s = rhs_setup
        grid, syms, f2t, ct = s["grid"], s["syms"], s["f2t"], s["ct"]
        fld = lambda c: SpectralField(grid, c)
        v, w = s["v"], s["w"]
        xm = fld(v + w - syms["iwick3"])
        X = fld(v + w)
        w2, iw2, iw3, lin = (
            fld(syms[k]) for k in ("wick2", "iwick2", "iwick3", "lin")
        )
        r3l, r22 = syms["res_iwick3_lin"], syms["res_iwick2_wick2"]

        com1 = fld(v + para_lt(fld(3.0 * xm.coeffs), iw2).coeffs)
        raw_com2 = para_resonant_commutator(fld(-3.0 * xm.coeffs), iw2, w2).coeffs
        com = resonant(com1, w2).coeffs + raw_com2

        d2 = 3.0 * (syms["iwick3"] - syms["lin"])
        d2[(0, 0)] += f2t
        nr_il = nonresonant(iw3, lin).coeffs
        iw3sq = dealiased_product(iw3, iw3)
        d1_quadratic = 9.0 * r22 - 2.0 * f2t * syms["iwick3"] + 2.0 * f2t * syms["lin"]
        d1X = (
            6.0 * dealiased_product(iw3, lin, X).coeffs
            - 3.0 * dealiased_product(iw3, iw3, X).coeffs
            + dealiased_product(fld(d1_quadratic), X).coeffs
        )
        d0 = (
            dealiased_product(iw3, iw3, iw3).coeffs
            - 9.0 * dealiased_product(iw3, fld(r22)).coeffs
            + f2t * iw3sq.coeffs
            - 2.0 * f2t * (r3l + nr_il)
            - 3.0 * dealiased_product(lin, iw3, iw3).coeffs
        )
        expected = (
            -dealiased_product(X, X, X).coeffs
            - 3.0 * com
            - 3.0 * resonant(fld(w), w2).coeffs
            - 3.0 * para_gt(xm, w2).coeffs
            + dealiased_product(fld(d2), X, X).coeffs
            + d1X
            + d0
        )
        got = _G(s, v, w)
        assert rel(got, expected) <= 1e-11

    @pytest.mark.parametrize("N,dim", [(8, 2), (12, 3)])
    def test_one_step_builds_three_binary_grid_stacks(self, monkeypatch, N, dim):
        # the two symbol stacks stepping reads (wick2, iwick3) plus the
        # remainder xm, each on the binary grid; the field paired with wick2
        # is X = xm + iwick3, whose pairing is that of xm plus the one that
        # forms res_iwick3_wick2.  Two resonant cores, those two pairings.
        # The catalog-only pairings and the stacks of lin and iwick2 are
        # never built on this route.  One binary product (wick2); the Wick
        # cube and the cubic of G read the point values of lin, iwick3 and X
        # on the 2N grid: 3 inverse and 2 forward transforms there
        grid = TorusGrid(N, dim)
        tg = TimeGrid(0.1, 4)
        co = CoefficientSet(0.6, [-1.0, -0.5], 0.1)
        vw = VWStepper(NoiseRealization(grid, tg, N // 2 - 1, 11), co, 0.6, ctilde=0.02)
        vw.step()
        shapes = []
        cores = []
        build = paley.DyadicPartition.padded_blocks
        core = paley._resonant_core

        def counted(self, c):
            out = build(self, c)
            shapes.append(out.shape)
            return out

        def counted_core(bf, bg, N):
            cores.append(bf.shape)
            return core(bf, bg, N)

        products, inverse, forward = [], [], []
        product, to_points, to_band = grids.product_spectra, grids._band_points, grids._points_band

        def counted_product(cs, *args, **kwargs):
            products.append(len(cs))
            return product(cs, *args, **kwargs)

        def counted_points(c, N_, P):
            inverse.append(P)
            return to_points(c, N_, P)

        def counted_band(pts, N_):
            forward.append(pts.shape)
            return to_band(pts, N_)

        monkeypatch.setattr(paley.DyadicPartition, "padded_blocks", counted)
        monkeypatch.setattr(symbols, "product_spectra", counted_product)
        for mod in (symbols, solvers):
            monkeypatch.setattr(mod, "_resonant_core", counted_core)
            monkeypatch.setattr(mod, "_band_points", counted_points)
            monkeypatch.setattr(mod, "_points_band", counted_band)
        vw.rhs()
        nblocks = vw.partition.nblocks
        assert shapes == [(nblocks,) + (binary_size(N),) * dim] * 3
        assert len(cores) == 2
        assert products == [2]
        assert inverse == [2 * N] * 3
        assert forward == [(2 * N,) * dim] * 2

    def test_a_step_frees_its_stacks_without_the_cyclic_collector(self, monkeypatch):
        # nothing that holds a step's arrays may sit in a reference cycle:
        # with the cyclic collector off, reference counting alone frees every
        # stack of step j (the catalog's and the remainder's included), its
        # 2N-grid points and its catalog pairings once the route has stepped
        # past it
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.1, 4)
        co = CoefficientSet(0.6, [-1.0, -0.5], 0.1)
        vw = VWStepper(NoiseRealization(grid, tg, 3, 11), co, 0.6, ctilde=0.02)
        vw.step()
        sym = vw.sym
        refs = []
        build = paley.DyadicPartition.padded_blocks

        def kept(self, c):
            out = build(self, c)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(paley.DyadicPartition, "padded_blocks", kept)
        gc.collect()
        gc.disable()
        try:
            vals = sym.catalog()
            refs += [weakref.ref(a) for a in (sym.lin_points, vals["res_iwick2_wick2"])]
            del vals
            vw.step()
            # the stacks of wick2, iwick3, lin and iwick2 and the remainder
            # xm; the 2N-grid points of lin and the pairing res_iwick2_wick2
            assert len(refs) == 5 + 2
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_a_warm_step_keeps_at_most_two_stacks_alive(self, monkeypatch):
        # the symbols pair the iwick3 stack with that of wick2 and drop it,
        # so the remainder stack xm is built beside the wick2 stack alone
        grid = TorusGrid(16, 3)
        tg = TimeGrid(0.1, 4)
        co = CoefficientSet(0.6, [-1.0, -0.5], 0.1)
        vw = VWStepper(NoiseRealization(grid, tg, 7, 11), co, 0.6, ctilde=0.02)
        vw.step()
        refs, alive = [], []
        build = paley.DyadicPartition.padded_blocks

        def kept(self, c):
            out = build(self, c)
            refs.append(weakref.ref(out))
            alive.append(sum(r() is not None for r in refs))
            return out

        monkeypatch.setattr(paley.DyadicPartition, "padded_blocks", kept)
        gc.collect()
        gc.disable()
        try:
            vw.step()
        finally:
            gc.enable()
        # wick2, iwick3, then xm once the iwick3 stack is gone
        assert alive == [1, 2, 2]
        assert [r() for r in refs] == [None] * 3

    def test_reconstruction_builds_no_stack(self, monkeypatch):
        # phi reads the streamed states of lin, iwick3 and the integral of
        # res_iwick3_wick2; it needs no symbol value at the last time
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.1, 3)
        co = CoefficientSet(0.6, [-1.0, -0.5], 0.1)
        vw = VWStepper(NoiseRealization(grid, tg, 3, 11), co, 0.6, ctilde=0.02)
        for _ in range(tg.M):
            vw.step()
        calls = []
        build = paley.DyadicPartition.padded_blocks

        def counted(self, c):
            calls.append(c)
            return build(self, c)

        monkeypatch.setattr(paley.DyadicPartition, "padded_blocks", counted)
        phi = vw.reconstruct()
        assert calls == []
        expected = reconstruct_phi(vw.sym.values(), vw.v, vw.w, grid)
        assert np.array_equal(phi, expected)

    def test_nonresonant_complement_identity(self, rhs_setup):
        # the d1 coefficient keeps the nonresonant + resonant split; together
        # they must rebuild the plain product
        s = rhs_setup
        grid, syms = s["grid"], s["syms"]
        iw3 = SpectralField(grid, syms["iwick3"])
        lin = SpectralField(grid, syms["lin"])
        rebuilt = nonresonant(iw3, lin).coeffs + resonant(iw3, lin).coeffs
        assert rel(rebuilt, dealiased_product(iw3, lin).coeffs) <= 1e-12

    def test_d0_bracket_collapses(self, rhs_setup):
        # the four-term bracket in the constant coefficient is algebraically
        # the plain product of lin with the square of iwick3
        s = rhs_setup
        grid, syms = s["grid"], s["syms"]
        fld = lambda c: SpectralField(grid, c)
        iw3, lin = fld(syms["iwick3"]), fld(syms["lin"])
        iw3sq = dealiased_product(iw3, iw3)
        bracket = (
            nonresonant(lin, iw3sq).coeffs
            + resonant(resonant(iw3, iw3), lin).coeffs
            + 2.0 * dealiased_product(iw3, fld(syms["res_iwick3_lin"])).coeffs
            + 2.0 * para_resonant_commutator(iw3, iw3, lin).coeffs
        )
        assert rel(bracket, dealiased_product(lin, iw3sq).coeffs) <= 1e-12

    def test_noise_free_symbols_reduce_to_polynomial(self, rhs_setup):
        # with sigma = 0 every symbol vanishes and G collapses to the
        # deterministic remainder reaction
        s = rhs_setup
        grid, v, w = s["grid"], s["v"], s["w"]
        sym0 = SymbolStepper(NoiseRealization(grid, s["tg"], 4, 3), s["co"], 0.0, ctilde=0.0)
        for _ in range(2):
            sym0.step()
        s0 = {**s, "syms": sym0.values(), "wick2_stack": sym0.wick2_stack,
              "lin_points": sym0.lin_points,
              "f2t": float(s["co"].f2(s["tg"].ts[2])), "ct": 0.0}
        f2t = s0["f2t"]
        assert np.max(np.abs(_F(s0, v, w))) == 0.0
        X = SpectralField(grid, v + w)
        expected = (
            -dealiased_product(X, X, X).coeffs
            + f2t * dealiased_product(X, X).coeffs
        )
        got = _G(s0, v, w)
        assert rel(got, expected) <= 1e-13

    def test_F_bound_fitted_constant(self, rhs_setup):
        # the product estimate gives |F| <= C (|v| + |w| + |iwick3| + sup f2)
        # |wick2| in the matching norms; the fitted constant should not move
        # much across states
        s = rhs_setup
        grid, syms = s["grid"], s["syms"]
        eps = 0.05
        f2sup = max(abs(float(s["co"].f2(t))) for t in s["tg"].ts)
        nV = besov_norm(SpectralField(grid, syms["wick2"]), -1 - eps)
        nI3 = besov_norm(SpectralField(grid, syms["iwick3"]), 0.5 - eps)
        fitted = []
        for k in range(6):
            rng = np.random.default_rng(100 + k)
            v = random_band_field(grid, rng, grid.N // 2 - 1, 0.3).coeffs
            w = random_band_field(grid, rng, grid.N // 2 - 1, 0.2).coeffs
            F = _F(s, v, w)
            nF = besov_norm(SpectralField(grid, F), -1 - eps)
            nv = besov_norm(SpectralField(grid, v), 1 - 2 * eps)
            nw = besov_norm(SpectralField(grid, w), 1.5 - 2 * eps)
            fitted.append(nF / ((nv + nw + nI3 + f2sup) * nV))
        assert all(np.isfinite(c) and c < 1.0 for c in fitted)
        assert max(fitted) / min(fitted) < 3.0

    def test_G_norm_finite_with_stable_constant(self, rhs_setup):
        s = rhs_setup
        grid, syms = s["grid"], s["syms"]
        eps = 0.05
        nV = besov_norm(SpectralField(grid, syms["wick2"]), -1 - eps)
        nI3 = besov_norm(SpectralField(grid, syms["iwick3"]), 0.5 - eps)
        fitted = []
        for k in range(6):
            rng = np.random.default_rng(200 + k)
            v = random_band_field(grid, rng, grid.N // 2 - 1, 0.3).coeffs
            w = random_band_field(grid, rng, grid.N // 2 - 1, 0.2).coeffs
            G = _G(s, v, w)
            nG = besov_norm(SpectralField(grid, G), -0.5 - eps)
            assert np.isfinite(nG)
            nv = besov_norm(SpectralField(grid, v), 1 - 2 * eps)
            nw = besov_norm(SpectralField(grid, w), 1.5 - 2 * eps)
            fitted.append(nG / ((1 + nv + nw) ** 3 * (1 + nV + nI3) ** 2))
        assert max(fitted) / min(fitted) < 10.0


class TestVWRoute:
    def test_noiseless_matches_deterministic_bitwise(self):
        # with sigma = 0 the v equation has zero right-hand side, so v stays
        # exactly zero; w takes the deterministic solver's ETD step on the
        # same forced reaction, so the reconstruction is that solver bit for
        # bit at every step
        grid = TorusGrid(8, 2)
        T = 0.4
        co = CoefficientSet(0.8, [-1.0, -0.5], T)
        for M in (40, 80):
            tg = TimeGrid(T, M)
            nz = NoiseRealization(grid, tg, 3, 1)
            vw = {k: p.coeffs for k, p in solve_vw(nz, co, 0.0, ctilde=0.0, forcing=0.6).items()}
            det = solve_deterministic(grid, tg, [0.8], [-1.0, -0.5], 0.6, 0.0)
            assert np.max(np.abs(vw["v"])) == 0.0
            # symbols vanish, so the reconstruction is exactly v + w
            assert np.array_equal(vw["phi"], vw["v"] + vw["w"])
            assert np.array_equal(vw["phi"], det.coeffs)
            assert np.max(np.abs(det.coeffs[-1])) > 0.1

    def test_noiseless_routes_agree_bitwise_from_a_rough_state(self):
        # every route forms its cubic reaction through one helper in one
        # operation order, so the sigma = 0 reductions hold bit for bit from
        # any state, not only from a flat one
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.05, 10)
        co = CoefficientSet(0.8, [-1.0, -0.5], 0.05)
        phi0 = random_band_field(grid, np.random.default_rng(3), grid.N // 2 - 1, 0.5)
        det = solve_deterministic(grid, tg, [0.8], [-1.0, -0.5], 0.6, phi0)
        nz = NoiseRealization(grid, tg, 3, 1)
        direct = RenormalizedStepper(nz, co, 0.0, ctilde=0.0, forcing=0.6)
        vw = VWStepper(nz, co, 0.0, ctilde=0.0, forcing=0.6)
        direct.phi = phi0.coeffs.copy()
        vw.w = phi0.coeffs.copy()
        for j in range(1, tg.M + 1):
            direct.step()
            vw.step()
            assert np.array_equal(direct.phi, det.coeffs[j])
            assert np.array_equal(vw.reconstruct(), det.coeffs[j])
        assert np.max(np.abs(det.coeffs[-1][grid.kinf > 0])) > 1e-3

    def test_small_noise_stays_small(self):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.3, 30)
        co = CoefficientSet(0.8, [-1.0, -0.5], 0.3)
        sol = solve_vw(NoiseRealization(grid, tg, 3, 1), co, 0.01, ctilde=0.0)
        assert np.max(np.abs(sol["v"].coeffs)) < 1e-3
        assert np.max(np.abs(sol["w"].coeffs)) < 1e-3

    def test_routes_agree_across_seeds_and_refinement(self):
        # one report covers three claims: the reconstruction tracks the
        # direct solve at dt and dt/2 on a common noise path, and fresh seeds
        # move both routes together.  At cutoff 3 on 8^2 the band truncation
        # of the Wick square leaves relative gaps of 2.1e-8 (dt),
        # 2.3e-8 (dt/2) and at most 4.4e-8 over the extra seeds
        grid = TorusGrid(8, 2)
        co = CoefficientSet(0.7, [-1.0, -0.5], 0.3)
        rep = equivalence_report(
            grid, 0.3, 30, 3, co, 0.2, 5,
            extra_seeds=tuple(range(6, 15)),
        )
        assert rep["sup_direct"] > 0.05
        assert rep["gap"] < 1e-7
        assert rep["gap_refined"] < 1e-7
        assert len(rep["seed_gaps"]) == 9
        assert all(g < 1e-7 for g in rep["seed_gaps"].values())

    def test_report_is_the_same_at_one_and_two_workers(self, monkeypatch):
        # the passes are the tasks of one replica loop: coarse, fine, then the
        # extra seeds, each a pure function of its task
        grid = TorusGrid(8, 2)
        co = CoefficientSet(0.7, [-1.0, -0.5], 0.3)
        reps = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            reps.append(equivalence_report(grid, 0.3, 30, 3, co, 0.2, 5,
                                           extra_seeds=(6, 7, 8, 6)))
        assert reps[0] == reps[1]
        assert list(reps[0]["seed_gaps"]) == [6, 7, 8]
        assert all(type(v) is float for k, v in reps[0].items() if k != "seed_gaps")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_every_pass_takes_the_base_constant_on_its_own_grid(self, monkeypatch):
        # the constant is computed once, on the base grid of M = 60 steps
        # (there the 50-step sum, interpolated); both routes of the coarse
        # pass take it as it is, those of the fine pass interpolated onto dt/2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        seen = []

        def recording(cls, route):
            class Recording(cls):
                def __init__(self, noise, *args, **kwargs):
                    super().__init__(noise, *args, **kwargs)
                    seen.append((route, noise.timegrid.M, self.ctilde))

            return Recording

        monkeypatch.setattr(solvers, "RenormalizedStepper",
                            recording(RenormalizedStepper, "direct"))
        monkeypatch.setattr(solvers, "SymbolStepper", recording(SymbolStepper, "symbols"))
        grid = TorusGrid(8, 2)
        co = CoefficientSet(0.7, [-1.0, -0.5], 0.3)
        tg, fine = TimeGrid(0.3, 60), TimeGrid(0.3, 120)
        equivalence_report(grid, 0.3, 60, 3, co, 0.2, 5)
        base = noise.quartic_constant(grid, tg, 3, co, sigma=0.2)
        want = {60: base, 120: np.interp(fine.ts, tg.ts, base)}
        assert sorted((route, M) for route, M, _ in seen) == [
            ("direct", 60), ("direct", 120), ("symbols", 60), ("symbols", 120)]
        for _, M, ct in seen:
            assert np.array_equal(ct, want[M])

    @pytest.mark.parametrize("N,dim,cutoff", [(16, 2, 1), (16, 3, 1), (16, 2, 3), (16, 3, 3)])
    def test_routes_agree_to_rounding_when_the_wick_square_fits_the_band(self, N, dim, cutoff):
        # at 2 cutoff <= N/2 - 1 the Wick square is not cut at the band and
        # the remainder sees iww projected onto it, so the routes differ by
        # rounding alone (measured 2.3e-16 to 3.5e-16)
        co = CoefficientSet(0.5, [-1.0, 0.5], 0.1)
        rep = equivalence_report(TorusGrid(N, dim), 0.1, 10, cutoff, co, 0.5, 5)
        assert rep["sup_direct"] > 0.1
        assert rep["gap"] < 1e-14
        assert rep["gap_refined"] < 1e-14


class TestOneDiscreteMap:
    """The remainder route steps the direct route's equation.

    Both routes take ``u <- P u + E f``, so one v/w step is one direct step
    exactly when, at a fixed state, the v/w right-hand sides plus the symbol
    integrands of the reconstruction (``-wick3 + 3 res_iwick3_wick2``) equal
    the direct nonlinearity at the reconstructed phi.  The identity is
    algebraic.  The cube and the random polynomial of ``G`` are formed whole
    on the ``2N`` grid, and the remainder sees the integral ``iww`` of
    ``res_iwick3_wick2`` projected onto the open band, the part the
    reconstruction keeps; so it holds to rounding while
    ``2 cutoff <= N/2 - 1``.  Above that the Wick square is cut at the band,
    where the direct cube carries ``lin**2`` whole.
    """

    @pytest.mark.parametrize("N,dim,cutoff,sigma,tol", [
        # the Wick square fits the band (seeds 1-3): measured 1.7e-16 to
        # 9.7e-16, from 5 cutoff <= N/2 - 1 up to its edge 2 cutoff = N/2 - 1
        (32, 2, 2, 1.0, 1e-14),
        (16, 3, 1, 1.0, 1e-14),
        (32, 2, 3, 1.0, 1e-14),
        (32, 2, 4, 1.0, 1e-14),
        (32, 2, 5, 1.0, 1e-14),
        (32, 2, 6, 1.0, 1e-14),
        (16, 3, 2, 1.0, 1e-14),
        (32, 2, 7, 0.5, 1e-14),
        (16, 3, 3, 0.25, 1e-14),
        # cutoff N/2 - 1, where the Wick square is cut at the band (seeds 1-3):
        # measured 5.0e-5 to 1.2e-4 in 2-D and 1.4e-4 to 1.5e-4 in 3-D
        (32, 2, 15, 0.5, 3e-4),
        (16, 3, 7, 0.25, 3e-4),
    ])
    def test_fixed_state_identity(self, N, dim, cutoff, sigma, tol):
        grid = TorusGrid(N, dim)
        tg = TimeGrid(0.5, 40)
        co = CoefficientSet([0.3, 0.2], [-1.0, 0.5], 0.5)
        ct = sigma**4 * np.linspace(0.0, 1e-3, tg.M + 1)
        nz = NoiseRealization(grid, tg, cutoff, 1)
        vw = VWStepper(nz, co, sigma, ctilde=ct)
        direct = RenormalizedStepper(nz, co, sigma, ctilde=ct)
        for _ in range(6):
            vw.step()
            direct.step()
        direct.phi = vw.reconstruct()
        syms = vw.sym.values()
        F, G = vw.rhs()
        band = grid.kinf <= grid.N // 2 - 1
        got = np.where(band, -syms["wick3"] + 3.0 * syms["res_iwick3_wick2"], 0.0) + F + G
        assert rel(got, direct.nonlinearity()) <= tol


class TestTwoWaySplit:
    """Split two ways, the remainder step is the same bits.

    With two CPUs the block stacks, the paraproduct cores and the ``2N``-grid
    cubic of ``G_rhs`` split two ways from ``2**16`` binary-product points
    (3-D from N = 32); each half writes rows of its own, so the split changes
    no bit, and the helper thread is joined inside every kernel.
    """

    def _run(self, monkeypatch, cpus, N, dim, M):
        """The paths of ``solve_vw``, a catalog and the number of splits, on ``cpus`` CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = []
        fork_join = grids._fork_join

        def counting(first, second):
            forks.append(1)
            return fork_join(first, second)

        monkeypatch.setattr(grids, "_fork_join", counting)
        monkeypatch.setattr(paley, "_fork_join", counting)
        grid, tg = TorusGrid(N, dim), TimeGrid(0.03, M)
        co = CoefficientSet(0.3, [-1.0, 0.5], 0.03)
        ct = np.linspace(0.0, 1e-3, M + 1)
        threads = threading.active_count()
        paths = solve_vw(NoiseRealization(grid, tg, N // 2 - 1, 4), co, 0.5, ctilde=ct)
        assert threading.active_count() == threads
        sym = SymbolStepper(NoiseRealization(grid, tg, N // 2 - 1, 4), co, 0.5, ctilde=ct)
        sym.step()
        return {k: p.coeffs for k, p in paths.items()}, sym.catalog(), len(forks)

    def test_split_at_32_cubed_changes_no_bit(self, monkeypatch):
        (paths1, cat1, forks1), (paths2, cat2, forks2) = (
            self._run(monkeypatch, cpus, 32, 3, 3) for cpus in (1, 2))
        assert forks1 == 0 and forks2 > 0
        for name in paths1:
            assert np.array_equal(paths1[name], paths2[name]), name
        assert np.max(np.abs(paths1["w"][-1])) > 0.0
        assert cat1.keys() == cat2.keys()
        for name in cat1:
            assert np.array_equal(cat1[name], cat2[name]), name

    @pytest.mark.parametrize("N, dim", [(10, 1), (10, 2), (8, 3)])
    def test_forced_split_on_small_grids_changes_no_bit(self, monkeypatch, N, dim):
        # below the gate, forced: odd halves of the 2N-grid rows come up too
        monkeypatch.setattr(grids, "_SPLIT_POINTS", 1)
        (paths1, cat1, forks1), (paths2, cat2, forks2) = (
            self._run(monkeypatch, cpus, N, dim, 4) for cpus in (1, 2))
        assert forks1 == 0 and forks2 > 0
        for name in paths1:
            assert np.array_equal(paths1[name], paths2[name]), name
        for name in cat1:
            assert np.array_equal(cat1[name], cat2[name]), name


_FFTS = ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn", "fftn", "ifftn")


def _log_ffts(monkeypatch, log: list) -> None:
    for name in _FFTS:
        orig = getattr(np.fft, name)

        def logged(*args, _orig=orig, _name=name, **kwargs):
            log.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, logged)


class TestZeroRule:
    """Every route starts from the zero state, and zeros transform to zeros for free."""

    GRID = TorusGrid(8, 2)
    TG = TimeGrid(0.1, 3)
    CO = CoefficientSet(0.6, [-1.0, -0.5], 0.1)

    @pytest.mark.parametrize("N,dim", [(8, 2), (12, 3)])
    def test_first_vw_step_transforms_only_its_noise_increment(self, monkeypatch, N, dim):
        grid = TorusGrid(N, dim)
        vw = VWStepper(NoiseRealization(grid, self.TG, N // 2 - 1, 11), self.CO, 0.6, ctilde=0.02)
        log = []
        _log_ffts(monkeypatch, log)
        vw.step()
        assert log == ["rfftn"]
        log.clear()
        vw.step()
        assert log.count("rfftn") > 1

    def test_monte_carlo_transforms_nothing_at_step_zero(self, monkeypatch):
        log, per_product = [], []
        _log_ffts(monkeypatch, log)
        product = noise.product_spectra

        def counted(*args, **kwargs):
            before = len(log)
            out = product(*args, **kwargs)
            per_product.append(len(log) - before)
            return out

        monkeypatch.setattr(noise, "product_spectra", counted)
        # one CPU: both replicas run in this process, where the log sees them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        quartic_renorm_mc(self.GRID, self.TG, 3, self.CO, 7, replicas=2)
        steps = self.TG.M + 1
        assert len(per_product) == 2 * steps
        assert per_product[0] == per_product[steps] == 0
        assert all(n > 0 for k, n in enumerate(per_product) if k % steps)

    def test_outputs_equal_without_the_rule(self, monkeypatch):
        grid, tg, co = self.GRID, self.TG, self.CO

        def run():
            nz = NoiseRealization(grid, tg, 3, 11)
            ct = quartic_renorm_mc(grid, tg, 3, co, 7, replicas=2)["estimate"]
            vw = solve_vw(nz, co, 0.6, ctilde=ct)
            direct = solve_renormalized(grid, tg, 3, co, 0.6, seed=11, ctilde=ct)
            ens = build_ensemble(nz, co, 0.6, ctilde=ct)
            return ([ct, direct.coeffs] + [p.coeffs for p in vw.values()]
                    + [ens.path(n) for n in sorted(ens.paths)])

        with_rule = run()
        for mod in (grids, paley):
            monkeypatch.setattr(mod, "_all_zero", lambda a: False)
        without_rule = run()
        # a transform of zeros may give -0.0, so compare values, not bytes
        assert len(with_rule) == len(without_rule)
        assert all(np.array_equal(a, b) for a, b in zip(with_rule, without_rule))


class TestSolutionIO:
    def test_norms_table(self, tmp_path):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.2, 10)
        co = CoefficientSet(0.5, -1.0, 0.2)
        sol = solve_renormalized(grid, tg, 3, co, 0.2, 4, ctilde=0.0, record_every=2)
        path = tmp_path / "norms.csv"
        sups = norms_csv(sol, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "rms", "sup"]
        assert len(rows) == len(sol) + 1
        assert float(rows[1][0]) == 0.0
        got = np.array([float(r[1]) for r in rows[1:]])
        assert np.allclose(got, [sol.field(i).l2() for i in range(len(sol))], rtol=1e-10)
        # the sups it returns are the ones it wrote, taken from the real values
        assert [f"{s:.12g}" for s in sups] == [r[2] for r in rows[1:]]
        assert sups == [np.max(np.abs(sol.real_values(i))) for i in range(len(sol))]


def _walk(stepper, M, *readers):
    """Step by hand and stack every reader's value at each grid time."""
    reads = [[np.array(read())] for read in readers]
    for _ in range(M):
        stepper.step()
        for out, read in zip(reads, readers):
            out.append(np.array(read()))
    return [np.stack(r) for r in reads]


class TestRecordedRoutes:
    """Every recorded route keeps its state at t_0, each k-th step and T.

    ``recorded(k)`` runs the route with ``record_every = k`` and returns its
    times and paths; ``reference()`` gives the same fields at every grid
    time, stepped by hand with the route's own stepper (the deterministic
    solver has none, so its reference is its own every-step path).
    ``build_ensemble`` always stores every grid time, so it runs with k = 1.
    """

    GRID = TorusGrid(8, 2)
    TG = TimeGrid(0.2, 12)
    CO = CoefficientSet(0.5, -1.0, 0.2)

    def routes(self):
        grid, tg, co = self.GRID, self.TG, self.CO

        def det(k):
            sol = solve_deterministic(grid, tg, 0.0, -1.0, 0.3, 1.0, record_every=k)
            return sol.times, [sol.coeffs]

        def direct(k):
            sol = solve_renormalized(grid, tg, 3, co, 0.2, 4, ctilde=0.01, record_every=k)
            return sol.times, [sol.coeffs]

        def direct_ref():
            st = RenormalizedStepper(NoiseRealization(grid, tg, 3, 4), co, 0.2, ctilde=0.01)
            return _walk(st, tg.M, lambda: st.phi)

        def linear(k):
            sol = linear_solution_path(NoiseRealization(grid, tg, 3, 5), co, 0.3, record_every=k)
            return sol.times, [sol.coeffs]

        def linear_ref():
            lp = LinearPath(NoiseRealization(grid, tg, 3, 5), co, 0.3)
            return _walk(lp, tg.M, lambda: lp.state)

        def vw(k):
            sol = solve_vw(NoiseRealization(grid, tg, 3, 4), co, 0.2, ctilde=0.01, record_every=k)
            return sol["phi"].times, [sol[name].coeffs for name in ("v", "w", "phi")]

        def vw_ref():
            st = VWStepper(NoiseRealization(grid, tg, 3, 4), co, 0.2, ctilde=0.01)
            return _walk(st, tg.M, lambda: st.v, lambda: st.w, st.reconstruct)

        names = ("lin", "iwick3", "i_res_iwick3_wick2")

        def ensemble(k):
            ens = build_ensemble(NoiseRealization(grid, tg, 3, 4), co, 0.2, ctilde=0.01, names=names)
            return tg.ts, [ens.path(n) for n in names]

        def ensemble_ref():
            st = SymbolStepper(NoiseRealization(grid, tg, 3, 4), co, 0.2, ctilde=0.01)
            return _walk(st, tg.M, *(lambda n=n: st.values()[n] for n in names))

        return {
            "deterministic": (det, 5, lambda: det(1)[1]),
            "renormalized": (direct, 5, direct_ref),
            "linear": (linear, 5, linear_ref),
            "vw": (vw, 5, vw_ref),
            "ensemble": (ensemble, 1, ensemble_ref),
        }

    @pytest.mark.parametrize("route", ["deterministic", "renormalized", "linear", "vw", "ensemble"])
    def test_record_every_keeps_the_stepped_state(self, route):
        recorded, k, reference = self.routes()[route]
        idx = list(range(0, self.TG.M + 1, k))
        if idx[-1] != self.TG.M:
            idx.append(self.TG.M)
        times, paths = recorded(k)
        refs = reference()
        assert np.array_equal(times, self.TG.ts[idx])
        assert len(paths) == len(refs)
        for path, ref in zip(paths, refs):
            assert ref.shape[0] == self.TG.M + 1
            assert np.array_equal(path, ref[idx])


class TestConstantsAreInputs:
    """The steppers take the quartic constant as an input; none estimates it."""

    @pytest.fixture
    def no_monte_carlo(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("quartic_renorm_mc called")

        for mod in (noise, symbols, solvers):
            monkeypatch.setattr(mod, "quartic_renorm_mc", boom, raising=False)

    def test_explicit_ctilde_runs_no_monte_carlo(self, no_monte_carlo):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.2, 4)
        co = CoefficientSet(0.5, -1.0, 0.2)
        ct = np.linspace(0.0, 1e-3, tg.M + 1)
        nz = NoiseRealization(grid, tg, 3, 1)
        SymbolStepper(nz, co, 0.5, ctilde=ct).values()
        RenormalizedStepper(nz, co, 0.5, ctilde=0.01).step()
        ens = symbols.build_ensemble(nz, co, 0.5, ctilde=ct, names=("lin",))
        assert np.array_equal(ens.ctilde, ct)
        dec = symbols.chaos_components(nz, co, "iwick2", ctilde=ct)
        assert dec.degree == 2

    def test_leaving_out_ctilde_is_a_type_error(self, no_monte_carlo):
        grid = TorusGrid(8, 2)
        tg = TimeGrid(0.2, 4)
        co = CoefficientSet(0.5, -1.0, 0.2)
        nz = NoiseRealization(grid, tg, 3, 1)
        with pytest.raises(TypeError, match="ctilde"):
            SymbolStepper(nz, co, 0.5)
        with pytest.raises(TypeError, match="ctilde"):
            RenormalizedStepper(nz, co, 0.5)
        with pytest.raises(TypeError, match="ctilde"):
            VWStepper(nz, co, 0.5)
        with pytest.raises(TypeError, match="ctilde"):
            solve_vw(nz, co, 0.5)
        with pytest.raises(TypeError, match="ctilde"):
            solve_renormalized(grid, tg, 3, co, 0.5, 1)
        with pytest.raises(TypeError, match="ctilde"):
            symbols.build_ensemble(nz, co, 0.5)
        with pytest.raises(TypeError, match="ctilde"):
            symbols.chaos_components(nz, co, "iwick2")
