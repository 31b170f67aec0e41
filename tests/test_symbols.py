"""Tests for the renormalized symbol ensemble.

Oracles used here:

* closed-form summation of the ETD1 damped integrals (exact propagator
  products via the antiderivative of the drift, and the closed-form ETD1
  weight),
* Gaussian moment identities for Wick powers at a point,
  E[(g^2-1)^2] = 2 and E[(g^3-3g)^2] = 6 for standard Gaussian g,
* exact amplitude homogeneity at a power-of-two amplitude ratio, which
  commutes with floating-point rounding through every linear operation,
* agreement of interpolation kernels extracted at two unrelated sets of
  amplitude nodes, plus extrapolation to an amplitude outside both.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from phi4lab import noise, paley, symbols
from phi4lab.coeffs import CoefficientSet
from phi4lab.grids import SpectralField, TorusGrid
from phi4lab.noise import (
    LinearPath,
    NoiseRealization,
    TimeGrid,
    lin_variance_curve,
    lin_variance_path,
    quartic_constant,
    replicate,
)
from phi4lab.paley import resonant
from phi4lab.symbols import (
    CATALOG,
    SYMBOL_NAMES,
    ChaosDecomposition,
    SymbolStepper,
    build_ensemble,
    chaos_components,
)


def small_setup(N=16, dim=2, T=0.2, M=8, f2=0.4, a=(-1.0, -0.5)):
    grid = TorusGrid(N, dim)
    tg = TimeGrid(T, M)
    co = CoefficientSet(f2, Polynomial(np.atleast_1d(a)), T)
    return grid, tg, co


def unit_ctilde(tg):
    """A fixed quartic constant path at unit amplitude, of the size the exact
    constant has on the small setup; amplitude s takes s**4 times it."""
    return np.linspace(0.0, 4e-4, tg.M + 1)


class TestCatalog:
    def test_entries(self):
        assert SYMBOL_NAMES == (
            "lin", "wick2", "iwick2", "iwick3",
            "res_iwick3_lin", "res_iwick2_wick2", "res_iwick3_wick2",
        )
        regs = {k: v.regularity for k, v in CATALOG.items()}
        assert regs == {
            "lin": -0.5, "wick2": -1.0, "iwick2": 1.0, "iwick3": 0.5,
            "res_iwick3_lin": 0.0, "res_iwick2_wick2": 0.0,
            "res_iwick3_wick2": -0.5,
        }

    def test_degree_matches_chaos(self):
        for info in CATALOG.values():
            assert max(info.chaos) == info.degree
            # chaos levels of a fixed polynomial all share the degree parity
            assert all((c - info.degree) % 2 == 0 for c in info.chaos)
            assert all(c > 0 for c in info.chaos)


class TestStepper:
    def test_deterministic(self):
        grid, tg, co = small_setup()
        ct = np.linspace(0.0, 1e-3, tg.M + 1)
        s1 = SymbolStepper(NoiseRealization(grid, tg, 4, seed=5), co, 0.8, ctilde=ct)
        s2 = SymbolStepper(NoiseRealization(grid, tg, 4, seed=5), co, 0.8, ctilde=ct)
        for _ in range(4):
            s1.step()
            s2.step()
        v1, v2 = s1.values(), s2.values()
        assert sorted(v1) == sorted(v2)
        for k in v1:
            assert np.array_equal(v1[k], v2[k]), k

    def test_everything_zero_at_start(self):
        grid, tg, co = small_setup()
        ens = build_ensemble(NoiseRealization(grid, tg, 4, seed=3), co, 1.0, ctilde=unit_ctilde(tg))
        for name, path in ens.paths.items():
            assert np.all(path[0] == 0.0), name
        assert ens.c[0] == 0.0 and ens.ctilde[0] == 0.0

    def test_values_build_two_stacks_once_per_step(self, monkeypatch):
        # the values build the stacks of wick2 and iwick3, which stepping
        # reads; the catalog pairs those of lin and iwick2 on top, once per
        # step, and step() lets go of the step's stacks and points
        grid, tg, co = small_setup()
        st = SymbolStepper(NoiseRealization(grid, tg, 4, seed=7), co, 1.0, ctilde=np.zeros(tg.M + 1))
        built = []
        build = paley.DyadicPartition.padded_blocks

        def counted(self, c):
            built.append(c)
            return build(self, c)

        monkeypatch.setattr(paley.DyadicPartition, "padded_blocks", counted)
        vals = st.values()
        assert set(vals) == set(symbols._PATH_NAMES) - set(symbols._CATALOG_ONLY)
        assert sorted(st.stacks) == ["iwick3", "wick2"]
        assert sorted(st.points) == ["iwick3", "lin"]
        assert len(built) == 2
        a = st.stacks["wick2"]
        assert st.values() is vals and st.stacks["wick2"] is a
        cat = st.catalog()
        assert cat is vals and set(cat) == set(symbols._PATH_NAMES)
        assert len(built) == 4
        st.catalog()
        st.values()
        assert len(built) == 4
        st.step()
        assert st.stacks == {} and st.points == {}
        assert st.values() is not vals
        assert st.stacks["wick2"] is not a
        assert len(built) == 6

    @pytest.mark.parametrize("name", symbols._PATH_NAMES)
    def test_ensemble_path_is_the_catalog_value(self, name):
        # a path stored alone equals the catalog's value at every grid time,
        # whether it is read through values() or catalog()
        grid, tg, co = small_setup()
        ct = unit_ctilde(tg)
        ens = build_ensemble(NoiseRealization(grid, tg, 4, seed=5), co, 1.0, ctilde=ct, names=(name,))
        st = SymbolStepper(NoiseRealization(grid, tg, 4, seed=5), co, 1.0, ctilde=ct)
        path = ens.path(name)
        for j in range(tg.M + 1):
            assert path[j].tobytes() == st.catalog()[name].tobytes(), j
            if j < tg.M:
                st.step()
        assert np.max(np.abs(path[-1])) > 0.0

    def test_step_past_end_rejected(self):
        grid, tg, co = small_setup(M=2)
        st = SymbolStepper(NoiseRealization(grid, tg, 4, seed=7), co, 1.0, ctilde=np.zeros(3))
        st.step()
        st.step()
        with pytest.raises(ValueError):
            st.step()

    def test_ctilde_shape_checked(self):
        grid, tg, co = small_setup()
        with pytest.raises(ValueError):
            SymbolStepper(NoiseRealization(grid, tg, 4, seed=7), co, 1.0, ctilde=np.zeros(3))

    def test_time_grid_comes_from_the_noise(self):
        # a stepper on aggregated noise steps the coarse grid: its time grid,
        # kernel and variance path are the aggregate's, and its linear path is
        # the convolution of the summed increments
        grid, tg, co = small_setup()
        coarse = NoiseRealization(grid, tg, 4, seed=5).aggregate(2)
        st = SymbolStepper(coarse, co, 0.8, ctilde=0.0)
        half = TimeGrid(tg.T, tg.M // 2)
        assert st.timegrid is coarse.timegrid
        assert (st.timegrid.M, st.timegrid.dt) == (half.M, half.dt)
        assert np.array_equal(st.c, lin_variance_path(grid, half, 4, co, 0.8))
        assert st.kernel is noise.step_kernel(grid, half, co)
        lp = LinearPath(coarse, co, 0.8)
        for _ in range(half.M):
            st.step()
            lp.step()
            assert np.array_equal(st.values()["lin"], lp.state)
        with pytest.raises(ValueError, match="final time"):
            st.step()

    def test_c_matches_quadrature(self):
        grid, tg, co = small_setup()
        st = SymbolStepper(NoiseRealization(grid, tg, 4, seed=1), co, 0.7, ctilde=np.zeros(tg.M + 1))
        curve = lin_variance_curve(grid, 4, co, 0.7, tg.ts[[2, 5, 8]])
        assert np.allclose(st.c[[2, 5, 8]], curve, rtol=1e-9)


class TestIntegralOracle:
    """Stored integrals against the unrolled propagator sum.

    The recursion I_{j+1} = P_j I_j + E_j f_j telescopes to
    I_m = sum_{j<m} exp(alpha(t_m, t_{j+1}) - L (t_m - t_{j+1})) E_j f_j,
    with E_j = dt (e^z - 1) / z at z = alpha(t_{j+1}, t_j) - L dt (the
    in-step integral of the propagator with the damping at its step mean),
    which we evaluate directly from the stored integrand paths.
    """

    def test_integrals_match_direct_sum(self):
        grid, tg, co = small_setup(N=12, M=7, T=0.21, f2=0.5, a=(-0.8, -0.4, 0.3))
        ens = build_ensemble(NoiseRealization(grid, tg, 3, seed=23), co, 0.9,
                             ctilde=0.9**4 * unit_ctilde(tg))
        L = 4.0 * np.pi**2 * grid.k2
        E = []
        for j in range(tg.M):
            z = co.alpha(tg.ts[j + 1], tg.ts[j]) - L * tg.dt
            E.append(tg.dt * np.expm1(z) / z)
        for int_name, src_name in [
            ("iwick2", "wick2"),
            ("iwick3", "wick3"),
            ("i_res_iwick3_wick2", "res_iwick3_wick2"),
        ]:
            src = ens.path(src_name)
            for m in (3, tg.M):
                tm = tg.ts[m]
                acc = np.zeros(grid.hshape, dtype=np.complex128)
                for j in range(m):
                    tj1 = tg.ts[j + 1]
                    acc += np.exp(co.alpha(tm, tj1) - L * (tm - tj1)) * E[j] * src[j]
                got = ens.path(int_name)[m]
                scale = max(np.max(np.abs(acc)), 1e-300)
                assert np.max(np.abs(got - acc)) < 1e-12 * scale, (int_name, m)

    def test_resonant_paths_match_public_route(self):
        # rebuild the centered resonants from stored factor paths through the
        # public paraproduct API; catches stale block-stack caching
        grid, tg, co = small_setup()
        ens = build_ensemble(NoiseRealization(grid, tg, 4, seed=9), co, 1.1,
                             ctilde=1.1**4 * unit_ctilde(tg))
        for j in (4, tg.M):
            iw3 = SpectralField(grid, ens.path("iwick3")[j])
            iw2 = SpectralField(grid, ens.path("iwick2")[j])
            w2 = SpectralField(grid, ens.path("wick2")[j])
            lin = SpectralField(grid, ens.path("lin")[j])
            zero = (0,) * grid.dim
            r3l = resonant(iw3, lin).coeffs
            r22 = resonant(iw2, w2).coeffs
            r22[zero] -= 2.0 * ens.ctilde[j]
            r32 = resonant(iw3, w2).coeffs - 6.0 * ens.ctilde[j] * ens.path("lin")[j]
            for name, want in [
                ("res_iwick3_lin", r3l),
                ("res_iwick2_wick2", r22),
                ("res_iwick3_wick2", r32),
            ]:
                got = ens.path(name)[j]
                scale = max(np.max(np.abs(want)), 1e-300)
                assert np.max(np.abs(got - want)) < 1e-12 * scale, name


class TestWickMoments:
    """Pointwise Gaussian moments of the Wick powers.

    With cutoff 3 on N = 20 every product stays inside the exact band, so
    wick2 and wick3 are the literal pointwise Wick polynomials of a Gaussian
    field with pointwise variance c(t).
    """

    def test_second_moments(self):
        grid, tg, co = small_setup(N=20, dim=1, T=0.3, M=6, f2=0.0, a=-1.5)
        reps = 800

        def squares(replica, seed):
            ens = build_ensemble(
                NoiseRealization(grid, tg, 3, seed, replica=replica), co, 1.3,
                ctilde=np.zeros(tg.M + 1), names=("wick2", "wick3"),
            )
            return [SpectralField(grid, ens.path(name)[-1]).l2() ** 2 for name in ("wick2", "wick3")]

        q2, q3 = np.array(replicate(squares, reps, 42).T)
        # the exact variance path every replica's ensemble carries
        c_last = lin_variance_path(grid, tg, 3, co, 1.3)[-1]
        for q, const, power in [(q2, 2.0, 2), (q3, 6.0, 3)]:
            want = const * c_last**power
            se = q.std(ddof=1) / np.sqrt(reps)
            assert abs(q.mean() - want) < 4.0 * se
            # also a coarse absolute window so the test keeps teeth even if
            # the sample variance were inflated by a bug
            assert 0.7 * want < q.mean() < 1.3 * want


@pytest.fixture(scope="module")
def centering_samples():
    """Final-time statistics over independent replicas with the exact
    quartic constant."""
    grid, tg, co = small_setup()
    ct = quartic_constant(grid, tg.T, tg.M, 4, co)["estimate"]
    reps = 256
    hw = grid.half_weights
    zero = (0, 0)

    def final_statistics(replica, seed):
        st = SymbolStepper(NoiseRealization(grid, tg, 4, seed, replica=replica), co, 1.0, ctilde=ct)
        for _ in range(tg.M):
            st.step()
        v = st.catalog()
        return [
            v["wick2"][zero].real,
            v["res_iwick2_wick2"][zero].real + 2.0 * ct[-1],
            float(np.sum(hw * np.abs(v["lin"]) ** 2)),
            float(np.sum(hw * (v["res_iwick3_wick2"] * v["lin"].conj()).real)),
        ]

    columns = np.array(replicate(final_statistics, reps, 77).T)
    out = dict(zip(("w2_zero", "pair_raw", "lin_energy", "cov_cent"), columns))
    # the exact variance path every replica's stepper carries
    out["c"] = lin_variance_path(grid, tg, 4, co, 1.0)
    out["ctilde"] = ct
    return out


class TestCentering:
    def test_sampled_variance_matches_c(self, centering_samples):
        s = centering_samples
        m = s["lin_energy"].mean()
        se = s["lin_energy"].std(ddof=1) / np.sqrt(len(s["lin_energy"]))
        assert abs(m - s["c"][-1]) < 4.0 * se
        assert se < 0.05 * s["c"][-1]

    def test_wick2_zero_mode_centered(self, centering_samples):
        s = centering_samples
        se = s["w2_zero"].std(ddof=1) / np.sqrt(len(s["w2_zero"]))
        assert abs(s["w2_zero"].mean()) < 4.0 * se

    def test_quartic_pairing_centered(self, centering_samples):
        s = centering_samples
        raw = s["pair_raw"]
        se_main = raw.std(ddof=1) / np.sqrt(len(raw))
        # the raw pairing is significantly positive ...
        assert raw.mean() > 3.0 * se_main
        # ... and subtracting twice the exact constant centers it within
        # sampling error
        resid = raw.mean() - 2.0 * s["ctilde"][-1]
        assert abs(resid) < 4.0 * se_main

    def test_first_chaos_subtraction_bounded(self, centering_samples):
        # the centered quintic resonant keeps its first-chaos covariance
        # smaller than the counterterm scale itself
        s = centering_samples
        bound = 6.0 * s["ctilde"][-1] * s["c"][-1]
        m = s["cov_cent"].mean()
        se = s["cov_cent"].std(ddof=1) / np.sqrt(len(s["cov_cent"]))
        assert abs(m) < bound + 4.0 * se


class TestHomogeneity:
    def test_power_of_two_amplitude_exact(self):
        grid, tg, co = small_setup()
        ct = unit_ctilde(tg)
        noise = NoiseRealization(grid, tg, 4, seed=11)
        lo = build_ensemble(noise, co, 0.7, ctilde=0.7**4 * ct)
        hi = build_ensemble(noise, co, 1.4, ctilde=1.4**4 * ct)
        degrees = {n: CATALOG[n].degree for n in SYMBOL_NAMES}
        degrees["wick3"] = 3
        degrees["i_res_iwick3_wick2"] = 5
        for name, deg in degrees.items():
            a, b = lo.path(name), hi.path(name)
            scale = max(np.max(np.abs(b)), 1e-300)
            assert np.max(np.abs(b - 2.0**deg * a)) <= 1e-13 * scale, name
        assert abs(hi.c[-1] - 4.0 * lo.c[-1]) <= 1e-13 * hi.c[-1]
        assert abs(hi.ctilde[-1] - 16.0 * lo.ctilde[-1]) <= 1e-13 * hi.ctilde[-1]


class TestChaos:
    def test_mass_concentrates_at_degree(self):
        grid, tg, co = small_setup()
        for name in ("lin", "res_iwick2_wick2", "res_iwick3_wick2"):
            dec = chaos_components(NoiseRealization(grid, tg, 4, 11), co, name, ctilde=unit_ctilde(tg))
            m = dec.mass(1.0)
            deg = CATALOG[name].degree
            off = sum(v for k, v in m.items() if k != deg)
            assert m[deg] > 0.0
            assert off < 1e-9 * m[deg], name

    def test_kernels_independent_of_nodes(self):
        grid, tg, co = small_setup()
        ct = unit_ctilde(tg)
        noise = NoiseRealization(grid, tg, 4, 11)
        d1 = chaos_components(noise, co, "res_iwick3_wick2", ctilde=ct)
        d2 = chaos_components(
            noise, co, "res_iwick3_wick2",
            sigma_list=(0.6, 0.9, 1.1, 1.35, 1.7, 2.2), ctilde=ct,
        )
        scale = np.max(np.abs(d1.kernels[5]))
        assert np.max(np.abs(d1.kernels - d2.kernels)) < 1e-9 * scale

    def test_extrapolates_outside_nodes(self):
        grid, tg, co = small_setup()
        ct = unit_ctilde(tg)
        noise = NoiseRealization(grid, tg, 4, 11)
        dec = chaos_components(noise, co, "res_iwick3_wick2", ctilde=ct)
        direct = build_ensemble(
            noise, co, 3.0, ctilde=3.0**4 * ct, names=("res_iwick3_wick2",),
        ).path("res_iwick3_wick2")
        pred = sum(3.0**l * dec.kernels[l] for l in range(6))
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(pred - direct)) < 1e-12 * scale

    def test_mass_scaling(self):
        grid, tg, co = small_setup()
        dec = chaos_components(NoiseRealization(grid, tg, 4, 11), co, "iwick3", ctilde=unit_ctilde(tg))
        m1, m2 = dec.mass(1.0), dec.mass(2.0)
        assert m2[3] == pytest.approx(8.0 * m1[3], rel=1e-12)

    def test_input_validation(self):
        grid, tg, co = small_setup()
        noise = NoiseRealization(grid, tg, 4, 1)
        with pytest.raises(ValueError):
            chaos_components(noise, co, "wick3", ctilde=0.0)
        with pytest.raises(ValueError):
            chaos_components(noise, co, "lin", sigma_list=(1.0,), ctilde=0.0)
        with pytest.raises(ValueError):
            chaos_components(noise, co, "lin", sigma_list=(1.0, 1.0), ctilde=0.0)
        dec = ChaosDecomposition("lin", 1, (0.5, 1.0), np.zeros((2, 2, 2, 2)), grid, tg)
        with pytest.raises(ValueError):
            dec.component(1.0, 2)


class TestEnsembleIO:
    def test_budget_guard(self, monkeypatch):
        # the ~37 GiB request is refused before any stepper is built: the
        # stepper's first act, the variance path, must not run
        def boom(*args, **kwargs):
            raise AssertionError("a SymbolStepper was built")

        monkeypatch.setattr(symbols, "lin_variance_path", boom)
        grid = TorusGrid(64, 3)
        tg = TimeGrid(1.0, 2000)
        co = CoefficientSet(0.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            build_ensemble(NoiseRealization(grid, tg, 8, seed=1), co, 1.0, ctilde=0.0)

    def test_unknown_name_rejected(self):
        grid, tg, co = small_setup(N=8, M=4)
        noise = NoiseRealization(grid, tg, 2, seed=1)
        with pytest.raises(ValueError):
            build_ensemble(noise, co, 1.0, ctilde=0.0, names=("nope",))
        ens = build_ensemble(noise, co, 1.0, ctilde=0.0, names=("lin",))
        with pytest.raises(KeyError):
            ens.path("wick2")
