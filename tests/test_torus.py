"""Grid, transform and dealiased-product checks against direct-sum oracles."""

import itertools

import numpy as np
import pytest

from phi4lab.grids import (
    RealField,
    SpectralField,
    TorusGrid,
    _band_points,
    _band_rows,
    _conj_reflect,
    _gather_band,
    _int_freqs,
    _points_band,
    binary_size,
    dealiased_product,
    dft,
    heat_propagate,
    idft,
    product_spectra,
    random_band_field,
    spectral_truncate,
)
from phi4lab.paley import (
    DyadicPartition,
    _para_lt_core,
    _resonant_core,
    para_gt,
    para_lt,
    resonant,
)


def pad_index(N, P, dim):
    """Where the half-layout N-grid band, in band-row order, sits in the P-grid half layout.

    An open-mesh index over the N + 1 band rows of each leading axis and the
    N/2 + 1 columns of the last axis, into the dense P-grid layout.
    """
    return np.ix_(*([_band_rows(N, P)] * (dim - 1) + [np.arange(N // 2 + 1)]))


def pad_half(c, N, P):
    """Dense zero-padding of a half-layout N-grid spectrum onto the finer P-grid.

    The reference the band-pruned inverse transforms are compared against:
    the Nyquist slot of each axis is split evenly between +N/2 and -N/2.
    """
    if N % 2 or P % 2 or P < N:
        raise ValueError(f"need even P >= N, got N={N}, P={P}")
    if P == N:
        return np.array(c, dtype=np.complex128)
    dim = c.ndim
    out = np.zeros((P,) * (dim - 1) + (P // 2 + 1,), dtype=np.complex128)
    out[pad_index(N, P, dim)] = _gather_band(c, N)
    return out


def unpad_half(C, P, N):
    """Dense restriction of a half-layout P-grid spectrum to the N-grid band.

    The reference the line-pruned forward transform is compared against:
    fine-grid frequencies +N/2 and -N/2 alias to the one coarse Nyquist slot
    and are summed there, axis by axis.
    """
    dim = C.ndim
    h = N // 2
    cur = C
    for ax in range(dim - 1):
        src = np.moveaxis(cur, ax, 0)
        nxt = np.zeros((N,) + src.shape[1:], dtype=np.complex128)
        nxt[:h] = src[:h]
        nxt[h + 1 :] = src[P - h + 1 :]
        nxt[h] = src[h] + src[P - h]
        cur = np.moveaxis(nxt, 0, ax)
    out = np.zeros(cur.shape[:-1] + (h + 1,), dtype=np.complex128)
    out[..., :h] = cur[..., :h]
    nyq = cur[..., h]
    out[..., h] = nyq + _conj_reflect(nyq)
    return out


def _full_band(N, dim, bound):
    """All integer frequency vectors with max_i |w_i| <= bound."""
    ax = range(-bound, bound + 1)
    grids = np.meshgrid(*([list(ax)] * dim), indexing="ij")
    return [tuple(int(g[idx]) for g in grids) for idx in np.ndindex(grids[0].shape)]


def _spec_dict(spec, bound):
    return {w: spec.coeff(w) for w in _full_band(spec.grid.N, spec.grid.dim, bound)}


def _conv(a: dict, b: dict) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            out[w] = out.get(w, 0.0) + c1 * c2
    return out


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(7, 2)
        with pytest.raises(ValueError):
            TorusGrid(0, 2)
        with pytest.raises(ValueError):
            TorusGrid(8, 4)

    def test_frequency_arrays(self):
        g = TorusGrid(8, 2)
        assert g.hshape == (8, 5)
        assert g.k2[0, 0] == 0
        assert g.k2[1, 2] == 1 + 4
        assert g.k2[7, 0] == 1  # row 7 carries frequency -1
        assert g.kinf[4, 4] == 4
        # every mode of the full spectrum is counted exactly once
        assert g.half_weights.sum() == g.npoints

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 64])
    def test_integer_frequencies_are_numpys_fftfreq(self, N):
        full = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
        for dim in (1, 2, 3):
            freqs = _int_freqs(N, dim)
            assert [f.dtype for f in freqs] == [np.dtype(np.int64)] * dim
            assert all(np.array_equal(f, full) for f in freqs[:-1])
            assert np.array_equal(freqs[-1], np.arange(N // 2 + 1))

    def test_equality(self):
        assert TorusGrid(8, 2) == TorusGrid(8, 2)
        assert TorusGrid(8, 2) != TorusGrid(8, 3)


# the grids on which every caller of the transform pair is checked bitwise
SEAM_CASES = [(8, 1), (16, 2), (12, 3), (32, 3)]


class TestTransforms:
    @pytest.mark.parametrize("N, dim", SEAM_CASES)
    def test_dft_and_idft_are_the_dense_transforms_bitwise(self, N, dim):
        rng = np.random.default_rng(110 + N + dim)
        grid = TorusGrid(N, dim)
        f = RealField(grid, rng.standard_normal(grid.shape))
        spec = dft(f)
        assert np.array_equal(spec.coeffs, np.fft.rfftn(f.values) / grid.npoints)
        before = spec.coeffs.copy()
        dense = np.fft.irfftn(spec.coeffs, s=grid.shape, axes=tuple(range(dim))) * grid.npoints
        assert np.array_equal(idft(spec).values, dense)
        assert np.array_equal(spec.coeffs, before)

    @pytest.mark.parametrize("N,dim", [(8, 1), (8, 2), (6, 3)])
    def test_roundtrip(self, N, dim):
        rng = np.random.default_rng(101)
        grid = TorusGrid(N, dim)
        f = RealField(grid, rng.standard_normal(grid.shape))
        back = idft(dft(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_parseval(self):
        rng = np.random.default_rng(102)
        grid = TorusGrid(16, 2)
        f = RealField(grid, rng.standard_normal(grid.shape))
        spec = dft(f)
        assert np.isclose(spec.l2() ** 2, np.mean(f.values**2), rtol=1e-12)

    def test_coeff_matches_direct_sum(self):
        rng = np.random.default_rng(103)
        grid = TorusGrid(8, 2)
        f = RealField(grid, rng.standard_normal(grid.shape))
        spec = dft(f)
        xs = np.meshgrid(*([np.arange(grid.N) / grid.N] * grid.dim), indexing="ij")
        for w in [(0, 0), (1, 2), (-3, 1), (4, 0), (0, 4), (4, 4), (-1, -4)]:
            phase = np.exp(-2j * np.pi * (w[0] * xs[0] + w[1] * xs[1]))
            direct = np.mean(f.values * phase)
            assert abs(spec.coeff(w) - direct) < 1e-12

    def test_coeff_conjugate_symmetry(self):
        rng = np.random.default_rng(104)
        grid = TorusGrid(8, 3)
        spec = random_band_field(grid, rng)
        for w in [(1, 2, 3), (-2, 0, 1), (3, -3, 2)]:
            neg = tuple(-o for o in w)
            assert np.isclose(spec.coeff(neg), np.conj(spec.coeff(w)), atol=1e-14)

    def test_coeff_rejects_out_of_band(self):
        grid = TorusGrid(8, 1)
        spec = random_band_field(grid, np.random.default_rng(0))
        with pytest.raises(ValueError):
            spec.coeff((5,))


class TestPadding:
    @pytest.mark.parametrize("N,P,dim", [(8, 16, 1), (8, 16, 2), (8, 12, 2), (6, 12, 3)])
    def test_pad_unpad_identity(self, N, P, dim):
        rng = np.random.default_rng(105)
        grid = TorusGrid(N, dim)
        spec = random_band_field(grid, rng)
        back = unpad_half(pad_half(spec.coeffs, N, P), P, N)
        assert np.max(np.abs(back - spec.coeffs)) < 1e-14

    def test_pad_interpolates_through_grid_points(self):
        # the doubled grid contains the original one; values must agree there
        rng = np.random.default_rng(106)
        grid = TorusGrid(8, 2)
        f = RealField(grid, rng.standard_normal(grid.shape))
        padded = pad_half(dft(f).coeffs, 8, 16)
        fine = np.fft.irfftn(padded, s=(16, 16), axes=(0, 1)) * 16**2
        assert np.max(np.abs(fine[::2, ::2] - f.values)) < 1e-12

    def test_pad_validation(self):
        with pytest.raises(ValueError):
            pad_half(np.zeros((8, 5), dtype=complex), 8, 7)


class TestTruncate:
    def test_identity_at_half_band(self):
        rng = np.random.default_rng(107)
        grid = TorusGrid(8, 2)
        spec = random_band_field(grid, rng)
        out = spectral_truncate(spec, 4)
        assert np.array_equal(out.coeffs, spec.coeffs)

    def test_sharp_cutoff(self):
        rng = np.random.default_rng(108)
        grid = TorusGrid(16, 2)
        spec = random_band_field(grid, rng)
        out = spectral_truncate(spec, 3)
        assert np.all(out.coeffs[grid.kinf > 3] == 0)
        assert np.array_equal(out.coeffs[grid.kinf <= 3], spec.coeffs[grid.kinf <= 3])
        again = spectral_truncate(out, 3)
        assert np.array_equal(again.coeffs, out.coeffs)

    def test_rejects_negative(self):
        spec = random_band_field(TorusGrid(8, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            spectral_truncate(spec, -1)


class TestHeatPropagate:
    def test_rejects_backward(self):
        spec = random_band_field(TorusGrid(8, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            heat_propagate(spec, 1.0, 0.5)

    def test_single_mode_decay(self):
        grid = TorusGrid(8, 1)
        c = np.zeros(grid.hshape, dtype=complex)
        c[2] = 1.0 + 0.5j
        spec = SpectralField(grid, c)
        out = heat_propagate(spec, 0.0, 0.3, alpha=-0.7)
        expect = (1.0 + 0.5j) * np.exp(-0.7 - 4 * np.pi**2 * 4 * 0.3)
        assert abs(out.coeffs[2] - expect) < 1e-15

    def test_semigroup(self):
        rng = np.random.default_rng(109)
        spec = random_band_field(TorusGrid(16, 2), rng)
        one = heat_propagate(spec, 0.0, 0.25, alpha=-0.2)
        two = heat_propagate(heat_propagate(spec, 0.0, 0.1, alpha=-0.08), 0.1, 0.25, alpha=-0.12)
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-12


class TestDealiasedProducts:
    """Products against the brute-force convolution sum."""

    def _compare(self, prod, oracle, grid):
        # a grid slot at Nyquist carries the sum over the +-N/2 aliases
        half = grid.N // 2
        for w in _full_band(grid.N, grid.dim, half):
            variants = [(o,) if abs(o) < half else (half, -half) for o in w]
            expect = sum(oracle.get(v, 0.0) for v in itertools.product(*variants))
            assert abs(prod.coeff(w) - expect) < 1e-12

    def test_binary_matches_convolution(self):
        rng = np.random.default_rng(110)
        grid = TorusGrid(8, 2)
        f = random_band_field(grid, rng, band=3)
        g = random_band_field(grid, rng, band=3)
        oracle = _conv(_spec_dict(f, 3), _spec_dict(g, 3))
        self._compare(dealiased_product(f, g), oracle, grid)

    def test_ternary_matches_convolution(self):
        rng = np.random.default_rng(111)
        grid = TorusGrid(8, 2)
        f = random_band_field(grid, rng, band=3)
        g = random_band_field(grid, rng, band=3)
        h = random_band_field(grid, rng, band=3)
        oracle = _conv(_conv(_spec_dict(f, 3), _spec_dict(g, 3)), _spec_dict(h, 3))
        self._compare(dealiased_product(f, g, h), oracle, grid)

    def test_repeated_factor_cube(self):
        rng = np.random.default_rng(112)
        grid = TorusGrid(8, 2)
        f = random_band_field(grid, rng, band=3)
        d = _spec_dict(f, 3)
        oracle = _conv(_conv(d, d), d)
        self._compare(dealiased_product(f, f, f), oracle, grid)

    def test_binary_closed_band_agrees_with_dense_sampling(self):
        # with Nyquist content, the binary-product grid must agree with a 4x grid
        rng = np.random.default_rng(113)
        grid = TorusGrid(8, 2)
        f = random_band_field(grid, rng)
        g = random_band_field(grid, rng)
        prod = dealiased_product(f, g)
        P = 32
        pf = np.fft.irfftn(pad_half(f.coeffs, 8, P), s=(P, P), axes=(0, 1)) * P**2
        pg = np.fft.irfftn(pad_half(g.coeffs, 8, P), s=(P, P), axes=(0, 1)) * P**2
        dense = unpad_half(np.fft.rfftn(pf * pg) / P**2, P, 8)
        assert np.max(np.abs(prod.coeffs - dense)) < 1e-12

    def test_band_argument(self):
        rng = np.random.default_rng(114)
        grid = TorusGrid(16, 2)
        f = random_band_field(grid, rng, band=5)
        g = random_band_field(grid, rng, band=5)
        out = dealiased_product(f, g, band=4)
        assert np.all(out.coeffs[grid.kinf > 4] == 0)
        full = dealiased_product(f, g)
        assert np.allclose(
            out.coeffs[grid.kinf <= 4], full.coeffs[grid.kinf <= 4], atol=1e-15
        )

    def test_rejects_arity(self):
        grid = TorusGrid(8, 1)
        f = random_band_field(grid, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dealiased_product(f)

    def test_bilinearity_property(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            grid = TorusGrid(8, 2)
            f = random_band_field(grid, rng, band=3)
            g = random_band_field(grid, rng, band=3)
            h = random_band_field(grid, rng, band=3)
            fg = dealiased_product(f, g)
            gf = dealiased_product(g, f)
            assert np.max(np.abs(fg.coeffs - gf.coeffs)) < 1e-13
            lhs = dealiased_product(f + g, h)
            rhs = dealiased_product(f, h) + dealiased_product(g, h)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_random_band_field_band():
    grid = TorusGrid(16, 3)
    spec = random_band_field(grid, np.random.default_rng(300), band=2)
    assert np.all(spec.coeffs[grid.kinf > 2] == 0)
    assert np.any(spec.coeffs[grid.kinf <= 2] != 0)


def test_binary_size_is_even_smooth_and_above_three_halves():
    for N in range(2, 513, 2):
        P = binary_size(N)
        m = P
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        assert P % 2 == 0 and m == 1, N
        assert 3 * N < 2 * P <= 4 * N, N


def _doubled_product(f, g, N, dim):
    """Binary product on the 2N grid, written apart from product_spectra."""
    P = 2 * N
    axes = tuple(range(dim))
    pf = np.fft.irfftn(pad_half(f, N, P), s=(P,) * dim, axes=axes) * P**dim
    pg = np.fft.irfftn(pad_half(g, N, P), s=(P,) * dim, axes=axes) * P**dim
    return unpad_half(np.fft.rfftn(pf * pg) / P**dim, P, N)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("N", [8, 12, 16, 32])
def test_closed_band_binary_products_match_doubled_grid(N, dim):
    # both factors occupy the Nyquist slot, the case where a grid of exactly
    # 3N/2 folds mode N onto -N/2
    rng = np.random.default_rng(500 + 10 * N + dim)
    grid = TorusGrid(N, dim)
    f = random_band_field(grid, rng)
    g = random_band_field(grid, rng)
    ref = _doubled_product(f.coeffs, g.coeffs, N, dim)
    scale = np.max(np.abs(ref))
    prod = product_spectra([f.coeffs, g.coeffs], N)
    assert np.max(np.abs(prod - ref)) <= 1e-13 * scale
    pieces = (para_lt(f, g) + para_gt(f, g) + resonant(f, g)).coeffs
    assert np.max(np.abs(pieces - ref)) <= 1e-13 * scale


def _dense_points(c, N, P):
    dim = c.ndim
    return np.fft.irfftn(pad_half(c * float(P) ** dim, N, P), s=(P,) * dim, axes=tuple(range(dim)))


def _dense_product(cs, N, band):
    """product_spectra written with dense transforms on every axis."""
    dim = cs[0].ndim
    P = binary_size(N) if len(cs) == 2 else 2 * N
    pts = None
    for c in cs:
        p = _dense_points(c, N, P)
        pts = p.copy() if pts is None else pts * p
    out = unpad_half(np.fft.rfftn(pts) / P**dim, P, N)
    if band is not None and band < N // 2:
        out = np.where(TorusGrid(N, dim).kinf <= band, out, 0.0)
    return out


_PRUNED_CASES = [(N, dim) for dim in (1, 2, 3) for N in (8, 10, 12, 16, 32)] + [(48, 3)]


class TestLinePrunedTransforms:
    """The pruned transform pair against the dense path, byte for byte."""

    @staticmethod
    def _full_band(N, dim, rng):
        # full-band input that carries the Nyquist slot, as core outputs do
        c = np.fft.rfftn(rng.standard_normal((N,) * dim)) / N**dim
        assert np.any(c[..., N // 2] != 0)
        return c

    @pytest.mark.parametrize("N, dim", _PRUNED_CASES)
    def test_pair_equals_the_dense_transforms(self, N, dim):
        rng = np.random.default_rng(700 + N + dim)
        c = self._full_band(N, dim, rng)
        for P in (binary_size(N), 2 * N):
            assert _band_points(c, N, P).tobytes() == _dense_points(c, N, P).tobytes()
            pts = rng.standard_normal((P,) * dim)
            dense = unpad_half(np.fft.rfftn(pts) / P**dim, P, N)
            assert _points_band(pts, N).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("N, dim", _PRUNED_CASES)
    def test_products_equal_the_dense_path(self, N, dim):
        rng = np.random.default_rng(800 + N + dim)
        f, g, h = (self._full_band(N, dim, rng) for _ in range(3))
        for cs in ([f, g], [f, g, h], [f, f], [f, f, g], [f, g, f], [f, f, f]):
            for band in (None, N // 2 - 1, N // 4):
                got = product_spectra(cs, N, band=band)
                assert got.tobytes() == _dense_product(cs, N, band).tobytes()

    @pytest.mark.parametrize("N, dim", [(8, 1), (10, 2), (16, 2), (12, 3), (32, 3)])
    def test_core_outputs_equal_the_dense_restriction(self, N, dim):
        rng = np.random.default_rng(900 + N + dim)
        part = DyadicPartition(TorusGrid(N, dim))
        bf = part.padded_blocks(self._full_band(N, dim, rng))
        bg = part.padded_blocks(self._full_band(N, dim, rng))
        P = binary_size(N)
        acc = np.zeros_like(bf[0])
        S = np.zeros_like(bf[0])
        for j in range(2, bf.shape[0]):
            S += bf[j - 2]
            acc += S * bg[j]
        dense = unpad_half(np.fft.rfftn(acc) / P**dim, P, N)
        assert _para_lt_core(bf, bg, N).tobytes() == dense.tobytes()
        acc = np.zeros_like(bf[0])
        for j in range(bf.shape[0]):
            acc += bg[j] * bf[max(0, j - 1) : j + 2].sum(axis=0)
        dense = unpad_half(np.fft.rfftn(acc) / P**dim, P, N)
        assert _resonant_core(bf, bg, N).tobytes() == dense.tobytes()


_FFTS = ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn", "fftn", "ifftn")


class TestZeroInZeroOut:
    """An all-zero input transforms to zeros without an FFT."""

    @pytest.mark.parametrize("N, dim", [(8, 1), (10, 2), (12, 3)])
    def test_zero_input_runs_no_transform(self, monkeypatch, N, dim):
        grid = TorusGrid(N, dim)
        part = DyadicPartition(grid)
        zero = np.zeros(grid.hshape, dtype=np.complex128)
        # the values a dense transform of zeros gives, taken before the patch
        dense_points = {P: _dense_points(zero, N, P) for P in (binary_size(N), 2 * N)}
        dense_band = unpad_half(np.fft.rfftn(np.zeros((2 * N,) * dim)), 2 * N, N)

        def refuse(*args, **kwargs):
            raise AssertionError("transform of an all-zero input")

        for name in _FFTS:
            monkeypatch.setattr(np.fft, name, refuse)
        for P, dense in dense_points.items():
            got = _band_points(zero, N, P)
            assert got.dtype == dense.dtype and np.array_equal(got, dense)
        got = _points_band(np.zeros((2 * N,) * dim), N)
        assert got.dtype == dense_band.dtype and np.array_equal(got, dense_band)
        stack = part.padded_blocks(zero)
        assert stack.shape == (part.nblocks,) + (binary_size(N),) * dim
        assert not stack.any()
