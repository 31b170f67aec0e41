"""Partition-of-unity, paraproduct and norm checks."""

import os
import threading

import numpy as np
import pytest

from phi4lab import grids, paley
from phi4lab.grids import (
    SpectralField,
    _pad_index,
    TorusGrid,
    binary_size,
    dealiased_product,
    dft,
    idft,
    pad_half,
    RealField,
    random_band_field,
)
from phi4lab.paley import (
    DyadicPartition,
    _para_lt_core,
    _resonant_core,
    bernstein_ratios,
    besov_norm,
    chi_annulus,
    chi_base,
    default_partition,
    lp_norm,
    nonresonant,
    para_gt,
    para_lt,
    para_resonant_commutator,
    resonant,
    schauder_ratio,
)


class TestCutoffs:
    def test_chi_base_plateaus(self):
        r = np.array([0.0, 0.5, 0.75, 1.34, 2.0, 10.0])
        v = chi_base(r)
        assert np.all(v[:3] == 1.0)
        assert np.all(v[3:] == 0.0)

    def test_chi_base_monotone_between(self):
        r = np.linspace(0.75, 4.0 / 3.0, 200)
        v = chi_base(r)
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all((v >= 0) & (v <= 1))

    def test_annulus_support(self):
        r = np.array([0.5, 0.74, 2.7, 3.0])
        assert np.all(chi_annulus(r) == 0.0)
        r_in = np.linspace(1.34, 1.49, 20)  # chi_base(r/2)=1, chi_base(r)=0 here
        assert np.all(chi_annulus(r_in) == 1.0)


class TestPartition:
    @pytest.mark.parametrize("N,dim", [(16, 1), (16, 2), (32, 2), (16, 3)])
    def test_weights_sum_to_one(self, N, dim):
        part = DyadicPartition(TorusGrid(N, dim))
        total = part.weight_sum()
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_block_reconstruction(self):
        rng = np.random.default_rng(21)
        grid = TorusGrid(32, 2)
        f = random_band_field(grid, rng)
        blocks = default_partition(grid).blocks(f)
        total = np.sum([b.coeffs for b in blocks], axis=0)
        assert np.max(np.abs(total - f.coeffs)) < 1e-12

    def test_block_supports(self):
        grid = TorusGrid(32, 2)
        part = DyadicPartition(grid)
        r = np.sqrt(grid.k2.astype(float))
        for k in range(0, part.K + 1):
            w = part.weight(k)
            nz = w > 0
            assert np.all(r[nz] >= 0.75 * 2.0**k - 1e-12)
            assert np.all(r[nz] <= (8.0 / 3.0) * 2.0**k + 1e-12)

    def test_resonance_weight_matches_definition(self):
        grid = TorusGrid(16, 2)
        part = DyadicPartition(grid)
        expect = np.zeros(grid.hshape)
        for k in part.indices:
            for l in part.indices:
                if abs(k - l) <= 1:
                    expect += part.weight(k) * part.weight(l)
        assert np.max(np.abs(part.resonance_weight() - expect)) < 1e-14

    def test_index_validation(self):
        part = DyadicPartition(TorusGrid(16, 2))
        with pytest.raises(ValueError):
            part.weight(part.K + 1)


class TestParaproducts:
    def test_three_way_reconstruction(self):
        rng = np.random.default_rng(22)
        grid = TorusGrid(32, 2)
        f = random_band_field(grid, rng)
        g = random_band_field(grid, rng)
        total = para_lt(f, g) + para_gt(f, g) + resonant(f, g)
        full = dealiased_product(f, g)
        scale = max(np.max(np.abs(full.coeffs)), 1.0)
        assert np.max(np.abs(total.coeffs - full.coeffs)) / scale < 1e-10

    def test_three_way_reconstruction_3d(self):
        rng = np.random.default_rng(23)
        grid = TorusGrid(16, 3)
        f = random_band_field(grid, rng)
        g = random_band_field(grid, rng)
        total = para_lt(f, g) + para_gt(f, g) + resonant(f, g)
        full = dealiased_product(f, g)
        assert np.max(np.abs(total.coeffs - full.coeffs)) < 1e-12

    def test_para_lt_with_constant_low_factor(self):
        # a constant field occupies only the ball block, so para_lt(c, g)
        # must equal c * (g minus its two lowest blocks)
        rng = np.random.default_rng(24)
        grid = TorusGrid(32, 2)
        g = random_band_field(grid, rng)
        c = 0.7
        const = dft(RealField(grid, np.full(grid.shape, c)))
        out = para_lt(const, g)
        blocks = default_partition(grid).blocks(g)
        expect = c * (g.coeffs - blocks[0].coeffs - blocks[1].coeffs)
        assert np.max(np.abs(out.coeffs - expect)) < 1e-12

    def test_resonant_symmetric(self):
        rng = np.random.default_rng(25)
        grid = TorusGrid(32, 2)
        f = random_band_field(grid, rng)
        g = random_band_field(grid, rng)
        a = resonant(f, g)
        b = resonant(g, f)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13

    def test_derived_products(self):
        rng = np.random.default_rng(26)
        grid = TorusGrid(16, 2)
        f = random_band_field(grid, rng)
        g = random_band_field(grid, rng)
        full = dealiased_product(f, g)
        nr = nonresonant(f, g)
        assert np.max(np.abs(nr.coeffs + resonant(f, g).coeffs - full.coeffs)) < 1e-12

    def test_bilinearity_property(self):
        grid = TorusGrid(16, 2)
        for seed in range(6):
            rng = np.random.default_rng(400 + seed)
            f = random_band_field(grid, rng)
            g = random_band_field(grid, rng)
            h = random_band_field(grid, rng)
            lhs = para_lt(f + g, h)
            rhs = para_lt(f, h) + para_lt(g, h)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


class TestCommutators:
    def test_para_resonant_definition(self):
        rng = np.random.default_rng(27)
        grid = TorusGrid(16, 2)
        f = random_band_field(grid, rng)
        g = random_band_field(grid, rng)
        h = random_band_field(grid, rng)
        com = para_resonant_commutator(f, g, h)
        expect = resonant(para_lt(f, g), h) - dealiased_product(f, resonant(g, h))
        assert np.max(np.abs(com.coeffs - expect.coeffs)) < 1e-13


class TestNorms:
    def test_lp_norm_limits(self):
        v = np.array([1.0, -2.0, 0.5])
        assert lp_norm(v, np.inf) == 2.0
        assert np.isclose(lp_norm(v, 2.0), np.sqrt(np.mean(v**2)))
        with pytest.raises(ValueError):
            lp_norm(v, 0.0)

    def test_single_annulus_field_norm(self):
        # frequency (11, 2) has |w| ~ 11.18, inside the plateau of block 3
        grid = TorusGrid(32, 2)
        part = DyadicPartition(grid)
        c = np.zeros(grid.hshape, dtype=complex)
        c[11, 2] = 0.3 + 0.1j
        f = SpectralField(grid, c)
        assert np.isclose(part.weight(3)[11, 2], 1.0)
        sup = np.max(np.abs(idft(f).values))
        for alpha in (-0.5, 0.0, 1.2):
            assert np.isclose(besov_norm(f, alpha), 2.0 ** (3 * alpha) * sup, rtol=1e-12)

    def test_besov_norm_homogeneous(self):
        rng = np.random.default_rng(30)
        f = random_band_field(TorusGrid(32, 2), rng)
        assert np.isclose(besov_norm(2.5 * f, 0.3), 2.5 * besov_norm(f, 0.3), rtol=1e-12)

    def test_sup_bounded_by_zero_norm(self):
        rng = np.random.default_rng(31)
        f = random_band_field(TorusGrid(32, 2), rng)
        part = default_partition(f.grid)
        assert np.max(np.abs(idft(f).values)) <= part.nblocks * besov_norm(f, 0.0) + 1e-12


class TestBlockBuffer:
    @pytest.mark.parametrize("N, dim", [(32, 2), (8, 3)])
    def test_besov_norm_with_buffer_is_bitwise_equal(self, N, dim):
        grid = TorusGrid(N, dim)
        part = default_partition(grid)
        rng = np.random.default_rng(40 + dim)
        buf = np.empty((part.nblocks,) + grid.shape)
        for _ in range(3):  # one buffer reused across fields
            f = random_band_field(grid, rng)
            for alpha in (-0.55, 0.0, 0.7):
                assert besov_norm(f, alpha, out=buf) == besov_norm(f, alpha)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_block_values_equal_the_dense_transform_bitwise(self, dim):
        # each partition's scratch stack is reused across fields, with the
        # other grids' partitions used in between
        rng = np.random.default_rng(42 + dim)
        parts = [DyadicPartition(TorusGrid(N, dim)) for N in (8, 12, 16, 32, 64)]
        for _ in range(2):
            for part in parts:
                grid = part.grid
                c = np.fft.rfftn(rng.standard_normal(grid.shape)) / grid.npoints
                axes = tuple(range(1, dim + 1))
                dense = np.fft.irfftn(part._weights * c[None], s=grid.shape, axes=axes)
                dense *= grid.npoints
                buf = np.full((part.nblocks,) + grid.shape, np.nan)
                vals = part.block_values(c, out=buf)
                assert vals is buf
                assert np.array_equal(vals, dense)
                assert np.array_equal(part.block_values(c), dense)


def _dense_padded_weights(part):
    """Every block's weights on the half layout of the binary-product grid, uncut."""
    N, dim = part.grid.N, part.grid.dim
    P = binary_size(N)
    src, dst = _pad_index(N, P, dim)
    out = np.zeros((part.nblocks,) + (P,) * (dim - 1) + (P // 2 + 1,))
    out[(slice(None),) + dst] = part._weights[(slice(None),) + src]
    return out


class TestCroppedBlockTransforms:
    @pytest.mark.parametrize(
        "N, dim",
        [(N, dim) for dim in (1, 2, 3) for N in (8, 12, 16, 32)] + [(48, 3)],
    )
    def test_padded_blocks_equal_the_dense_transform_bitwise(self, N, dim):
        # full-band input that carries the Nyquist slot, as core outputs do
        grid = TorusGrid(N, dim)
        part = DyadicPartition(grid)
        rng = np.random.default_rng(N + dim)
        c = np.fft.rfftn(rng.standard_normal(grid.shape)) / grid.npoints
        assert np.any(c[..., N // 2] != 0)
        P = binary_size(N)
        stack = _dense_padded_weights(part) * pad_half(c * float(P) ** dim, N, P)
        dense = np.fft.irfftn(stack, s=(P,) * dim, axes=tuple(range(1, dim + 1)))
        assert np.array_equal(part.padded_blocks(c), dense)

    @pytest.mark.parametrize("N, dim", [(8, 1), (16, 2), (32, 3)])
    def test_weights_vanish_beyond_each_width(self, N, dim):
        # each kept array is the dense weights up to its last nonzero column
        part = DyadicPartition(TorusGrid(N, dim))
        cut = part._padded_weights
        dense = _dense_padded_weights(part)
        assert len(cut) == part.nblocks
        for k, w in enumerate(cut):
            width = w.shape[-1]
            assert w.flags.c_contiguous
            assert np.array_equal(w, dense[k][..., :width])
            assert np.any(w[..., -1] != 0.0)
            assert np.all(dense[k][..., width:] == 0.0)

def _use_cpus(monkeypatch, n):
    """Let this process see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestTwoWaySplit:
    @pytest.mark.parametrize("N, dim, two_way", [
        (32, 3, True), (256, 2, True), (24, 3, False), (128, 2, False), (1024, 1, False),
    ])
    def test_two_cpus_split_from_two_to_the_sixteen_points(self, monkeypatch, N, dim, two_way):
        # 3-D from N = 32 (50^3 binary-grid points), 2-D from N = 256 (400^2)
        _use_cpus(monkeypatch, 2)
        assert (binary_size(N) ** dim >= 2**16) == two_way
        assert grids._two_way(N, dim) == two_way

    def test_one_cpu_keeps_every_grid_one_way(self, monkeypatch):
        _use_cpus(monkeypatch, 1)
        assert not grids._two_way(32, 3)
        assert not grids._two_way(256, 2)

    def test_replica_shares_run_one_way_and_the_caller_splits_again(self, monkeypatch):
        # the statistic returns the decision: worker 0 (this process) and the
        # forked child both run one way, and so does a nested block; the
        # caller is two-way again once the loop returns
        from phi4lab.noise import replicate

        _use_cpus(monkeypatch, 2)
        assert grids._two_way(32, 3)
        with grids._one_way():
            with grids._one_way():
                pass
            assert not grids._two_way(32, 3)
        decisions = replicate(lambda i, seed: float(grids._two_way(32, 3)), 2, None)
        assert decisions.tolist() == [0.0, 0.0]
        assert grids._two_way(32, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_join_joins_its_thread_and_raises_its_error(self):
        threads = threading.active_count()
        ran = []
        grids._fork_join(lambda: ran.append(threading.current_thread()),
                         lambda: ran.append(threading.current_thread()))
        assert len(set(ran)) == 2 and threading.main_thread() in ran

        def fail():
            raise ValueError("helper failed")

        with pytest.raises(ValueError, match="helper failed"):
            grids._fork_join(fail, lambda: None)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("N, dim", [(8, 1), (10, 2), (16, 2), (8, 3), (12, 3)])
    def test_kernels_are_the_same_bits_either_way(self, monkeypatch, N, dim):
        # forced two-way on grids below the gate, with odd and even halves of
        # the leading axis and of the block list
        grid = TorusGrid(N, dim)
        part = DyadicPartition(grid)
        rng = np.random.default_rng(N * dim)
        f = np.fft.rfftn(rng.standard_normal(grid.shape)) / grid.npoints
        g = np.fft.rfftn(rng.standard_normal(grid.shape)) / grid.npoints
        forks = []
        fork_join = grids._fork_join

        def counting(first, second):
            forks.append(1)
            return fork_join(first, second)

        monkeypatch.setattr(grids, "_fork_join", counting)
        monkeypatch.setattr(paley, "_fork_join", counting)
        monkeypatch.setattr(grids, "_SPLIT_POINTS", 1)
        results = {}
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            bf, bg = part.padded_blocks(f), part.padded_blocks(g)
            results[cpus] = (bf, bg, _para_lt_core(bf, bg, N), _resonant_core(bf, bg, N))
            assert len(forks) == (0 if cpus == 1 else 4)
        for one, two in zip(results[1], results[2]):
            assert np.array_equal(one, two)

    @pytest.mark.parametrize("N, dim", [(8, 1), (16, 2), (32, 3)])
    def test_block_halves_deal_every_block_once(self, N, dim):
        part = DyadicPartition(TorusGrid(N, dim))
        first, second = part._block_halves
        assert sorted(first + second) == list(range(part.nblocks))
        widths = [part._padded_weights[k].shape[-1] for k in first + second]
        assert max(widths) == widths[0]


class TestInequalities:
    def test_bernstein_ratios_bounded(self):
        for seed in (32, 33):
            rng = np.random.default_rng(seed)
            f = random_band_field(TorusGrid(32, 2), rng)
            ratios = bernstein_ratios(f, p=2.0, q=np.inf)
            assert ratios
            assert all(0 < r < 8.0 for r in ratios.values())

    def test_bernstein_rejects_bad_exponents(self):
        f = random_band_field(TorusGrid(16, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            bernstein_ratios(f, p=4.0, q=2.0)

    def test_schauder_ratio_single_mode_uniform_over_t(self):
        # for one annular mode the normalized smoothing ratio has a flat
        # envelope in t; check it stays within a modest constant
        grid = TorusGrid(32, 2)
        c = np.zeros(grid.hshape, dtype=complex)
        c[11, 2] = 1.0
        f = SpectralField(grid, c)
        vals = [schauder_ratio(f, t, alpha=-0.5, beta=0.5) for t in np.geomspace(1e-4, 1.0, 12)]
        assert max(vals) < 1.0
        assert max(vals) > 1e-3

    def test_schauder_validation(self):
        f = random_band_field(TorusGrid(16, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            schauder_ratio(f, 0.1, alpha=0.5, beta=0.0)
        with pytest.raises(ValueError):
            schauder_ratio(f, 0.0, alpha=0.0, beta=0.5)
