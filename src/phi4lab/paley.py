"""Dyadic frequency decomposition, Besov norms and paraproduct calculus.

The decomposition is built from one smooth radial cutoff ``chi_base`` that is
identically 1 inside radius 3/4 and vanishes beyond 4/3.  Annular weights
``chi(z) = chi_base(z/2) - chi_base(z)`` rescaled by powers of two tile the
grid band, and their sum telescopes back to exactly 1 on every retained
frequency, so decomposing and resumming a field is lossless.

Block indices run from -1 (the ball block, weight ``chi_base``) to ``K``,
where ``K`` is the smallest index whose tail cutoff covers the corner of the
grid band.  Paraproducts split a pointwise product ``f g`` into the part
where ``f`` sits at least two blocks below ``g`` (``para_lt``), the
transposed part (``para_gt``), and the diagonal ``|k - l| <= 1`` part
(``resonant``).  Every pairwise block product is formed on the grid of
:func:`.grids.binary_size` (the smallest even 5-smooth size above ``3N/2``),
where the product of two closed-band factors is alias free, so the three
pieces sum to the dealiased product exactly.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .grids import (
    SpectralField,
    TorusGrid,
    _check_same_grid,
    _pad_index,
    binary_size,
    dealiased_product,
    heat_propagate,
    pad_half,
    unpad_half,
)

__all__ = [
    "chi_base",
    "chi_annulus",
    "DyadicPartition",
    "default_partition",
    "lp_blocks",
    "besov_norm",
    "lp_norm",
    "para_lt",
    "para_gt",
    "resonant",
    "nonresonant",
    "para_ge",
    "para_resonant_commutator",
    "heat_para_commutator",
    "bernstein_ratios",
    "bernstein_gradient_ratios",
    "schauder_ratio",
    "moment_criterion",
]


def _bump(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) on x > 0, identically 0 elsewhere (smooth glue function)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def chi_base(r) -> np.ndarray:
    """Smooth radial cutoff: exactly 1 for ``r <= 3/4``, 0 for ``r >= 4/3``."""
    r = np.asarray(r, dtype=np.float64)
    hi = _bump(4.0 / 3.0 - r)
    lo = _bump(r - 0.75)
    return hi / (hi + lo)


def chi_annulus(r) -> np.ndarray:
    """Annular weight ``chi_base(r/2) - chi_base(r)``, supported on 3/4 <= r <= 8/3."""
    r = np.asarray(r, dtype=np.float64)
    return chi_base(r / 2.0) - chi_base(r)


class DyadicPartition:
    """Dyadic partition of unity over the spectrum of a :class:`TorusGrid`.

    Attributes
    ----------
    K : int
        Largest annular block index; blocks are ``-1, 0, ..., K``.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        r = np.sqrt(grid.k2.astype(np.float64))
        rmax = math.sqrt(grid.dim) * grid.N / 2.0
        self.K = max(0, math.ceil(math.log2(rmax * 4.0 / 3.0)) - 1)
        weights = [chi_base(r)]
        for k in range(self.K + 1):
            weights.append(chi_annulus(r / 2.0**k))
        self._weights = np.stack(weights)

    @property
    def indices(self) -> range:
        return range(-1, self.K + 1)

    @property
    def nblocks(self) -> int:
        return self.K + 2

    def weight(self, k: int) -> np.ndarray:
        if not -1 <= k <= self.K:
            raise ValueError(f"block index {k} outside [-1, {self.K}]")
        return self._weights[k + 1]

    def weight_sum(self) -> np.ndarray:
        return self._weights.sum(axis=0)

    def resonance_weight(self) -> np.ndarray:
        """Spectral weight of the diagonal pairing: sum over |k - l| <= 1 of w_k w_l."""
        w = self._weights
        out = np.zeros_like(w[0])
        for j in range(len(w)):
            near = w[max(0, j - 1) : j + 2].sum(axis=0)
            out += w[j] * near
        return out

    def block(self, spec: SpectralField, k: int) -> SpectralField:
        return SpectralField(self.grid, spec.coeffs * self.weight(k))

    def blocks(self, spec: SpectralField) -> list[SpectralField]:
        return [self.block(spec, k) for k in self.indices]

    def block_values(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid point values of every block of the spectrum ``c`` (stacked).

        The result has shape ``(nblocks,) + grid.shape``.  When ``out`` is
        given (a float64 array of that shape) the values are written into it
        and it is returned; its previous contents are ignored, so one buffer
        can be reused across calls.  (``irfftn`` takes ``out`` from numpy 2.0.)
        """
        axes = tuple(range(1, self.grid.dim + 1))
        stack = self._weights * c[None]
        vals = np.fft.irfftn(stack, s=self.grid.shape, axes=axes, out=out)
        vals *= self.grid.npoints
        return vals

    @cached_property
    def _padded_weights(self) -> np.ndarray:
        """The block weights gathered onto the half layout of the binary-product grid."""
        N, dim = self.grid.N, self.grid.dim
        P = binary_size(N)
        src, dst = _pad_index(N, P, dim)
        out = np.zeros((self.nblocks,) + (P,) * (dim - 1) + (P // 2 + 1,))
        out[(slice(None),) + dst] = self._weights[(slice(None),) + src]
        return out

    def padded_blocks(self, c: np.ndarray) -> np.ndarray:
        """Block point values on the binary-product grid (for one-pass paraproducts).

        The grid has ``P = binary_size(N)`` points per axis, where the product
        of any two blocks is alias free; the result has shape
        ``(nblocks,) + (P,) * dim``.  The spectrum is padded once, weighted by
        every block at once, and transformed in one batch over the block axis.
        """
        N, dim = self.grid.N, self.grid.dim
        P = binary_size(N)
        stack = self._padded_weights * pad_half(c * float(P) ** dim, N, P)
        return np.fft.irfftn(stack, s=(P,) * dim, axes=tuple(range(1, dim + 1)))


@lru_cache(maxsize=8)
def default_partition(grid: TorusGrid) -> DyadicPartition:
    return DyadicPartition(grid)


def _part(f: SpectralField, partition: DyadicPartition | None) -> DyadicPartition:
    return default_partition(f.grid) if partition is None else partition


def lp_blocks(spec: SpectralField, partition: DyadicPartition | None = None) -> list[SpectralField]:
    """The dyadic blocks of a field as spectral fields (index -1 first)."""
    return _part(spec, partition).blocks(spec)


def lp_norm(values: np.ndarray, p: float) -> float:
    """L^p norm over the grid with normalized counting measure; inf for sup."""
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def besov_norm(
    spec: SpectralField,
    alpha: float,
    partition: DyadicPartition | None = None,
    out: np.ndarray | None = None,
) -> float:
    """Holder-Besov norm: ``max_k 2**(alpha k) sup |block_k|`` over grid points.

    ``out`` is an optional scratch buffer for the block stack, as in
    :meth:`DyadicPartition.block_values`; it is overwritten (with the
    absolute block values) and the norm does not depend on its contents.
    """
    part = _part(spec, partition)
    vals = part.block_values(spec.coeffs, out=out)
    np.abs(vals, out=vals)
    sups = np.max(vals, axis=tuple(range(1, vals.ndim)))
    scales = 2.0 ** (alpha * np.arange(-1, part.K + 1))
    return float(np.max(scales * sups))


def _para_lt_core(bf: np.ndarray, bg: np.ndarray, N: int, dim: int) -> np.ndarray:
    """Low-modulates-high paraproduct from padded block stacks (grid size read from them)."""
    acc = np.zeros_like(bf[0])
    S = np.zeros_like(bf[0])
    for j in range(2, bf.shape[0]):
        S += bf[j - 2]
        acc += S * bg[j]
    P = bf.shape[1]
    return unpad_half(np.fft.rfftn(acc) / P**dim, P, N)


def _resonant_core(bf: np.ndarray, bg: np.ndarray, N: int, dim: int) -> np.ndarray:
    acc = np.zeros_like(bf[0])
    J = bf.shape[0]
    for j in range(J):
        acc += bg[j] * bf[max(0, j - 1) : j + 2].sum(axis=0)
    P = bf.shape[1]
    return unpad_half(np.fft.rfftn(acc) / P**dim, P, N)


def para_lt(
    f: SpectralField, g: SpectralField, partition: DyadicPartition | None = None
) -> SpectralField:
    """Paraproduct with ``f`` strictly below ``g`` in frequency (f modulates g)."""
    _check_same_grid(f, g)
    part = _part(f, partition)
    bf = part.padded_blocks(f.coeffs)
    bg = part.padded_blocks(g.coeffs)
    return SpectralField(f.grid, _para_lt_core(bf, bg, f.grid.N, f.grid.dim))


def para_gt(
    f: SpectralField, g: SpectralField, partition: DyadicPartition | None = None
) -> SpectralField:
    """Paraproduct with ``f`` strictly above ``g`` in frequency."""
    return para_lt(g, f, partition)


def resonant(
    f: SpectralField, g: SpectralField, partition: DyadicPartition | None = None
) -> SpectralField:
    """Diagonal part of the product: blocks of ``f`` and ``g`` within one level."""
    _check_same_grid(f, g)
    part = _part(f, partition)
    bf = part.padded_blocks(f.coeffs)
    bg = part.padded_blocks(g.coeffs)
    return SpectralField(f.grid, _resonant_core(bf, bg, f.grid.N, f.grid.dim))


def nonresonant(
    f: SpectralField, g: SpectralField, partition: DyadicPartition | None = None
) -> SpectralField:
    """Full dealiased product minus its resonant part."""
    return dealiased_product(f, g) - resonant(f, g, partition)


def para_ge(
    f: SpectralField, g: SpectralField, partition: DyadicPartition | None = None
) -> SpectralField:
    """Full dealiased product minus ``para_lt``: resonant plus upper paraproduct."""
    return dealiased_product(f, g) - para_lt(f, g, partition)


def para_resonant_commutator(
    f: SpectralField,
    g: SpectralField,
    h: SpectralField,
    partition: DyadicPartition | None = None,
) -> SpectralField:
    """Trilinear commutator ``resonant(para_lt(f, g), h) - f * resonant(g, h)``.

    For fields of the regularities met here this is smoother than either term
    alone, which is what makes the diagonal pairings in the solver well
    defined; it is evaluated literally from its definition.
    """
    part = _part(f, partition)
    lhs = resonant(para_lt(f, g, part), h, part)
    rhs = dealiased_product(f, resonant(g, h, part))
    return lhs - rhs


def heat_para_commutator(
    f: SpectralField,
    g: SpectralField,
    s: float,
    t: float,
    alpha: float = 0.0,
    partition: DyadicPartition | None = None,
) -> SpectralField:
    """Commutator of the damped heat propagator with the lower paraproduct.

    ``P_{s,t}(para_lt(f, g)) - para_lt(f, P_{s,t} g)`` with the same scalar
    damping integral ``alpha`` on both propagators.
    """
    part = _part(f, partition)
    lhs = heat_propagate(para_lt(f, g, part), s, t, alpha=alpha)
    rhs = para_lt(f, heat_propagate(g, s, t, alpha=alpha), part)
    return lhs - rhs


def _deriv_values(spec: SpectralField) -> np.ndarray:
    """Pointwise Euclidean norm of the gradient on the grid.

    Odd derivatives of the Nyquist mode vanish at grid points under the
    symmetric interpolant, so that slot is zeroed.
    """
    grid = spec.grid
    N, dim = grid.N, grid.dim
    total = np.zeros(grid.shape)
    axes = tuple(range(dim))
    for a in range(dim):
        if a < dim - 1:
            freqs = np.fft.fftfreq(N, d=1.0 / N)
        else:
            freqs = np.arange(N // 2 + 1, dtype=np.float64)
        freqs = freqs.copy()
        freqs[np.abs(freqs) == N // 2] = 0.0
        sh = [1] * dim
        sh[a] = freqs.size
        mult = 2j * np.pi * freqs.reshape(sh)
        comp = np.fft.irfftn(spec.coeffs * mult, s=grid.shape, axes=axes) * grid.npoints
        total += comp**2
    return np.sqrt(total)


def bernstein_ratios(
    spec: SpectralField,
    p: float,
    q: float,
    partition: DyadicPartition | None = None,
    tiny: float = 1e-300,
) -> dict[int, float]:
    """Per-block ratio ``||d_k f||_q / (2**(k d (1/p - 1/q)) ||d_k f||_p)``.

    ``q >= p``.  Blocks with negligible mass are skipped.
    """
    if q < p:
        raise ValueError("q must be >= p")
    part = _part(spec, partition)
    vals = part.block_values(spec.coeffs)
    d = spec.grid.dim
    out = {}
    for k, v in zip(part.indices, vals):
        denom = lp_norm(v, p)
        if denom < tiny:
            continue
        out[k] = lp_norm(v, q) / (2.0 ** (k * d * (1.0 / p - 1.0 / q)) * denom)
    return out


def bernstein_gradient_ratios(
    spec: SpectralField,
    p: float,
    partition: DyadicPartition | None = None,
    tiny: float = 1e-300,
) -> dict[int, float]:
    """Per-block ratio ``|| |grad d_k f| ||_p / (2**k ||d_k f||_p)``."""
    part = _part(spec, partition)
    out = {}
    for k in part.indices:
        blk = part.block(spec, k)
        denom = lp_norm(blk.to_real().values, p)
        if denom < tiny:
            continue
        out[k] = lp_norm(_deriv_values(blk), p) / (2.0**k * denom)
    return out


def schauder_ratio(
    spec: SpectralField,
    t: float,
    alpha: float,
    beta: float,
    partition: DyadicPartition | None = None,
) -> float:
    """Smoothing ratio ``t**((beta-alpha)/2) ||P_t f||_beta / ||f||_alpha``.

    Bounded uniformly in ``t`` and ``f`` when ``beta >= alpha``; used as an
    empirical check of parabolic smoothing.
    """
    if beta < alpha:
        raise ValueError("beta must be >= alpha")
    if t <= 0:
        raise ValueError("t must be positive")
    part = _part(spec, partition)
    denom = besov_norm(spec, alpha, part)
    if denom == 0:
        return 0.0
    num = besov_norm(heat_propagate(spec, 0.0, t), beta, part)
    return float(t ** ((beta - alpha) / 2.0) * num / denom)


def moment_criterion(
    samples: list[SpectralField],
    p: int,
    s: float,
    partition: DyadicPartition | None = None,
    kmin: int = 1,
    kmax: int | None = None,
) -> dict:
    """Dyadic moment test for almost-sure regularity of a random field.

    Estimates ``M_k = E ||d_k X||_{2p}^{2p}`` from ``samples`` and reports the
    constant ``max_k 2**(2 p k s) M_k`` together with the least-squares decay
    slope of ``log2 M_k**(1/2p)`` over ``kmin <= k <= kmax``.  Decay like
    ``2**(-k s)`` certifies Holder regularity ``s - d/(2p)`` (minus epsilon).
    By default the fit uses only blocks whose annulus lies entirely inside
    the inscribed ball of the grid band; the top blocks are clipped by the
    cube corners and would bias the slope.
    """
    if not samples:
        raise ValueError("need at least one sample")
    part = _part(samples[0], partition)
    d = samples[0].grid.dim
    N = samples[0].grid.N
    if kmax is None:
        kmax = math.floor(math.log2(N * 3.0 / 16.0))
        kmax = max(kmax, kmin + 1)
    ks = np.arange(-1, part.K + 1)
    M = np.zeros(part.nblocks)
    for f in samples:
        vals = part.block_values(f.coeffs)
        M += np.mean(np.abs(vals) ** (2 * p), axis=tuple(range(1, vals.ndim)))
    M /= len(samples)
    mask = (ks >= kmin) & (ks <= kmax) & (M > 0)
    x = ks[mask]
    y = np.log2(M[mask]) / (2.0 * p)
    slope, intercept = np.polyfit(x, y, 1)
    const = float(np.max(2.0 ** (2.0 * p * ks * s) * M))
    return {
        "block_moments": dict(zip(ks.tolist(), M.tolist())),
        "constant": const,
        "slope": float(slope),
        "intercept": float(intercept),
        "implied_regularity": float(-slope - d / (2.0 * p)),
    }
