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

The partition is a function of the grid alone, so no function here takes
one: each looks it up with :func:`default_partition`, which keeps one
partition (and its scratch stacks) per grid for the process.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .grids import (
    SpectralField,
    TorusGrid,
    _all_zero,
    _band_index,
    _band_rows,
    _check_same_grid,
    _gather_band,
    _points_band,
    _to_points,
    binary_size,
    dealiased_product,
    heat_propagate,
)

__all__ = [
    "chi_base",
    "chi_annulus",
    "DyadicPartition",
    "default_partition",
    "besov_norm",
    "lp_norm",
    "para_lt",
    "para_gt",
    "resonant",
    "nonresonant",
    "para_resonant_commutator",
    "bernstein_ratios",
    "schauder_ratio",
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

    @cached_property
    def _complex_weights(self) -> np.ndarray:
        """The block weights cast to complex128 once.

        numpy multiplies a real by a complex array after casting the real one
        through a temporary buffer; with the cast done here the products are
        the same bits and need no buffer.
        """
        return self._weights.astype(np.complex128)

    @cached_property
    def _stack(self) -> np.ndarray:
        """Scratch complex block stack that :meth:`block_values` weights into."""
        return np.empty(self._weights.shape, dtype=np.complex128)

    def block_values(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid point values of every block of the spectrum ``c`` (stacked).

        The result has shape ``(nblocks,) + grid.shape``.  When ``out`` is
        given (a float64 array of that shape) the values are written into it
        and it is returned; its previous contents are ignored, so one buffer
        can be reused across calls.  The weighted spectra go into one complex
        stack kept on the partition, which :func:`.grids._to_points`
        transforms in place (bitwise ``irfftn``); only the last real
        transform writes a new array or ``out``.  The shared stack makes the
        method not reentrant.
        """
        stack = self._stack
        # one product per block: a broadcast product goes through buffers
        for w, s in zip(self._complex_weights, stack):
            np.multiply(w, c, out=s)
        vals = _to_points(stack, self.grid.N, self.grid.dim, out=out)
        vals *= self.grid.npoints
        return vals

    @cached_property
    def _band_weights(self) -> tuple[np.ndarray, ...]:
        """Per block, its weights in the band layout of :func:`.grids._gather_band`, cut.

        Each block's weights are gathered onto that layout and kept, as one
        contiguous array, only up to their last nonzero column on the last
        axis; beyond it they are exactly 0.
        """
        dim = self.grid.dim
        cut = []
        for w in self._weights:
            band = w[_band_index(self.grid.N, dim)]
            live = np.any(band != 0.0, axis=tuple(range(dim - 1)))
            width = int(np.flatnonzero(live)[-1]) + 1
            cut.append(band[..., :width].copy())
        return tuple(cut)

    def padded_blocks(self, c: np.ndarray) -> np.ndarray:
        """Block point values on the binary-product grid (for one-pass paraproducts).

        The grid has ``P = binary_size(N)`` points per axis, where the product
        of any two blocks is alias free; the result has shape
        ``(nblocks,) + (P,) * dim``.  The band of the spectrum is gathered
        once (:func:`.grids._gather_band`).  Each block weights it with its
        cut weights (:attr:`_band_weights`) and goes through
        :func:`.grids._to_points` over the band rows, as
        :func:`.grids._band_points` does: only the lines that carry the
        block are transformed, on only the leading last-axis columns where
        its weights are nonzero, and the last real transform zero-pads the
        rest itself.  The values are bitwise those of one dense batched
        ``irfftn``, at a fraction of its cost for the low blocks (FFT
        pruning).  An all-zero spectrum gives zeros without a transform, as
        in :mod:`.grids`.
        """
        N, dim = self.grid.N, self.grid.dim
        P = binary_size(N)
        if _all_zero(c):
            return np.zeros((self.nblocks,) + (P,) * dim)
        band = _gather_band(c * float(P) ** dim, N)
        rows = _band_rows(N, P)
        out = np.empty((self.nblocks,) + (P,) * dim)
        for k, w in enumerate(self._band_weights):
            _to_points(w * band[..., : w.shape[-1]], P, dim, rows, out=out[k])
        return out


@lru_cache(maxsize=8)
def default_partition(grid: TorusGrid) -> DyadicPartition:
    """The dyadic partition of ``grid``, one per grid for the process."""
    return DyadicPartition(grid)


def lp_norm(values: np.ndarray, p: float) -> float:
    """L^p norm over the grid with normalized counting measure; inf for sup."""
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def besov_norm(spec: SpectralField, alpha: float, out: np.ndarray | None = None) -> float:
    """Holder-Besov norm: ``max_k 2**(alpha k) sup |block_k|`` over grid points.

    ``out`` is an optional scratch buffer for the block stack, as in
    :meth:`DyadicPartition.block_values`; it is overwritten (with the
    absolute block values) and the norm does not depend on its contents.
    """
    part = default_partition(spec.grid)
    vals = part.block_values(spec.coeffs, out=out)
    np.abs(vals, out=vals)
    sups = np.max(vals, axis=tuple(range(1, vals.ndim)))
    scales = 2.0 ** (alpha * np.arange(-1, part.K + 1))
    return float(np.max(scales * sups))


def _para_lt_core(bf: np.ndarray, bg: np.ndarray, N: int) -> np.ndarray:
    """Low-modulates-high paraproduct from padded block stacks (grid size read from them)."""
    acc = np.zeros_like(bf[0])
    S = np.zeros_like(acc)
    for j in range(2, bf.shape[0]):
        S += bf[j - 2]
        acc += S * bg[j]
    return _points_band(acc, N)


def _resonant_core(bf: np.ndarray, bg: np.ndarray, N: int) -> np.ndarray:
    acc = np.zeros_like(bf[0])
    for j in range(bf.shape[0]):
        acc += bg[j] * bf[max(0, j - 1) : j + 2].sum(axis=0)
    return _points_band(acc, N)


def para_lt(f: SpectralField, g: SpectralField) -> SpectralField:
    """Paraproduct with ``f`` strictly below ``g`` in frequency (f modulates g)."""
    _check_same_grid(f, g)
    part = default_partition(f.grid)
    bf = part.padded_blocks(f.coeffs)
    bg = part.padded_blocks(g.coeffs)
    return SpectralField(f.grid, _para_lt_core(bf, bg, f.grid.N))


def para_gt(f: SpectralField, g: SpectralField) -> SpectralField:
    """Paraproduct with ``f`` strictly above ``g`` in frequency."""
    return para_lt(g, f)


def resonant(f: SpectralField, g: SpectralField) -> SpectralField:
    """Diagonal part of the product: blocks of ``f`` and ``g`` within one level."""
    _check_same_grid(f, g)
    part = default_partition(f.grid)
    bf = part.padded_blocks(f.coeffs)
    bg = part.padded_blocks(g.coeffs)
    return SpectralField(f.grid, _resonant_core(bf, bg, f.grid.N))


def nonresonant(f: SpectralField, g: SpectralField) -> SpectralField:
    """Full dealiased product minus its resonant part."""
    return dealiased_product(f, g) - resonant(f, g)


def para_resonant_commutator(f: SpectralField, g: SpectralField, h: SpectralField) -> SpectralField:
    """Trilinear commutator ``resonant(para_lt(f, g), h) - f * resonant(g, h)``.

    For fields of the regularities met here this is smoother than either term
    alone, which is what makes the diagonal pairings in the solver well
    defined; it is evaluated literally from its definition.
    """
    lhs = resonant(para_lt(f, g), h)
    rhs = dealiased_product(f, resonant(g, h))
    return lhs - rhs


# a block whose p-norm is below this carries no ratio
_NEGLIGIBLE_MASS = 1e-300


def bernstein_ratios(spec: SpectralField, p: float, q: float) -> dict[int, float]:
    """Per-block ratio ``||d_k f||_q / (2**(k d (1/p - 1/q)) ||d_k f||_p)``.

    ``q >= p``.  Blocks whose p-norm is below ``_NEGLIGIBLE_MASS`` are skipped.
    """
    if q < p:
        raise ValueError("q must be >= p")
    part = default_partition(spec.grid)
    vals = part.block_values(spec.coeffs)
    d = spec.grid.dim
    out = {}
    for k, v in zip(part.indices, vals):
        denom = lp_norm(v, p)
        if denom < _NEGLIGIBLE_MASS:
            continue
        out[k] = lp_norm(v, q) / (2.0 ** (k * d * (1.0 / p - 1.0 / q)) * denom)
    return out


def schauder_ratio(spec: SpectralField, t: float, alpha: float, beta: float) -> float:
    """Smoothing ratio ``t**((beta-alpha)/2) ||P_t f||_beta / ||f||_alpha``.

    Bounded uniformly in ``t`` and ``f`` when ``beta >= alpha``; used as an
    empirical check of parabolic smoothing.
    """
    if beta < alpha:
        raise ValueError("beta must be >= alpha")
    if t <= 0:
        raise ValueError("t must be positive")
    denom = besov_norm(spec, alpha)
    if denom == 0:
        return 0.0
    num = besov_norm(heat_propagate(spec, 0.0, t), beta)
    return float(t ** ((beta - alpha) / 2.0) * num / denom)
