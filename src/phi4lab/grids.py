"""Fourier representation of real periodic fields on the torus.

Conventions used throughout the package:

* The grid has ``N`` points per axis (``N`` even) on the unit torus
  ``[0, 1)^dim``, and the forward DFT is normalized by ``1/N**dim``.  A field
  ``v(x) = sum_w c_w exp(2 pi i w.x)`` then has exactly the coefficients
  ``c_w`` and ``mean(v**2) == sum |c_w|**2``.
* Coefficients are stored in "half" layout (the layout of
  :func:`numpy.fft.rfftn`): the last axis keeps frequencies ``0 .. N/2`` and
  the negative half is implicit by conjugation, so reality of the field is
  structural rather than something to police.
* The retained frequency band of an ``N``-grid is ``-N/2 < w <= N/2`` per
  axis.  The Nyquist frequency ``N/2`` is a single slot shared by ``+N/2``
  and ``-N/2``; when a field is moved to a finer grid that slot is split
  evenly between the two, the unique choice that keeps the interpolant real.
* Products are dealiased by evaluating all factors on one finer grid in a
  single pass and restricting the result back to the original band.  A
  binary product goes on the ``P``-grid of :func:`binary_size`, the smallest
  even 5-smooth size above ``3N/2``: the product of two factors in the
  closed band reaches ``|w_i| <= N``, and its alias ``w - P`` stays outside
  the retained band exactly when ``P > 3N/2`` (Orszag's 3/2 rule), so the
  result equals the convolution sum even when both factors carry the Nyquist
  slot.  A ternary product goes on the doubled grid; it is exact for factors
  in the open band ``|w|_inf <= N/2 - 1`` and can fold at the far corners of
  the closed band, which is why dynamical states elsewhere in the package
  are kept Nyquist-free.
* Every transform of the package goes through one private pair,
  :func:`_to_points` (spectrum to point values, bitwise ``irfftn``) and
  :func:`_to_spectrum` (point values to the unnormalised band spectrum).
  Between the ``N``-grid band and a finer grid the pair moves only the
  lines that carry data (FFT pruning).  Going to the finer grid, a leading
  axis is inverse-transformed only on the lines where the band has entries
  on the axes still to come, and the last axis zero-pads its ``N/2 + 1``
  columns itself; coming back, a leading axis is transformed only on the
  lines the band restriction reads.  Every line transformed is the line a
  dense transform sees and every line skipped is zero or discarded, so the
  results are bitwise those of the dense ``irfftn``/``rfftn`` pair.
* A transform whose input has no nonzero entry returns zeros without an
  FFT.  Every route starts from the zero state, whose first step would
  otherwise transform nothing but zeros: ``1/M`` of the remainder route's
  work over ``M`` steps and ``1/(M + 1)`` of each Monte Carlo replica's
  products, a share that fades as runs get longer.
* Every kernel runs on the calling thread, and the package starts no
  thread: :func:`.noise.replicate` forks its workers, and a fork copies
  only the calling thread.  Splitting the remainder step's kernels over two
  threads gave the same bits and no end-to-end gain that resolved on two
  vCPUs (``BENCH_one_way.json``).
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Number
from typing import Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "RealField",
    "SpectralField",
    "dft",
    "idft",
    "spectral_truncate",
    "heat_propagate",
    "dealiased_product",
    "binary_size",
    "product_spectra",
    "random_band_field",
]


@lru_cache(maxsize=None)
def _int_freqs(N: int, dim: int) -> tuple[np.ndarray, ...]:
    """Integer frequency along each axis of the half layout."""
    full = np.r_[0 : N // 2, -N // 2 : 0].astype(np.int64)
    half = np.arange(N // 2 + 1, dtype=np.int64)
    return tuple([full] * (dim - 1) + [half])


@lru_cache(maxsize=None)
def _kinf_array(N: int, dim: int) -> np.ndarray:
    out = np.zeros((N,) * (dim - 1) + (N // 2 + 1,), dtype=np.int64)
    for i, f in enumerate(_int_freqs(N, dim)):
        sh = [1] * dim
        sh[i] = f.size
        out = np.maximum(out, np.abs(f).reshape(sh))
    return out


@lru_cache(maxsize=None)
def _k2_array(N: int, dim: int) -> np.ndarray:
    out = np.zeros((N,) * (dim - 1) + (N // 2 + 1,), dtype=np.int64)
    for i, f in enumerate(_int_freqs(N, dim)):
        sh = [1] * dim
        sh[i] = f.size
        out = out + (f.reshape(sh)) ** 2
    return out


@lru_cache(maxsize=None)
def _shells(N: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``|w|^2`` shells: distinct ``levels`` (increasing), each mode's index into them."""
    levels, inverse = np.unique(_k2_array(N, dim).ravel(), return_inverse=True)
    levels.flags.writeable = inverse.flags.writeable = False
    return levels, inverse


class TorusGrid:
    """Uniform grid with ``N`` points per axis on the ``dim``-torus.

    Parameters
    ----------
    N : int
        Points per axis; must be even and at least 2.
    dim : int
        Spatial dimension, between 1 and 3.
    """

    def __init__(self, N: int, dim: int):
        N, dim = int(N), int(dim)
        if N < 2 or N % 2:
            raise ValueError(f"N must be even and >= 2, got {N}")
        if not 1 <= dim <= 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        self.N = N
        self.dim = dim
        self.shape = (N,) * dim
        self.hshape = (N,) * (dim - 1) + (N // 2 + 1,)
        self.npoints = N**dim

    @property
    def k2(self) -> np.ndarray:
        """Integer ``|w|^2`` over the half-layout spectrum."""
        return _k2_array(self.N, self.dim)

    @property
    def kinf(self) -> np.ndarray:
        """Integer ``max_i |w_i|`` over the half-layout spectrum."""
        return _kinf_array(self.N, self.dim)

    @property
    def half_weights(self) -> np.ndarray:
        """Conjugate-pair multiplicity of each stored mode (1 or 2)."""
        w = np.full(self.hshape, 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0
        return w

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusGrid)
            and other.N == self.N
            and other.dim == self.dim
        )

    def __hash__(self):
        return hash((self.N, self.dim))

    def __repr__(self):
        return f"TorusGrid(N={self.N}, dim={self.dim})"


class RealField:
    """Real point values of a periodic field on a :class:`TorusGrid`."""

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    def to_spectral(self) -> "SpectralField":
        return dft(self)

    def mean(self) -> float:
        return float(self.values.mean())

    def __add__(self, other: "RealField") -> "RealField":
        _check_same_grid(self, other)
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        _check_same_grid(self, other)
        return RealField(self.grid, self.values - other.values)


def _conj_reflect(plane: np.ndarray) -> np.ndarray:
    """``conj(plane[(-j) mod n, ...])`` along every axis of ``plane``."""
    out = plane
    for ax in range(plane.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return np.conj(out)


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


class SpectralField:
    """Half-layout Fourier coefficients of a real periodic field.

    The stored array has shape ``grid.hshape``.  Negative frequencies on the
    last axis are implicit by conjugation.  The two self-conjugate planes
    (last-axis frequency 0 and N/2) carry their own internal reflection
    constraint.
    """

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.hshape:
            raise ValueError(f"coeffs shape {coeffs.shape} != half shape {grid.hshape}")
        self.grid = grid
        self.coeffs = coeffs

    def coeff(self, omega: Sequence[int]) -> complex:
        """Coefficient at the integer frequency vector ``omega``.

        Components may lie anywhere in ``[-N/2, N/2]``; a negative last
        component is resolved through the conjugate half.
        """
        w = tuple(int(o) for o in omega)
        if len(w) != self.grid.dim:
            raise ValueError(f"expected {self.grid.dim} components, got {len(w)}")
        N = self.grid.N
        for o in w:
            if not -N // 2 <= o <= N // 2:
                raise ValueError(f"frequency {o} outside [-N/2, N/2]")
        last = w[-1]
        if last < 0 and last != -N // 2:
            return complex(np.conj(self.coeff(tuple(-o for o in w))))
        idx = tuple(o % N for o in w[:-1]) + (last % N,)
        return complex(self.coeffs[idx])

    def l2(self) -> float:
        """Root mean square of the represented field (Parseval)."""
        return float(
            np.sqrt(np.sum(self.grid.half_weights * np.abs(self.coeffs) ** 2))
        )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        if not isinstance(scalar, Number):
            return NotImplemented
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


def dft(field: RealField) -> SpectralField:
    """Forward transform, normalized so coefficients are Fourier amplitudes."""
    c = _to_spectrum(field.values, field.grid.N) / field.grid.npoints
    return SpectralField(field.grid, c)


def idft(spec: SpectralField) -> RealField:
    grid = spec.grid
    vals = _to_points(spec.coeffs.copy(), grid.N, grid.dim) * grid.npoints
    return RealField(grid, vals)


def spectral_truncate(spec: SpectralField, n: int) -> SpectralField:
    """Sharp frequency cutoff: zero every mode with ``max_i |w_i| > n``.

    For ``n >= N/2`` the whole band is retained and this is the identity.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"cutoff must be nonnegative, got {n}")
    if n >= spec.grid.N // 2:
        return spec.copy()
    out = np.where(spec.grid.kinf <= n, spec.coeffs, 0.0)
    return SpectralField(spec.grid, out)


def heat_propagate(spec: SpectralField, s: float, t: float, alpha: float = 0.0) -> SpectralField:
    """Apply the damped heat propagator from time ``s`` to ``t >= s``.

    Multiplies each coefficient by ``exp(alpha) * exp(-4 pi^2 |w|^2 (t-s))``
    where ``alpha`` is the time integral of the zeroth-order coefficient over
    ``[s, t]`` (0 for the plain heat semigroup).
    """
    if t < s:
        raise ValueError(f"propagation runs forward in time, got s={s} > t={t}")
    sym = np.exp(alpha - 4.0 * np.pi**2 * spec.grid.k2 * (t - s))
    return SpectralField(spec.grid, spec.coeffs * sym)


@lru_cache(maxsize=None)
def binary_size(N: int) -> int:
    """Points per axis of the grid that binary products of ``N``-grid fields use.

    The smallest even 5-smooth integer above ``3N/2``; it is at most ``2N``.
    """
    P = 3 * N // 2 + 1
    P += P % 2
    while True:
        m = P
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return P
        P += 2


@lru_cache(maxsize=None)
def _band_rows(N: int, P: int) -> np.ndarray:
    """The rows of a ``P``-grid leading axis that hold the ``N``-grid band.

    ``0 .. N/2`` and ``P - N/2 .. P - 1``: ``N + 1`` rows, ``+N/2`` and
    ``-N/2`` both listed.  On the ``N``-grid itself (``P = N``) the Nyquist
    row appears twice.
    """
    h = N // 2
    return np.r_[0 : h + 1, P - h : P]


@lru_cache(maxsize=None)
def _band_index(N: int, dim: int) -> tuple:
    """Open-mesh index of the half-layout ``N``-grid band in :func:`_band_rows` order.

    ``N + 1`` rows per leading axis and ``N/2 + 1`` columns on the last axis.
    """
    return np.ix_(*([_band_rows(N, N)] * (dim - 1) + [np.arange(N // 2 + 1)]))


def _gather_band(c: np.ndarray, N: int) -> np.ndarray:
    """The half-layout ``N``-grid band in the order of :func:`_band_rows`.

    ``N + 1`` rows per leading axis (the Nyquist row once for ``+N/2`` and
    once for ``-N/2``) and ``N/2 + 1`` last-axis columns, with every Nyquist
    entry halved: the nonzero lines of the band zero-padded onto a finer
    grid, where the Nyquist slot is split evenly between ``+N/2`` and
    ``-N/2``.
    """
    dim = c.ndim
    h = N // 2
    lead_wt = np.ones(N + 1)
    lead_wt[h] = lead_wt[h + 1] = 0.5
    last_wt = np.ones(h + 1)
    last_wt[h] = 0.5
    g = np.asarray(c, dtype=np.complex128)[_band_index(N, dim)]
    for ax in range(dim):
        wt = lead_wt if ax < dim - 1 else last_wt
        g = g * wt.reshape((-1,) + (1,) * (dim - 1 - ax))
    return g


def _to_points(a: np.ndarray, n: int, dim: int, rows: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Point values on the ``n``-grid of half-layout spectra: bitwise ``irfftn``.

    Transforms the last ``dim`` axes of ``a`` in ``irfftn``'s order: each
    leading axis in place with a complex inverse FFT, then the last axis with
    one real inverse FFT, which zero-pads its columns to ``n/2 + 1`` itself
    and writes a new array or ``out``.  Where ``a`` holds only the ``N + 1``
    band rows ``rows`` of :func:`_band_rows` per leading axis, each leading
    axis is first scattered into ``n`` rows of zeros, so only the lines that
    carry the band are transformed.  Without ``rows`` the leading axes are
    transformed in ``a`` itself, which the caller must let be overwritten.
    """
    for ax in range(a.ndim - dim, a.ndim - 1):
        if rows is not None:
            full = np.zeros(a.shape[:ax] + (n,) + a.shape[ax + 1 :], dtype=np.complex128)
            full[(slice(None),) * ax + (rows,)] = a
            a = full
        np.fft.ifft(a, axis=ax, out=a)
    return np.fft.irfftn(a, s=(n,), axes=(-1,), out=out)


def _to_spectrum(pts: np.ndarray, N: int) -> np.ndarray:
    """Unnormalised forward transform of point values, cut to the ``N``-grid band.

    On the ``N``-grid itself this is ``rfftn(pts)``.  On a finer grid
    (``pts.shape[0]`` points per axis) only the lines the band reads are
    transformed: one real FFT of the last axis keeps columns ``0 .. N/2``,
    then each leading axis, in ``rfftn``'s order from the last one down, is
    transformed on those lines only and cut to the ``N + 1`` rows of
    :func:`_band_rows`.  Every entry kept is bitwise that of ``rfftn(pts)``.
    """
    P = pts.shape[0]
    if P == N:
        return np.fft.rfftn(pts)
    rows = _band_rows(N, P)
    a = np.fft.rfftn(pts, axes=(-1,))[..., : N // 2 + 1]
    for ax in range(pts.ndim - 2, -1, -1):
        a = np.fft.fft(a, axis=ax)[(slice(None),) * ax + (rows,)]
    return a


def _all_zero(a: np.ndarray) -> bool:
    """Whether ``a`` has no nonzero entry, in which case its transform is zeros."""
    return not a.any()


def _band_points(c: np.ndarray, N: int, P: int) -> np.ndarray:
    """Point values on the finer ``P``-grid of a half-layout ``N``-grid spectrum.

    The band, Nyquist slots split (:func:`_gather_band`), zero-padded onto
    the ``P``-grid and inverse-transformed with ``irfftn``: :func:`_to_points`
    over the band rows, which transforms only the lines that carry the band.
    """
    dim = c.ndim
    if _all_zero(c):
        return np.zeros((P,) * dim)
    # scale the small band before padding rather than the big point array
    return _to_points(_gather_band(c * float(P) ** dim, N), P, dim, _band_rows(N, P))


def _points_band(pts: np.ndarray, N: int) -> np.ndarray:
    """Half-layout ``N``-grid spectrum of point values on a finer grid.

    The dense ``rfftn(pts) / P**dim`` (``P = pts.shape[0]``) restricted to
    the band, from the pruned :func:`_to_spectrum`.  The fine-grid
    frequencies ``+N/2`` and ``-N/2`` alias to the single coarse Nyquist slot
    and are summed there, axis by axis, the last axis through the conjugate
    reflection of its Nyquist plane.
    """
    dim = pts.ndim
    h = N // 2
    if _all_zero(pts):
        return np.zeros((N,) * (dim - 1) + (h + 1,), dtype=np.complex128)
    a = _to_spectrum(pts, N) / pts.shape[0] ** dim
    for ax in range(dim - 1):
        lead = (slice(None),) * ax
        a[lead + (h,)] += a[lead + (h + 1,)]
        a = np.delete(a, h + 1, axis=ax)
    nyq = a[..., h]
    a[..., h] = nyq + _conj_reflect(nyq)
    return a


def product_spectra(cs: Sequence[np.ndarray], N: int, band: int | None = None) -> np.ndarray:
    """One-pass dealiased product of 2 or 3 half-layout spectra.

    All factors are interpolated onto one finer grid (``binary_size(N)`` points
    per axis for two factors, ``2N`` for three), multiplied pointwise there,
    and the result is restricted back to the ``N``-grid band (optionally
    further to ``max_i |w_i| <= band``).  Repeated array objects are
    transformed once.

    Each call transforms its factors afresh and cuts its result at the band.
    A polynomial in several fields is therefore better formed whole: take
    the point values of each field once with :func:`_band_points` on the
    ``2N`` grid, where any cubic in open-band fields is alias free,
    evaluate the polynomial there and bring it back with one
    :func:`_points_band`.  The cubic right-hand sides of :mod:`.solvers` and
    the Wick cube of :mod:`.symbols` do so.
    """
    if not 2 <= len(cs) <= 3:
        raise ValueError("only binary and ternary products are dealiased exactly")
    dim = cs[0].ndim
    P = binary_size(N) if len(cs) == 2 else 2 * N
    cache: dict[int, np.ndarray] = {}
    for c in cs:
        if id(c) not in cache:
            cache[id(c)] = _band_points(c, N, P)
    pts = [cache[id(c)] for c in cs]
    # multiply in place into the first factor's fresh point array, unless a
    # factor after the second reads that array again
    if any(c is cs[0] for c in cs[2:]):
        pts = [pts[0] * pts[1]] + pts[2:]
    acc = pts[0]
    for p in pts[1:]:
        np.multiply(acc, p, out=acc)
    out = _points_band(acc, N)
    if band is not None and band < N // 2:
        out = np.where(_kinf_array(N, dim) <= band, out, 0.0)
    return out


def dealiased_product(*fields: SpectralField, band: int | None = None) -> SpectralField:
    """Dealiased pointwise product of two or three fields on one grid."""
    if not 2 <= len(fields) <= 3:
        raise ValueError("only binary and ternary products are supported")
    grid = fields[0].grid
    for f in fields[1:]:
        _check_same_grid(fields[0], f)
    out = product_spectra([f.coeffs for f in fields], grid.N, band=band)
    return SpectralField(grid, out)


def random_band_field(
    grid: TorusGrid, rng: np.random.Generator, band: int | None = None, scale: float = 1.0
) -> SpectralField:
    """Gaussian random field, optionally truncated to ``max_i |w_i| <= band``."""
    vals = rng.standard_normal(grid.shape) * scale
    spec = dft(RealField(grid, vals))
    if band is not None:
        spec = spectral_truncate(spec, band)
    return spec
