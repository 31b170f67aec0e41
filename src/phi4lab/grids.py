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
* The transforms of a product move only the lines that carry data (FFT
  pruning).  Going to the finer grid, a leading axis is inverse-transformed
  only on the lines where the band has entries on the axes still to come,
  and the last axis zero-pads its ``N/2 + 1`` columns itself; coming back,
  a leading axis is transformed only on the lines the band restriction
  reads.  Every line transformed is the line a dense transform sees and
  every line skipped is zero or discarded, so the results are bitwise those
  of the dense ``irfftn``/``rfftn`` pair.
* A transform whose input has no nonzero entry returns zeros without an
  FFT.  Every route starts from the zero state, whose first step would
  otherwise transform nothing but zeros: ``1/M`` of the remainder route's
  work over ``M`` steps and ``1/(M + 1)`` of each Monte Carlo replica's
  products, a share that fades as runs get longer.
* On two CPUs the kernels of the remainder step run two ways: the block
  stacks of :meth:`.paley.DyadicPartition.padded_blocks`, the accumulations
  of the paraproduct cores and the ``2N``-grid cubic of
  :func:`.solvers.G_rhs`.  :func:`_fork_join` runs one half on a helper
  thread that it starts and joins inside the call, which numpy lets run at
  once with the other because its FFT and ufunc loops release the
  interpreter lock.  Each half writes blocks or rows of its own with the
  operations of the one-way kernel, so the results are the same bits.
  :func:`_two_way` picks two ways only when the process may run on two
  CPUs or more, it is not inside a :func:`.noise.replicate` share (whose
  processes fill the CPUs already), and the binary-product grid has at
  least ``2**16`` points: 3-D from ``N = 32``, 2-D from ``N = 256``.
  Measured per v/w step on a 2-vCPU host in two runs, with the split forced
  on against off: 32^3 went 98 -> 76 and 83 -> 65 ms, 48^3 330 -> 239 ms
  and 256^2 92 -> 74 ms.  Below the gate, 24^3 (64000 points) went
  43 -> 36 and 41 -> 33 ms, 128^2 (40000) moved by -3% and +11%, 16^3 by
  0% and +32%, and 64^2 went 4.9 -> 7.8 and 5.3 -> 8.5 ms: there starting
  the thread and sharing the caches cost about what the second CPU gives,
  or more.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
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
    "pad_half",
    "product_spectra",
    "random_band_field",
]


@lru_cache(maxsize=None)
def _int_freqs(N: int, dim: int) -> tuple[np.ndarray, ...]:
    """Integer frequency along each axis of the half layout."""
    full = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
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
    c = np.fft.rfftn(field.values) / field.grid.npoints
    return SpectralField(field.grid, c)


def idft(spec: SpectralField) -> RealField:
    axes = tuple(range(spec.grid.dim))
    vals = np.fft.irfftn(spec.coeffs, s=spec.grid.shape, axes=axes) * spec.grid.npoints
    return RealField(spec.grid, vals)


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


# smallest binary-product grid, in points, whose kernels run two ways
_SPLIT_POINTS = 2**16
# set while a noise.replicate share runs: its processes already fill the CPUs
_in_replica_share = False


@contextmanager
def _one_way():
    """Run every kernel one way inside the ``with`` statement, then restore the decision."""
    global _in_replica_share
    before, _in_replica_share = _in_replica_share, True
    try:
        yield
    finally:
        _in_replica_share = before


def _two_way(N: int, dim: int) -> bool:
    """Whether the kernels of an ``N``-grid in ``dim`` dimensions split two ways.

    Only when this process may run on two CPUs or more
    (``os.sched_getaffinity``), it is not inside a :func:`.noise.replicate`
    share, and the grid's binary-product block has at least
    ``_SPLIT_POINTS`` points (``binary_size(N)**dim``): 3-D from ``N = 32``,
    2-D from ``N = 256``.  Below that the split saved little or cost time
    in the measurements of the module docstring.
    """
    return (
        not _in_replica_share
        and binary_size(N) ** dim >= _SPLIT_POINTS
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def _fork_join(first, second) -> None:
    """Run ``first`` on a helper thread while ``second`` runs here.

    The thread is started and joined inside the call, so none outlives it;
    an exception of ``first`` is raised here, after the join.
    """
    failure = []

    def run():
        try:
            first()
        except BaseException as exc:
            failure.append(exc)

    helper = threading.Thread(target=run)
    helper.start()
    try:
        second()
    finally:
        helper.join()
    if failure:
        raise failure[0]


def _by_slabs(kernel, n: int, two_way: bool) -> None:
    """``kernel(rows)`` over the ``n`` rows of a leading axis: two halves, or one slice."""
    if two_way:
        h = n // 2
        _fork_join(lambda: kernel(slice(0, h)), lambda: kernel(slice(h, n)))
    else:
        kernel(slice(None))


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
def _pad_index(N: int, P: int, dim: int) -> tuple[tuple, tuple]:
    """Where the half-layout ``N``-grid band sits in the ``P``-grid half layout.

    Returns open-mesh index tuples ``(src, dst)`` over the ``N + 1`` rows of
    :func:`_band_rows` per leading axis and ``N/2 + 1`` on the last axis.
    """
    last = np.arange(N // 2 + 1)
    return (
        np.ix_(*([_band_rows(N, N)] * (dim - 1) + [last])),
        np.ix_(*([_band_rows(N, P)] * (dim - 1) + [last])),
    )


def _gather_band(c: np.ndarray, N: int) -> np.ndarray:
    """The half-layout ``N``-grid band in the order of :func:`_band_rows`.

    ``N + 1`` rows per leading axis (the Nyquist row once for ``+N/2`` and
    once for ``-N/2``) and ``N/2 + 1`` last-axis columns, with every Nyquist
    entry halved: the nonzero lines of :func:`pad_half`'s output.
    """
    dim = c.ndim
    h = N // 2
    src, _ = _pad_index(N, N, dim)
    lead_wt = np.ones(N + 1)
    lead_wt[h] = lead_wt[h + 1] = 0.5
    last_wt = np.ones(h + 1)
    last_wt[h] = 0.5
    g = np.asarray(c, dtype=np.complex128)[src]
    for ax in range(dim):
        wt = lead_wt if ax < dim - 1 else last_wt
        g = g * wt.reshape((-1,) + (1,) * (dim - 1 - ax))
    return g


def pad_half(c: np.ndarray, N: int, P: int) -> np.ndarray:
    """Zero-pad a half-layout ``N``-grid spectrum onto the finer ``P``-grid.

    The Nyquist slot of each axis is split evenly between ``+N/2`` and
    ``-N/2`` on the target grid.
    """
    if N % 2 or P % 2 or P < N:
        raise ValueError(f"need even P >= N, got N={N}, P={P}")
    if P == N:
        return np.array(c, dtype=np.complex128)
    dim = c.ndim
    _, dst = _pad_index(N, P, dim)
    out = np.zeros((P,) * (dim - 1) + (P // 2 + 1,), dtype=np.complex128)
    out[dst] = _gather_band(c, N)
    return out


def _all_zero(a: np.ndarray) -> bool:
    """Whether ``a`` has no nonzero entry, in which case its transform is zeros."""
    return not a.any()


def _band_points(c: np.ndarray, N: int, P: int) -> np.ndarray:
    """Point values on the ``P``-grid of a half-layout ``N``-grid spectrum.

    Equal bitwise to ``irfftn(pad_half(c * P**dim, N, P), s=(P,) * dim)``,
    transforming only the lines that carry the band (FFT pruning).  In
    ``irfftn``'s axis order each leading axis is scattered from its ``N + 1``
    band rows into ``P`` and inverse-transformed, over only the band lines of
    the axes still to come; the last axis goes through one real ``irfftn``,
    which zero-pads its ``N/2 + 1`` columns itself.  Each line transformed is
    the line the dense transform sees, and every line skipped is zero.
    """
    dim = c.ndim
    if _all_zero(c):
        return np.zeros((P,) * dim)
    # scale the small band before padding rather than the big point array
    a = _gather_band(c * float(P) ** dim, N)
    rows = _band_rows(N, P)
    for ax in range(dim - 1):
        full = np.zeros(a.shape[:ax] + (P,) + a.shape[ax + 1 :], dtype=np.complex128)
        full[(slice(None),) * ax + (rows,)] = a
        a = np.fft.ifft(full, axis=ax)
    return np.fft.irfftn(a, s=(P,), axes=(dim - 1,))


def _points_band(pts: np.ndarray, N: int) -> np.ndarray:
    """Half-layout ``N``-grid spectrum of point values on a finer grid.

    Equal bitwise to cutting the dense ``rfftn(pts) / P**dim`` (``P =
    pts.shape[0]``) down to the band with the adjoint of :func:`pad_half`,
    but transforming only the lines the band reads: one real ``rfftn`` on
    the last axis keeps columns ``0 .. N/2``, then each leading axis, in
    ``rfftn``'s order from the last one down, is transformed on those lines
    only and cut to its ``N + 1`` band rows.  The fine-grid frequencies
    ``+N/2`` and ``-N/2`` alias to the single coarse Nyquist slot and are
    summed there, axis by axis, the last axis through the conjugate
    reflection of its Nyquist plane.
    """
    dim = pts.ndim
    P = pts.shape[0]
    h = N // 2
    if _all_zero(pts):
        return np.zeros((N,) * (dim - 1) + (h + 1,), dtype=np.complex128)
    rows = _band_rows(N, P)
    a = np.fft.rfftn(pts, axes=(dim - 1,))[..., : h + 1]
    for ax in range(dim - 2, -1, -1):
        a = np.fft.fft(a, axis=ax)[(slice(None),) * ax + (rows,)]
    a = a / P**dim
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
