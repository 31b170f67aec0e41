"""The renormalized polynomial ensemble driven by one noise path.

Every object here is a functional of a single noise realization and the
exact renormalization constants; the realization fixes the grid, horizon,
band and stream, and the steppers and builders below read them from it:

* ``lin``: the damped stochastic convolution (first chaos).
* ``wick2``: Wick square ``lin**2 - c`` with ``c`` the exact pointwise
  variance of ``lin``.
* ``iwick2``: damped time integral of ``wick2``.
* ``wick3``: Wick cube ``lin**3 - 3 c lin`` (an integrand; it is not a
  function of time with useful regularity, so only its integral is cataloged).
* ``iwick3``: damped time integral of ``wick3``.
* ``res_iwick3_lin``: resonant product of ``iwick3`` with ``lin``; mean free
  by chaos parity, no subtraction needed.
* ``res_iwick2_wick2``: resonant product of ``iwick2`` with ``wick2`` minus
  twice the quartic constant.
* ``res_iwick3_wick2``: resonant product of ``iwick3`` with ``wick2`` minus
  six times the quartic constant times ``lin``.

The damped integral of ``res_iwick3_wick2`` is streamed alongside because the
solution reconstruction needs it.  Every damped integral takes the ETD1 step
of :mod:`.noise`, ``I <- P I + E f``, which is the step of the direct solvers.
Stepping and the remainder route read every object but ``res_iwick3_lin`` and
``res_iwick2_wick2``: :meth:`SymbolStepper.values` builds those it reads, and
:meth:`SymbolStepper.catalog` adds the two pairings for the catalog's readers.
Beside the values, a stepper keeps for the current step the block stack of
``wick2`` and the ``2N``-grid points of ``lin``, which the remainder route
reads again.

All products are dealiased one-pass products truncated to the open grid band,
so the multilinear identities between these objects hold exactly at the
discrete level, and every object is exactly homogeneous of its polynomial
degree in the noise amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet
from .grids import TorusGrid, _band_points, _points_band, product_spectra
from .noise import (
    LinearPath,
    NoiseRealization,
    TimeGrid,
    _constant_path,
    _recorded_indices,
    _require_centred_cutoff,
    lin_variance_path,
    record,
    step_kernel,
)
from .paley import _resonant_core, default_partition

__all__ = [
    "SymbolInfo",
    "CATALOG",
    "SYMBOL_NAMES",
    "SymbolStepper",
    "SymbolEnsemble",
    "build_ensemble",
    "ChaosDecomposition",
    "chaos_components",
]


@dataclass(frozen=True)
class SymbolInfo:
    """Catalog entry: parabolic regularity, chaos levels, amplitude degree."""

    regularity: float
    chaos: tuple[int, ...]
    degree: int


CATALOG: dict[str, SymbolInfo] = {
    "lin": SymbolInfo(-0.5, (1,), 1),
    "wick2": SymbolInfo(-1.0, (2,), 2),
    "iwick2": SymbolInfo(1.0, (2,), 2),
    "iwick3": SymbolInfo(0.5, (3,), 3),
    "res_iwick3_lin": SymbolInfo(0.0, (2, 4), 4),
    "res_iwick2_wick2": SymbolInfo(0.0, (2, 4), 4),
    "res_iwick3_wick2": SymbolInfo(-0.5, (1, 3, 5), 5),
}

SYMBOL_NAMES = tuple(CATALOG)

_PATH_NAMES = SYMBOL_NAMES + ("wick3", "i_res_iwick3_wick2")

# the resonant pairings only the catalog reads; SymbolStepper.catalog() adds them
_CATALOG_ONLY = ("res_iwick3_lin", "res_iwick2_wick2")


class SymbolStepper:
    """Advances the whole ensemble of one noise realization a step at a time.

    ``noise`` fixes the grid, horizon, band and stream, and with ``coeffs``
    the step kernel (:func:`.noise.step_kernel`).  Memory stays bounded
    in the number of steps, so this is the engine used for long runs;
    :func:`build_ensemble` wraps it when full paths fit in memory.

    :meth:`values` builds what stepping reads, once per step: every symbol
    but the two pairings only the catalog reads, which :meth:`catalog` adds.
    Beside the values it keeps two arrays for the step, reset by :meth:`step`:
    ``wick2_stack``, the padded block point values of the Wick square on the
    binary-product grid, and ``lin_points``, the point values of ``lin`` on
    the ``2N`` grid, from which the Wick cube is formed; :class:`.solvers.VWStepper`
    reads both.  The ``iwick3`` stack is dropped before the call returns.  A
    :meth:`catalog` call builds it first, pairs it with the ``lin`` stack,
    which it drops, before the ``wick2`` stack is built, and builds the
    ``iwick2`` stack once it is gone, so at most two stacks are alive at once.
    None of these holds the stepper, so a step's arrays are freed by
    reference counting once the stepper lets go of them.

    ``c`` is the exact variance path of ``lin``.  The quartic constant
    ``ctilde`` (a scalar or one value per grid time) is an input at amplitude
    ``sigma``; it scales exactly as ``sigma**4`` times the unit-amplitude one.
    """

    def __init__(
        self,
        noise: NoiseRealization,
        coeffs: CoefficientSet,
        sigma: float,
        *,
        ctilde,
    ):
        grid, timegrid = noise.grid, noise.timegrid
        _require_centred_cutoff(grid, noise.cutoff)
        self.noise = noise
        self.grid = grid
        self.timegrid = timegrid
        self.coeffs = coeffs
        self.sigma = float(sigma)
        self.band = grid.N // 2 - 1
        self.kernel = step_kernel(grid, timegrid, coeffs)
        self.partition = default_partition(grid)
        self.c = lin_variance_path(grid, timegrid, noise.cutoff, coeffs, self.sigma)
        self.ctilde = _constant_path(ctilde, timegrid, "quartic constant")
        self.lin = LinearPath(noise, coeffs, self.sigma)
        self.iw2 = np.zeros(grid.hshape, dtype=np.complex128)
        self.iw3 = np.zeros(grid.hshape, dtype=np.complex128)
        self.iww = np.zeros(grid.hshape, dtype=np.complex128)
        self.j = 0
        self.wick2_stack: np.ndarray | None = None
        self.lin_points: np.ndarray | None = None
        self._vals: dict[str, np.ndarray] | None = None

    def values(self) -> dict[str, np.ndarray]:
        """Current values (half-layout arrays) of what stepping reads, built once per step.

        Every name of ``_PATH_NAMES`` but ``res_iwick3_lin`` and
        ``res_iwick2_wick2``; sets ``wick2_stack`` and ``lin_points``.
        """
        if self._vals is None:
            self._vals = self._build(catalog=False)
        return self._vals

    def catalog(self) -> dict[str, np.ndarray]:
        """:meth:`values` with the catalog-only pairings added: every name of ``_PATH_NAMES``.

        ``res_iwick3_lin`` and ``res_iwick2_wick2`` pair the stacks of
        ``lin`` and ``iwick2``, which only they read, with those of
        ``iwick3`` and ``wick2``; the pairings are kept with the step's
        values.  It builds each of the four stacks once and keeps at most two
        alive.  After :meth:`values` in the same step (no command does that)
        it builds the step's values again.
        """
        if self._vals is None or "res_iwick3_lin" not in self._vals:
            self._vals = self.wick2_stack = None  # the rebuild keeps no stack of values()
            self._vals = self._build(catalog=True)
        return self._vals

    def _build(self, catalog: bool) -> dict[str, np.ndarray]:
        """The step's values, with the catalog-only pairings if ``catalog``."""
        N, dim = self.grid.N, self.grid.dim
        j = self.j
        zero = (0,) * dim
        lin = self.lin.state
        cj = self.c[j]
        w2 = product_spectra([lin, lin], N, band=self.band)
        w2[zero] -= cj
        pts = self.lin_points = _band_points(lin, N, 2 * N)
        cube = _points_band(pts * pts * pts, N)
        w3 = np.where(self.grid.kinf <= self.band, cube, 0.0) - 3.0 * cj * lin
        part, pairs = self.partition, {}
        if catalog:  # the lin stack is paired with iwick3's and dropped before wick2's is built
            biw3 = part.padded_blocks(self.iw3)
            pairs["res_iwick3_lin"] = _resonant_core(biw3, part.padded_blocks(lin), N)
        self.wick2_stack = part.padded_blocks(w2)
        if not catalog:  # wick2's first: the other order faults 1.8x the pages at 64^2
            biw3 = part.padded_blocks(self.iw3)
        r32 = _resonant_core(biw3, self.wick2_stack, N) - 6.0 * self.ctilde[j] * lin
        if catalog:  # the iwick3 stack is dropped before that of iwick2 is built
            del biw3
            r22 = _resonant_core(part.padded_blocks(self.iw2), self.wick2_stack, N)
            r22[zero] -= 2.0 * self.ctilde[j]
            pairs["res_iwick2_wick2"] = r22
        return {
            "lin": lin,
            "wick2": w2,
            "wick3": w3,
            "iwick2": self.iw2,
            "iwick3": self.iw3,
            "res_iwick3_wick2": r32,
            "i_res_iwick3_wick2": self.iww,
            **pairs,
        }

    def step(self) -> None:
        if self.j >= self.timegrid.M:
            raise ValueError("already at the final time")
        vals = self.values()
        P = self.kernel.propagator(self.j)
        E = self.kernel.etd_weight(self.j)
        self.iw2 = P * self.iw2 + E * vals["wick2"]
        self.iw3 = P * self.iw3 + E * vals["wick3"]
        self.iww = P * self.iww + E * vals["res_iwick3_wick2"]
        self.lin.step()
        self.j += 1
        self._vals = None
        self.wick2_stack = None
        self.lin_points = None


class SymbolEnsemble:
    """Full-path storage of the ensemble at every grid time, with its constants."""

    def __init__(self, paths, c, ctilde):
        self.paths = paths
        self.c = c
        self.ctilde = ctilde

    def path(self, name: str) -> np.ndarray:
        if name not in self.paths:
            raise KeyError(f"no stored path named {name!r}; have {sorted(self.paths)}")
        return self.paths[name]


def build_ensemble(
    noise: NoiseRealization,
    coeffs: CoefficientSet,
    sigma: float,
    *,
    ctilde,
    names=None,
) -> SymbolEnsemble:
    """Run a :class:`SymbolStepper` over the whole grid and store the paths.

    ``noise`` fixes the grid, horizon, band and stream.  ``ctilde``, the
    quartic constant at amplitude ``sigma`` (it scales as ``sigma**4``), is an
    input as in :class:`SymbolStepper`.  Stores every grid time through
    :func:`.noise.record`; paths that would exceed its memory budget are
    refused before any stepper is built, so stream with
    :class:`SymbolStepper` in that case.
    """
    names = tuple(names) if names is not None else _PATH_NAMES
    for n in names:
        if n not in _PATH_NAMES:
            raise ValueError(f"unknown symbol {n!r}; valid: {_PATH_NAMES}")
    # every stored path is one complex128 half spectrum per grid time
    _recorded_indices(noise.timegrid, 1, len(names) * 16 * int(np.prod(noise.grid.hshape)))
    stepper = SymbolStepper(noise, coeffs, sigma, ctilde=ctilde)
    read = stepper.catalog if set(names) & set(_CATALOG_ONLY) else stepper.values
    _, paths = record(noise.timegrid, 1, stepper.step, {n: (lambda n=n: read()[n]) for n in names})
    return SymbolEnsemble(paths, stepper.c, stepper.ctilde)


@dataclass
class ChaosDecomposition:
    """Amplitude-interpolation decomposition of one symbol.

    ``kernels[l]`` is the coefficient path of the amplitude power ``l``; the
    component at amplitude ``sigma`` and order ``l`` is ``sigma**l *
    kernels[l]``.
    """

    name: str
    degree: int
    sigma_list: tuple[float, ...]
    kernels: np.ndarray
    grid: TorusGrid
    timegrid: TimeGrid

    def component(self, sigma: float, ell: int) -> np.ndarray:
        if not 0 <= ell <= self.degree:
            raise ValueError(f"order {ell} outside [0, {self.degree}]")
        return sigma**ell * self.kernels[ell]

    def mass(self, sigma: float) -> dict[int, float]:
        """Largest path norm of each component at the given amplitude."""
        hw = self.grid.half_weights
        out = {}
        for ell in range(self.degree + 1):
            comp = self.component(sigma, ell)
            norms = np.sqrt(np.sum(hw * np.abs(comp) ** 2, axis=tuple(range(1, comp.ndim))))
            out[ell] = float(np.max(norms))
        return out


_DEFAULT_SIGMAS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def chaos_components(
    noise: NoiseRealization,
    coeffs: CoefficientSet,
    name: str,
    sigma_list=None,
    *,
    ctilde,
) -> ChaosDecomposition:
    """Split one symbol into amplitude-power components by interpolation.

    The ensemble of ``noise`` (which fixes the grid, horizon, band and stream)
    is built at ``degree + 1`` distinct amplitudes and the Vandermonde system
    ``sum_l sigma_i**l K_l = path_i`` is solved pointwise.  Since each symbol
    is exactly homogeneous, all mass lands in the component of its own
    degree; the decomposition is the instrument that verifies this.

    ``ctilde`` is the quartic constant at unit amplitude (a scalar or one
    value per grid time), such as :func:`.noise.quartic_constant` on
    ``noise.timegrid``; amplitude ``s`` runs with ``s**4 * ctilde``, which
    equals that constant at amplitude ``s`` bit for bit wherever it is not
    interpolated.
    """
    if name not in CATALOG:
        raise ValueError(f"unknown symbol {name!r}; valid: {SYMBOL_NAMES}")
    degree = CATALOG[name].degree
    if sigma_list is None:
        sigma_list = _DEFAULT_SIGMAS[: degree + 1]
    sigma_list = tuple(float(s) for s in sigma_list)
    if len(sigma_list) != degree + 1:
        raise ValueError(f"need exactly {degree + 1} amplitudes, got {len(sigma_list)}")
    if len(set(sigma_list)) != len(sigma_list):
        raise ValueError("amplitudes must be distinct")
    ctilde = _constant_path(ctilde, noise.timegrid, "quartic constant")
    taus = []
    for s in sigma_list:
        ens = build_ensemble(noise, coeffs, s, ctilde=s**4 * ctilde, names=(name,))
        taus.append(ens.path(name))
    taus = np.stack(taus)
    V = np.vander(np.asarray(sigma_list), N=degree + 1, increasing=True)
    flat = taus.reshape(len(sigma_list), -1)
    kernels = np.linalg.solve(V, flat).reshape((degree + 1,) + taus.shape[1:])
    return ChaosDecomposition(name, degree, sigma_list, kernels, noise.grid, noise.timegrid)
