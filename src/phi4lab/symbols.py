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

All products are dealiased one-pass products truncated to the open grid band,
so the multilinear identities between these objects hold exactly at the
discrete level, and every object is exactly homogeneous of its polynomial
degree in the noise amplitude.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet
from .grids import TorusGrid, _band_points, _points_band, product_spectra
from .noise import (
    LinearPath,
    NoiseRealization,
    StepKernel,
    TimeGrid,
    _constant_path,
    _kernel_for,
    _recorded_indices,
    _require_centred_cutoff,
    lin_variance_path,
    record,
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

# the spectra whose block stacks stack() serves: values() builds those of
# wick2 and iwick3, which stepping reads; those of lin and iwick2 are built
# with the catalog-only pairings res_iwick3_lin and res_iwick2_wick2, on
# their first read within a step
_STACKED = ("lin", "wick2", "iwick2", "iwick3")


class _StepValues(Mapping):
    """The symbol values of one step, keyed by ``_PATH_NAMES``.

    ``res_iwick3_lin`` and ``res_iwick2_wick2``, which only the catalog reads,
    are built on first read, with the block stacks of ``lin`` and ``iwick2``
    that only they pair.  Beside the stacks it keeps the point values of
    ``lin`` and ``iwick3`` on the ``2N`` grid (:meth:`points`).  The mapping
    holds the step's arrays and never its stepper: nothing here sits in a
    reference cycle, so a step's arrays are freed as soon as the stepper and
    its callers let go of them.
    """

    def __init__(self, partition, vals: dict, stacks: dict, points: dict, ctj: float):
        self._part = partition
        self._vals = vals
        self._stacks = stacks
        self._points = points
        self._ctj = ctj

    def __getitem__(self, name: str) -> np.ndarray:
        val = self._vals.get(name)
        if val is None:
            val = self._vals[name] = self._pairing(name)
        return val

    def __iter__(self):
        return iter(_PATH_NAMES)

    def __len__(self) -> int:
        return len(_PATH_NAMES)

    def stack(self, name: str) -> np.ndarray:
        s = self._stacks.get(name)
        if s is None:
            s = self._stacks[name] = self._part.padded_blocks(self._vals[name])
        return s

    def points(self, name: str) -> np.ndarray:
        """Point values of ``lin`` or ``iwick3`` on the ``2N`` grid; read only."""
        return self._points[name]

    def _pairing(self, name: str) -> np.ndarray:
        N = self._part.grid.N
        if name == "res_iwick3_lin":
            return _resonant_core(self.stack("iwick3"), self.stack("lin"), N)
        if name == "res_iwick2_wick2":
            r22 = _resonant_core(self.stack("iwick2"), self.stack("wick2"), N)
            r22[(0,) * r22.ndim] -= 2.0 * self._ctj
            return r22
        raise KeyError(name)


class SymbolStepper:
    """Advances the whole ensemble of one noise realization a step at a time.

    ``noise`` fixes the grid, horizon, band and stream.  Memory stays bounded
    in the number of steps, so this is the engine used for long runs;
    :func:`build_ensemble` wraps it when full paths fit in memory.  Block
    point values on the binary-product grid are cached per step and shared
    with the solver through :meth:`stack`.  A step builds what stepping
    reads (the stacks of ``wick2`` and ``iwick3`` and their pairing); the
    pairings only the catalog reads, with the stacks only they pair, wait
    for their first read.  The point values of ``lin`` and ``iwick3`` on the
    ``2N`` grid are taken once per step: the Wick cube is formed from those
    of ``lin``, and the step's mapping hands both to the cubic right-hand
    side of :func:`.solvers.G_rhs`.

    ``c`` is the exact variance path of ``lin``.  The quartic constant
    ``ctilde`` (a scalar or one value per grid time) is an input at amplitude
    ``sigma``; it scales exactly as ``sigma**4`` times the unit-amplitude one.
    """

    def __init__(
        self,
        noise: NoiseRealization,
        coeffs: CoefficientSet,
        sigma: float,
        kernel: StepKernel | None = None,
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
        self.kernel = _kernel_for(grid, timegrid, coeffs, kernel)
        self.partition = default_partition(grid)
        self.c = lin_variance_path(grid, timegrid, noise.cutoff, coeffs, self.sigma, kernel=self.kernel)
        self.ctilde = _constant_path(ctilde, timegrid, "quartic constant")
        self.lin = LinearPath(noise, coeffs, self.sigma, kernel=self.kernel)
        self.iw2 = np.zeros(grid.hshape, dtype=np.complex128)
        self.iw3 = np.zeros(grid.hshape, dtype=np.complex128)
        self.iww = np.zeros(grid.hshape, dtype=np.complex128)
        self.j = 0
        self._vals: _StepValues | None = None

    def stack(self, name: str) -> np.ndarray:
        """Padded block point values of ``lin``, ``wick2``, ``iwick2`` or ``iwick3``."""
        if name not in _STACKED:
            raise KeyError(f"no block stack of {name!r}; stacked: {_STACKED}")
        return self.values().stack(name)

    def values(self) -> Mapping[str, np.ndarray]:
        """Current values of every symbol (half-layout arrays), each computed once.

        A mapping over the symbol names: ``res_iwick3_lin`` and
        ``res_iwick2_wick2`` are computed on their first read, the rest now.
        """
        if self._vals is not None:
            return self._vals
        N, dim = self.grid.N, self.grid.dim
        j = self.j
        zero = (0,) * dim
        lin = self.lin.state
        cj = self.c[j]
        ctj = self.ctilde[j]
        w2 = product_spectra([lin, lin], N, band=self.band)
        w2[zero] -= cj
        points = {"lin": _band_points(lin, N, 2 * N), "iwick3": _band_points(self.iw3, N, 2 * N)}
        cube = _points_band(points["lin"] * points["lin"] * points["lin"], N)
        w3 = np.where(self.grid.kinf <= self.band, cube, 0.0) - 3.0 * cj * lin
        part = self.partition
        stacks = {"wick2": part.padded_blocks(w2), "iwick3": part.padded_blocks(self.iw3)}
        r32 = _resonant_core(stacks["iwick3"], stacks["wick2"], N) - 6.0 * ctj * lin
        vals = {
            "lin": lin,
            "wick2": w2,
            "wick3": w3,
            "iwick2": self.iw2,
            "iwick3": self.iw3,
            "res_iwick3_wick2": r32,
            "i_res_iwick3_wick2": self.iww,
        }
        self._vals = _StepValues(part, vals, stacks, points, ctj)
        return self._vals

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
    _, paths = record(noise.timegrid, 1, stepper.step,
                      {n: (lambda n=n: stepper.values()[n]) for n in names})
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
    value per grid time); amplitude ``s`` runs with ``s**4 * ctilde``, which
    equals a Monte Carlo at amplitude ``s`` on the same stream bit for bit.
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
