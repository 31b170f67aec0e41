"""Time steppers for the cubic equation at fixed spectral cutoff.

Three routes to a solution path live here:

* :func:`solve_deterministic` integrates the noiseless reaction-diffusion
  equation with an exponential Euler step whose kernel absorbs the linear
  reaction coefficient.
* :func:`solve_renormalized` integrates the stochastic equation directly:
  exact damped heat propagator, dealiased polynomial nonlinearity with the
  quadratic and quartic counterterms, exact per-mode noise variance.
* :func:`solve_vw` integrates the coupled remainder system driven by the
  polynomial ensemble of :mod:`.symbols`, with the right-hand sides
  :func:`F_rhs` and :func:`G_rhs` assembled from paraproducts, resonant
  products, the two commutator corrections and one cubic formed pointwise on
  the alias-free ``2N`` grid.  :func:`reconstruct_phi` re-assembles phi.

The two stochastic routes are one discrete map.  Every stepper takes the ETD1
step ``u <- P u + E f`` of one :class:`.noise.StepKernel`, looked up by
:func:`.noise.step_kernel` from the grid, time grid and damping, and the
remainder right-hand sides are evaluated on the field the reconstruction
rebuilds, so the reconstructed step equals the direct step whenever the
right-hand sides agree at a fixed state.  They agree to rounding while
``2 cutoff <= N/2 - 1`` (at most 3.2e-15 relative on 32^2, 64^2, 16^3, 24^3
and 32^3): the integral ``iww`` of ``res_iwick3_wick2`` (band ``5 cutoff``)
enters the right-hand sides projected onto the open band, the part the
reconstruction keeps.  From ``2 cutoff > N/2 - 1`` on the Wick square is cut
at the band, and at cutoff ``N/2 - 1`` the route gap is about 1e-9 relative
(:func:`equivalence_report` measures it).  At ``sigma = 0`` the remainder
route is the deterministic solver bit for bit.

Each solve records its path through :func:`.noise.record` and returns a
:class:`SolutionPath` (one per recorded field for the remainder route).

Dynamical states are kept in the open frequency band ``max_i |w_i| <= N/2-1``
so that every binary and ternary product formed from them is alias free; the
remainder right-hand sides are projected onto that band before stepping.

On two CPUs and a binary-product grid of at least ``2**16`` points (3-D
from N = 32), outside a replica share, a v/w step runs its block stacks,
its paraproduct cores and the pointwise cubic of :func:`G_rhs` two ways
(:func:`.grids._two_way`); the cubic is formed on two slabs of the ``2N``
grid at once, and each kernel joins its helper thread before it returns.
The results are the same bits either way.  At the ``simulate`` benchmark's
32^3 configuration a step went 98 -> 76 ms in process on a 2-vCPU host.
Below the gate the split saves little or costs time (64^2 took
4.9 -> 7.8 ms per step; the module docstring of :mod:`.grids` has the
rest), and the ``equivalence`` and ``tail`` commands run their steps inside
:func:`.noise.replicate` shares anyway.

The two commutator corrections are not formed one by one.  Paired with the
Wick square, the bracket paraproduct of the first cancels the leading term of
the second (the trilinear commutator of
:func:`.paley.para_resonant_commutator`), so :func:`G_rhs` pairs a single
field resonantly with the Wick square and keeps the rest of the second
correction as the quartic counterterm.
"""

from __future__ import annotations

import numpy as np

from .coeffs import CoefficientSet, as_poly
from .grids import (RealField, SpectralField, TorusGrid, _band_points, _by_slabs, _points_band,
                    _two_way, idft)
from .noise import (
    NoiseRealization,
    TimeGrid,
    _constant_path,
    _require_centred_cutoff,
    lin_variance_path,
    quartic_constant,
    record,
    replicate,
    step_kernel,
)
from .paley import _para_lt_core, _resonant_core
from .symbols import SymbolStepper

__all__ = [
    "SolutionPath",
    "solve_deterministic",
    "RenormalizedStepper",
    "solve_renormalized",
    "F_rhs",
    "G_rhs",
    "VWStepper",
    "solve_vw",
    "reconstruct_phi",
    "equivalence_report",
]

_BLOWUP_LIMIT = 1e6


def _as_timefunc(x):
    """Coerce a scalar or coefficient sequence to a callable of time."""
    return x if callable(x) else as_poly(x)


def _check_blowup(grid: TorusGrid, c: np.ndarray, t: float, j: int) -> None:
    r = SpectralField(grid, c).l2()
    if not np.isfinite(r) or r > _BLOWUP_LIMIT:
        raise RuntimeError(
            f"blow-up: solution rms {r:.3e} exceeded {_BLOWUP_LIMIT:.1e} at t = {t:.6f} (step {j})"
        )


class SolutionPath:
    """Time-indexed spectral solution.

    ``coeffs`` holds one half-layout spectrum per recorded time.
    """

    def __init__(self, grid: TorusGrid, times: np.ndarray, coeffs: np.ndarray):
        self.grid = grid
        self.times = np.asarray(times, dtype=np.float64)
        self.coeffs = coeffs

    def __len__(self) -> int:
        return len(self.times)

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def real_values(self, i: int) -> np.ndarray:
        return idft(self.field(i)).values


def _coerce_state(grid: TorusGrid, phi0) -> np.ndarray:
    if isinstance(phi0, SpectralField):
        if phi0.grid != grid:
            raise ValueError(f"initial state grid {phi0.grid} != {grid}")
        return phi0.coeffs.astype(np.complex128).copy()
    if isinstance(phi0, RealField):
        return _coerce_state(grid, phi0.to_spectral())
    out = np.zeros(grid.hshape, dtype=np.complex128)
    out[(0,) * grid.dim] = complex(phi0)
    return out


def _reaction_points(x: np.ndarray, g2, out: np.ndarray | None = None) -> np.ndarray:
    """``x x (g2 - x)`` pointwise: the one operation order of every route's cubic."""
    y = np.subtract(g2, x, out=out)
    y *= x
    y *= x
    return y


def _reaction(grid: TorusGrid, u: np.ndarray, g2: float) -> np.ndarray:
    """Spectrum of ``u u (g2 - u)`` for an open-band ``u``, cut to the open band."""
    N = grid.N
    y = _reaction_points(_band_points(u, N, 2 * N), g2)
    return np.where(grid.kinf <= N // 2 - 1, _points_band(y, N), 0.0)


def solve_deterministic(
    grid: TorusGrid,
    timegrid: TimeGrid,
    g2,
    g1,
    g0,
    phi0,
    record_every: int = 1,
) -> SolutionPath:
    """Noiseless reaction-diffusion solve with reaction -u^3 + g2 u^2 + g1 u + g0.

    Exponential Euler: the Laplacian and the linear coefficient ``g1(t)`` sit
    in the exact per-step kernel, the remaining reaction is evaluated at the
    left endpoint with the first-order exponential weight.  ``g1`` must be a
    scalar, coefficient sequence or Polynomial so its integral is exact;
    ``g2`` and ``g0`` may also be arbitrary callables.  ``g0`` is a spatially
    constant source.  ``phi0`` may be a field or a scalar (flat initial
    state); it is truncated to the open band.
    """
    g2, g0 = _as_timefunc(g2), _as_timefunc(g0)
    kern = step_kernel(grid, timegrid, CoefficientSet(0.0, g1, timegrid.T))
    phi = np.where(grid.kinf <= grid.N // 2 - 1, _coerce_state(grid, phi0), 0.0)
    zero = (0,) * grid.dim
    j = 0

    def step():
        nonlocal phi, j
        t = timegrid.ts[j]
        rhs = _reaction(grid, phi, float(g2(t)))
        rhs[zero] += float(g0(t))
        phi = kern.propagator(j) * phi + kern.etd_weight(j) * rhs
        j += 1
        _check_blowup(grid, phi, timegrid.ts[j], j)

    times, out = record(timegrid, record_every, step, {"phi": lambda: phi})
    return SolutionPath(grid, times, out["phi"])


class RenormalizedStepper:
    """Direct exponential-Euler step for the renormalized stochastic equation.

    ``noise`` fixes the grid, horizon, band and stream, and with ``coeffs``
    the step kernel (:func:`.noise.step_kernel`).  Nonlinearity
    ``-phi^3 + f2 phi^2 + (3c - 18ct) phi - f2 c`` with the quadratic
    constant ``c`` (the exact variance path of the stochastic convolution,
    zero at ``sigma = 0``) and the quartic constant ``ct``; noise injected
    with the exact per-mode in-step variance, so from the zero state the
    first step is the first step of the streamed stochastic convolution.

    The quartic constant ``ctilde`` (a scalar or one value per grid time) is
    an input at amplitude ``sigma``; it scales exactly as ``sigma**4`` times
    the unit-amplitude one.  ``forcing`` adds an optional spatially constant
    source, shared with the remainder route for the noiseless consistency
    checks.
    """

    def __init__(
        self,
        noise: NoiseRealization,
        coeffs: CoefficientSet,
        sigma: float,
        *,
        ctilde,
        forcing=None,
    ):
        grid, timegrid = noise.grid, noise.timegrid
        _require_centred_cutoff(grid, noise.cutoff)
        self.noise = noise
        self.grid = grid
        self.timegrid = timegrid
        self.coeffs = coeffs
        self.sigma = float(sigma)
        self.kernel = step_kernel(grid, timegrid, coeffs)
        self.forcing = None if forcing is None else _as_timefunc(forcing)
        self.c = lin_variance_path(grid, timegrid, noise.cutoff, coeffs, self.sigma)
        self.ctilde = _constant_path(ctilde, timegrid, "quartic constant")
        self.phi = np.zeros(grid.hshape, dtype=np.complex128)
        self.j = 0

    @property
    def t(self) -> float:
        return float(self.timegrid.ts[self.j])

    def nonlinearity(self) -> np.ndarray:
        """The reaction at the current state (half layout), counterterms included."""
        grid, j = self.grid, self.j
        f2t = float(self.coeffs.f2(self.t))
        rhs = _reaction(grid, self.phi, f2t)
        rhs += (3.0 * self.c[j] - 18.0 * self.ctilde[j]) * self.phi
        rhs[(0,) * grid.dim] -= f2t * self.c[j]
        if self.forcing is not None:
            rhs[(0,) * grid.dim] += float(self.forcing(self.t))
        return rhs

    def step(self) -> None:
        if self.j >= self.timegrid.M:
            raise ValueError("already at the final time")
        j = self.j
        rhs = self.nonlinearity()
        kern = self.kernel
        phi = kern.propagator(j) * self.phi + kern.etd_weight(j) * rhs
        if self.sigma != 0.0:
            phi = phi + self.sigma * kern.amplitude(j) * self.noise.increment(j)
        self.phi = phi
        self.j += 1
        _check_blowup(self.grid, self.phi, self.t, self.j)


def solve_renormalized(
    grid: TorusGrid,
    timegrid: TimeGrid,
    cutoff: int,
    coeffs: CoefficientSet,
    sigma: float,
    seed: int = 0,
    record_every: int = 1,
    **kwargs,
) -> SolutionPath:
    """Run :class:`RenormalizedStepper` on replica 0 of ``seed`` and record the path."""
    noise = NoiseRealization(grid, timegrid, cutoff, seed)
    st = RenormalizedStepper(noise, coeffs, sigma, **kwargs)
    times, out = record(timegrid, record_every, st.step, {"phi": lambda: st.phi})
    return SolutionPath(grid, times, out["phi"])


# ---------------------------------------------------------------------------
# right-hand sides of the coupled remainder system
#
# The functions below operate on one time slice of half-layout spectra, with
# ``f2t`` and ``ct`` the coefficient and quartic constant at that time, and
# take every array they read as an argument; VWStepper.rhs builds the block
# stacks and pairings they read.  It hands them ``v + 3 P(iww)`` in place of
# ``v``, with ``iww`` the streamed integral of res_iwick3_wick2 and ``P`` the
# projection onto the open band, so that ``lin + v + w - iwick3`` is the
# solution it reconstructs.


def F_rhs(bxm: np.ndarray, bw2: np.ndarray, wick2: np.ndarray, f2t: float, N: int) -> np.ndarray:
    """Right-hand side of the v equation.

    ``-3 (v + w - iwick3) para_lt wick2 + f2 wick2``: the singular paraproduct
    against the Wick square, plus the quadratic coefficient riding on the Wick
    square itself (whose zero mode carries the -f2 c constant).  ``bxm`` and
    ``bw2`` are the padded block stacks of ``v + w - iwick3`` and ``wick2``.
    """
    return -3.0 * _para_lt_core(bxm, bw2, N) + f2t * wick2


def G_rhs(x, xm, paired, pgt, lin_pts, iw3_pts, f2t: float, ct: float, N: int) -> np.ndarray:
    """Right-hand side of the w equation.

    Its defining form has five groups, with ``X = v + w`` and
    ``xm = X - iwick3``: the cube ``-X^3``; the commutator corrections paired
    with the Wick square, ``-3 (res(com1, wick2) + com2)``; the resonant and
    upper-paraproduct pairings of the remainder with the Wick square,
    ``-3 res(w, wick2) - 3 wick2 para_lt xm``; and the random polynomial
    ``d2 X^2 + d1 X + d0``.  The first correction is
    ``com1 = v + 3 xm para_lt iwick2``; the second, ``com2``, is the
    trilinear commutator of :func:`.paley.para_resonant_commutator` applied
    to ``(-3 xm, iwick2, wick2)``, in which the resonant pairing of
    ``iwick2`` with ``wick2`` enters unsubtracted (the stored symbol plus
    twice the quartic constant).  Summed with ``F``, ``3 res_iwick3_wick2``
    and ``-wick3``, these groups are the direct nonlinearity at
    ``phi = lin + xm``: every ``f2`` term lives in ``F`` and the random
    polynomial.

    The assembly telescopes.  The ``3 xm para_lt iwick2`` of ``com1`` cancels
    the leading term ``res(-3 xm para_lt iwick2, wick2)`` of ``com2`` by
    bilinearity, so the three resonant pairings with the Wick square are one,
    ``paired = res(X, wick2)``, and what is left of ``com2`` is the binary
    product ``3 xm (res_iwick2_wick2 + 2 ct)``.  The ``res_iwick2_wick2``
    part cancels: with ``xm = X - iwick3``, the ``-9 xm res_iwick2_wick2`` it
    contributes, the ``9 res_iwick2_wick2 X`` in ``d1 X`` and the
    ``-9 iwick3 res_iwick2_wick2`` in ``d0`` sum to zero, so neither
    coefficient carries that symbol and the correction is the quartic
    counterterm ``-18 ct xm``.  Inside ``d0`` the bracket of ``lin`` with the
    quadratic symbols of ``iwick3`` (nonresonant pairing with its square,
    resonant pairing with its resonant self-pairing, and the commutator with
    its self-paraproduct) collapses to ``lin iwick3**2``.  The cube and the
    random polynomial are one cubic in the ``2N``-grid point values ``x``,
    ``l``, ``a`` of ``X``, ``lin``, ``iwick3`` (``lin_pts`` and ``iw3_pts``):
    ``x x (d2 - x) + d1 x + d0`` with ``d2 = 3 (a - l) + f2``,
    ``d1 = a (6 l - 3 a - 2 f2) + 2 f2 l`` and
    ``d0 = a^2 (a + f2 - 3 l) - 2 f2 a l``, brought back with one forward
    transform; where :func:`.grids._two_way` says so, the cubic is formed on
    two slabs of the ``2N`` grid at once.  So ``G`` reads ``x = X``, ``xm``,
    the pairing ``paired`` and the upper paraproduct
    ``pgt = wick2 para_lt xm``.  Each rewrite is exact
    up to rounding, and the tests assert them against the literal forms.
    :meth:`VWStepper.rhs` forms ``paired`` as ``res(xm, wick2)`` plus the
    unsubtracted ``res(iwick3, wick2)``, which the symbol stepper has already
    paired: ``res_iwick3_wick2 + 6 ct lin``.
    """
    x = _band_points(x, N, 2 * N)
    y = np.empty_like(x)

    def slab(rows):
        _cubic_points(x[rows], lin_pts[rows], iw3_pts[rows], f2t, out=y[rows])

    _by_slabs(slab, len(x), _two_way(N, x.ndim))
    return _points_band(y, N) - 3.0 * paired - 18.0 * ct * xm - 3.0 * pgt


def _cubic_points(x, l, a, f2t: float, out: np.ndarray) -> None:
    """The cubic of :func:`G_rhs` at point values ``x``, ``l``, ``a``, written into ``out``."""
    d2 = np.subtract(a, l, out=out)
    d2 *= 3.0
    d2 += f2t
    y = _reaction_points(x, d2, out=d2)
    y += ((l * 2.0 - a) * 3.0 - 2.0 * f2t) * a * x
    y += (l * -3.0 + a + f2t) * a * a
    y += (x - a) * l * (2.0 * f2t)


def reconstruct_phi(syms: dict, v: np.ndarray, w: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Reassemble the solution spectrum from one slice of the decomposition.

    ``lin - iwick3 + 3 * (integral of res_iwick3_wick2) + v + w``, projected
    onto the open band the dynamical states live in.
    """
    phi = syms["lin"] - syms["iwick3"] + 3.0 * syms["i_res_iwick3_wick2"] + v + w
    return np.where(grid.kinf <= grid.N // 2 - 1, phi, 0.0)


class VWStepper:
    """Coupled ETD1 stepping of the remainder pair.

    Takes the arguments of :class:`RenormalizedStepper`, builds its own
    :class:`.symbols.SymbolStepper` from them, kept as ``sym`` and stepped
    alongside, and keeps ``(v, w)`` starting from zero.  Right-hand sides are
    evaluated at the left endpoint on ``(v + 3 P(iww), w)``, ``iww`` the
    streamed integral of ``res_iwick3_wick2`` and ``P`` the projection onto
    the open band, so they see the solution the reconstruction rebuilds; they
    are projected onto the open band and stepped with the propagator and ETD
    weight the symbols and the direct route use.

    A step builds three block stacks and keeps at most two alive at once.
    The symbol stepper builds those of ``wick2`` and ``iwick3``, pairs them
    into the symbol ``res_iwick3_wick2`` and keeps only the first (its
    ``wick2_stack``); :meth:`rhs` builds the third, of the remainder
    ``xm = X - iwick3``, beside it.  The field ``X`` that :func:`G_rhs` pairs
    with the Wick square has no stack of its own: by bilinearity
    ``res(X, wick2) = res(xm, wick2) + res(iwick3, wick2)``, the second term
    the symbol with its ``-6 ct lin`` counterterm added back.  So a step runs
    two resonant cores, and its third ``2N``-grid transform, of ``iwick3``,
    runs once the ``xm`` stack is freed.
    """

    def __init__(self, noise: NoiseRealization, coeffs: CoefficientSet, sigma: float, *,
                 ctilde, forcing=None):
        sym = self.sym = SymbolStepper(noise, coeffs, sigma, ctilde=ctilde)
        self.grid = sym.grid
        self.timegrid = sym.timegrid
        self.partition = sym.partition
        self.forcing = None if forcing is None else _as_timefunc(forcing)
        self.v = np.zeros(self.grid.hshape, dtype=np.complex128)
        self.w = np.zeros(self.grid.hshape, dtype=np.complex128)
        self._mask = self.grid.kinf <= sym.band
        self.j = 0

    @property
    def t(self) -> float:
        return float(self.timegrid.ts[self.j])

    def rhs(self) -> tuple[np.ndarray, np.ndarray]:
        """Both right-hand sides at the current time, open-band projected."""
        sym = self.sym
        syms = sym.values()
        N = self.grid.N
        f2t = float(sym.coeffs.f2(self.t))
        ct = float(sym.ctilde[self.j])
        bw2 = sym.wick2_stack
        x = self.v + 3.0 * np.where(self._mask, sym.iww, 0.0) + self.w
        xm = x - syms["iwick3"]
        bx = self.partition.padded_blocks(xm)
        F = F_rhs(bx, bw2, syms["wick2"], f2t, N)
        pgt = _para_lt_core(bw2, bx, N)
        # res(X, wick2) = res(xm, wick2) + res(iwick3, wick2), the latter the
        # symbol without its counterterm; drop the stack before G's cubic
        paired = _resonant_core(bx, bw2, N) + (syms["res_iwick3_wick2"] + 6.0 * ct * syms["lin"])
        del bx
        iw3_pts = _band_points(syms["iwick3"], N, 2 * N)
        G = G_rhs(x, xm, paired, pgt, sym.lin_points, iw3_pts, f2t, ct, N)
        if self.forcing is not None:
            G[(0,) * self.grid.dim] += float(self.forcing(self.t))
        return np.where(self._mask, F, 0.0), np.where(self._mask, G, 0.0)

    def step(self) -> None:
        if self.j >= self.timegrid.M:
            raise ValueError("already at the final time")
        F, G = self.rhs()
        P = self.sym.kernel.propagator(self.j)
        E = self.sym.kernel.etd_weight(self.j)
        self.v = P * self.v + E * F
        self.w = P * self.w + E * G
        self.sym.step()
        self.j += 1
        _check_blowup(self.grid, self.w, self.t, self.j)
        _check_blowup(self.grid, self.v, self.t, self.j)

    def reconstruct(self) -> np.ndarray:
        """The solution spectrum at the current time, from the streamed symbol states.

        Reads ``lin``, ``iwick3`` and the integral of ``res_iwick3_wick2``
        straight from the symbol stepper, so it builds no block stack.
        """
        sym = self.sym
        syms = {"lin": sym.lin.state, "iwick3": sym.iw3, "i_res_iwick3_wick2": sym.iww}
        return reconstruct_phi(syms, self.v, self.w, self.grid)


def solve_vw(noise: NoiseRealization, coeffs: CoefficientSet, sigma: float, *, ctilde,
             record_every: int = 1, forcing=None) -> dict[str, SolutionPath]:
    """Integrate the coupled remainder system of ``noise`` over its whole time grid.

    Runs a :class:`VWStepper` built from the same arguments and records
    ``v``, ``w`` and the reconstructed solution ``phi`` every
    ``record_every`` steps and at the end; returns one :class:`SolutionPath`
    per name, sharing the times.
    """
    vw = VWStepper(noise, coeffs, sigma, ctilde=ctilde, forcing=forcing)
    grid, timegrid = vw.grid, vw.timegrid
    times, out = record(timegrid, record_every, vw.step,
                        {"v": lambda: vw.v, "w": lambda: vw.w, "phi": vw.reconstruct})
    return {name: SolutionPath(grid, times, path) for name, path in out.items()}


def equivalence_report(
    grid: TorusGrid,
    T: float,
    M: int,
    cutoff: int,
    coeffs: CoefficientSet,
    sigma: float,
    seed: int,
    extra_seeds=(),
) -> dict:
    """Gap between the direct solve and the remainder-route reconstruction.

    Both routes run in lockstep on one noise realization, which fixes their
    grid, horizon, band and stream; the coarse run steps the aggregated
    increments of the fine one, so both resolutions see a single Brownian
    path.  The quartic constant is computed once, on the base grid of ``M``
    steps, by :func:`.noise.quartic_constant`, and the same path is handed
    to both routes of every pass; the fine pass takes it interpolated onto
    ``dt/2``.  The decomposition holds for any shared quartic constant, so
    the interpolation does not open a gap, although the refined run is not
    exactly centred.

    The routes are one discrete map, so the gap does not shrink with dt: it
    is rounding where ``2 cutoff <= N/2 - 1`` and the band truncation of the
    Wick square otherwise (see the module docstring).  Returns the relative
    sup-norm gap at ``dt`` and ``dt/2``, their ratio (for information), and
    the gap for each extra seed at the base resolution.  The gaps are
    relative to the direct solution, which vanishes at ``sigma = 0``.

    The constant's rows are spread over the workers of
    :func:`.noise.replicate` first; the passes then run as the tasks of one
    more call: task 0 the coarse pass, task 1 the fine pass and task ``2 + k``
    the ``k``-th extra seed, each returning its ``(gap, sup_d)``.  Every pass
    builds its own realization and draws its own increments, so the coarse
    and the fine pass each draw every fine increment once (160 draws for 80
    distinct increments at ``M = 40``), and the direct and remainder routes
    of a pass share each draw.  A pass that fails raises its own exception
    here, the lowest task first, as the serial loop would, and the report is
    the same at any worker count.
    """
    tg = TimeGrid(T, M)
    tg_fine = TimeGrid(T, 2 * M)
    base = quartic_constant(grid, tg, cutoff, coeffs, sigma=sigma)
    seeds = [int(s) for s in extra_seeds]

    def one_gap(task, _) -> tuple[float, float]:
        """``(gap, sup_d)`` of pass ``task``: the coarse, the fine, then each extra seed."""
        if task < 2:
            noise = NoiseRealization(grid, tg_fine, cutoff, seed)
            noise = noise.aggregate(2) if task == 0 else noise
        else:
            noise = NoiseRealization(grid, tg, cutoff, seeds[task - 2])
        steps = noise.timegrid.M
        # exact at the base nodes, so only the fine pass's constant moves
        ct = np.interp(noise.timegrid.ts, tg.ts, base)
        direct = RenormalizedStepper(noise, coeffs, sigma, ctilde=ct)
        vw = VWStepper(noise, coeffs, sigma, ctilde=ct)
        sup_d = 0.0
        sup_gap = 0.0
        for j in range(steps + 1):
            pd = idft(SpectralField(grid, direct.phi)).values
            pv = idft(SpectralField(grid, vw.reconstruct())).values
            sup_d = max(sup_d, float(np.max(np.abs(pd))))
            sup_gap = max(sup_gap, float(np.max(np.abs(pd - pv))))
            if j < steps:
                direct.step()
                vw.step()
        return sup_gap / sup_d, sup_d

    passes = replicate(one_gap, 2 + len(seeds), None).tolist()
    (gap, sup_d), (gap_f, _) = passes[:2]
    seed_gaps = {s: g for s, (g, _) in zip(seeds, passes[2:])}
    return {
        "dt": tg.dt,
        "gap": gap,
        "dt_refined": tg_fine.dt,
        "gap_refined": gap_f,
        "ratio": gap_f / gap if gap > 0 else float("nan"),
        "sup_direct": sup_d,
        "seed_gaps": seed_gaps,
    }
