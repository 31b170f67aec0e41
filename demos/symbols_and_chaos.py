"""The renormalized polynomial ensemble and its amplitude structure.

Every driving object of the remainder system is a polynomial of the
damped stochastic convolution, Wick-renormalized and integrated in time.
All of them are driven by one shared noise path, so a single stepper
advances the whole ensemble in lockstep.  Each entry is exactly
homogeneous in the noise amplitude: rebuilding the same realization at
several amplitudes and solving a small Vandermonde system splits a
symbol into amplitude powers and shows that all its mass sits at its own
degree.
"""

import numpy as np

from phi4lab.coeffs import CoefficientSet
from phi4lab.grids import SpectralField, TorusGrid
from phi4lab.noise import NoiseRealization, TimeGrid, quartic_constant
from phi4lab.paley import besov_norm
from phi4lab.symbols import CATALOG, SYMBOL_NAMES, SymbolStepper, chaos_components


def main():
    grid = TorusGrid(16, 2)
    tg = TimeGrid(0.5, 32)
    coeffs = CoefficientSet(0.0, -1.0, tg.T)

    print("catalog:")
    for name in SYMBOL_NAMES:
        info = CATALOG[name]
        print(f"  {name:18s} degree {info.degree}   regularity {info.regularity:+.1f}"
              f"   chaos levels {info.chaos}")

    # One pass of the stepper; report the final Besov norm of each symbol
    # slightly below its stated regularity.
    sym = SymbolStepper(NoiseRealization(grid, tg, 7, seed=3), coeffs, sigma=0.5, ctilde=0.0)
    for _ in range(tg.M):
        sym.step()
    vals = sym.catalog()
    print(f"symbol norms at t = {tg.T}:")
    for name in SYMBOL_NAMES:
        alpha = CATALOG[name].regularity - 0.05
        nrm = besov_norm(SpectralField(grid, vals[name]), alpha)
        print(f"  {name:18s} |.|_{alpha:+.2f} = {nrm:.4f}")

    # Amplitude decomposition of the deepest symbol (degree 5).  The same
    # seed is rebuilt at six amplitudes; the Vandermonde solve recovers the
    # amplitude-power kernels, and only the degree-5 component carries mass.
    # The quartic constant is computed once, exactly, at unit amplitude;
    # each amplitude s then runs with s**4 times it.
    grid8, tg16 = TorusGrid(8, 2), TimeGrid(0.5, 16)
    ct = quartic_constant(grid8, tg16, 3, coeffs)
    dec = chaos_components(NoiseRealization(grid8, tg16, 3, seed=9), coeffs,
                           name="res_iwick3_wick2", ctilde=ct)
    mass = dec.mass(1.0)
    print("amplitude-power mass of res_iwick3_wick2 at sigma = 1:")
    for ell, m in mass.items():
        print(f"  power {ell}   mass {m:.3e}")

    # Exact homogeneity also shows up as 2^degree scaling without any
    # decomposition: double the amplitude, recover the path scaled by 32.
    a = dec.component(1.0, 5)
    b = dec.component(2.0, 5)
    err = np.max(np.abs(b - 2.0**5 * a))
    print(f"degree-5 scaling error under sigma -> 2 sigma: {err:.3e}")


if __name__ == "__main__":
    main()
