"""Flat equilibria of the cubic reaction and recentred coefficients.

The spatially constant part of the equation is the scalar ODE
x' = -x^3 + b2 x^2 + b1 x + b0.  Integrating it gives a reference path
phibar; recentring the full equation around phibar produces exactly the
quadratic-plus-linear reaction the stochastic solvers expect, with the
time-dependent damping a(t) = b1 + 2 b2 phibar - 3 phibar^2.  Around a
stable equilibrium the damping is negative, which is what keeps the
remainder system bounded on long horizons.
"""

from phi4lab.coeffs import (
    equilibrium_ode,
    normalize_cubic,
    poly_extrema,
    recentre,
)


def main():
    T = 1.0

    # A positive source with quadratic gain gamma = 3: the flat solution
    # climbs from phibar0 = 2 toward the stable root and the recentred
    # damping stays strictly negative the whole way.
    b2, b1, b0 = 3.0, 0.0, 1.0
    ts, vals = equilibrium_ode(b2, b1, b0, phibar0=2.0, T=T, M=400)
    print(f"gamma = 3: phibar runs from {vals[0]:.3f} to {vals[-1]:.3f}"
          f"   (min {vals.min():.3f})")
    coeffs, residual = recentre(b2, b1, b0, (ts, vals), T)
    lo, hi = poly_extrema(coeffs.a, 0.0, T)
    print(f"recentred damping a(t) in [{lo:.3f}, {hi:.3f}]")
    rlo, rhi = poly_extrema(residual, 0.0, T)
    print(f"recentring residual in [{rlo:.2e}, {rhi:.2e}]"
          " (zero when phibar solves the flat ODE exactly)")

    # Negative gain gamma = -1: every starting point is pulled to the same
    # stable branch, and the recentred damping is negative regardless.
    b2 = -1.0
    print("gamma = -1 sweep:")
    for x0 in (-5.0, 0.3, 5.0):
        ts, vals = equilibrium_ode(b2, b1, b0, phibar0=x0, T=T, M=400)
        coeffs, _ = recentre(b2, b1, b0, (ts, vals), T)
        lo, hi = poly_extrema(coeffs.a, 0.0, T)
        print(f"  phibar0 = {x0:+5.1f}   final phibar {vals[-1]:+.4f}"
              f"   damping range [{lo:.3f}, {hi:.3f}]")

    # A general cubic with a time-dependent leading coefficient is brought
    # to the normalized -x^3 form by rescaling; the transform returns the
    # rescaled reaction coefficients and the matching noise rescaling.
    nc = normalize_cubic([-2.0, -1.0], 0.5, -1.0, 0.2, T)
    for t in (0.0, 0.5, 1.0):
        print(f"t = {t:.1f}   lam = {nc.lam(t):.4f}   b2 = {nc.b2(t):+.4f}"
              f"   b1 = {nc.b1(t):+.4f}   noise scale = {nc.noise_scale(t):.4f}")


if __name__ == "__main__":
    main()
