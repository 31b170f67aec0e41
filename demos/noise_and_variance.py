"""The damped stochastic convolution and its renormalization constants.

Simulates the linear equation dX = (Delta + a) X dt + sigma dW on a band
of Fourier modes, checks the sampled mode variance against the closed
form, and then tracks the two renormalization constants as the band
grows: the quadratic constant (the variance of X at one point, linear in
the cutoff in three dimensions) and the quartic constant (a pairing of
the time-integrated Wick square with itself, logarithmic in the cutoff
of the continuum equation, but regulated by the time step on a coarse
time grid).
"""

import numpy as np

from phi4lab.coeffs import CoefficientSet
from phi4lab.concentration import linear_zero_mode_statistic
from phi4lab.grids import TorusGrid
from phi4lab.noise import (
    TimeGrid,
    lin_variance_curve,
    lin_variance_path,
    quartic_constant,
    replicate,
)


def sampled_mode_variance(grid, timegrid, cutoff, coeffs, sigma, replicas, seed):
    """Sample variance of the zero mode at the final time over replicas."""
    statistic = linear_zero_mode_statistic(grid, timegrid, cutoff, coeffs, sigma)
    finals = replicate(statistic, replicas, seed)
    return float(np.var(finals, ddof=1)), float(np.std(finals, ddof=1) ** 2 * np.sqrt(2.0 / (replicas - 1)))


def main():
    grid = TorusGrid(16, 2)
    tg = TimeGrid(1.0, 64)
    coeffs = CoefficientSet(0.0, -1.0, tg.T)
    sigma = 0.3

    # Mode 0 feels only the damping a = -1, so its stationary approach is
    # the scalar Ornstein-Uhlenbeck law sigma^2 (1 - exp(-2t)) / 2.
    var, se = sampled_mode_variance(grid, tg, cutoff=7, coeffs=coeffs,
                                    sigma=sigma, replicas=400, seed=5)
    exact = sigma**2 * (1.0 - np.exp(-2.0 * tg.T)) / 2.0
    print(f"mode-0 variance: sampled {var:.5f}, exact {exact:.5f} (se ~ {se:.5f})")

    # The discrete recursion reproduces the quadrature curve for the total
    # variance over the band (the quadratic renormalization constant).
    times = [0.25, 0.5, 1.0]
    curve = lin_variance_curve(grid, 7, coeffs, sigma, times)
    path = lin_variance_path(grid, tg, 7, coeffs, sigma)
    for t, c in zip(times, curve):
        j = int(round(t / tg.dt))
        print(f"c(t={t:.2f})  quadrature {c:.6f}   recursion {path[j]:.6f}")

    # In three dimensions the constant grows linearly with the cutoff.
    grid3 = TorusGrid(32, 3)
    print("cutoff growth of the quadratic constant (d = 3, t = 0.5):")
    for n in (2, 4, 8, 12):
        c = lin_variance_curve(grid3, n, coeffs, 1.0, [0.5])[0]
        print(f"  n = {n:2d}   c_n = {c:9.4f}   c_n / n = {c / n:.4f}")

    # The quartic constant of the continuum diverges only logarithmically.
    # The discrete one is computed exactly (an Isserlis sum over pairs of
    # steps), and on 20 steps it hardly moves with the cutoff: dt * L_max is
    # large, so the time step, not the cutoff, regulates it here.
    print("cutoff dependence of the quartic constant (d = 3, t = 0.5, 20 steps):")
    for n in (2, 4, 8):
        ct = quartic_constant(TorusGrid(2 * n + 2, 3), TimeGrid(0.5, 20), n, coeffs)
        dt_lmax = 0.5 / 20 * 4.0 * np.pi**2 * 3 * n**2
        print(f"  n = {n:2d}   ct_n = {ct[-1]:.6e}   dt * L_max = {dt_lmax:7.1f}")


if __name__ == "__main__":
    main()
