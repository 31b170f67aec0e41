"""Tail probability curves, Gaussian rate fits, and moment bounds.

Estimates exceedance probabilities P(S > h) of path statistics by Monte
Carlo with Clopper-Pearson confidence bands, fits the Gaussian shape
D exp(-C h^2 / sigma^2) on the log scale, and demonstrates the two
moment inequalities the package checks: the continuity bound that
dominates a Hölder constant by a double time integral, and the fixed
hypercontractivity ratio of Wiener chaos moments.

Run with --replicas to trade accuracy for speed (default 250).
"""

import argparse

import numpy as np

from phi4lab.coeffs import CoefficientSet
from phi4lab.concentration import (
    gaussian_tail_fit,
    grr_bound,
    holder_constant,
    linear_solution_path,
    linear_sup_statistic,
    nelson_check,
    tail_estimate,
)
from phi4lab.grids import TorusGrid
from phi4lab.noise import NoiseRealization, TimeGrid


def closed_form_section():
    # Statistic with a known tail: V = sigma sqrt(-ln U / rate) satisfies
    # P(V > h) = exp(-rate h^2 / sigma^2) exactly, so the fitted slope
    # must recover the rate.
    sigma, rate = 0.5, 2.0

    def statistic(replica, seed):
        u = np.random.default_rng((seed, replica)).uniform()
        return sigma * np.sqrt(-np.log(u) / rate)

    h = np.linspace(0.1, 0.6, 9)
    curve = tail_estimate(statistic, h, replicas=4000, master_seed=2,
                          sigma=sigma, label="closed form")
    fit = gaussian_tail_fit(curve)
    print(f"closed-form tail: fitted rate {fit.slope_C:.3f} (true {rate})"
          f"   r^2 = {fit.r_squared:.4f}")


def path_statistic_section(replicas):
    # The running sup of a negative-regularity norm of the damped
    # stochastic convolution has a Gaussian-type upper tail.
    grid = TorusGrid(8, 3)
    tg = TimeGrid(1.0, 24)
    coeffs = CoefficientSet(0.0, -1.0, tg.T)
    sigma = 0.1
    stat = linear_sup_statistic(grid, tg, 4, coeffs, sigma, alpha=-0.6)
    h = np.linspace(0.15, 0.45, 11)
    curve = tail_estimate(stat, h, replicas=replicas, master_seed=3,
                          sigma=sigma, T=tg.T, label="sup norm of the convolution")
    print("exceedance curve of the path statistic:")
    for hi, p, lo, hi_ci in zip(curve.h_grid, curve.p_hat, curve.ci_low, curve.ci_high):
        print(f"  h = {hi:.3f}   p_hat = {p:.3f}   ci = [{lo:.3f}, {hi_ci:.3f}]")
    fit = gaussian_tail_fit(curve)
    print(f"gaussian fit: slope {fit.slope_C:.4f}, r^2 = {fit.r_squared:.4f},"
          f" usable cells {fit.cells}")


def moment_bounds_section():
    # Continuity bound: an integrated pairwise moment sum dominates the
    # p-th power of the Hölder constant of the same path, pathwise.
    grid = TorusGrid(8, 3)
    tg = TimeGrid(1.0, 48)
    coeffs = CoefficientSet(0.0, -1.0, tg.T)
    print("continuity bound vs Hölder constant (5 paths):")
    for replica in range(5):
        noise = NoiseRealization(grid, tg, 4, seed=8, replica=replica)
        path = linear_solution_path(noise, coeffs, 0.1)
        bound = grr_bound(path, p=8, gamma_prime=0.3, beta=-1.2)
        hol = holder_constant(path, beta=-1.2, gamma=0.3)
        print(f"  replica {replica}   bound {bound:.3e}   holder^8 {hol**8:.3e}")

    # Hypercontractivity: moments of a fixed Wiener chaos level grow at a
    # rate bounded by 3, independent of the level.
    print("chaos moment ratios (sampled, ceiling 3):")
    for order in (1, 2, 3):
        for p in (4, 8):
            r = nelson_check(order, p, replicas=100_000, seed=12)
            print(f"  order {order}  p = {p}   ratio = {r:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replicas", type=int, default=250,
                    help="replica count for the path statistic section")
    args = ap.parse_args()
    closed_form_section()
    path_statistic_section(args.replicas)
    moment_bounds_section()


if __name__ == "__main__":
    main()
