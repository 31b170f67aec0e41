"""Two routes to the renormalized cubic equation, one answer.

The direct route steps the renormalized equation for phi itself.  The
paracontrolled route writes phi as a sum of explicit noise polynomials
plus a smoother remainder pair (v, w), steps only the pair, and
reconstructs phi afterwards.  Both routes take the same exponential step,
so they are one discrete map: with the noise switched off the
reconstruction is the plain deterministic solver bit for bit, and on a
shared noise realization the routes differ by rounding, plus the band
truncation of intermediate products once the cutoff is large for the grid.
The gap does not shrink with dt, because it is not a discretization error.
"""

import numpy as np

from phi4lab.coeffs import CoefficientSet
from phi4lab.grids import TorusGrid
from phi4lab.noise import NoiseRealization, TimeGrid
from phi4lab.solvers import equivalence_report, solve_deterministic, solve_vw


def main():
    coeffs = CoefficientSet(0.5, -1.0, 0.25)

    # sigma = 0: every noise polynomial vanishes, v stays zero, and w takes
    # the deterministic solver's step on the same forced reaction.
    grid = TorusGrid(8, 2)
    tg = TimeGrid(0.25, 32)
    det = solve_deterministic(grid, tg, coeffs.f2, coeffs.a, 0.4, phi0=0.0)
    noise = NoiseRealization(grid, tg, 3, seed=1)
    vw = solve_vw(noise, coeffs, 0.0, ctilde=0.0, forcing=0.4)["phi"]
    same = np.array_equal(det.coeffs, vw.coeffs)
    print(f"sigma = 0: v/w reconstruction equals the deterministic solver bitwise: {same}")

    # With noise on, compare the two routes on one shared realization at dt
    # and dt/2.  At 7 * cutoff <= N/2 - 1 every intermediate product of the
    # remainder right-hand sides fits the grid band and the gap is rounding;
    # at a larger cutoff the band truncation of those products is left.
    for N, cutoff in ((16, 1), (8, 3)):
        rep = equivalence_report(TorusGrid(N, 2), T=0.25, M=40, cutoff=cutoff,
                                 coeffs=coeffs, sigma=0.5, seed=5, extra_seeds=(6, 7))
        print(f"N = {N}, cutoff = {cutoff} (sup of the direct solution {rep['sup_direct']:.4f}):")
        print(f"  relative sup gap at dt = {rep['dt']:.4g}: {rep['gap']:.3e}")
        print(f"  relative sup gap at dt = {rep['dt_refined']:.4g}: {rep['gap_refined']:.3e}")
        for s, g in rep["seed_gaps"].items():
            print(f"  seed {s}: gap {g:.3e}")


if __name__ == "__main__":
    main()
