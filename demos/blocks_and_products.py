"""Dyadic frequency blocks, partition of unity, and paraproducts.

Walks through the spectral bookkeeping that the rest of the package is
built on: the smooth dyadic partition on the half-spectrum grid, block
reconstruction of a field, the three-way paraproduct split of a product,
the nonresonant / resonant split (``nonresonant``), the commutator lemma
behind the second correction term of the remainder system
(``para_resonant_commutator``), and the Bernstein / Schauder ratios that
certify the block calculus.
"""

import numpy as np

from phi4lab.grids import SpectralField, TorusGrid, dealiased_product, random_band_field
from phi4lab.paley import (
    bernstein_ratios,
    besov_norm,
    default_partition,
    nonresonant,
    para_gt,
    para_lt,
    para_resonant_commutator,
    resonant,
    schauder_ratio,
)


def _rough_field(grid, rng, s):
    """Gaussian field of Holder regularity about ``s``, scaled to unit L2 norm."""
    k2 = grid.k2.astype(float)
    k2[(0,) * grid.dim] = 1.0
    base = random_band_field(grid, rng, band=grid.N // 2 - 1)
    field = SpectralField(grid, base.coeffs * k2 ** (-(2.0 * s + grid.dim) / 4.0))
    return field * (1.0 / field.l2())


def main():
    rng = np.random.default_rng(12)
    grid = TorusGrid(64, 2)
    # the grid fixes its partition; every block function below looks it up
    part = default_partition(grid)

    # The dyadic weights sum to one at every retained frequency.
    dev = np.max(np.abs(part.weight_sum() - 1.0))
    print(f"partition of unity: {part.nblocks} blocks, max |sum - 1| = {dev:.3e}")

    # A field is recovered exactly from its blocks.
    f = random_band_field(grid, rng, band=24)
    back = sum(b.coeffs for b in part.blocks(f))
    rec = np.max(np.abs(back - f.coeffs))
    print(f"block reconstruction error = {rec:.3e}")

    # para_lt + para_gt + resonant is an exact splitting of the product.
    g = random_band_field(grid, rng, band=24)
    prod = dealiased_product(f, g)
    split = para_lt(f, g).coeffs + para_gt(f, g).coeffs + resonant(f, g).coeffs
    gap = np.max(np.abs(split - prod.coeffs)) / max(np.max(np.abs(prod.coeffs)), 1e-300)
    print(f"paraproduct split, relative error = {gap:.3e}")

    # The nonresonant part is everything but the diagonal pairing.
    two = nonresonant(f, g).coeffs + resonant(f, g).coeffs
    gap = np.max(np.abs(two - prod.coeffs)) / max(np.max(np.abs(prod.coeffs)), 1e-300)
    print(f"nonresonant + resonant split, relative error = {gap:.3e}")

    # Commutator lemma: for f of regularity 1.5 and g, h of regularity -0.3
    # each of resonant(para_lt(f, g), h) and f * resonant(g, h) is only as
    # regular as resonant(g, h) (-0.6), while their difference has regularity
    # 0.9.  In the 0.5 norm the two terms are large and the commutator small.
    f1, g1, h1 = (_rough_field(grid, rng, s) for s in (1.5, -0.3, -0.3))
    lhs = resonant(para_lt(f1, g1), h1)
    rhs = dealiased_product(f1, resonant(g1, h1))
    com = para_resonant_commutator(f1, g1, h1)
    print("commutator lemma, Besov norms at alpha 0.5 (unit L2 factors):")
    print(f"  resonant(para_lt(f, g), h) = {besov_norm(lhs, 0.5):.4f}")
    print(f"  f * resonant(g, h)         = {besov_norm(rhs, 0.5):.4f}")
    print(f"  their difference           = {besov_norm(com, 0.5):.4f}")

    # Bernstein: moving between integrability exponents costs a fixed
    # power of the block frequency.  The ratio is bounded uniformly in k.
    ratios = bernstein_ratios(f, p=2.0, q=np.inf)
    print("bernstein ratios per block:")
    for k, r in ratios.items():
        print(f"  block {k:+d}   ratio = {r:.4f}")

    # Schauder: the heat propagator trades time for smoothness.  The gain
    # from alpha to beta costs t^((beta - alpha)/2), uniformly over t.
    print("schauder ratio (alpha -0.6 -> beta 0.4):")
    for t in (1e-4, 1e-2, 1.0):
        r = schauder_ratio(f, t, alpha=-0.6, beta=0.4)
        print(f"  t = {t:8.1e}   ratio = {r:.4f}")

    # Besov norms across regularities on the same band-limited field.
    for alpha in (-0.5, 0.0, 0.5):
        print(f"besov norm at alpha {alpha:+.1f}: {besov_norm(f, alpha):.4f}")


if __name__ == "__main__":
    main()
