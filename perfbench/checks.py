"""Output checks for the benchmark workloads.

Each check reads what one CLI invocation wrote and compares it against a
computation made apart from the command, or against a property the method
must have.  A failed check raises :class:`CheckFailed`.  The checks import
``phi4lab`` from the checkout's ``src`` and run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# Relative sup gap allowed between phi_final.f64 (v/w route) and an
# independent direct-route solve on the same noise; about 0.2% is typical.
SIMULATE_GAP = 0.01
# Relative sup gap allowed for the equivalence command at either dt.
EQUIVALENCE_GAP = 0.01
# The two sigma levels' fitted rates may differ by this many bootstrap
# standard errors of their difference.
COLLAPSE_Z = 4.0
BOOTSTRAP_DRAWS = 400


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_digests(out_dir: Path, files) -> dict:
    """Recompute every output digest and compare it with manifest.json."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    outputs = manifest["outputs"]
    require(sorted(outputs) == sorted(files),
            f"manifest lists {sorted(outputs)}, expected {sorted(files)}")
    digests = {name: sha256(out_dir / name) for name in files}
    for name, digest in digests.items():
        require(outputs[name] == digest, f"digest of {name} does not match manifest.json")
    return digests


def check_simulate(doc: dict, out_dir: Path) -> None:
    """Re-solve the direct route on the same noise and the same c~ path."""
    from phi4lab.config import ExperimentConfig
    from phi4lab.noise import TimeGrid, quartic_renorm_mc
    from phi4lab.solvers import solve_renormalized

    cfg = ExperimentConfig.from_dict(doc)
    grid, tg, co = cfg.grid(), cfg.timegrid(), cfg.coeffs()
    sigma = cfg.sigmas[0]
    # c~ as the command documents it: Monte Carlo on min(50, M) steps, interpolated
    coarse = TimeGrid(cfg.T, min(50, tg.M))
    rep = quartic_renorm_mc(grid, coarse, cfg.cutoff, co, cfg.master_seed,
                            replicas=cfg.ctilde_replicas, sigma=sigma)
    ctilde = np.interp(tg.ts, rep["times"], rep["estimate"])
    direct = solve_renormalized(grid, tg, cfg.cutoff, co, sigma, cfg.master_seed,
                                record_every=tg.M, ctilde=ctilde)
    ref = direct.real_values(len(direct) - 1)
    meta = json.loads((out_dir / "phi_final.f64.json").read_text())
    got = np.fromfile(out_dir / "phi_final.f64", dtype="<f8").reshape(meta["shape"])
    require(got.shape == ref.shape, f"phi_final shape {got.shape}, expected {ref.shape}")
    gap = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    require(gap < SIMULATE_GAP, f"v/w vs direct relative sup gap {gap:.3g} >= {SIMULATE_GAP}")
    with open(out_dir / "norms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == tg.M // cfg.record_every + 1, f"norms.csv has {len(rows)} rows")
    sup = float(rows[-1]["sup"])
    require(abs(sup - np.max(np.abs(got))) <= 1e-9 * sup, "final sup in norms.csv != sup of phi_final")


def check_equivalence(doc: dict, out_dir: Path) -> None:
    rep = json.loads((out_dir / "equivalence.json").read_text())
    gap, fine = rep["gap"], rep["gap_refined"]
    require(np.isfinite(gap) and np.isfinite(fine), f"non-finite gaps {gap}, {fine}")
    require(0.0 < gap < EQUIVALENCE_GAP and 0.0 < fine < EQUIVALENCE_GAP,
            f"route gaps {gap:.3g}, {fine:.3g} not in (0, {EQUIVALENCE_GAP})")
    require(rep["ratio"] == fine / gap, "ratio != gap_refined / gap")
    require(abs(rep["dt_refined"] * 2 - rep["dt"]) <= 1e-12 * rep["dt"], "refined dt is not dt/2")
    require(rep["sup_direct"] > 0.0, "direct route solution is identically zero")


def _fit_rate(h, counts, replicas: int, sigma: float) -> float | None:
    """Weighted fit of log p against h^2/sigma^2, written apart from the program."""
    p = np.asarray(counts, dtype=np.float64) / replicas
    use = (p > 0.0) & (p < 1.0)
    if use.sum() < 4:
        return None
    x = np.asarray(h)[use] ** 2 / sigma**2
    weight = replicas * p[use] / (1.0 - p[use])
    slope, _ = np.polyfit(x, np.log(p[use]), 1, w=np.sqrt(weight))
    return -float(slope)


def _bootstrap_rates(h, pooled_counts, pooled_n: int, replicas: int, sigma: float, rng) -> np.ndarray:
    """Rates refitted on multinomial resamples of the pooled exceedance curve."""
    p = np.asarray(pooled_counts, dtype=np.float64) / pooled_n
    cells = -np.diff(np.concatenate([[1.0], p, [0.0]]))
    rates = []
    for _ in range(BOOTSTRAP_DRAWS):
        hist = rng.multinomial(replicas, cells)
        counts = np.cumsum(hist[::-1])[::-1][1:]
        rate = _fit_rate(h, counts, replicas, sigma)
        if rate is not None:
            rates.append(rate)
    return np.asarray(rates)


def check_tail(doc: dict, out_dir: Path) -> None:
    sigmas = doc["sigma"]
    replicas = doc["replicas"]
    base = np.asarray(doc["h_grid"], dtype=np.float64)
    levels = []
    for sig in sigmas:
        name = "tail_s" + f"{sig:g}".replace(".", "p") + ".json"
        rep = json.loads((out_dir / name).read_text())
        counts = np.asarray(rep["counts"])
        h = np.asarray(rep["h_grid"])
        require(np.allclose(h, base * sig / sigmas[0], rtol=1e-12, atol=0.0),
                f"{name}: thresholds do not scale with sigma")
        require(np.all(np.diff(counts) <= 0), f"{name}: counts increase with h")
        require(np.array_equal(np.asarray(rep["p_hat"]), counts / replicas),
                f"{name}: p_hat != counts / replicas")
        require(rep["fit"] is not None, f"{name}: no Gaussian fit")
        rate = rep["fit"]["slope_C"]
        require(rate > 0.0, f"{name}: fitted rate {rate:.3g} is not positive")
        own = _fit_rate(h, counts, replicas, sig)
        require(own is not None and abs(own - rate) <= 1e-8 * abs(rate),
                f"{name}: rate {rate!r} differs from the benchmark's own fit {own!r}")
        levels.append((sig, h, counts, rate))
    # Both levels estimate one law (the statistic is homogeneous of degree one
    # in sigma and the thresholds scale with sigma), so their rates agree up
    # to Monte Carlo error, estimated by a bootstrap of the pooled curve.
    pooled = sum(c for _, _, c, _ in levels)
    rng = np.random.default_rng(0)
    for (s0, h0, _, r0), (s1, h1, _, r1) in zip(levels, levels[1:]):
        b0 = _bootstrap_rates(h0, pooled, replicas * len(levels), replicas, s0, rng)
        b1 = _bootstrap_rates(h1, pooled, replicas * len(levels), replicas, s1, rng)
        n = min(len(b0), len(b1))
        require(n >= BOOTSTRAP_DRAWS // 2, "too few bootstrap fits for the collapse check")
        se = float(np.std(b0[:n] - b1[:n]))
        require(abs(r0 - r1) <= COLLAPSE_Z * se,
                f"rates {r0:.4g} (sigma {s0:g}) and {r1:.4g} (sigma {s1:g}) differ by more "
                f"than {COLLAPSE_Z} bootstrap errors ({se:.3g})")
    report = json.loads((out_dir / "tail_report.json").read_text())
    require(len(report["levels"]) == len(sigmas), "tail_report.json misses a sigma level")


CHECKS = {
    "simulate": check_simulate,
    "equivalence": check_equivalence,
    "tail": check_tail,
}
