"""Command line front end: configuration-driven experiment runners.

Subcommands
-----------
verify
    Fast invariant sweep across the modules; machine-readable pass/fail
    per check, nonzero exit on any failure.
symbols
    Step the symbol ensemble once and tabulate per-symbol Besov norms
    over time; dumps the final quintic-symbol field.
renorm
    Sweep band cutoffs and tabulate the quadratic constant (exact
    quadrature) and the quartic constant at mid-horizon, with linear and
    logarithmic fit summaries, so ``cutoff_list`` must hold at least two
    distinct cutoffs.  The quartic constant is the exact Isserlis
    sum of :func:`.noise.quartic_constant`, as in every command, on the run's
    own time grid.  ``ctilde_mc`` and ``ctilde_se`` cross-check it with a
    Monte Carlo over ``ctilde_replicas`` paths on the same grid, the only
    output that key sizes.  Cutoff ``n`` runs on the grid ``N = 2n + 2``,
    the smallest on which its Wick square is centred.  Each row carries
    ``dt * L_max``, with ``dt`` the run's step and ``L_max = 4 pi^2 dim
    n^2`` the largest band eigenvalue: where it is large, the time step,
    not the cutoff, regulates the discrete quartic constant.
simulate
    Run the remainder system at the configured parameters and write the
    norm table plus the final reconstructed field.  Only the reconstructed
    phi is recorded, one half spectrum per recorded time; a run whose
    recording would exceed the 768 MiB budget of :func:`.noise.record`
    exits 2 before the quartic constant is computed.
tail
    Estimate exceedance curves of the stochastic-convolution sup norm at
    every configured noise level, fit the Gaussian shape, and report the
    rate ratios between levels.
equivalence
    Gap between the direct renormalized solve and the remainder-route
    reconstruction at dt and dt/2.  The routes are one discrete map, so the
    gap is rounding plus the band truncation of intermediate products,
    which at cutoff N/2 - 1 grows as the grid shrinks (7.5e-10 relative at
    64^2, 1.3e-6 at 8^3); needs a positive noise level.

``symbols``, ``renorm``, ``simulate`` and ``equivalence`` subtract the
quartic constant, whose exact sum takes ``M (M - 1) / 2`` dealiased
products.  A run whose sum is over the work budget of
:func:`.noise._check_constant_budget` exits 2 naming ``dt`` before any step
runs; ``renorm`` asks once per cutoff grid.

Every file-producing command writes a ``manifest.json`` recording the
resolved configuration, code version, the ``[seed, role, replica]`` streams
it drew (the ``ROLE_RENORM`` Monte Carlo's for ``renorm``, every level's
``ROLE_MAIN`` replicas for ``tail``, ``ROLE_MAIN`` replica 0 of
``master_seed`` elsewhere), wall clock, the most processes one of its
replica loops ran on (``workers``: one per CPU the process may use, and no
more than the loop's tasks; the loops are the replicas of ``tail`` and
``renorm``, the passes of ``equivalence`` and the rows of every quartic
constant) and a SHA-256 digest per output file.  Outputs are
deterministic functions of (config, seed), and neither ``--out`` nor the
worker count enters them: rerunning with equal manifests (ignoring the wall
clock and workers) reproduces every file byte for byte, in any output
directory.

Output files
------------
This module renders every output file; the others compute.  CSV files go
through one writer (header row first, csv-module rows ended by CRLF, times as
``.10g`` and values as ``.12g``), JSON files through one dumper (indent 2,
sorted keys, numpy values as numbers, a trailing newline).

- verify: ``verify.json`` with ``--out``, the report it prints.
- symbols: ``symbols.csv`` (time, Besov norm per symbol), ``ww_final.f64``.
- renorm: ``renorm.csv`` (the constants per cutoff), ``renorm_fits.json``.
- simulate: ``norms.csv`` (time, rms and sup of phi), ``phi_final.f64``.
- tail: per level ``tail_s<sigma>.csv`` (h, p_hat, ci_low, ci_high) and
  ``tail_s<sigma>.json`` (curve, counts, fit, config); ``tail_report.json``
  (each level's fit, as its file records it, and the rate ratios).
- equivalence: ``equivalence.json``.
- every command but verify: ``manifest.json``, by
  :meth:`.config.RunManifest.write` in the same JSON format.

Binary field dumps (``.f64``) are little-endian 64-bit floats in C order with
a JSON sidecar (same path plus ``.json``) holding shape and grid metadata.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .coeffs import CoefficientSet
from .concentration import (
    TailCurve,
    gaussian_tail_fit,
    grr_bound,
    holder_constant,
    linear_solution_path,
    linear_sup_statistic,
    linear_zero_mode_statistic,
    nelson_check,
    tail_estimate,
)
from .config import ConfigError, ExperimentConfig, RunManifest
from .grids import SpectralField, TorusGrid, dealiased_product, idft, random_band_field
from .noise import (ROLE_MAIN, ROLE_RENORM, NoiseRealization, TimeGrid, _check_constant_budget,
                    _constant_workers, _recorded_indices, lin_variance_curve, quartic_constant,
                    quartic_renorm_mc, record, replica_workers, replicate)
from .paley import besov_norm, default_partition, para_gt, para_lt, resonant
from .solvers import (SolutionPath, VWStepper, equivalence_report, solve_deterministic,
                      solve_renormalized, solve_vw)
from .symbols import CATALOG, SYMBOL_NAMES, SymbolStepper, chaos_components

__all__ = [
    "main",
    "cmd_verify",
    "cmd_symbols",
    "cmd_renorm",
    "cmd_simulate",
    "cmd_tail",
    "cmd_equivalence",
    "check_partition_unity",
    "write_field_bin",
]


# ---------------------------------------------------------------------------
# small shared helpers


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default)


def _dump_json(doc, path) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(doc) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_field_bin(path, values: np.ndarray, meta: dict) -> None:
    """Little-endian float64 dump in C order, with a JSON sidecar header."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    arr.tofile(path)
    _dump_json({"dtype": "<f8", "order": "C", "shape": list(arr.shape), **meta},
               str(path) + ".json")


def norms_csv(sol: SolutionPath, path) -> list:
    """Sub-sampled snapshot table: time, rms and sup norm per recorded time.

    Returns the sup norms, one per recorded time.
    """
    rows, sups = [], []
    for i, t in enumerate(sol.times):
        sup = np.max(np.abs(sol.real_values(i)))
        rows.append([f"{t:.10g}", f"{sol.field(i).l2():.12g}", f"{sup:.12g}"])
        sups.append(sup)
    _write_csv(path, ["time", "rms", "sup"], rows)
    return sups


def tail_curve_csv(curve: TailCurve, path) -> None:
    """Write the curve as CSV with columns h, p_hat, ci_low, ci_high."""
    columns = (curve.h_grid, curve.p_hat, curve.ci_low, curve.ci_high)
    _write_csv(path, ["h", "p_hat", "ci_low", "ci_high"],
               ([f"{v:.12g}" for v in row] for row in zip(*columns)))


def _fit_entry(fit) -> dict | None:
    """The fit as ``tail_s*.json`` and ``tail_report.json`` record it."""
    return None if fit is None else {"slope_C": fit.slope_C, "intercept_logD": fit.intercept_logD,
                                     "r_squared": fit.r_squared, "cells": fit.cells}


def tail_report_json(curve: TailCurve, fit, path, config=None) -> None:
    """Write the curve, optional fit parameters and a config echo as JSON."""
    _dump_json({"label": curve.label, "sigma": curve.sigma, "T": curve.T,
                "replicas": curve.replicas, "seed": curve.seed, "h_grid": curve.h_grid,
                "p_hat": curve.p_hat, "ci_low": curve.ci_low, "ci_high": curve.ci_high,
                "counts": curve.counts, "zero_cells": np.flatnonzero(curve.zero_cells),
                "fit": _fit_entry(fit), "config": config}, path)


def _linear_fit(x, y) -> dict:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}


def _require_constant_budget(grid: TorusGrid, tg: TimeGrid) -> None:
    """Refuse, naming ``dt``, a run whose quartic constant is over the work budget."""
    try:
        _check_constant_budget(grid, tg)
    except ValueError as exc:
        raise ConfigError([("dt", f"c~: {exc}")]) from None


def _finish(cfg: ExperimentConfig, out_dir: Path, files, t0: float, command: str,
            seeds, workers: int) -> None:
    """Write the manifest.

    ``seeds`` are the ``[seed, role, replica]`` streams the command drew, and
    ``workers`` the most processes one of its replica loops ran on.
    """
    manifest = RunManifest.collect(cfg, out_dir, files, time.perf_counter() - t0, seeds,
                                   command=command)
    manifest.workers = workers
    manifest.write(out_dir / "manifest.json")


# ---------------------------------------------------------------------------
# verify: invariant sweep


def check_partition_unity(grid: TorusGrid) -> tuple[bool, dict]:
    """Max deviation of the block weights from summing to one."""
    dev = float(np.max(np.abs(default_partition(grid).weight_sum() - 1.0)))
    return dev <= 1e-12, {"max_deviation": dev}


def _check_partitions() -> tuple[bool, dict]:
    oks, detail = [], {}
    for N, dim in ((64, 2), (16, 3)):
        ok, d = check_partition_unity(TorusGrid(N, dim))
        oks.append(ok)
        detail[f"N{N}_d{dim}"] = d["max_deviation"]
    return all(oks), detail


def _check_block_reconstruction() -> tuple[bool, dict]:
    grid = TorusGrid(32, 2)
    part = default_partition(grid)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5):
        f = random_band_field(grid, rng)
        total = sum(b.coeffs for b in part.blocks(f))
        worst = max(worst, float(np.max(np.abs(total - f.coeffs)) / np.max(np.abs(f.coeffs))))
    return worst <= 1e-10, {"max_rel_deviation": worst}


def _check_product_decomposition() -> tuple[bool, dict]:
    grid = TorusGrid(32, 2)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(5):
        f = random_band_field(grid, rng, band=15)
        g = random_band_field(grid, rng, band=15)
        total = para_lt(f, g).coeffs + para_gt(f, g).coeffs + resonant(f, g).coeffs
        prod = dealiased_product(f, g).coeffs
        worst = max(worst, float(np.max(np.abs(total - prod)) / np.max(np.abs(prod))))
    return worst <= 1e-10, {"max_rel_deviation": worst}


def _check_ou_variance() -> tuple[bool, dict]:
    grid = TorusGrid(16, 2)
    tg = TimeGrid(1.0, 32)
    co = CoefficientSet(0.0, -1.0, 1.0)
    sigma, reps = 0.3, 400
    finals = replicate(linear_zero_mode_statistic(grid, tg, 8, co, sigma), reps, 6)
    var_hat = float(np.var(finals))
    target = sigma**2 * (1.0 - np.exp(-2.0)) / 2.0
    z = abs(var_hat - target) / (target * np.sqrt(2.0 / reps))
    return z <= 4.0, {"var_hat": var_hat, "target": target, "z": float(z)}


def _check_sigma_zero() -> tuple[bool, dict]:
    grid = TorusGrid(8, 2)
    tg = TimeGrid(0.4, 40)
    co = CoefficientSet(0.7, [-1.0, -0.5], 0.4)
    det = solve_deterministic(grid, tg, [0.7], [-1.0, -0.5], [0.3, 0.1], 0.0)
    ren = solve_renormalized(grid, tg, 3, co, 0.0, ctilde=0.0, forcing=[0.3, 0.1])
    same = bool(np.array_equal(det.coeffs, ren.coeffs))
    vw = solve_vw(NoiseRealization(grid, tg, 3, seed=0), co, 0.0, ctilde=0.0, forcing=[0.3, 0.1])
    v_zero = bool(np.all(vw["v"].coeffs == 0.0))
    vw_same = bool(np.array_equal(det.coeffs, vw["phi"].coeffs))
    return same and v_zero and vw_same, {"direct_bitwise": same, "v_identically_zero": v_zero,
                                         "vw_bitwise": vw_same}


def _check_homogeneity() -> tuple[bool, dict]:
    grid = TorusGrid(8, 2)
    tg = TimeGrid(0.5, 8)
    co = CoefficientSet(0.3, -1.0, 0.5)
    ct = quartic_constant(grid, tg, 2, co)
    dec = chaos_components(NoiseRealization(grid, tg, 2, seed=3), co, "res_iwick3_wick2", ctilde=ct)
    m1, m2 = dec.mass(1.0), dec.mass(2.0)
    top = max(m1.values())
    off = max(v for k, v in m1.items() if k != dec.degree) / top
    scale_err = abs(m2[dec.degree] / m1[dec.degree] - 2.0**dec.degree) / 2.0**dec.degree
    return off <= 1e-6 and scale_err <= 1e-8, {"off_order_rel": off, "scale_rel_err": scale_err}


# the routes are one discrete map; at this configuration the band truncation
# of intermediate products leaves relative gaps of 1.9e-9 (dt) and 2.5e-9 (dt/2)
_EQUIVALENCE_SMOKE_GAP = 1e-8


def _check_equivalence_smoke() -> tuple[bool, dict]:
    grid = TorusGrid(8, 2)
    co = CoefficientSet(0.5, -1.0, 0.25)
    rep = equivalence_report(grid, 0.25, 20, 3, co, 0.1, seed=5)
    ok = all(np.isfinite(g) and g <= _EQUIVALENCE_SMOKE_GAP
             for g in (rep["gap"], rep["gap_refined"]))
    return bool(ok), {"gap": rep["gap"], "gap_refined": rep["gap_refined"]}


def _check_tail_trivials() -> tuple[bool, dict]:
    curve = tail_estimate(lambda i, s: 0.5, [0.0, 0.4, 0.6], 200, 5)
    shape = list(curve.p_hat) == [1.0, 1.0, 0.0]
    endpoint = abs(curve.ci_high[2] - (1.0 - 0.025 ** (1.0 / 200))) < 1e-12
    return shape and endpoint, {"p_hat": list(curve.p_hat)}


def _check_nelson() -> tuple[bool, dict]:
    exact = nelson_check(2, 2, replicas=50_000, seed=2) == 1.0
    ratio = nelson_check(2, 4, replicas=100_000, seed=2)
    return exact and ratio <= 3.0, {"p2_exact": exact, "p4_ratio": float(ratio)}


def _check_grr_domination() -> tuple[bool, dict]:
    grid = TorusGrid(8, 2)
    path = linear_solution_path(NoiseRealization(grid, TimeGrid(1.0, 32), 4, seed=11),
                                CoefficientSet(0.0, -1.0, 1.0), 0.1)
    p, gp, beta = 8, 0.3, -1.2
    bound = grr_bound(path, p, gp, beta=beta)
    hol = holder_constant(path, beta, gp - 1.0 / p)
    return bool(np.isfinite(bound) and bound >= hol**p), {"bound": bound, "holder_p": hol**p}


_VERIFY_CHECKS = (
    ("partition_of_unity", _check_partitions),
    ("block_reconstruction", _check_block_reconstruction),
    ("product_decomposition", _check_product_decomposition),
    ("ou_mode_zero_variance", _check_ou_variance),
    ("sigma_zero_degeneration", _check_sigma_zero),
    ("symbol_amplitude_homogeneity", _check_homogeneity),
    ("route_equivalence_smoke", _check_equivalence_smoke),
    ("tail_estimator_exactness", _check_tail_trivials),
    ("hermite_moment_ratio", _check_nelson),
    ("continuity_bound_domination", _check_grr_domination),
)


def cmd_verify() -> dict:
    """Run every registered invariant check; never raises, always reports."""
    checks = []
    for name, fn in _VERIFY_CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        checks.append({
            "name": name,
            "passed": bool(ok),
            "detail": detail,
            "seconds": round(time.perf_counter() - t0, 3),
        })
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# file-producing commands


def cmd_symbols(cfg: ExperimentConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    grid, tg, co = cfg.grid(), cfg.timegrid(), cfg.coeffs()
    _require_constant_budget(grid, tg)
    sigma = cfg.sigmas[0]
    ct = quartic_constant(grid, tg, cfg.cutoff, co, sigma=sigma)
    noise = NoiseRealization(grid, tg, cfg.cutoff, cfg.master_seed)
    sym = SymbolStepper(noise, co, sigma, ctilde=ct)
    alphas = {name: CATALOG[name].regularity - cfg.lam for name in SYMBOL_NAMES}

    def norm(name):
        return besov_norm(SpectralField(grid, sym.catalog()[name]), alphas[name])

    times, norms = record(tg, cfg.record_every, sym.step,
                          {name: (lambda name=name: norm(name)) for name in SYMBOL_NAMES})
    _write_csv(out_dir / "symbols.csv", ["time"] + list(SYMBOL_NAMES),
               ([f"{t:.10g}"] + [f"{norms[name][i]:.12g}" for name in SYMBOL_NAMES]
                for i, t in enumerate(times)))
    write_field_bin(out_dir / "ww_final.f64",
                    idft(SpectralField(grid, sym.values()["res_iwick3_wick2"])).values,
                    {"field": "res_iwick3_wick2", "time": cfg.T, "N": cfg.N,
                     "dim": cfg.dimension, "sigma": sigma, "seed": cfg.master_seed})
    files = ["symbols.csv", "ww_final.f64", "ww_final.f64.json"]
    _finish(cfg, out_dir, files, t0, "symbols", [[cfg.master_seed, ROLE_MAIN, 0]],
            workers=_constant_workers(tg))
    return {"files": files, "rows": len(times), "symbols": list(SYMBOL_NAMES)}


def cmd_renorm(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if len(set(cfg.cutoff_list)) < 2:
        raise ConfigError([("cutoff_list", "renorm fits the constants against the cutoff, "
                                           "so it needs at least two distinct cutoffs")])
    t0 = time.perf_counter()
    tg, co = cfg.timegrid(), cfg.coeffs()
    for n in cfg.cutoff_list:
        _require_constant_budget(TorusGrid(2 * n + 2, cfg.dimension), tg)
    sigma = cfg.sigmas[0]
    tmid = cfg.T / 2.0
    rows = []
    for n in cfg.cutoff_list:
        gridn = TorusGrid(2 * n + 2, cfg.dimension)
        c_val = float(lin_variance_curve(gridn, n, co, sigma, [tmid])[0])
        ct = quartic_constant(gridn, tg, n, co, sigma=sigma)
        mc = quartic_renorm_mc(gridn, tg, n, co, cfg.master_seed,
                               replicas=cfg.ctilde_replicas, sigma=sigma)
        # the run's dt times the largest band eigenvalue
        dt_lmax = tg.dt * 4.0 * np.pi**2 * cfg.dimension * n**2
        ct_val = float(np.interp(tmid, tg.ts, ct))
        ct_mc = float(np.interp(tmid, mc["times"], mc["estimate"]))
        ct_se = float(np.interp(tmid, mc["times"], mc["se"]))
        rows.append((n, c_val, ct_val, ct_mc, ct_se, dt_lmax))
    _write_csv(out_dir / "renorm.csv", ["n", "c_n", "ctilde_n", "ctilde_mc", "ctilde_se"],
               ([n] + [f"{v:.12g}" for v in vals] for n, *vals, _ in rows))
    ns = [r[0] for r in rows]
    report = {
        "t": tmid,
        "ctilde_replicas": cfg.ctilde_replicas,
        "c_fit_vs_n": _linear_fit(ns, [r[1] for r in rows]),
        "ctilde_fit_vs_log_n": _linear_fit(np.log(ns), [r[2] for r in rows]),
        "rows": [{"n": n, "c": c, "ctilde": ct, "ctilde_mc": ct_mc, "ctilde_se": se,
                  "dt_L_max": dl}
                 for n, c, ct, ct_mc, se, dl in rows],
    }
    _dump_json(report, out_dir / "renorm_fits.json")
    files = ["renorm.csv", "renorm_fits.json"]
    _finish(cfg, out_dir, files, t0, "renorm",
            [[cfg.master_seed, ROLE_RENORM, r] for r in range(cfg.ctilde_replicas)],
            workers=max(replica_workers(cfg.ctilde_replicas), _constant_workers(tg)))
    return report


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    grid, tg, co = cfg.grid(), cfg.timegrid(), cfg.coeffs()
    # phi, one half spectrum at every recorded time: refuse before c~ is computed
    try:
        _recorded_indices(tg, cfg.record_every, 16 * int(np.prod(grid.hshape)))
    except ValueError as exc:
        raise ConfigError([("record_every", f"phi: {exc}")]) from None
    _require_constant_budget(grid, tg)
    sigma = cfg.sigmas[0]
    ct = quartic_constant(grid, tg, cfg.cutoff, co, sigma=sigma)
    vw = VWStepper(NoiseRealization(grid, tg, cfg.cutoff, cfg.master_seed), co, sigma, ctilde=ct)
    times, out = record(tg, cfg.record_every, vw.step, {"phi": vw.reconstruct})
    phi = SolutionPath(grid, times, out["phi"])
    sups = norms_csv(phi, out_dir / "norms.csv")
    write_field_bin(out_dir / "phi_final.f64", idft(phi.field(-1)).values,
                    {"field": "phi", "time": cfg.T, "N": cfg.N, "dim": cfg.dimension,
                     "sigma": sigma, "seed": cfg.master_seed})
    files = ["norms.csv", "phi_final.f64", "phi_final.f64.json"]
    _finish(cfg, out_dir, files, t0, "simulate", [[cfg.master_seed, ROLE_MAIN, 0]],
            workers=_constant_workers(tg))
    return {"files": files, "recorded_times": len(phi), "final_sup": float(sups[-1]),
            "max_sup": float(np.max(sups))}


def cmd_tail(cfg: ExperimentConfig, out_dir: Path) -> dict:
    problems = []
    if cfg.h_grid is None:
        problems.append(("h_grid", "tail runs need a threshold grid"))
    if 0.0 in cfg.sigmas:
        problems.append(("sigma", "tail runs need every noise level positive: "
                                  "thresholds scale with sigma"))
    bases = ["tail_s" + f"{sig:g}".replace(".", "p") for sig in cfg.sigmas]
    if len(set(bases)) < len(bases):
        problems.append(("sigma", f"levels write files {', '.join(bases)}: two are equal "
                                  "to 6 significant digits and would overwrite each other"))
    if problems:
        raise ConfigError(problems)
    t0 = time.perf_counter()
    grid, tg, co = cfg.grid(), cfg.timegrid(), cfg.coeffs()
    alpha = -0.5 - cfg.eps
    sig0 = cfg.sigmas[0]
    files, results = [], []
    for i, (sig, base) in enumerate(zip(cfg.sigmas, bases)):
        curve = tail_estimate(
            linear_sup_statistic(grid, tg, cfg.cutoff, co, sig, alpha),
            cfg.h_grid * (sig / sig0), cfg.replicas, cfg.level_seed(i),
            sigma=sig, T=cfg.T, label=f"{cfg.label} sigma={sig:g}",
        )
        try:
            fit = gaussian_tail_fit(curve)
        except ValueError:
            fit = None
        tail_curve_csv(curve, out_dir / f"{base}.csv")
        tail_report_json(curve, fit, out_dir / f"{base}.json", config=cfg.to_dict())
        files += [f"{base}.csv", f"{base}.json"]
        results.append({"sigma": sig, "curve_csv": f"{base}.csv", "fit": _fit_entry(fit)})
    ratios = []
    for a, b in zip(results, results[1:]):
        if a["fit"] and b["fit"]:
            ratios.append({
                "sigma_pair": [a["sigma"], b["sigma"]],
                "raw_rate_ratio": (a["fit"]["slope_C"] / a["sigma"] ** 2)
                / (b["fit"]["slope_C"] / b["sigma"] ** 2),
                "collapse_ratio": a["fit"]["slope_C"] / b["fit"]["slope_C"],
            })
    report = {"statistic": f"sup C^{alpha:g} norm of the stochastic convolution",
              "levels": results, "ratios": ratios, "replicas": cfg.replicas}
    _dump_json(report, out_dir / "tail_report.json")
    files.append("tail_report.json")
    _finish(cfg, out_dir, files, t0, "tail", seeds=cfg.replica_seeds(len(cfg.sigmas)),
            workers=replica_workers(cfg.replicas))
    return report


def cmd_equivalence(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if cfg.sigmas[0] == 0.0:
        raise ConfigError([("sigma", "equivalence needs a positive noise level: at sigma = 0 "
                                     "the direct solution is zero and the relative gap is 0/0")])
    t0 = time.perf_counter()
    _require_constant_budget(cfg.grid(), cfg.timegrid())
    rep = equivalence_report(cfg.grid(), cfg.T, cfg.steps, cfg.cutoff, cfg.coeffs(),
                             cfg.sigmas[0], cfg.master_seed)
    _dump_json(rep, out_dir / "equivalence.json")
    # the report's two passes, coarse and fine, are the tasks of one replica loop
    _finish(cfg, out_dir, ["equivalence.json"], t0, "equivalence",
            [[cfg.master_seed, ROLE_MAIN, 0]],
            workers=max(replica_workers(2), _constant_workers(cfg.timegrid())))
    return rep


_COMMANDS = {
    "symbols": cmd_symbols,
    "renorm": cmd_renorm,
    "simulate": cmd_simulate,
    "tail": cmd_tail,
    "equivalence": cmd_equivalence,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phi4lab",
        description="Pseudospectral laboratory for renormalized cubic equations on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify": "run the invariant checks and report pass/fail",
        "symbols": "tabulate symbol norms over time",
        "renorm": "sweep cutoffs and fit the renormalization constants",
        "simulate": "run the remainder system and dump the reconstruction",
        "tail": "estimate and fit exceedance curves per noise level",
        "equivalence": "direct-vs-reconstruction gap at dt and dt/2",
    }
    for name in ("verify", "symbols", "renorm", "simulate", "tail", "equivalence"):
        p = sub.add_parser(name, help=helps[name])
        if name != "verify":
            p.add_argument("--config", required=True, help="JSON experiment configuration")
            p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        report = cmd_verify()
        print(_json_text(report))
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            _dump_json(report, out_dir / "verify.json")
        return 0 if report["passed"] else 1

    try:
        cfg = ExperimentConfig.from_json(args.config, master_seed=args.seed)
        if args.out is not None:
            cfg.out_dir = str(args.out)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(_json_text({"error": "config", "fields": exc.fields, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except RuntimeError as exc:
        if "blow-up" not in str(exc):
            raise
        diag = {"error": "blow-up", "message": str(exc), "config": cfg.to_dict()}
        print(_json_text(diag), file=sys.stderr)
        return 3
    print(_json_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
