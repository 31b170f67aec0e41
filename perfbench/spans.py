"""Span recording around the phi4lab layers, and the per-layer summary.

The child process (``launch.py --spans``) calls :func:`install` after
importing ``phi4lab.cli`` and before the command runs.  Every wrapped
function is replaced where its callers look it up: on its class for
methods, on ``numpy.fft`` for the transforms, and in every ``phi4lab``
module that imported it by name.  Spans (name, start, end, parent) are
kept in memory and written once, when the process ends.  The parent
(``run.py``) reads the file back and derives the per-layer metrics with
:func:`summarise`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Span names, in the order the per-layer metrics list them.
LAYERS = (
    "fft",
    "grids.product_spectra",
    "paley.padded_blocks",
    "paley.para_lt_core",
    "paley.resonant_core",
    "paley.besov_norm",
    "noise.increment",
    "noise.linear_step",
    "noise.quartic_renorm_mc",
    "noise.step_kernel",
    "noise.lin_variance_path",
    "symbols.values",
    "symbols.step",
    "solvers.vw_rhs",
    "solvers.F_rhs",
    "solvers.G_rhs",
    "solvers.direct_step",
    "concentration.statistic",
    "concentration.tail_estimate",
    "concentration.gaussian_tail_fit",
    "config.load",
    "config.manifest",
    "cli.write",
)


class Tracer:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[list] = []  # [layer index, start, end, parent span]
        self.stack: list[int] = []
        self.fft_points = 0
        self.replica_steps = 0
        self.increment_keys: set = set()

    def wrap(self, layer: str, fn, after=None):
        """``fn`` recorded as a span of ``layer``; ``after(args, kwargs, result)``
        runs inside the span to update the counters."""
        lid = LAYERS.index(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [lid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        doc = {
            "layers": list(LAYERS),
            "spans": self.spans,
            "counters": {
                "fft.points": self.fft_points,
                "noise.quartic_renorm_mc.replica_steps": self.replica_steps,
                "noise.increment.unique_keys": len(self.increment_keys),
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _replace_everywhere(orig, new) -> None:
    """Rebind ``orig`` to ``new`` in every phi4lab module that holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "phi4lab" or name.startswith("phi4lab."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported phi4lab package."""
    import numpy as np

    from phi4lab import cli, concentration, grids, noise, paley, solvers, symbols
    from phi4lab.config import ExperimentConfig, RunManifest

    def count_rfftn(args, kwargs, result):
        tracer.fft_points += args[0].size

    def count_irfftn(args, kwargs, result):
        tracer.fft_points += result.size

    np.fft.rfftn = tracer.wrap("fft", np.fft.rfftn, count_rfftn)
    np.fft.irfftn = tracer.wrap("fft", np.fft.irfftn, count_irfftn)

    def function(layer, orig, after=None):
        _replace_everywhere(orig, tracer.wrap(layer, orig, after))

    def method(layer, cls, attr, after=None):
        setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr), after))

    def note_key(args, kwargs, result):
        nz, j = args[0], args[1]
        tracer.increment_keys.add((nz.seed, nz.role, nz.replica, int(j)))

    mc_sig = inspect.signature(noise.quartic_renorm_mc)

    def note_replica_steps(args, kwargs, result):
        bound = mc_sig.bind(*args, **kwargs)
        tracer.replica_steps += int(bound.arguments["replicas"]) * bound.arguments["timegrid"].M

    def traced_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap("concentration.statistic", factory(*args, **kwargs))

        return make

    function("grids.product_spectra", grids.product_spectra)
    method("paley.padded_blocks", paley.DyadicPartition, "padded_blocks")
    function("paley.para_lt_core", paley._para_lt_core)
    function("paley.resonant_core", paley._resonant_core)
    function("paley.besov_norm", paley.besov_norm)
    method("noise.increment", noise.NoiseRealization, "increment", note_key)
    method("noise.linear_step", noise.LinearPath, "step")
    function("noise.quartic_renorm_mc", noise.quartic_renorm_mc, note_replica_steps)
    for attr in ("__init__", "propagator", "etd_weight", "variance"):
        method("noise.step_kernel", noise.StepKernel, attr)
    function("noise.lin_variance_path", noise.lin_variance_path)
    method("symbols.values", symbols.SymbolStepper, "values")
    method("symbols.step", symbols.SymbolStepper, "step")
    method("solvers.vw_rhs", solvers.VWStepper, "rhs")
    function("solvers.F_rhs", solvers.F_rhs)
    function("solvers.G_rhs", solvers.G_rhs)
    method("solvers.direct_step", solvers.RenormalizedStepper, "step")
    _replace_everywhere(concentration.linear_sup_statistic,
                        traced_factory(concentration.linear_sup_statistic))
    function("concentration.tail_estimate", concentration.tail_estimate)
    function("concentration.gaussian_tail_fit", concentration.gaussian_tail_fit)
    ExperimentConfig.from_json = classmethod(
        tracer.wrap("config.load", ExperimentConfig.from_json.__func__))
    RunManifest.collect = classmethod(
        tracer.wrap("config.manifest", RunManifest.collect.__func__))
    method("config.manifest", RunManifest, "write")
    for attr in ("write_field_bin", "_dump_json", "norms_csv", "tail_curve_csv",
                 "tail_report_json"):
        setattr(cli, attr, tracer.wrap("cli.write", getattr(cli, attr)))


def summarise(path) -> dict:
    """Per-layer seconds, self seconds and call counts from a span file.

    ``.s`` sums the spans of a layer that have no enclosing span of the same
    layer, so a layer that re-enters itself is not counted twice.  ``.self_s``
    is a span's duration minus the durations of its direct children.
    """
    with open(path) as fh:
        doc = json.load(fh)
    layers = doc["layers"]
    spans = doc["spans"]
    n = len(layers)
    total, own, calls = [0.0] * n, [0.0] * n, [0] * n
    child_time = [0.0] * len(spans)
    for i, (lid, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[lid] += 1
        if parent >= 0:
            child_time[parent] += dur
        p, outer = parent, True
        while p >= 0:
            if spans[p][0] == lid:
                outer = False
                break
            p = spans[p][3]
        if outer:
            total[lid] += dur
    for i, (lid, start, end, _) in enumerate(spans):
        own[lid] += (end - start) - child_time[i]
    out = {}
    for lid, layer in enumerate(layers):
        out[layer + ".s"] = total[lid]
        out[layer + ".self_s"] = own[lid]
        out[layer + ".calls"] = calls[lid]
    counters = doc["counters"]
    out["fft.points"] = counters["fft.points"]
    out["noise.quartic_renorm_mc.replica_steps"] = counters["noise.quartic_renorm_mc.replica_steps"]
    inc = calls[layers.index("noise.increment")]
    out["noise.increment.unique_share"] = (
        counters["noise.increment.unique_keys"] / inc if inc else 0.0)
    return out
