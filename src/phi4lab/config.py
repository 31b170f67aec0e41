"""Experiment configuration and run manifests.

A run is described by a single JSON document validated against the schema
published as :data:`CONFIG_SCHEMA`.  A small built-in checker walks the
schema in its own order and understands exactly the keywords the schema uses:
``type``, ``minimum``, ``maximum``, ``exclusiveMinimum``, ``multipleOf`` (with
an integer argument), ``minItems``, ``maxItems``, ``minLength``, ``items``,
``anyOf``, ``required`` and ``additionalProperties: false``.  It follows
JSON Schema 2020-12 and gives jsonschema's messages: 2.0 is an integer and a
bool is not a number.  One rule goes beyond the schema: ``json`` accepts
``NaN`` and ``Infinity``, and a non-finite number anywhere in the document is
rejected.  A file that cannot be read, or is not valid JSON, is a config
error too, on ``<document>``.

Constraints that relate several fields (band containment, the admissible
window for the regularity budget, time grid divisibility) are checked after
schema validation, and all violations are reported together, each tagged
with the offending field.

:class:`RunManifest` records what a command produced: the configuration
echo, the code version, the per-replica seed bindings and a content digest
for every output file.  Two manifests that agree outside the wall-clock
entry certify byte-identical numerical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from numbers import Number
from pathlib import Path

import numpy as np

from . import __version__
from .coeffs import CoefficientSet, as_poly
from .grids import TorusGrid
from .noise import TimeGrid

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
]

_POLY = {
    "type": ["number", "array"],
    "items": {"type": "number"},
    "minItems": 1,
    "maxItems": 9,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "phi4lab experiment configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["dimension", "N", "cutoff", "T", "dt", "sigma", "master_seed"],
    "properties": {
        "dimension": {"type": "integer", "minimum": 1, "maximum": 3},
        "N": {"type": "integer", "minimum": 2, "multipleOf": 2},
        "cutoff": {"type": "integer", "minimum": 1},
        "cutoff_list": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "T": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "sigma": {
            "anyOf": [
                {"type": "number", "minimum": 0},
                {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
            ]
        },
        "f2": _POLY,
        "a": _POLY,
        "eps": {"type": "number"},
        "lam": {"type": "number"},
        "replicas": {"type": "integer", "minimum": 1},
        "h_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "master_seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "out_dir": {"type": "string", "minLength": 1},
        "record_every": {"type": "integer", "minimum": 1},
        # replicas of renorm's Monte Carlo cross-check of the exact quartic
        # constant; no other output depends on it
        "ctilde_replicas": {"type": "integer", "minimum": 1},
        "label": {"type": "string"},
    },
}


def _is_type(value, name: str) -> bool:
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, Number)


# the instances a keyword applies to; any other instance passes it
_APPLIES_TO = {
    "minimum": "number", "maximum": "number", "exclusiveMinimum": "number",
    "multipleOf": "number", "minItems": "array", "maxItems": "array", "items": "array",
    "minLength": "string", "required": "object", "additionalProperties": "object",
    "properties": "object",
}


def _schema_errors(value, schema: dict, path=()):
    """Yield ``(path, message)`` for each keyword of ``schema`` that ``value`` breaks.

    Keywords are applied in the schema's dict order and ``properties`` and
    ``items`` descend where they stand, so the errors come in the order of
    jsonschema's ``iter_errors``.
    """
    for key, arg in schema.items():
        if key in _APPLIES_TO and not _is_type(value, _APPLIES_TO[key]):
            continue
        if key == "type":
            names = arg if isinstance(arg, list) else [arg]
            if not any(_is_type(value, name) for name in names):
                yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        elif key == "minimum":
            if value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum":
            if value > arg:
                yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "exclusiveMinimum":
            if value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "multipleOf" and isinstance(arg, int):
            if value % arg:
                yield path, f"{value!r} is not a multiple of {arg}"
        elif key in ("minItems", "minLength"):
            if len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems":
            if len(value) > arg:
                yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "items":
            for i, item in enumerate(value):
                yield from _schema_errors(item, arg, path + (i,))
        elif key == "anyOf":
            if all(next(_schema_errors(value, sub, path), None) for sub in arg):
                yield path, f"{value!r} is not valid under any of the given schemas"
        elif key == "required":
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and arg is False:
            extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "properties":
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key not in ("$schema", "title"):
            raise NotImplementedError(f"schema keyword {key}: {arg!r} is not supported")


def _non_finite(value, path=()):
    """Yield ``(path, message)`` for each NaN or infinity in a decoded JSON value."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, f"{value!r} is not a finite number"
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite(item, path + (i,))


class ConfigError(ValueError):
    """Invalid configuration; ``fields`` names every offending entry."""

    def __init__(self, problems):
        self.problems = list(problems)
        self.fields = [f for f, _ in self.problems]
        lines = "; ".join(f"{f}: {msg}" for f, msg in self.problems)
        super().__init__(f"invalid config: {lines}")


class ExperimentConfig:
    """Validated experiment description.

    Build one with :meth:`from_dict` or :meth:`from_json`; the constructor
    itself assumes already-validated values.  ``sigma`` is normalized to a
    tuple so commands can iterate noise levels uniformly.
    """

    def __init__(self, doc: dict):
        self.dimension = int(doc["dimension"])
        self.N = int(doc["N"])
        self.cutoff = int(doc["cutoff"])
        self.T = float(doc["T"])
        self.dt = float(doc["dt"])
        sig = doc["sigma"]
        self.sigmas = tuple(float(s) for s in (sig if isinstance(sig, list) else [sig]))
        self.f2 = as_poly(doc.get("f2", 0.0))
        self.a = as_poly(doc.get("a", -1.0))
        self.eps = float(doc.get("eps", 0.05))
        self.lam = float(doc.get("lam", self.eps / 6.0))
        self.replicas = int(doc.get("replicas", 1))
        hg = doc.get("h_grid")
        self.h_grid = None if hg is None else np.asarray(hg, dtype=np.float64)
        self.master_seed = int(doc["master_seed"])
        self.out_dir = str(doc.get("out_dir", "out"))
        self.cutoff_list = tuple(int(n) for n in doc.get("cutoff_list", [self.cutoff]))
        self.record_every = int(doc.get("record_every", 1))
        self.ctilde_replicas = int(doc.get("ctilde_replicas", 24))
        self.label = str(doc.get("label", "run"))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        found = [*_schema_errors(doc, CONFIG_SCHEMA), *_non_finite(doc)]
        problems = [
            (".".join(map(str, path)) or "<document>", message)
            for path, message in sorted(found, key=lambda e: str(list(e[0])))
        ]
        if problems:
            raise ConfigError(problems)
        cfg = cls(doc)
        problems = cfg._cross_field_problems()
        if problems:
            raise ConfigError(problems)
        return cfg

    @classmethod
    def from_json(cls, path, master_seed: int | None = None) -> "ExperimentConfig":
        """Load and validate a JSON config; ``master_seed``, if given, replaces the file's.

        The replacement goes into the document before validation, so a seed
        the schema rejects is reported like one written in the file.
        """
        try:
            fh = open(path, encoding="utf-8")
        except OSError as exc:  # a missing file, a directory, no read permission
            raise ConfigError([("<document>", f"cannot read {path}: {exc.strerror}")]) from None
        with fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
                raise ConfigError([("<document>", f"not valid JSON: {exc}")]) from None
        if not isinstance(doc, dict):
            raise ConfigError([("<document>", "config must be a JSON object")])
        if master_seed is not None:
            doc["master_seed"] = master_seed
        return cls.from_dict(doc)

    def _cross_field_problems(self):
        problems = []
        if 2 * self.cutoff >= self.N:
            problems.append(
                ("cutoff", f"band cutoff {self.cutoff} must be below N/2 = {self.N // 2} "
                           "for the Wick square to be centred")
            )
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * self.T:
            problems.append(("dt", f"dt = {self.dt} does not divide the horizon T = {self.T}"))
        if not 0.0 < self.eps < 1.0 / 16.0:
            problems.append(("eps", f"eps must lie in (0, 1/16), got {self.eps}"))
        lam_hi = min(self.eps / 3.0, 1.0)
        if not 0.0 < self.lam < lam_hi:
            problems.append(
                ("lam", f"lam must lie in (0, min(eps/3, 1)) = (0, {lam_hi:g}), got {self.lam}")
            )
        if self.h_grid is not None:
            if np.any(self.h_grid < 0) or np.any(np.diff(self.h_grid) <= 0):
                problems.append(
                    ("h_grid", "thresholds must be non-negative and strictly increasing")
                )
        return problems

    # -- derived objects ---------------------------------------------------

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def grid(self) -> TorusGrid:
        return TorusGrid(self.N, self.dimension)

    def timegrid(self) -> TimeGrid:
        return TimeGrid(self.T, self.steps)

    def coeffs(self) -> CoefficientSet:
        return CoefficientSet(self.f2, self.a, self.T)

    def level_seed(self, i: int) -> int:
        """Seed of noise level ``i``; ``tail`` runs one level per configured sigma."""
        return self.master_seed + i

    def replica_seeds(self, levels: int = 1) -> list[list[int]]:
        """The (seed, replica index) stream bindings of the first ``levels`` noise levels."""
        return [[self.level_seed(i), r] for i in range(levels) for r in range(self.replicas)]

    def to_dict(self) -> dict:
        """Canonical echo: defaults resolved, sigma always a list, no ``out_dir``."""
        doc = {
            "dimension": self.dimension,
            "N": self.N,
            "cutoff": self.cutoff,
            "cutoff_list": list(self.cutoff_list),
            "T": self.T,
            "dt": self.dt,
            "sigma": list(self.sigmas),
            "f2": self.f2.coef.tolist(),
            "a": self.a.coef.tolist(),
            "eps": self.eps,
            "lam": self.lam,
            "replicas": self.replicas,
            "h_grid": None if self.h_grid is None else self.h_grid.tolist(),
            "master_seed": self.master_seed,
            "record_every": self.record_every,
            "ctilde_replicas": self.ctilde_replicas,
            "label": self.label,
        }
        return doc


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Inventory of one command invocation.

    ``outputs`` maps file names (relative to the output directory) to their
    SHA-256 digests, so equality of two manifests outside ``wall_clock``
    and ``workers`` certifies byte-identical outputs.  ``workers`` is the
    number of processes the replicas or passes ran on, 1 unless the command
    sets it; like the wall clock it depends on the machine, not on the
    configuration.
    """

    def __init__(self, config_echo: dict, seeds, wall_clock: float, outputs: dict,
                 version: str = __version__, command: str = ""):
        self.config = dict(config_echo)
        self.version = str(version)
        self.seeds = [list(s) for s in seeds]
        self.wall_clock = float(wall_clock)
        self.outputs = dict(outputs)
        self.command = str(command)
        self.workers = 1

    @classmethod
    def collect(cls, config: ExperimentConfig, out_dir, files, wall_clock: float, seeds,
                command: str = "") -> "RunManifest":
        """Digest the named files (paths relative to ``out_dir``); ``seeds`` are
        the ``[seed, replica]`` streams the command drew."""
        outputs = {str(name): _sha256(Path(out_dir) / name) for name in files}
        return cls(config.to_dict(), seeds, wall_clock, outputs, command=command)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "version": self.version,
            "seeds": self.seeds,
            "wall_clock": self.wall_clock,
            "workers": self.workers,
            "outputs": self.outputs,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path) as fh:
            doc = json.load(fh)
        manifest = cls(doc["config"], doc["seeds"], doc["wall_clock"], doc["outputs"],
                       version=doc["version"], command=doc.get("command", ""))
        manifest.workers = doc.get("workers", 1)
        return manifest

    def equal_modulo_timing(self, other: "RunManifest") -> bool:
        a, b = self.to_dict(), other.to_dict()
        for machine in ("wall_clock", "workers"):
            a.pop(machine)
            b.pop(machine)
        return a == b
