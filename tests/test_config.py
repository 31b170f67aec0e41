"""Configuration schema, cross-field validation and run manifests.

Digest oracle: SHA-256 recomputed directly with hashlib on the written
bytes.  Validation oracles are jsonschema's ``Draft202012Validator`` on the
published schema (a test dependency only: the package checks configs with
its own checker) plus the closed-form constraint windows (band strictly
inside N/2, eps and lam ranges, grid divisibility).
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from phi4lab.config import CONFIG_SCHEMA, ConfigError, ExperimentConfig, RunManifest


def _doc(**over):
    doc = {
        "dimension": 2,
        "N": 16,
        "cutoff": 4,
        "T": 0.5,
        "dt": 0.025,
        "sigma": 0.1,
        "master_seed": 11,
    }
    doc.update(over)
    return doc


class TestSchema:
    def test_minimal_document_resolves_defaults(self):
        cfg = ExperimentConfig.from_dict(_doc())
        assert cfg.sigmas == (0.1,)
        assert cfg.eps == 0.05
        assert cfg.lam == pytest.approx(0.05 / 6.0)
        assert cfg.replicas == 1
        assert cfg.cutoff_list == (4,)
        assert cfg.out_dir == "out"
        assert cfg.steps == 20
        assert cfg.h_grid is None

    def test_sigma_list_is_preserved(self):
        cfg = ExperimentConfig.from_dict(_doc(sigma=[0.1, 0.2, 0.4]))
        assert cfg.sigmas == (0.1, 0.2, 0.4)

    def test_missing_required_field_is_reported(self):
        doc = _doc()
        del doc["N"]
        with pytest.raises(ConfigError, match="'N' is a required property"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict(_doc(bogus=3))

    def test_keys_no_command_reads_are_rejected(self):
        # a3, gamma and b0 were once accepted and then ignored by every command
        for key in ("a3", "gamma", "b0"):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict(_doc(**{key: -2.0}))

    def test_polynomial_degree_bound(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(a=list(range(10))))
        assert "a" in err.value.fields

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_doc(master_seed=-1))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_doc(master_seed=2**64))
        ExperimentConfig.from_dict(_doc(master_seed=2**64 - 1))

    def test_schema_is_published_and_self_consistent(self):
        assert CONFIG_SCHEMA["type"] == "object"
        required = set(CONFIG_SCHEMA["required"])
        assert required <= set(CONFIG_SCHEMA["properties"])


# every property, with values that pass the schema and the cross-field checks
_FULL = _doc(
    cutoff_list=[2, 4], sigma=[0.1, 0.2], f2=[0.3, 0.2], a=[-1.0, 0.5], eps=0.05, lam=0.01,
    replicas=2, h_grid=[0.1, 0.2], out_dir="out", record_every=1, ctilde_replicas=4,
    label="run",
)

# per property, values that break its keywords alone or several at once (N = 1
# is below the minimum and odd; ten strings in ``f2`` break maxItems and every
# item's type), values that break a keyword inside ``items`` or ``anyOf``, and
# values at the edges that jsonschema accepts (2.0 is an integer)
_BAD = {
    "dimension": [0, 4, 2.5, "2", True, None, 2.0, 3],
    "N": [0, 1, 3, 2.5, 16.0, "16", False, [16]],
    "cutoff": [0, -3, 1.5, "4", [4], 4.0],
    "cutoff_list": [[], [0], [2, 2.5], [True], ["a", 0], 3, [2, 4.0], [1, 0, -1]],
    "T": [0, -1, 0.0, "0.5", None, True, 1e-300],
    "dt": [0.0, -0.1, [0.1], "x"],
    "sigma": [-0.1, [], [0.1, -1], [0.1, "x", -2], "x", True, {"s": 1}, [[0.1]], 0, [0.0]],
    "f2": [list(range(10)), [], [0.1, "x"], "x", True, [[1]], ["z"] * 10, 0.3],
    "a": [[1, 2, "z"], [], list(range(12)), False, None, {"a": 1}, -1, [-1.0] * 9],
    "eps": ["x", None, [0.05]],
    "lam": [True, "0.01", {}],
    "replicas": [0, 1.5, "3", -2, 3.0],
    "h_grid": [[], 0.1, [0.1, "x"], [None], "h"],
    "master_seed": [-1, 2**64, 1.5, "11", 2**64 - 1, 0, 11.0],
    "out_dir": ["", 3, None, ["o"]],
    "record_every": [0, 2.5, "1"],
    "ctilde_replicas": [0, "x", False],
    "label": [3, None, ["x"], ""],
}

_UNEXPECTED = [{"bogus": 1}, {"zeta": 1, "alpha": None}, {"b0": -2.0, "Gamma": 1, "a3": [1]}]


def _corpus():
    yield _FULL
    yield {}
    yield from ([], "doc", 3, None)
    for key, values in _BAD.items():
        for value in values:
            yield {**_FULL, key: value}
    # in pairs: every value of each property beside some value of every other one
    for k1, k2 in itertools.combinations(_BAD, 2):
        v1, v2 = _BAD[k1], _BAD[k2]
        for i in range(max(len(v1), len(v2))):
            yield {**_FULL, k1: v1[i % len(v1)], k2: v2[i % len(v2)]}
    for key in CONFIG_SCHEMA["required"]:
        yield {k: v for k, v in _FULL.items() if k != key}
        yield {k: v for k, v in _doc().items() if k != key}
    for extra in _UNEXPECTED:
        yield {**_FULL, **extra}
        yield {**extra, **_doc()}
        yield {**_doc(N=3, sigma=[-1], a=[]), **extra}


@pytest.fixture(scope="module")
def oracle():
    """Each corpus document with jsonschema's errors on it, sorted as ``from_dict`` sorts."""
    validator = Draft202012Validator(CONFIG_SCHEMA)
    return [(doc, sorted(validator.iter_errors(doc), key=lambda e: str(e.path)))
            for doc in _corpus()]


class TestSchemaOracle:
    def test_problems_match_jsonschema_in_order(self, oracle):
        checked = broken = 0
        for doc, errors in oracle:
            want = [(".".join(str(p) for p in e.absolute_path) or "<document>", e.message)
                    for e in errors]
            if want:
                with pytest.raises(ConfigError) as err:
                    ExperimentConfig.from_dict(doc)
                assert err.value.problems == want, doc
                broken += 1
            else:
                # the schema passes, so only the cross-field checks may object
                try:
                    ExperimentConfig.from_dict(doc)
                except ConfigError as err:
                    assert err.problems == ExperimentConfig(doc)._cross_field_problems() != []
            checked += 1
        assert broken > 0.9 * checked > 1000

    def test_corpus_breaks_every_keyword(self, oracle):
        def keywords(schema):
            for key, arg in schema.items():
                if key not in ("$schema", "title", "properties", "items"):
                    yield key
                for sub in (arg.values() if key == "properties" else
                            [arg] if key == "items" else arg if key == "anyOf" else ()):
                    yield from keywords(sub)

        assert {e.validator for _, errors in oracle for e in errors} == set(keywords(CONFIG_SCHEMA))
        fields = {".".join(map(str, e.absolute_path)) for _, errors in oracle for e in errors}
        assert {"cutoff_list.0", "cutoff_list.1", "a.2", "f2.1", "h_grid.0"} <= fields


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("key, value, field", [
        ("T", float("nan"), "T"),
        ("sigma", float("inf"), "sigma"),
        ("sigma", float("nan"), "sigma"),
        ("sigma", [0.1, float("inf")], "sigma.1"),
        ("a", [float("nan")], "a.0"),
        ("f2", float("inf"), "f2"),
        ("h_grid", [0.1, float("nan")], "h_grid.1"),
        ("eps", -float("inf"), "eps"),
    ])
    def test_each_is_rejected_and_named(self, key, value, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(**{key: value}))
        bad = value[-1] if isinstance(value, list) else value
        assert err.value.problems == [(field, f"{bad!r} is not a finite number")]

    def test_reported_beside_the_schema_problems(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(N=float("nan"), bogus=float("inf")))
        assert err.value.problems == [
            ("N", "nan is not of type 'integer'"),
            ("N", "nan is not a multiple of 2"),
            ("N", "nan is not a finite number"),
            ("bogus", "inf is not a finite number"),
            ("<document>", "Additional properties are not allowed ('bogus' was unexpected)"),
        ]

    def test_literals_in_a_file_are_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(sigma=[0.1, 1e400], T=float("nan"))))
        assert "Infinity" in path.read_text() and "NaN" in path.read_text()
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(path)
        assert err.value.problems == [
            ("T", "nan is not a finite number"),
            ("sigma.1", "inf is not a finite number"),
        ]


class TestCrossFieldChecks:
    def test_band_containment(self):
        # cutoff = N/2 is rejected too: there the dealiased square halves the
        # Nyquist slots and the Wick square is not centred
        for cutoff in (9, 8):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict(_doc(cutoff=cutoff))
            assert err.value.fields == ["cutoff"]
        ExperimentConfig.from_dict(_doc(cutoff=7))

    def test_eps_window(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(eps=0.0625))
        assert "eps" in err.value.fields
        ExperimentConfig.from_dict(_doc(eps=0.0624, lam=0.02))

    def test_lam_window_depends_on_eps(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(eps=0.03, lam=0.011))
        assert err.value.fields == ["lam"]
        ExperimentConfig.from_dict(_doc(eps=0.03, lam=0.009))

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(dt=0.03))
        assert err.value.fields == ["dt"]

    def test_h_grid_must_increase(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(h_grid=[0.2, 0.1]))
        assert err.value.fields == ["h_grid"]

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(_doc(cutoff=9, eps=0.2, dt=0.03))
        assert set(err.value.fields) == {"cutoff", "eps", "dt"}


class TestDerivedObjects:
    def test_grid_timegrid_coeffs(self):
        cfg = ExperimentConfig.from_dict(_doc(f2=[0.1, 0.2], a=[-1.0, -0.5]))
        grid = cfg.grid()
        assert (grid.N, grid.dim) == (16, 2)
        tg = cfg.timegrid()
        assert (tg.T, tg.M) == (0.5, 20)
        co = cfg.coeffs()
        assert co.a(0.5) == -1.25
        assert co.f2(1.0) == pytest.approx(0.3)

    def test_replica_seed_bindings(self):
        cfg = ExperimentConfig.from_dict(_doc(replicas=3))
        assert cfg.replica_seeds() == [[11, 0], [11, 1], [11, 2]]

    def test_echo_roundtrips_through_validation(self):
        cfg = ExperimentConfig.from_dict(_doc(sigma=[0.1, 0.3], h_grid=[0.1, 0.2]))
        echo = cfg.to_dict()
        again = ExperimentConfig.from_dict(
            {k: v for k, v in echo.items() if v is not None}
        )
        assert again.to_dict() == echo

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc()))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.N == 16
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_json(path)

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc())[:-20])
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(path)
        ((field, message),) = err.value.problems
        assert field == "<document>"
        assert message.startswith("not valid JSON: ") and "line 1 column" in message
        path.write_bytes(b"\xff\xfe" + json.dumps(_doc()).encode())
        with pytest.raises(ConfigError, match="not valid JSON: 'utf-8' codec can't decode"):
            ExperimentConfig.from_json(path)


class TestRunManifest:
    def test_collect_digests_match_hashlib(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_doc(replicas=2))
        (tmp_path / "a.csv").write_bytes(b"h,p\n0.1,0.5\n")
        (tmp_path / "b.json").write_bytes(b"{}\n")
        man = RunManifest.collect(cfg, tmp_path, ["a.csv", "b.json"], 1.5, cfg.replica_seeds(),
                                  command="tail")
        for name in ("a.csv", "b.json"):
            want = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert man.outputs[name] == want
        assert man.seeds == [[11, 0], [11, 1]]
        assert man.command == "tail"

    def test_write_load_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_doc())
        (tmp_path / "x.bin").write_bytes(np.arange(4.0).tobytes())
        man = RunManifest.collect(cfg, tmp_path, ["x.bin"], 0.25, cfg.replica_seeds())
        man.workers = 2
        man.write(tmp_path / "manifest.json")
        back = RunManifest.load(tmp_path / "manifest.json")
        assert back.to_dict() == man.to_dict()

    def test_equality_ignores_wall_clock_and_workers_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_doc())
        (tmp_path / "x.csv").write_bytes(b"1\n")
        a = RunManifest.collect(cfg, tmp_path, ["x.csv"], 1.0, cfg.replica_seeds())
        b = RunManifest.collect(cfg, tmp_path, ["x.csv"], 9.0, cfg.replica_seeds())
        b.workers = 2
        assert a.equal_modulo_timing(b)
        (tmp_path / "x.csv").write_bytes(b"2\n")
        c = RunManifest.collect(cfg, tmp_path, ["x.csv"], 1.0, cfg.replica_seeds())
        assert not a.equal_modulo_timing(c)
