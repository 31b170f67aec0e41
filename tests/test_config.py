"""Configuration schema, cross-field validation and run manifests.

Digest oracle: SHA-256 recomputed directly with hashlib on the written
bytes.  Validation oracles are the published schema itself plus the
closed-form constraint windows (band strictly inside N/2, eps and lam
ranges, grid divisibility).
"""

import hashlib
import json

import numpy as np
import pytest

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


class TestRunManifest:
    def test_collect_digests_match_hashlib(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_doc(replicas=2))
        (tmp_path / "a.csv").write_bytes(b"h,p\n0.1,0.5\n")
        (tmp_path / "b.json").write_bytes(b"{}\n")
        man = RunManifest.collect(cfg, tmp_path, ["a.csv", "b.json"], 1.5, command="tail")
        for name in ("a.csv", "b.json"):
            want = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert man.outputs[name] == want
        assert man.seeds == [[11, 0], [11, 1]]
        assert man.command == "tail"

    def test_write_load_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_doc())
        (tmp_path / "x.bin").write_bytes(np.arange(4.0).tobytes())
        man = RunManifest.collect(cfg, tmp_path, ["x.bin"], 0.25)
        man.workers = 2
        man.write(tmp_path / "manifest.json")
        back = RunManifest.load(tmp_path / "manifest.json")
        assert back.to_dict() == man.to_dict()

    def test_equality_ignores_wall_clock_and_workers_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_doc())
        (tmp_path / "x.csv").write_bytes(b"1\n")
        a = RunManifest.collect(cfg, tmp_path, ["x.csv"], 1.0)
        b = RunManifest.collect(cfg, tmp_path, ["x.csv"], 9.0)
        b.workers = 2
        assert a.equal_modulo_timing(b)
        (tmp_path / "x.csv").write_bytes(b"2\n")
        c = RunManifest.collect(cfg, tmp_path, ["x.csv"], 1.0)
        assert not a.equal_modulo_timing(c)
