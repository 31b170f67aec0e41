"""Command line entry points: verify sweep, experiment commands, outputs.

Oracles: fresh-checkout verify must pass every check and a deliberately
widened partition block must fail the unity check; file outputs are
reproduced byte for byte across reruns; binary dumps round-trip through
numpy with the sidecar header; blow-up aborts with a diagnostic carrying
the time stamp.
"""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phi4lab
from phi4lab import cli, noise, solvers, symbols
from phi4lab.cli import (
    check_partition_unity,
    cmd_equivalence,
    cmd_renorm,
    cmd_simulate,
    cmd_symbols,
    cmd_tail,
    cmd_verify,
    main,
    write_field_bin,
)
from phi4lab.config import ConfigError, ExperimentConfig, RunManifest
from phi4lab.grids import TorusGrid
from phi4lab.noise import ROLE_MAIN, ROLE_RENORM, quartic_constant
from phi4lab.paley import DyadicPartition
from phi4lab.symbols import SYMBOL_NAMES
from test_noise import serial_quartic_constant


def _doc(**over):
    doc = {
        "dimension": 2,
        "N": 8,
        "cutoff": 3,
        "cutoff_list": [2, 3, 4],
        "T": 0.5,
        "dt": 0.0625,
        "sigma": [0.1, 0.2],
        "f2": 0.3,
        "a": -1.0,
        "eps": 0.05,
        "lam": 0.01,
        "replicas": 40,
        "h_grid": [0.08, 0.12, 0.16, 0.2, 0.24, 0.28],
        "master_seed": 7,
        "record_every": 2,
        "ctilde_replicas": 6,
        "label": "unit",
    }
    doc.update(over)
    return doc


def _cfg(**over):
    return ExperimentConfig.from_dict(_doc(**over))


class _WidenedPartition:
    """Fault injection: the base block bleeds into the first annulus."""

    def __init__(self, grid):
        self._part = DyadicPartition(grid)

    def weight_sum(self):
        return self._part.weight_sum() + 0.05 * self._part.weight(0)


class TestVerify:
    def test_fresh_checkout_passes_every_check(self, capsys):
        rc = main(["verify"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "partition_of_unity" in names
        assert "sigma_zero_degeneration" in names
        assert all(c["passed"] for c in report["checks"])
        by_name = {c["name"]: c["detail"] for c in report["checks"]}
        assert by_name["sigma_zero_degeneration"]["vw_bitwise"] is True
        assert by_name["route_equivalence_smoke"]["gap_refined"] <= 1e-8

    def test_widened_partition_fails_unity_check(self):
        grid = TorusGrid(16, 2)
        ok, detail = check_partition_unity(grid)
        assert ok and detail["max_deviation"] <= 1e-12
        bad_ok, bad_detail = check_partition_unity(grid, _WidenedPartition(grid))
        assert not bad_ok
        assert bad_detail["max_deviation"] > 1e-3

    def test_any_failing_check_gives_nonzero_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_VERIFY_CHECKS",
            (("always_fails", lambda: (False, {"reason": "injected"})),),
        )
        rc = main(["verify"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["passed"] is False

    def test_crashing_check_is_reported_not_raised(self, monkeypatch):
        def boom():
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cli, "_VERIFY_CHECKS", (("boom", boom),))
        report = cmd_verify()
        assert report["passed"] is False
        assert "ZeroDivisionError" in report["checks"][0]["detail"]["error"]


class TestConfigErrorsAtCli:
    def test_invalid_config_exits_two_with_named_fields(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_doc(cutoff=9, eps=0.2)))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["error"] == "config"
        assert set(err["fields"]) == {"cutoff", "eps"}

    def test_tail_without_h_grid_exits_two(self, tmp_path, capsys):
        doc = _doc()
        del doc["h_grid"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = main(["tail", "--config", str(path), "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert "h_grid" in err["fields"]

    @pytest.mark.parametrize("sigma", [[0.0, 0.5], 0.0, [0.5, 0.0]],
                             ids=["first-level", "scalar", "second-level"])
    def test_tail_with_a_zero_noise_level_exits_two_and_writes_nothing(self, tmp_path, capsys, sigma):
        # thresholds scale with sigma, so a zero level has no curve; the check
        # must come before the first level writes its files
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(sigma=sigma, replicas=5)))
        out = tmp_path / "out"
        rc = main(["tail", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["sigma"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sigma", [[0.1234567, 0.1234568], [0.5, 0.5]],
                             ids=["same-6-digits", "repeated"])
    def test_tail_with_levels_sharing_a_file_name_exits_two_and_writes_nothing(
            self, tmp_path, capsys, sigma):
        # each level writes tail_s<sigma:g>.*, so two levels equal to 6
        # significant digits would overwrite one curve with the other
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(sigma=sigma, replicas=5)))
        out = tmp_path / "out"
        rc = main(["tail", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["sigma"]
        assert "tail_s0p" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cutoffs", [None, [3], [3, 3]], ids=["default", "one", "repeated"])
    def test_renorm_with_fewer_than_two_cutoffs_exits_two_and_writes_nothing(
            self, tmp_path, capsys, cutoffs):
        # the fits of the constants against the cutoff need two distinct points
        doc = _doc(cutoff_list=cutoffs)
        if cutoffs is None:
            del doc["cutoff_list"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["renorm", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["cutoff_list"]
        assert list(out.iterdir()) == []

    def test_equivalence_with_a_zero_noise_level_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # at sigma = 0 the direct solution is zero and so is the route gap;
        # their ratio is 0/0, so the command refuses before computing anything
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(sigma=0.0, f2=0.5)))
        out = tmp_path / "out"
        rc = main(["equivalence", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["sigma"]
        assert list(out.iterdir()) == []

    def test_simulate_over_the_recording_budget_exits_two_before_the_monte_carlo(
            self, tmp_path, capsys, monkeypatch):
        # phi alone at 4001 times of a 32^3 grid needs ~1063 MiB, over the
        # 768 MiB recording budget; the refusal comes before c~ is computed
        def boom(*args, **kwargs):
            raise AssertionError("c~ computed")

        monkeypatch.setattr(cli, "quartic_constant", boom)
        doc = {"dimension": 3, "N": 32, "cutoff": 15, "T": 1.0, "dt": 0.00025, "sigma": 0.5,
               "ctilde_replicas": 1, "record_every": 1, "master_seed": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["record_every"]
        assert "phi: recorded path would need ~1063 MiB" in err["message"]
        assert list(out.iterdir()) == []

    def test_simulate_budget_counts_phi_alone(self, tmp_path, monkeypatch):
        # simulate records phi alone: at 1001 times of a 32^3 grid that is
        # ~266 MiB, under the budget that v, w and phi (~798 MiB) were over.
        # The budget check is the first thing simulate does, so stop there
        class Checked(Exception):
            pass

        asked = []

        def checked(tg, every, bytes_per_time):
            asked.append((noise._recorded_indices(tg, every, bytes_per_time), bytes_per_time))
            raise Checked

        monkeypatch.setattr(cli, "_recorded_indices", checked)
        doc = {"dimension": 3, "N": 32, "cutoff": 15, "T": 1.0, "dt": 0.001, "sigma": 0.5,
               "ctilde_replicas": 1, "record_every": 1, "master_seed": 1}
        with pytest.raises(Checked):
            cmd_simulate(ExperimentConfig.from_dict(doc), tmp_path)
        [(idx, per_time)] = asked
        assert len(idx) == 1001
        assert per_time == 16 * 32 * 32 * 17
        assert round(len(idx) * per_time / 2**20) == 266

    # 900 steps of a 1-D N = 8 run: 404550 products of at least 4010 points
    # each, 1.62e9 in all, over the 1.5e9 budget of the quartic constant
    _OVER_THE_CONSTANT_BUDGET = {"dimension": 1, "N": 8, "cutoff": 3, "cutoff_list": [2, 3],
                                 "T": 0.5, "dt": 0.5 / 900, "sigma": 0.1, "master_seed": 1,
                                 "record_every": 900, "replicas": 4, "h_grid": [0.05, 0.1]}

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", ["simulate", "symbols", "renorm", "equivalence"])
    def test_a_quartic_constant_over_the_budget_exits_two_before_any_row(
            self, tmp_path, capsys, monkeypatch, command, cpus):
        # the count reads the grid and the step count alone, so the refusal
        # is the same at any worker count, and it comes before any row runs
        def boom(*args, **kwargs):
            raise AssertionError("a replica loop ran")

        for module in (noise, cli, solvers):
            monkeypatch.setattr(module, "replicate", boom)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._OVER_THE_CONSTANT_BUDGET))
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["dt"]
        assert "c~: the quartic constant's sum over 900 steps" in err["message"]
        assert list(out.iterdir()) == []

    def test_tail_runs_over_the_quartic_constant_budget(self, tmp_path):
        # tail subtracts no quartic constant, so the budget does not bound it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._OVER_THE_CONSTANT_BUDGET))
        assert main(["tail", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_override_outside_the_schema_exits_two_and_writes_nothing(
            self, tmp_path, capsys, seed):
        # --seed enters the document before validation, so a seed the schema
        # rejects is named like one written in the file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc()))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out), "--seed", seed])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["master_seed"]
        assert not out.exists()

    @pytest.mark.parametrize("over, fields", [
        ({"T": float("nan")}, ["T"]),
        ({"sigma": float("inf")}, ["sigma"]),
        ({"sigma": [0.1, float("inf")], "a": [float("nan")]}, ["a.0", "sigma.1"]),
    ])
    def test_non_finite_number_exits_two_and_writes_nothing(self, tmp_path, capsys, over,
                                                           fields):
        # json reads NaN and Infinity; T = NaN once crashed in the cross-field
        # checks and sigma = Infinity ran into a blow-up
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(**over)))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["error"] == "config"
        assert err["fields"] == fields
        assert "is not a finite number" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_two_and_writes_nothing(self, tmp_path, capsys, target):
        # open() raised FileNotFoundError / IsADirectoryError through main once
        path = tmp_path / target
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["error"] == "config"
        assert err["fields"] == ["<document>"]
        assert f"cannot read {path}: " in err["message"]
        assert not out.exists()

    def test_malformed_json_exits_two_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(), indent=1)[:-30])
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["fields"] == ["<document>"]
        assert "not valid JSON: " in err["message"] and " column " in err["message"]
        assert not out.exists()

    def test_threads_flag_is_gone(self, capsys):
        # tail_estimate runs its replicas on one process per CPU the process may
        # use, read from its CPU affinity, so there is no pool size to set
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["tail", "--config", "c.json", "--threads", "2"])
        assert "--threads" in capsys.readouterr().err


class TestFieldDump:
    def test_roundtrip_with_sidecar(self, tmp_path):
        values = np.arange(24.0).reshape(4, 6) + 0.5
        write_field_bin(tmp_path / "f.f64", values, {"field": "demo"})
        head = json.loads((tmp_path / "f.f64.json").read_text())
        assert head["dtype"] == "<f8"
        assert head["shape"] == [4, 6]
        assert head["field"] == "demo"
        back = np.fromfile(tmp_path / "f.f64", dtype="<f8").reshape(head["shape"])
        assert np.array_equal(back, values)


class TestTailCommand:
    def test_reproducible_across_runs_and_pool_sizes(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        out1.mkdir()
        out2.mkdir()
        cmd_tail(_cfg(), out1)
        cmd_tail(_cfg(), out2)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            if name == "manifest.json":
                a = RunManifest.load(out1 / name)
                b = RunManifest.load(out2 / name)
                assert a.equal_modulo_timing(b)
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_count_enters_no_output(self, tmp_path, monkeypatch):
        # the manifest records how many processes ran the replicas, and
        # equal_modulo_timing leaves that out, as it leaves out the wall clock
        manifests = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"w{cpus}"
            out.mkdir()
            cmd_tail(_cfg(replicas=9), out)
            manifests.append(RunManifest.load(out / "manifest.json"))
        assert [m.workers for m in manifests] == [1, 2]
        assert manifests[0].equal_modulo_timing(manifests[1])
        assert manifests[0].outputs == manifests[1].outputs

    def test_blow_up_in_a_worker_exits_three(self, tmp_path, monkeypatch, capsys):
        def blowing_up(*args):
            def statistic(replica, seed):
                if replica == 1:  # the child's first replica
                    raise RuntimeError(f"blow-up at replica {replica}")
                return 0.0

            return statistic

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "linear_sup_statistic", blowing_up)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(replicas=4)))
        assert main(["tail", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "blow-up"
        assert err["message"] == "blow-up at replica 1"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_output_directory_enters_no_output(self, tmp_path, capsys):
        # one config and seed written to two directories: the level reports
        # are byte-equal and the manifests differ only in their wall clock
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(replicas=20)))
        out1, out2 = tmp_path / "a", tmp_path / "elsewhere" / "b"
        assert main(["tail", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["tail", "--config", str(path), "--out", str(out2)]) == 0
        capsys.readouterr()
        for name in ("tail_s0p1.json", "tail_s0p2.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        a = RunManifest.load(out1 / "manifest.json")
        assert a.equal_modulo_timing(RunManifest.load(out2 / "manifest.json"))

    def test_report_and_files(self, tmp_path):
        cfg = _cfg()
        report = cmd_tail(cfg, tmp_path)
        assert [lv["sigma"] for lv in report["levels"]] == [0.1, 0.2]
        assert (tmp_path / "tail_s0p1.csv").exists()
        assert (tmp_path / "tail_s0p2.csv").exists()
        man = RunManifest.load(tmp_path / "manifest.json")
        for name, digest in man.outputs.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest
        # thresholds for the second level are scaled with sigma
        with open(tmp_path / "tail_s0p2.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert float(rows[0][0]) == pytest.approx(0.16)
        # each level's fit is the one its own file records
        for level in report["levels"]:
            doc = json.loads((tmp_path / level["curve_csv"]).with_suffix(".json").read_text())
            assert doc["fit"] == level["fit"]

    def test_manifest_lists_the_seeds_of_every_level(self, tmp_path):
        cmd_tail(_cfg(replicas=5), tmp_path)
        man = RunManifest.load(tmp_path / "manifest.json")
        assert man.seeds == [[seed, ROLE_MAIN, r] for seed in (7, 8) for r in range(5)]

    def test_levels_share_one_step_kernel(self, tmp_path, monkeypatch):
        # a kernel depends on the grid, time grid and damping alone, so with
        # polynomial damping each step's variance quadrature runs once for
        # the whole command, not once per noise level
        calls = []
        quad = noise._damped_kernel_integral

        def counting(*args):
            calls.append(args[2])
            return quad(*args)

        monkeypatch.setattr(noise, "_damped_kernel_integral", counting)
        noise._cached_kernel.cache_clear()  # no rows kept from an earlier test
        cfg = _cfg(a=[-1.0, 0.5], replicas=3)
        assert len(cfg.sigmas) == 2
        cmd_tail(cfg, tmp_path)
        assert sorted(calls) == sorted(cfg.timegrid().ts[1:])

    def test_seed_override_changes_outputs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_doc(replicas=20)))
        out1, out2 = tmp_path / "s7", tmp_path / "s8"
        assert main(["tail", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["tail", "--config", str(path), "--out", str(out2), "--seed", "8"]) == 0
        capsys.readouterr()
        a = (out1 / "tail_s0p1.csv").read_bytes()
        b = (out2 / "tail_s0p1.csv").read_bytes()
        assert a != b
        assert RunManifest.load(out2 / "manifest.json").config["master_seed"] == 8


class TestExperimentCommands:
    def test_symbols_table_and_dump(self, tmp_path):
        cfg = _cfg()
        report = cmd_symbols(cfg, tmp_path)
        with open(tmp_path / "symbols.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time"] + list(SYMBOL_NAMES)
        assert len(rows) - 1 == report["rows"] == 5
        norms = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.all(np.isfinite(norms)) and np.all(norms >= 0.0)
        head = json.loads((tmp_path / "ww_final.f64.json").read_text())
        assert head["shape"] == [8, 8]
        field = np.fromfile(tmp_path / "ww_final.f64", dtype="<f8")
        assert field.size == 64 and np.all(np.isfinite(field))

    def test_renorm_table_and_fits(self, tmp_path):
        cfg = _cfg(replicas=8)
        report = cmd_renorm(cfg, tmp_path)
        with open(tmp_path / "renorm.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "c_n", "ctilde_n", "ctilde_mc", "ctilde_se"]
        ns = [int(r[0]) for r in rows[1:]]
        cs = [float(r[1]) for r in rows[1:]]
        assert ns == [2, 3, 4]
        # ctilde_n is the exact constant at mid-horizon, the column the fit reads
        for n, row in zip(ns, report["rows"]):
            ct = quartic_constant(TorusGrid(2 * n + 2, 2), cfg.timegrid(), n, cfg.coeffs(), sigma=0.1)
            assert row["ctilde"] == float(np.interp(0.25, cfg.timegrid().ts, ct))
        assert report["ctilde_fit_vs_log_n"] == cli._linear_fit(
            np.log(ns), [row["ctilde"] for row in report["rows"]])
        # more modes in the band, more variance: the quadratic constant grows
        assert cs == sorted(cs)
        assert set(report["c_fit_vs_n"]) == {"slope", "intercept", "r_squared"}
        assert report["c_fit_vs_n"]["slope"] > 0.0
        # the constants are estimated on the command's own 8-step grid
        # (dt = 0.0625), so dt * L_max = 0.0625 * 4 pi^2 * 2 * n^2
        dl = [row["dt_L_max"] for row in report["rows"]]
        assert np.allclose(dl, [0.0625 * 8.0 * np.pi**2 * n**2 for n in ns], rtol=1e-14)

    def test_renorm_runs_on_the_runs_own_grid(self, tmp_path):
        # at 80 steps each cutoff's constant is summed on those 80 steps and
        # read at T/2, and dt * L_max takes the run's dt
        cfg = _cfg(dt=0.5 / 80, cutoff_list=[2, 3], ctilde_replicas=2)
        tg = cfg.timegrid()
        assert tg.M == 80
        report = cmd_renorm(cfg, tmp_path)
        for n, row in zip((2, 3), report["rows"]):
            ct = quartic_constant(TorusGrid(2 * n + 2, 2), tg, n, cfg.coeffs(), sigma=0.1)
            assert row["ctilde"] == float(np.interp(0.25, tg.ts, ct)) == ct[40]
            assert row["dt_L_max"] == (0.5 / 80) * 4.0 * np.pi**2 * 2 * n**2

    def test_renorm_reads_ctilde_replicas(self, tmp_path):
        # ctilde_replicas sizes the Monte Carlo cross-check and nothing else:
        # the count is echoed, the tail replica count does not enter, and the
        # exact constant does not move with it.  With the default of 24 every
        # row has a positive standard error (one replica would give zero)
        doc = _doc(replicas=1)
        del doc["ctilde_replicas"]
        for sub in ("one", "forty", "single"):
            (tmp_path / sub).mkdir()
        report = cmd_renorm(ExperimentConfig.from_dict(doc), tmp_path / "one")
        assert report["ctilde_replicas"] == 24
        assert all(row["ctilde_se"] > 0.0 for row in report["rows"])
        other = cmd_renorm(ExperimentConfig.from_dict({**doc, "replicas": 40}), tmp_path / "forty")
        assert other["rows"] == report["rows"]
        single = cmd_renorm(ExperimentConfig.from_dict({**doc, "ctilde_replicas": 1}),
                            tmp_path / "single")
        assert [r["ctilde"] for r in single["rows"]] == [r["ctilde"] for r in report["rows"]]
        assert [r["ctilde_mc"] for r in single["rows"]] != [r["ctilde_mc"] for r in report["rows"]]
        assert all(row["ctilde_se"] == 0.0 for row in single["rows"])

    def test_renorm_worker_count_enters_no_output(self, tmp_path, monkeypatch):
        # the manifest records how many processes ran the Monte Carlo
        # cross-check, and equal_modulo_timing leaves that out
        manifests = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"w{cpus}"
            out.mkdir()
            cmd_renorm(_cfg(), out)
            manifests.append(RunManifest.load(out / "manifest.json"))
        assert [m.workers for m in manifests] == [1, 2]
        assert manifests[0].equal_modulo_timing(manifests[1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_renorm_records_the_larger_of_its_replica_loops(self, tmp_path, monkeypatch):
        # one Monte Carlo replica runs on one process, while the 7 rows of
        # each quartic constant run on both CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cmd_renorm(_cfg(ctilde_replicas=1), tmp_path)
        assert RunManifest.load(tmp_path / "manifest.json").workers == 2

    def test_simulate_outputs(self, tmp_path):
        cfg = _cfg(sigma=0.05)
        report = cmd_simulate(cfg, tmp_path)
        assert np.isfinite(report["final_sup"])
        with open(tmp_path / "norms.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "rms", "sup"]
        assert len(rows) - 1 == report["recorded_times"] == 5
        sups = [float(r[2]) for r in rows[1:]]
        assert report["final_sup"] == pytest.approx(sups[-1], rel=1e-11)
        assert report["max_sup"] == pytest.approx(max(sups), rel=1e-11)
        head = json.loads((tmp_path / "phi_final.f64.json").read_text())
        assert head["field"] == "phi" and head["time"] == 0.5

    def test_simulate_hands_the_symbols_the_constant_on_its_own_grid(self, tmp_path, monkeypatch):
        # at M = 80 the run's constant is the exact sum on its 80 steps, and
        # the symbol stepper of the v/w route gets exactly it
        seen = []

        class Recording(symbols.SymbolStepper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.ctilde)

        monkeypatch.setattr(solvers, "SymbolStepper", Recording)
        cfg = _cfg(dt=0.5 / 80, record_every=80)
        tg = cfg.timegrid()
        assert tg.M == 80
        cmd_simulate(cfg, tmp_path)
        want = serial_quartic_constant(cfg.grid(), cfg.T, 80, cfg.cutoff, cfg.coeffs(),
                                       sigma=cfg.sigmas[0])
        assert len(seen) == 1 and np.array_equal(seen[0], want)

    @pytest.mark.parametrize("command,seeds", [
        (cmd_symbols, [[7, ROLE_MAIN, 0]]),
        (cmd_simulate, [[7, ROLE_MAIN, 0]]),
        (cmd_equivalence, [[7, ROLE_MAIN, 0]]),
        (cmd_renorm, [[7, ROLE_RENORM, r] for r in range(4)]),
        (cmd_tail, [[7, ROLE_MAIN, r] for r in range(3)] + [[8, ROLE_MAIN, r] for r in range(3)]),
    ], ids=["symbols", "simulate", "equivalence", "renorm", "tail"])
    def test_manifest_lists_the_streams_the_command_drew(self, tmp_path, command, seeds):
        # replicas sizes tail alone and ctilde_replicas renorm's Monte Carlo
        # alone; the other commands draw replica 0 of master_seed
        command(_cfg(replicas=3, ctilde_replicas=4), tmp_path)
        assert RunManifest.load(tmp_path / "manifest.json").seeds == seeds

    def test_manifest_seeds_name_the_role_of_the_stream(self, tmp_path):
        # renorm's Monte Carlo replica 0 and simulate's path are different
        # noise of one master seed, so their entries differ
        entries = {}
        for command in (cmd_renorm, cmd_simulate):
            out = tmp_path / command.__name__
            out.mkdir()
            command(_cfg(sigma=0.05, ctilde_replicas=2), out)
            seeds = RunManifest.load(out / "manifest.json").seeds
            entries[command] = next(s for s in seeds if s[-1] == 0)
        assert entries[cmd_renorm][0] == entries[cmd_simulate][0] == 7
        assert entries[cmd_renorm] != entries[cmd_simulate]

    @pytest.mark.parametrize("command", [cmd_simulate, cmd_symbols], ids=["simulate", "symbols"])
    @pytest.mark.parametrize("steps,cpus,workers", [(8, 1, 1), (8, 2, 2), (2, 2, 1)])
    def test_manifest_records_the_processes_of_the_quartic_constant(
            self, tmp_path, monkeypatch, command, steps, cpus, workers):
        # the constant's M - 1 rows are the one replica loop these commands
        # run: two processes on two CPUs, one when there is a single row
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        command(_cfg(sigma=0.05, dt=0.5 / steps, record_every=steps), tmp_path)
        assert RunManifest.load(tmp_path / "manifest.json").workers == workers
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", [cmd_simulate, cmd_symbols, cmd_equivalence],
                             ids=["simulate", "symbols", "equivalence"])
    def test_outputs_do_not_depend_on_ctilde_replicas(self, tmp_path, command):
        # the quartic constant is exact, so only renorm's Monte Carlo
        # cross-check reads the replica count
        digests = []
        for reps in (1, 24):
            out = tmp_path / str(reps)
            out.mkdir()
            command(_cfg(sigma=0.05, ctilde_replicas=reps), out)
            digests.append(RunManifest.load(out / "manifest.json").outputs)
        assert digests[0] and digests[0] == digests[1]

    def test_equivalence_report_written(self, tmp_path):
        cfg = _cfg(dt=0.05, ctilde_replicas=4)
        report = cmd_equivalence(cfg, tmp_path)
        assert {"gap", "dt", "gap_refined"} <= set(report)
        doc = json.loads((tmp_path / "equivalence.json").read_text())
        assert doc["gap"] == report["gap"]

    def test_equivalence_draws_each_increment_twice(self, tmp_path, monkeypatch):
        # the coarse and the fine pass each draw every fine increment once: the
        # direct and v/w routes step one realization in lockstep and share the
        # increment it keeps.  Drawing on every call writes the same file.
        # One CPU: both passes run in this process, where the count sees them
        draws = []
        draw = noise.NoiseRealization._draw

        def counting(nz, j):
            draws.append((nz.seed, nz.role, nz.replica, j))
            return draw(nz, j)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(noise.NoiseRealization, "_draw", counting)
        cfg = _cfg(dt=0.05)
        kept, every, two = tmp_path / "kept", tmp_path / "every", tmp_path / "two"
        for out in (kept, every, two):
            out.mkdir()
        cmd_equivalence(cfg, kept)
        assert len(set(draws)) == 2 * cfg.steps
        assert len(draws) == 4 * cfg.steps
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cmd_equivalence(cfg, two)
        assert (kept / "equivalence.json").read_bytes() == (two / "equivalence.json").read_bytes()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        draws.clear()
        monkeypatch.setattr(noise._Increments, "increment", lambda nz, j: nz._draw(j))
        cmd_equivalence(cfg, every)
        assert len(draws) == 8 * cfg.steps
        assert (kept / "equivalence.json").read_bytes() == (every / "equivalence.json").read_bytes()

    def test_equivalence_worker_count_enters_no_output(self, tmp_path, monkeypatch):
        # the manifest records how many processes ran the passes, and
        # equal_modulo_timing leaves that out
        manifests = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"w{cpus}"
            out.mkdir()
            cmd_equivalence(_cfg(dt=0.05), out)
            manifests.append(RunManifest.load(out / "manifest.json"))
        assert [m.workers for m in manifests] == [1, 2]
        assert manifests[0].equal_modulo_timing(manifests[1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_equivalence_blow_up_exits_three_at_any_worker_count(self, tmp_path, monkeypatch,
                                                                 capsys):
        # the coarse pass (task 0) and the fine pass both blow up; the coarse
        # pass's error is raised, as the serial loop meets it first
        doc = {"dimension": 1, "N": 8, "cutoff": 3, "T": 1.0, "dt": 0.05,
               "sigma": 0.4, "a": 14.0, "master_seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        messages, errors = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            with pytest.raises(RuntimeError, match="blow-up") as exc:
                cmd_equivalence(ExperimentConfig.from_dict(doc), tmp_path / f"lib{cpus}")
            messages.append(str(exc.value))
            assert main(["equivalence", "--config", str(path),
                         "--out", str(tmp_path / f"cli{cpus}")]) == 3
            errors.append(json.loads(capsys.readouterr().err))
        assert messages[0] == messages[1]
        assert messages[0].endswith("at t = 0.450000 (step 9)")  # dt = 0.05: the coarse pass
        assert errors[0] == errors[1]
        assert errors[0]["error"] == "blow-up" and errors[0]["message"] == messages[0]

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_quartic_constant_exits_three_at_any_worker_count(
            self, tmp_path, monkeypatch, capsys):
        # a(t) = 800 overflows the covariance of the Isserlis sum: its row
        # reports a blow-up, the lowest row first, instead of an unnamed
        # non-finite value
        doc = {"dimension": 1, "N": 8, "cutoff": 3, "T": 1.0, "dt": 0.05,
               "sigma": 0.4, "a": 800.0, "master_seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            for command in ("equivalence", "simulate"):
                assert main([command, "--config", str(path),
                             "--out", str(tmp_path / f"{command}{cpus}")]) == 3
                err = json.loads(capsys.readouterr().err)
                assert err["error"] == "blow-up"
                messages.append(err["message"])
        assert messages == [messages[0]] * 4
        assert messages[0].startswith("blow-up: the quartic constant is inf at t = ")

    def test_blowup_diagnostic(self, tmp_path, capsys):
        doc = {
            "dimension": 1, "N": 8, "cutoff": 3, "T": 1.0, "dt": 0.05,
            "sigma": 0.4, "a": 14.0, "master_seed": 3, "ctilde_replicas": 4,
        }
        cfg = ExperimentConfig.from_dict(doc)
        with pytest.raises(RuntimeError, match="blow-up"):
            cmd_simulate(cfg, tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        err = json.loads(capsys.readouterr().err)
        assert rc == 3
        assert err["error"] == "blow-up"
        assert "at t =" in err["message"]
        assert err["config"]["a"] == [14.0]

    def test_tail_needs_h_grid_even_without_cli(self, tmp_path):
        cfg = _cfg()
        cfg.h_grid = None
        with pytest.raises(ConfigError, match="h_grid"):
            cmd_tail(cfg, tmp_path)


# test oracles only: no command may load any module of these packages
_TEST_ONLY = ("scipy", "jsonschema", "referencing", "attrs", "rpds")


def _loaded_test_only_modules(code):
    """Modules of ``_TEST_ONLY`` that ``code`` loads beyond a bare ``python -c`` start.

    ``code`` runs in a fresh interpreter, which then prints its
    ``sys.modules``.  A module that site start-up already loads (a ``.pth``
    file may import packages) is not counted.
    """
    listing = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    runs = [subprocess.run([sys.executable, "-c", text], capture_output=True, text=True,
                           timeout=300) for text in (listing, code + "\n" + listing)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    bare, after = (set(json.loads(proc.stdout.strip().splitlines()[-1])) for proc in runs)
    return sorted(m for m in after - bare if m.split(".")[0] in _TEST_ONLY)


def test_the_import_check_sees_a_test_only_package():
    assert "jsonschema" in _loaded_test_only_modules("import jsonschema")


def test_benchmark_trace_wraps_every_layer_it_names():
    """The benchmark's trace mode wraps functions of the package by name, so a
    renamed layer must fail here, not in a traced benchmark run."""
    root = Path(__file__).resolve().parents[1]
    code = f"""
import sys
sys.path[:0] = [{str(root / "perfbench")!r}, {str(root / "src")!r}]
import phi4lab.cli
import spans
spans.install(spans.Tracer())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def _perfbench_module(name):
    """``perfbench/<name>.py`` loaded under a name of its own, so it shadows no module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,shrink", [
    ("simulate-3d", {"N": 8, "cutoff": 3}),
    ("equivalence-2d", {"N": 16, "cutoff": 7, "dt": 0.05}),
], ids=["simulate", "equivalence"])
def test_benchmark_checks_pass_on_shrunken_workloads(tmp_path, workload, shrink):
    """The benchmark checks each workload's outputs with its own code, which
    re-solves simulate through the package's API (``solve_renormalized``,
    ``quartic_renorm_mc``, ``TimeGrid``): a change to that API must fail here,
    not in a benchmark run.  The workloads run at a smaller grid."""
    run, checks = _perfbench_module("run"), _perfbench_module("checks")
    command, _ = run.WORKLOADS[workload]
    doc = {**run.config_doc(workload, 17), **shrink}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    checks.manifest_digests(out, run.output_files(command, doc))
    checks.CHECKS[command](doc, out)


def test_commands_run_without_scipy(tmp_path):
    """scipy and jsonschema are test oracles only: no command imports any of
    them, or jsonschema's dependencies."""
    path = tmp_path / "cfg.json"
    # polynomial damping, so the Gauss-Legendre variance rows are built too
    path.write_text(json.dumps(_doc(a=[-1.0, 0.5], replicas=10)))
    src = str(Path(phi4lab.__file__).resolve().parents[1])
    code = f"""
import json, sys
sys.path.insert(0, {src!r})
import phi4lab.cli as cli
for command in ("verify", "simulate", "equivalence", "tail", "symbols", "renorm"):
    argv = [command]
    if command != "verify":
        argv += ["--config", {str(path)!r}, "--out", {str(tmp_path)!r} + "/" + command]
    assert cli.main(argv) == 0, command
"""
    assert _loaded_test_only_modules(code) == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU in the affinity mask")
def test_simulate_writes_the_same_files_on_one_cpu_and_on_all(tmp_path):
    """A 32^3 ``simulate`` writes the same files whether the process is pinned
    to one CPU or may run on all of them: outputs do not depend on the
    affinity mask."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_doc(dimension=3, N=32, cutoff=15, T=0.02, dt=0.01, sigma=0.5,
                                    record_every=1)))
    src = str(Path(phi4lab.__file__).resolve().parents[1])
    cpu = min(os.sched_getaffinity(0))
    digests = []
    for pinned in (True, False):
        out = tmp_path / ("pinned" if pinned else "free")
        code = f"""
import os, sys
sys.path.insert(0, {src!r})
if {pinned}:
    os.sched_setaffinity(0, {{{cpu}}})
    assert os.sched_getaffinity(0) == {{{cpu}}}
import phi4lab.cli as cli
sys.exit(cli.main(["simulate", "--config", {str(path)!r}, "--out", {str(out)!r}]))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(RunManifest.load(out / "manifest.json").outputs)
    assert digests[0] and digests[0] == digests[1]
