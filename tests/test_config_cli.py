"""Strict config parsing and the in-process command line surface."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cnlab import cli, config, littlewood_paley, solver
from cnlab.cli import main as cli_main
from cnlab.config import (ConfigError, load_json, monitor_options_from_dict,
                          solver_config_from_dict, verify_config_from_dict)
from cnlab.fields import linf, lp_norm
from cnlab.grid import Grid
from cnlab.littlewood_paley import besov_norm, besov_norm_states, block, build_partition
from cnlab.monitor import CSV_COLUMNS, read_monitor_csv, write_monitor_csv
from cnlab.semigroup import TimeGrid, heat
from cnlab.snapshots import read_snapshot, write_snapshot
from cnlab.solver import (EtdrkOptions, PicardOptions, ProfileSpec, SolverConfig,
                          etdrk4_rows, kato_smallness, make_profile)
from cnlab.verification import CHECKS, SIZE_KEYS, VerificationReport, run_checks


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


TG_SIM = {"dim": 2, "res": 16, "nu": 1.0, "horizon": 0.5,
          "picard": {"node_count": 8},
          "etdrk4": {"dt": 0.05},
          "profile": {"kind": "taylor_green_2d"}}


class TestLoadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_json(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_json(p)

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_json(p)


class TestSolverConfigFromDict:
    def test_happy_path(self):
        cfg = solver_config_from_dict({
            "dim": 3, "res": 16, "nu": 0.5, "horizon": 0.25, "cross_tol": 1e-5,
            "picard": {"node_count": 12, "grading": "graded"},
            "etdrk4": {"dt": 0.01},
            "profile": {"kind": "random_divfree", "amplitude": 0.2, "seed": 4,
                        "band": [1, 4]},
        })
        assert (cfg.dim, cfg.res, cfg.nu, cfg.horizon) == (3, 16, 0.5, 0.25)
        assert cfg.picard.node_count == 12
        assert cfg.etdrk4.dt == 0.01
        assert cfg.profile.band == (1, 4) and isinstance(cfg.profile.band, tuple)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            solver_config_from_dict({"dim": 2, "res": 16, "viscosity": 1.0})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="picard"):
            solver_config_from_dict({"dim": 2, "res": 16,
                                     "picard": {"contraction_toll": 1e-8}})

    def test_invalid_dim(self):
        with pytest.raises(ConfigError):
            solver_config_from_dict({"dim": 4, "res": 16})

    def test_invalid_nu(self):
        with pytest.raises(ConfigError):
            solver_config_from_dict({"dim": 2, "res": 16, "nu": -1.0})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_dealias_must_be_a_boolean(self, value):
        # the string "false" is truthy: it once ran dealiased and echoed "false"
        with pytest.raises(ConfigError, match="dealias"):
            solver_config_from_dict({"dim": 2, "res": 16, "dealias": value})

    @pytest.mark.parametrize("block, key, value", [
        (None, "dim", True), (None, "dim", 2.0), (None, "res", 16.0), (None, "res", True),
        ("picard", "max_iters", True), ("picard", "max_iters", 2.5),
        ("picard", "node_count", 8.5), ("picard", "node_count", False),
        ("profile", "seed", True), ("profile", "seed", 1.0)])
    def test_integer_keys_reject_floats_and_booleans(self, block, key, value):
        data = {"dim": 2, "res": 16}
        if block is None:
            data[key] = value
        else:
            data[block] = {key: value}
        with pytest.raises(ConfigError, match=key):
            solver_config_from_dict(data)

    @pytest.mark.parametrize("block, key", [
        (None, "nu"), (None, "horizon"), (None, "cross_tol"), ("etdrk4", "dt"),
        ("picard", "contraction_tol"), ("picard", "grading_power"),
        ("profile", "amplitude"), ("profile", "slope")])
    @pytest.mark.parametrize("value", ["0.5", True, False])
    def test_number_keys_reject_strings_and_booleans(self, block, key, value):
        data = {"dim": 2, "res": 16}
        if block is None:
            data[key] = value
        else:
            data[block] = {key: value}
        with pytest.raises(ConfigError, match=key):
            solver_config_from_dict(data)

    def test_number_keys_take_integers_and_dt_takes_null(self):
        cfg = solver_config_from_dict({"dim": 2, "res": 16, "nu": 1, "horizon": 2,
                                       "etdrk4": {"dt": None},
                                       "profile": {"amplitude": 3, "slope": 1}})
        assert (cfg.nu, cfg.horizon, cfg.etdrk4.dt, cfg.profile.amplitude) == (1, 2, None, 3)
        with pytest.raises(ConfigError, match="nu"):
            solver_config_from_dict({"dim": 2, "res": 16, "nu": None})

    @pytest.mark.parametrize("grading", ["gradded", "Graded", "", None])
    def test_unknown_grading_is_rejected(self, grading):
        # a typo once ran a uniform grid and echoed itself into report.json
        with pytest.raises(ConfigError, match="grading"):
            solver_config_from_dict({"dim": 2, "res": 16, "picard": {"grading": grading}})

    def test_removed_epsilon_n_probe_key(self):
        # the report-only threshold nothing read is gone; old configs fail loudly
        with pytest.raises(ConfigError, match="epsilon_n_probe"):
            solver_config_from_dict({"dim": 2, "res": 16, "epsilon_n_probe": 0.25})


class TestMonitorOptionsFromDict:
    def test_defaults(self):
        opts = monitor_options_from_dict(None)
        assert opts == {"p_list": (), "kato_horizon": "default", "cutoff": "sharp"}

    def test_values(self):
        opts = monitor_options_from_dict({"p_list": [4, 6], "kato_horizon": 0.5,
                                          "cutoff": "smooth"})
        assert opts["p_list"] == (4, 6)
        assert opts["kato_horizon"] == 0.5 and opts["cutoff"] == "smooth"

    def test_bad_cutoff(self):
        with pytest.raises(ConfigError):
            monitor_options_from_dict({"cutoff": "fuzzy"})

    def test_bad_kato_horizon(self):
        with pytest.raises(ConfigError):
            monitor_options_from_dict({"kato_horizon": "sometimes"})

    @pytest.mark.parametrize("value", [True, False])
    def test_kato_horizon_is_not_a_boolean(self, value):
        with pytest.raises(ConfigError, match="kato_horizon"):
            monitor_options_from_dict({"kato_horizon": value})

    def test_bad_p_entry(self):
        with pytest.raises(ConfigError):
            monitor_options_from_dict({"p_list": [0.5]})

    @pytest.mark.parametrize("p_list", [4, [True], ["4"]])
    def test_p_list_is_a_list_of_numbers(self, p_list):
        with pytest.raises(ConfigError, match="p_list"):
            monitor_options_from_dict({"p_list": p_list})


class TestVerifyConfigFromDict:
    def test_defaults_cover_all_checks(self):
        checks, seed, sizes = verify_config_from_dict({})
        assert checks == list(CHECKS) and seed == 0 and sizes == {}

    def test_explicit(self):
        checks, seed, sizes = verify_config_from_dict(
            {"checks": ["embedding"], "seed": 7,
             "sizes": {"embedding": {"trials": 5}}})
        assert checks == ["embedding"] and seed == 7
        assert sizes == {"embedding": {"trials": 5}}

    def test_unknown_check(self):
        with pytest.raises(ConfigError):
            verify_config_from_dict({"checks": ["bogus"]})

    def test_bad_seed(self):
        with pytest.raises(ConfigError):
            verify_config_from_dict({"seed": "seven"})

    def test_boolean_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            verify_config_from_dict({"seed": True})

    def test_sizes_validation(self):
        with pytest.raises(ConfigError):
            verify_config_from_dict({"sizes": {"bogus": {}}})
        with pytest.raises(ConfigError):
            verify_config_from_dict({"sizes": {"embedding": {"resolution": 16}}})

    @pytest.mark.parametrize("check, key, value", [
        ("embedding", "trials", "5"), ("embedding", "trials", True), ("paraproduct", "trials", 10.0),
        ("smoothing", "res", 32.0), ("smoothing", "nodes", "8"), ("embedding", "dim", True),
        ("bony_identity", "pairs", 6.5),
        ("embedding", "res_list", 32), ("embedding", "res_list", [32.0]),
        ("composite_bound", "res_list", [True]), ("bony_identity", "dims", 2),
        ("bony_identity", "dims", [2, "3"]),
        ("smoothing", "T_list", 0.5), ("smoothing", "T_list", [0.5, False]),
        ("paraproduct", "s_list", 1.5), ("paraproduct", "s_list", ["1.5"])])
    def test_size_values_have_their_types(self, check, key, value):
        with pytest.raises(ConfigError, match=f"sizes.{check}.{key}"):
            verify_config_from_dict({"checks": [check], "sizes": {check: {key: value}}})

    def test_size_lists_take_integers_as_numbers(self):
        sizes = {"smoothing": {"T_list": [1, 0.5]}, "paraproduct": {"s_list": [2]}}
        assert verify_config_from_dict({"sizes": sizes})[2] == sizes

    @pytest.mark.parametrize("sizes", [{"composite_bound": {"trials": 3}},
                                       {"smoothing": {"res_list": [16]}},
                                       {"bony_identity": {"trials": 3}}])
    def test_size_key_the_check_does_not_read(self, sizes):
        with pytest.raises(ConfigError):
            verify_config_from_dict({"sizes": sizes})


def test_schema_tables_name_every_reader_key():
    # the tables are the only statement of the config keys: they must match
    # the dataclasses they fill, the monitor options and the checks' sizes
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert set(config._SIMULATE) == names(SolverConfig) | {"monitor"}
    for block, cls in (("picard", PicardOptions), ("etdrk4", EtdrkOptions),
                       ("profile", ProfileSpec)):
        assert set(config._SIMULATE[block]) == names(cls)
    assert set(config._SIMULATE["monitor"]) == set(monitor_options_from_dict(None))
    assert {name: set(keys) for name, keys in config._VERIFY["sizes"].items()} == {
        name: set(keys) for name, keys in SIZE_KEYS.items()}


@pytest.mark.parametrize("argv, data, key", [
    (["simulate"], {**TG_SIM, "nu": float("nan")}, "config.nu"),
    (["simulate"], {**TG_SIM, "horizon": float("inf")}, "config.horizon"),
    (["simulate", "--method", "both"], {**TG_SIM, "etdrk4": {"dt": -1}}, "config.etdrk4.dt"),
    (["simulate"], {**TG_SIM, "picard": {"max_iters": -3}}, "config.picard.max_iters"),
    (["simulate"], {**TG_SIM, "monitor": {"kato_horizon": -1}},
     "config.monitor.kato_horizon"),
    (["simulate"], {**TG_SIM, "profile": {"kind": "random_divfree", "band": [5, 2]}},
     "config.profile.band"),
    (["simulate"], {**TG_SIM, "profile": {"kind": "nope"}}, "config.profile.kind"),
    (["simulate"], {**TG_SIM, "profile": {"kind": "random_divfree", "seed": -1}},
     "config.profile.seed"),
    (["verify"], {"checks": ["embedding"], "sizes": {"embedding": {"res_list": []}}},
     "config.sizes.embedding.res_list"),
    (["verify"], {"checks": ["embedding"], "sizes": {"embedding": {"res_list": [12]}}},
     "config.sizes.embedding.res_list"),
    (["verify"], {"checks": ["embedding"],
                  "sizes": {"embedding": {"trials": -1, "res_list": [16]}}},
     "config.sizes.embedding.trials"),
    (["verify", "--seed", "-1"], {"checks": ["embedding"],
                                  "sizes": {"embedding": {"trials": 1, "res_list": [16]}}},
     "config.seed"),
    # s values that name one report (paraproduct_s2) would write one JSON twice
    (["verify"], {"checks": ["paraproduct"],
                  "sizes": {"paraproduct": {"s_list": [2.0, 2], "trials": 2, "res_list": [16]}}},
     "config.sizes.paraproduct.s_list"),
    (["verify"], {"checks": ["paraproduct"],
                  "sizes": {"paraproduct": {"s_list": [2.0000001, 2.0000002], "trials": 2,
                                            "res_list": [16]}}},
     "config.sizes.paraproduct.s_list"),
    # a repeated size wrote one constant (K_emb_N16, opnorm_T0.25) for two
    (["verify"], {"checks": ["embedding"],
                  "sizes": {"embedding": {"trials": 1, "res_list": [16, 16]}}},
     "config.sizes.embedding.res_list"),
    (["verify"], {"checks": ["smoothing"],
                  "sizes": {"smoothing": {"trials": 1, "res": 16, "nodes": 4,
                                          "T_list": [0.25, 0.25, 0.5, 1.0]}}},
     "config.sizes.smoothing.T_list"),
    (["verify"], {"checks": ["smoothing"],
                  "sizes": {"smoothing": {"trials": 1, "res": 16, "nodes": 4,
                                          "T_list": [0.25, 0.2500000001, 0.5, 1.0]}}},
     "config.sizes.smoothing.T_list"),
])
def test_bad_configs_are_rejected_up_front(tmp_path, capsys, argv, data, key):
    # each once ran, exited 0 on meaningless columns, or failed after writing
    cfg = write_json(tmp_path / "bad.json", data)
    out = tmp_path / "never"
    code = cli_main([*argv, "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith(key + " must be")


def test_submodule_import_yields_the_module():
    import types

    import cnlab.monitor as m
    assert isinstance(m, types.ModuleType) and callable(m.monitor)


@pytest.fixture(scope="module")
def tg_simdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tg_sim")
    cfg = write_json(root / "cfg.json", TG_SIM)
    out = root / "out"
    code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--method", "both"])
    assert code == 0
    return out


class TestSimulateCommand:
    def test_artifacts_and_report(self, tg_simdir):
        report = json.loads((tg_simdir / "report.json").read_text())
        assert report["error"] is None
        assert set(report["runs"]) == {"picard", "etdrk4"}
        assert report["cross_validation"]["passed"] is True
        assert set(report["cross_validation"]) == {"discrepancy", "tolerance",
                                                   "passed", "node_errors"}
        assert report["config"]["method"] == "both"
        for method in ("picard", "etdrk4"):
            snaps = sorted((tg_simdir / "snapshots" / method).glob("*.snap"))
            assert len(snaps) == 9
            assert snaps[0].name == "state_0000.snap"
            csv = tg_simdir / f"monitor_{method}.csv"
            lines = csv.read_text().splitlines()
            assert lines[0].startswith("# config: ")
            echo = json.loads(lines[0][len("# config: "):])
            assert set(echo) == {"solver", "monitor", "method"}
            assert lines[1].startswith("t,lp_2,")

    def test_snapshot_times_follow_grid(self, tg_simdir):
        snaps = sorted((tg_simdir / "snapshots" / "picard").glob("*.snap"))
        times = [read_snapshot(p)[1] for p in snaps]
        assert np.allclose(times, np.linspace(0.0, 0.5, 9))

    def test_invalid_config_no_outdir(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {**TG_SIM, "dim": 4})
        out = tmp_path / "never"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_block_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {**TG_SIM, "picard": 3})
        out = tmp_path / "never"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ConfigError", "message": "config.picard: expected an object, got int"}

    def test_p_list_writes_the_sidecar(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {**TG_SIM, "monitor": {"p_list": [4]}})
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_monitor_csv(out / "monitor_picard.csv")
        snaps = sorted((out / "snapshots" / "picard").glob("*.snap"))
        assert [r.extra_lp for r in records] == [
            {4.0: lp_norm(read_snapshot(p)[0], 4.0)} for p in snaps]
        assert (out / "monitor_picard.extra_lp.json").is_file()

    def test_fractional_node_count_is_a_config_error(self, tmp_path, capsys):
        # once accepted by the reader, then a TypeError traceback in the solver
        cfg = write_json(tmp_path / "bad.json", {**TG_SIM, "picard": {"node_count": 8.5}})
        out = tmp_path / "never"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "node_count" in err["error"]["message"]

    def test_string_dt_is_a_config_error(self, tmp_path, capsys):
        # once accepted by the reader, then a TypeError traceback in the solver
        cfg = write_json(tmp_path / "bad.json", {**TG_SIM, "etdrk4": {"dt": "0.005"}})
        out = tmp_path / "never"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--method", "etdrk4"])
        assert code == 1
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"]["type"] == "ConfigError"
        assert "etdrk4.dt" in err["error"]["message"]

    @pytest.mark.parametrize("block, value", [
        ("monitor", {"p_list": 4}), ("monitor", {"p_list": [True]}),
        ("monitor", {"p_list": [0.5]}), ("monitor", {"p_list": [4, -2]}),
        ("profile", {"band": "ab"}), ("profile", {"band": [1]}),
        ("profile", {"band": [True, 3]}), ("profile", {"band": [1.0, 3]}),
        ("profile", {"band": [1, 2, 3]})])
    def test_type_holes_are_config_errors(self, tmp_path, capsys, block, value):
        # each type hole once ran or died with a raw traceback; p < 1 is the
        # monitor's rule, which the reader applies before any solve
        data = {**TG_SIM, block: {**TG_SIM.get(block, {}), **value}}
        cfg = write_json(tmp_path / "bad.json", data)
        out = tmp_path / "never"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert f"{block}.{next(iter(value))}" in err["message"]

    def test_band_takes_null(self):
        cfg = solver_config_from_dict({**TG_SIM, "profile": {"kind": "random_divfree",
                                                             "band": None}})
        assert cfg.profile.band is None

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim": 2, "res": 16, "nu": 0.05, "horizon": 1.0,
            "picard": {"max_iters": 3, "node_count": 16},
            "profile": {"kind": "random_divfree", "amplitude": 1.0, "seed": 3}})
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NonConvergence"
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "NonConvergence"
        assert (out / "monitor_picard.csv").exists()  # partial run still monitored

    def test_nan_trajectory_exit_code(self, tmp_path, capsys):
        # squares of 1e155 overflow, so the first Picard iterate is nan; that
        # is divergence, not convergence
        cfg = write_json(tmp_path / "cfg.json", {
            "dim": 2, "res": 16, "nu": 1.0, "horizon": 0.1,
            "profile": {"kind": "random_divfree", "amplitude": 1e155}})
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "NonConvergence", "message": "increment diverged",
                                "report_json": str(out / "report.json")}

    def test_failed_cross_validation_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**TG_SIM, "cross_tol": 1e-30})
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--method", "both"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CrossValidationFailed"
        report = json.loads((out / "report.json").read_text())
        assert report["cross_validation"]["passed"] is False
        assert report["error"]["type"] == "CrossValidationFailed"
        for method in ("picard", "etdrk4"):
            assert report["runs"][method]["states"] == 9
            assert (out / f"monitor_{method}.csv").exists()

    def test_blowup_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim": 2, "res": 16, "nu": 1e-3, "horizon": 1.0,
            "picard": {"node_count": 10}, "etdrk4": {"dt": 0.05},
            "profile": {"kind": "random_divfree", "amplitude": 1e3, "seed": 1}})
        out = tmp_path / "out"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--method", "etdrk4"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BlowupSuspected"
        report = json.loads((out / "report.json").read_text())
        assert report["runs"]["etdrk4"]["blowup_time"] == pytest.approx(0.2)

    def test_a_rerun_replaces_the_earlier_snapshots(self, tmp_path):
        # a shorter second run into the same --out once left the first run's
        # last four states in snapshots/picard, and monitor read all nine
        out = tmp_path / "out"
        for nodes, horizon in ((8, 1.0), (4, 0.5)):
            cfg = write_json(tmp_path / "cfg.json", {**TG_SIM, "horizon": horizon,
                                                     "picard": {"node_count": nodes}})
            assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        snapdir = out / "snapshots" / "picard"
        assert sorted(map(str, snapdir.iterdir())) == report["runs"]["picard"]["snapshots"]
        assert len(report["runs"]["picard"]["snapshots"]) == 5
        csv = tmp_path / "m.csv"
        assert cli_main(["monitor", "--snapshots", str(snapdir), "--out", str(csv)]) == 0
        assert [r.t for r in read_monitor_csv(csv)] == [0.0, 0.125, 0.25, 0.375, 0.5]

    def test_published_snapshots_take_the_parent_directory_mode(self, tmp_path):
        # each snapshots/<method> is made afresh, with the mode of snapshots/
        # itself, also over an earlier run's directory of another mode
        cfg = write_json(tmp_path / "cfg.json", TG_SIM)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--out", str(out), "--method", "both"]
        umask = os.umask(0o022)
        try:
            for _ in range(2):
                assert cli_main(argv) == 0
                want = (out / "snapshots").stat().st_mode
                assert stat.S_IMODE(want) == 0o755
                for method in ("picard", "etdrk4"):
                    assert (out / "snapshots" / method).stat().st_mode == want
                    (out / "snapshots" / method).chmod(0o700)
        finally:
            os.umask(umask)


    @pytest.mark.parametrize("second, method, exit_code", [
        ("BLOWUP_SIM", "both", 3), ("TG_SIM", "picard", 0)])
    def test_a_rerun_removes_the_routes_it_does_not_publish(self, tmp_path, second, method,
                                                            exit_code):
        # a rerun whose Picard route fails never reaches ETDRK4's, and a
        # Picard-only rerun never runs it: report.json lists no etdrk4 run,
        # so the first run's snapshots/etdrk4 and monitor_etdrk4 files must
        # not outlive it
        out = tmp_path / "out"
        argv = ["simulate", "--out", str(out), "--config"]
        first = write_json(tmp_path / "tg.json", {**TG_SIM, "monitor": {"p_list": [4]}})
        assert cli_main(argv + [str(first), "--method", "both"]) == 0
        assert (out / "monitor_etdrk4.extra_lp.json").is_file()
        second = write_json(tmp_path / "second.json", globals()[second])
        assert cli_main(argv + [str(second), "--method", method]) == exit_code
        report = json.loads((out / "report.json").read_text())
        assert set(report["runs"]) == {"picard"}
        assert [p.name for p in (out / "snapshots").iterdir()] == ["picard"]
        assert sorted(map(str, (out / "snapshots" / "picard").iterdir())) == (
            report["runs"]["picard"]["snapshots"])
        assert sorted(p.name for p in out.glob("monitor_*")) == ["monitor_picard.csv"]

    @pytest.mark.parametrize("second, error", [
        ({**TG_SIM, "dim": 4}, "ConfigError"), (None, "ConfigError"),
        # parses, but a Taylor-Green 2D profile on a 3D grid raises
        ({**TG_SIM, "dim": 3}, "ValueError")])
    def test_a_rerun_that_fails_before_its_solve_leaves_the_earlier_run(
            self, tmp_path, capsys, second, error):
        out = tmp_path / "out"
        first = write_json(tmp_path / "tg.json", {**TG_SIM, "monitor": {"p_list": [4]}})
        argv = ["simulate", "--out", str(out), "--method", "both", "--config"]
        assert cli_main(argv + [str(first)]) == 0

        def tree():
            return {p.relative_to(out).as_posix(): p.read_bytes() if p.is_file() else None
                    for p in sorted(out.rglob("*"))}

        before = tree()
        capsys.readouterr()
        bad = tmp_path / "missing.json" if second is None else write_json(
            tmp_path / "bad.json", second)
        assert cli_main(argv + [str(bad)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == error
        assert tree() == before

# a random 2D/16 run that converges and cross-validates, with the sidecar on
OVERLAP_SIM = {"dim": 2, "res": 16, "nu": 0.7, "horizon": 0.2,
               "picard": {"node_count": 8}, "etdrk4": {"dt": 0.005},
               "profile": {"kind": "random_divfree", "amplitude": 0.3, "seed": 1},
               "monitor": {"p_list": [4]}}
BLOWUP_SIM = {"dim": 2, "res": 16, "nu": 1e-3, "horizon": 1.0,
              "picard": {"node_count": 10}, "etdrk4": {"dt": 0.05},
              "profile": {"kind": "random_divfree", "amplitude": 1e3, "seed": 1}}


def test_nonconvergence_pickles_with_its_trajectory_and_report():
    # composite_bound runs picard_solve in a forked verify check, whose
    # NonConvergence crosses a pipe back to the calling process
    cfg = solver_config_from_dict(BLOWUP_SIM)
    with pytest.raises(solver.NonConvergence) as caught:
        solver.picard_solve(solver.profile_from_spec(cfg.grid(), cfg.profile), cfg)
    exc = caught.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is solver.NonConvergence and str(back) == str(exc)
    assert back.trajectory.grid == exc.trajectory.grid
    assert back.trajectory.times.tolist() == exc.trajectory.times.tolist()
    assert np.array_equal(back.trajectory.coeffs, exc.trajectory.coeffs, equal_nan=True)
    # as JSON, so that a nan increment matches itself
    assert json.dumps(back.report.to_dict()) == json.dumps(exc.report.to_dict())


def wait_for(ready, seconds=60.0):
    """Poll ready() until it is true or the seconds have passed; its last value."""
    deadline = time.monotonic() + seconds
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.01)
    return ready()


class TestSimulateOverlap:
    """simulate --method both ends the same, artifact for artifact, whether
    the ETDRK4 route runs in a forked child beside Picard's (2 CPUs) or
    after it in the calling process (1 CPU)."""

    @staticmethod
    def run(tmp_path, monkeypatch, capsys, data, cpus):
        """The run's (exit code, stderr, files, report), the pids that
        iterated etdrk4_rows, {method: pids} of the snapshot writes and the
        pid of each monitor batch. The pids are noted in files, which a
        forked child shares with this process. Beside a forked child,
        Picard's route starts once the child has started ETDRK4's."""
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        notes = tmp_path / f"notes-{cpus}"
        notes.mkdir(parents=True)

        def note(name):
            with open(notes / name, "a") as fh:
                fh.write(f"{os.getpid()}\n")

        def noted(name):
            path = notes / name
            return [int(pid) for pid in path.read_text().split()] if path.exists() else []

        def rows(*args, **kwargs):
            note("solved")
            yield from etdrk4_rows(*args, **kwargs)

        def picard_solve(*args):
            # the forked child is alive from before Picard's route on
            assert not multiprocessing.active_children() or wait_for(lambda: noted("solved"))
            return solver.picard_solve(*args)

        def write_noting(path, *args):
            # each route stages its snapshots in its own snapshots/.<method>-XXXX
            note("written-" + Path(path).parent.name[1:].split("-")[0])
            return write_snapshot(path, *args)

        def besov_noting(*args):
            note("monitored")
            return besov_norm_states(*args)

        monkeypatch.setattr(cli, "etdrk4_rows", rows)
        monkeypatch.setattr(cli, "picard_solve", picard_solve)
        monkeypatch.setattr(cli, "write_snapshot", write_noting)
        # the Besov column is taken once per monitor batch
        monkeypatch.setattr("cnlab.monitor.besov_norm_states", besov_noting)
        cfg = write_json(tmp_path / "cfg.json", data)
        out = tmp_path / f"out-{cpus}"
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                             "--method", "both"])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        # no staging directory is left behind
        assert {p.name for p in (out / "snapshots").iterdir()} <= {"picard", "etdrk4"}
        err = capsys.readouterr().err.replace(str(out), "OUT")
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file() and p.name != "report.json"}
        report = json.loads((out / "report.json").read_text().replace(str(out), "OUT"))
        report["runs"]["picard"]["convergence"].pop("wall_time")
        written = {path.name.removeprefix("written-"): set(noted(path.name))
                   for path in notes.glob("written-*")}
        return (code, err, files, report), noted("solved"), written, noted("monitored")

    @pytest.mark.parametrize("case, data, exit_code", [
        ("converged", OVERLAP_SIM, 0),
        ("max-iters", {**OVERLAP_SIM, "picard": {"node_count": 8, "max_iters": 1}}, 3),
        ("cross-validation", {**OVERLAP_SIM, "cross_tol": 1e-30}, 2),
        # Picard diverges on the blow-up config before ETDRK4 is asked for
        ("picard-diverges", BLOWUP_SIM, 3),
        # a loose tolerance lets Picard pass, so ETDRK4's blow-up decides
        ("etdrk4-blows-up", {**BLOWUP_SIM, "picard": {"node_count": 10,
                                                      "contraction_tol": 1e30}}, 4)])
    def test_forked_child_changes_no_artifact(self, tmp_path, monkeypatch, capsys,
                                              case, data, exit_code):
        forked, in_child, written_forked, monitored_forked = self.run(
            tmp_path, monkeypatch, capsys, data, 2)
        sequential, in_caller, written_sequential, monitored_sequential = self.run(
            tmp_path, monkeypatch, capsys, data, 1)
        assert forked == sequential
        code, err, files, report = sequential
        assert code == exit_code
        assert (json.loads(err)["error"]["type"] if err else None) == (
            report["error"] and report["error"]["type"])
        # a failed Picard route drops ETDRK4's result, which the child computed
        routes = {"picard"} if exit_code == 3 else {"picard", "etdrk4"}
        assert set(report["runs"]) == routes
        assert {name.split("/")[1] for name in files if "/" in name} == routes
        here = os.getpid()
        assert len(in_child) == 1 and in_child[0] != here
        assert in_caller == [here] * (len(routes) - 1)
        # the child runs the whole ETDRK4 route, its snapshots and its one
        # monitor batch included; after a failed Picard route it may or may
        # not have reached them
        child = in_child[0]
        if exit_code == 3:
            written_forked.setdefault("etdrk4", {child})
            if child not in monitored_forked:
                monitored_forked.append(child)
        assert written_forked == {"picard": {here}, "etdrk4": {child}}
        assert sorted(monitored_forked, key=lambda pid: pid == child) == [here, child]
        assert written_sequential == dict.fromkeys(routes, {here})
        assert monitored_sequential == [here] * len(routes)

    def test_rebound_transforms_keep_the_calling_process(self, tmp_path, monkeypatch, capsys):
        # a wrapper around a numpy transform, as a profiler installs one
        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", lambda *a, **k: irfftn(*a, **k))
        _, solved_in, written_in, monitored_in = self.run(tmp_path, monkeypatch, capsys,
                                                          OVERLAP_SIM, 2)
        here = os.getpid()
        assert solved_in == [here]
        assert written_in == dict.fromkeys(["picard", "etdrk4"], {here})
        assert monitored_in == [here, here]

    def test_the_child_keeps_the_callers_error_state(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        seen = tmp_path / "seen.json"

        def rows(u0, cfg):
            seen.write_text(json.dumps([os.getpid(), np.geterr()]))
            yield from etdrk4_rows(u0, cfg)

        monkeypatch.setattr(cli, "etdrk4_rows", rows)
        cfg = write_json(tmp_path / "cfg.json", OVERLAP_SIM)
        with np.errstate(divide="ignore", over="raise"):
            want = np.geterr()
            assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                             "--method", "both"]) == 0
        assert want != np.geterr()
        pid, err = json.loads(seen.read_text())
        assert pid != os.getpid() and err == want

    @pytest.mark.parametrize("data", [
        {**OVERLAP_SIM, "picard": {"node_count": 8, "max_iters": 1}}, BLOWUP_SIM])
    def test_failed_picard_ends_the_child(self, tmp_path, monkeypatch, data):
        # the child holds its solve back for 60 s, and Picard's route starts
        # only once it does
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        held = tmp_path / "held"

        def rows(u0, cfg):
            held.write_text(str(os.getpid()))
            time.sleep(60)
            yield from etdrk4_rows(u0, cfg)

        def picard_solve(u0, cfg):
            assert wait_for(held.exists)
            return solver.picard_solve(u0, cfg)

        monkeypatch.setattr(cli, "etdrk4_rows", rows)
        monkeypatch.setattr(cli, "picard_solve", picard_solve)
        cfg = write_json(tmp_path / "cfg.json", data)
        out = tmp_path / "out"
        start = time.monotonic()
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--method", "both"]) == 3
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        assert int(held.read_text()) != os.getpid()
        # the child staged u0's snapshot before its solve; the staging
        # directory is gone with it
        assert [p.name for p in (out / "snapshots").iterdir()] == ["picard"]

    def test_a_killed_child_ends_the_run(self, tmp_path, monkeypatch, capsys):
        # the forked ETDRK4 route dies of SIGKILL, as under the OOM killer,
        # after staging u0's snapshot
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        here = os.getpid()

        def rows(u0, cfg):
            for m, row in enumerate(etdrk4_rows(u0, cfg)):
                if m == 1 and os.getpid() != here:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield row

        monkeypatch.setattr(cli, "etdrk4_rows", rows)
        monkeypatch.setattr(littlewood_paley, "_BATCH_BYTES", 1)
        cfg = write_json(tmp_path / "cfg.json", OVERLAP_SIM)
        out = tmp_path / "out"
        threads = threading.active_count()
        start = time.monotonic()
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--method", "both"]) == 1
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "OSError", "message": "a forked child ended without a result"}
        assert [p.name for p in (out / "snapshots").iterdir()] == ["picard"]

    def test_a_rerun_whose_child_is_killed_leaves_no_report(self, tmp_path, monkeypatch,
                                                            capsys):
        # the first run's report.json (9 Picard states) and snapshots/etdrk4
        # once outlived a rerun with 4 Picard intervals that died after
        # publishing its 5 Picard snapshots
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        argv = ["simulate", "--out", str(out), "--method", "both", "--config"]
        assert cli_main(argv + [str(write_json(tmp_path / "8.json", TG_SIM))]) == 0
        assert len(list((out / "snapshots" / "etdrk4").iterdir())) == 9
        here = os.getpid()

        def rows(u0, cfg):
            for m, row in enumerate(etdrk4_rows(u0, cfg)):
                if m == 1 and os.getpid() != here:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield row

        monkeypatch.setattr(cli, "etdrk4_rows", rows)
        capsys.readouterr()
        cfg = write_json(tmp_path / "4.json", {**TG_SIM, "picard": {"node_count": 4}})
        assert cli_main(argv + [str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "OSError"
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in out.iterdir()) == ["monitor_picard.csv", "snapshots"]
        assert [p.name for p in (out / "snapshots").iterdir()] == ["picard"]
        assert sorted(p.name for p in (out / "snapshots" / "picard").iterdir()) == [
            f"state_{m:04d}.snap" for m in range(5)]

    @pytest.mark.parametrize("cpus, left", [(2, []), (1, ["picard"])])
    def test_an_interrupt_leaves_no_etdrk4_snapshots(self, tmp_path, monkeypatch, cpus, left):
        # batches of one state, so each snapshot is staged before the next
        # state is made. With a forked child, Picard's route is interrupted
        # once ETDRK4's has staged three snapshots; in the calling process,
        # ETDRK4's route is interrupted after its third
        monkeypatch.setattr(littlewood_paley, "_BATCH_BYTES", 1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        here = os.getpid()

        def staged():
            return len(list(out.glob("snapshots/.etdrk4-*/state_*.snap")))

        def rows(u0, cfg):
            for m, row in enumerate(etdrk4_rows(u0, cfg)):
                if m == 3 and os.getpid() == here:
                    assert staged() == 3
                    raise KeyboardInterrupt
                yield row

        def picard_solve(u0, cfg):
            if cpus == 2:
                assert wait_for(lambda: staged() >= 3)
                raise KeyboardInterrupt
            return solver.picard_solve(u0, cfg)

        monkeypatch.setattr(cli, "etdrk4_rows", rows)
        monkeypatch.setattr(cli, "picard_solve", picard_solve)
        cfg = write_json(tmp_path / "cfg.json", OVERLAP_SIM)
        out = tmp_path / "out"
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            cli_main(["simulate", "--config", str(cfg), "--out", str(out), "--method", "both"])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert [p.name for p in (out / "snapshots").iterdir()] == left


def test_etdrk4_route_holds_no_trajectory(tmp_path, monkeypatch):
    # the route streams its states. At the default 2 MiB batches its peak
    # stays below the 65 states (7.2 MB) a collected ETDRK4 trajectory would
    # hold plus one batch; with batches of 4 states, below half of them
    state_bytes = 3 * 16 * 16 * 9 * 16
    trajectory_bytes = 65 * state_bytes
    cfg = write_json(tmp_path / "cfg.json", {
        "dim": 3, "res": 16, "nu": 1.0, "horizon": 0.02,
        "picard": {"node_count": 64}, "etdrk4": {"dt": 0.02},
        "profile": {"kind": "random_divfree", "amplitude": 0.1, "seed": 0}})
    argv = ["simulate", "--config", str(cfg), "--method", "etdrk4", "--out"]
    # the first run fills the grid's tables and the partition cache
    assert cli_main(argv + [str(tmp_path / "warm")]) == 0

    def peak(out: Path) -> int:
        tracemalloc.start()
        try:
            assert cli_main(argv + [str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(tmp_path / "default") < trajectory_bytes + littlewood_paley._BATCH_BYTES
    monkeypatch.setattr(littlewood_paley, "_BATCH_BYTES", 4 * state_bytes)
    assert peak(tmp_path / "out") < 0.5 * trajectory_bytes
    for out in ("default", "out"):
        assert len(list((tmp_path / out / "snapshots" / "etdrk4").glob("*.snap"))) == 65


def test_long_run_reaches_underflow_scale_states(tmp_path):
    # the state decays through the subnormal range to zero by t = 800;
    # rescaling such samples for their L^p norms once overflowed
    cfg = write_json(tmp_path / "cfg.json", {**TG_SIM, "horizon": 800,
                                             "picard": {"node_count": 64},
                                             "etdrk4": {"dt": 1.0}})
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["error"] is None
    snaps = sorted((out / "snapshots" / "picard").glob("*.snap"))
    assert cli_main(["monitor", "--snapshots", *map(str, snaps),
                     "--out", str(tmp_path / "m.csv")]) == 0
    records = read_monitor_csv(tmp_path / "m.csv")
    assert [r.lp_inf for r in records] == [lp_norm(read_snapshot(p)[0], math.inf)
                                           for p in snaps]
    assert records[1].lp_inf > 0.0


def test_long_run_monitor_reads_underflow_scale_states(tmp_path):
    # Taylor-Green and the |k| = 1 roundoff mode that outlives it lie in the
    # dyadic block D_0 of weight 1, so besov_m1 is lp_inf up to the state's
    # sup outside D_0; the squares of these states underflow from t = 350 on
    cfg = write_json(tmp_path / "cfg.json", {**TG_SIM, "horizon": 800,
                                             "picard": {"node_count": 64},
                                             "etdrk4": {"dt": 1.0}})
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_monitor_csv(out / "monitor_picard.csv")
    snaps = sorted((out / "snapshots" / "picard").glob("*.snap"))
    part = build_partition(Grid(2, 16))
    for rec, path in zip(records, snaps, strict=True):
        u = read_snapshot(path)[0]
        off_block = linf(u - block(u, 0, part))
        assert abs(rec.besov_m1 - rec.lp_inf) <= 1e-12 * rec.lp_inf + off_block
        if rec.kato_I is not None and rec.lp_inf > 0.0:  # horizon left, state nonzero
            assert rec.kato_I > 0.0
    assert 0.0 < records[56].lp_inf < 1e-300  # t = 700 is well in the underflow range


class TestMonitorCommand:
    def test_recompute_deterministic(self, tg_simdir, tmp_path):
        snapdir = str(tg_simdir / "snapshots" / "picard")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["monitor", "--snapshots", snapdir, "--out", str(out1)]) == 0
        assert cli_main(["monitor", "--snapshots", snapdir, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_omega_and_horizon_flags(self, tg_simdir, tmp_path):
        snapdir = tg_simdir / "snapshots" / "picard"
        omega = str(sorted(snapdir.glob("*.snap"))[0])
        out = tmp_path / "m.csv"
        code = cli_main(["monitor", "--snapshots", str(snapdir), "--out", str(out),
                         "--omega", omega, "--kato-horizon", "0.3", "--p", "4"])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "t,"))]
        first = rows[0].split(",")
        assert float(first[5]) == 0.0      # distance to own initial state
        assert float(first[6]) > 0.0       # kato column populated at t = 0

    def test_kato_none_leaves_column_empty(self, tg_simdir, tmp_path):
        snapdir = str(tg_simdir / "snapshots" / "picard")
        out = tmp_path / "m.csv"
        assert cli_main(["monitor", "--snapshots", snapdir, "--out", str(out),
                         "--kato-horizon", "none"]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "t,"))]
        assert all(r.split(",")[6] == "" for r in rows)

    def test_extra_exponents_keep_the_eight_columns(self, tg_simdir, tmp_path):
        snapdir = str(tg_simdir / "snapshots" / "picard")
        out = tmp_path / "m.csv"
        assert cli_main(["monitor", "--snapshots", snapdir, "--out", str(out),
                         "--p", "4", "6"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ",".join(CSV_COLUMNS) and len(CSV_COLUMNS) == 8
        assert all(len(line.split(",")) == 8 for line in lines[2:])
        # the extra norms go to the sidecar, and they are the ones lp_norm gives
        sidecar = json.loads((tmp_path / "m.extra_lp.json").read_text())
        states = [read_snapshot(p) for p in sorted(Path(snapdir).glob("*.snap"))]
        assert list(sidecar) == ["t", "4.0", "6.0"]
        assert sidecar["t"] == [t for _, t in states]
        for p in (4.0, 6.0):
            assert sidecar[repr(p)] == [lp_norm(f, p) for f, _ in states]
        records = read_monitor_csv(out)
        assert len(records) == 9
        assert [r.extra_lp for r in records] == [
            {4.0: a, 6.0: b} for a, b in zip(sidecar["4.0"], sidecar["6.0"])]
        again = tmp_path / "again.csv"
        echo = json.loads(lines[0][len("# config: "):])
        write_monitor_csv(records, again, config_echo=echo)
        assert again.read_bytes() == out.read_bytes()
        assert ((tmp_path / "again.extra_lp.json").read_bytes()
                == (tmp_path / "m.extra_lp.json").read_bytes())

    def test_no_sidecar_without_exponents(self, tg_simdir, tmp_path):
        snapdir = str(tg_simdir / "snapshots" / "picard")
        out = tmp_path / "m.csv"
        assert cli_main(["monitor", "--snapshots", snapdir, "--out", str(out),
                         "--p", "4"]) == 0
        assert (tmp_path / "m.extra_lp.json").is_file()
        # a rewrite without exponents leaves no stale sidecar behind
        assert cli_main(["monitor", "--snapshots", snapdir, "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]
        assert not list(tg_simdir.glob("*.extra_lp.json"))

    def test_orders_by_header_time(self, tmp_path):
        # by name state_10000 < state_1001 < state_999, the reverse of time order
        u0 = make_profile(Grid(2, 16), "taylor_green_2d")
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        for name, t in (("state_999", 0.0), ("state_1001", 0.1), ("state_10000", 0.2)):
            write_snapshot(snapdir / f"{name}.snap", heat(u0, t), t)
        out = tmp_path / "m.csv"
        assert cli_main(["monitor", "--snapshots", str(snapdir), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "t,"))]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.1, 0.2]

    @pytest.mark.parametrize("exponents", [["0.5", "-2"], ["4", "0"], ["nan"]])
    def test_exponents_below_one_are_rejected(self, tg_simdir, tmp_path, capsys, exponents):
        # once wrote "0.5" and "-2.0" columns into the sidecar and exited 0
        snapdir = str(tg_simdir / "snapshots" / "picard")
        code = cli_main(["monitor", "--snapshots", snapdir, "--out", str(tmp_path / "m.csv"),
                         "--p", *exponents])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and "1 <= p" in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--nu", "nan"], ["--nu", "-1"], ["--nu", "inf"],
                                       ["--kato-horizon", "-1"], ["--kato-horizon", "nan"]])
    def test_kato_arguments_out_of_range_are_rejected(self, tg_simdir, tmp_path, capsys,
                                                      flags):
        # once exited 0 with a negative, anti-diffusive or empty kato_I column
        snapdir = str(tg_simdir / "snapshots" / "picard")
        code = cli_main(["monitor", "--snapshots", snapdir, "--out", str(tmp_path / "m.csv"),
                         *flags])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"
        assert not list(tmp_path.iterdir())

    def test_nan_header_time_is_rejected(self, tmp_path, capsys):
        # once exited 0 and wrote a nan row
        u0 = make_profile(Grid(2, 16), "taylor_green_2d")
        for name, t in (("a", 0.0), ("b", float("nan")), ("c", 0.2)):
            write_snapshot(tmp_path / f"{name}.snap", u0, t)
        code = cli_main(["monitor", "--snapshots", str(tmp_path), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "finite" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not (tmp_path / "m.csv").exists()

    def test_missing_path(self, tmp_path, capsys):
        code = cli_main(["monitor", "--snapshots", str(tmp_path / "ghost"),
                         "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "UsageError"

    def test_mixed_grids_rejected(self, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        for res, t in ((16, 0.0), (8, 0.1)):
            write_snapshot(snapdir / f"state_{res}.snap", make_profile(Grid(2, res),
                                                                     "taylor_green_2d"), t)
        out = tmp_path / "m.csv"
        assert cli_main(["monitor", "--snapshots", str(snapdir), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "UsageError", "message": "snapshots mix different grids"}
        assert not out.exists()

    def test_directory_without_snapshots_rejected(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = cli_main(["monitor", "--snapshots", str(tmp_path / "empty"),
                         "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "UsageError", "message": "no snapshot files found"}

    def test_single_snapshot_rejected(self, tg_simdir, tmp_path, capsys):
        one = str(sorted((tg_simdir / "snapshots" / "picard").glob("*.snap"))[0])
        code = cli_main(["monitor", "--snapshots", one,
                         "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "two snapshots" in json.loads(capsys.readouterr().err)["error"]["message"]


class TestVerifyCommand:
    def test_subset_run_writes_reports(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "v.json", {
            "checks": ["bony_identity"], "seed": 3,
            "sizes": {"bony_identity": {"pairs": 6, "res_list": [16], "dims": [2]}}})
        out = tmp_path / "v"
        code = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert (out / "bony_identity.json").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "check,constant,exponent,pass"
        assert summary[1].startswith("bony_identity,") and summary[1].endswith(",pass")

    @pytest.mark.parametrize("block", [{"trials": "5"}, {"res_list": 32}])
    def test_size_type_is_a_config_error(self, tmp_path, capsys, block):
        # each once ended in a raw TypeError traceback inside the check
        cfg = write_json(tmp_path / "v.json", {"checks": ["embedding"],
                                               "sizes": {"embedding": block}})
        out = tmp_path / "v"
        assert cli_main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "ConfigError"
        assert not out.exists()

    def test_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        fake = VerificationReport(name="bony_identity", passed=False, trials=1)
        monkeypatch.setitem(CHECKS, "bony_identity", lambda *a, **k: [fake])
        out = tmp_path / "v"
        code = cli_main(["verify", "--checks", "bony_identity", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CheckFailed"
        assert (out / "summary.csv").read_text().splitlines()[1].endswith(",fail")

    def test_checks_flag_without_names_is_a_usage_error(self, tmp_path, capsys):
        # it once ran every check, while "checks": [] in a config is refused
        out = tmp_path / "v"
        assert cli_main(["verify", "--checks", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "UsageError"
        assert not out.exists()


# Every check at its smallest useful size: verify --all takes about a second.
# Whether the checks pass does not matter here, only that both ways agree.
VERIFY_SMALL = {
    "smoothing": {"trials": 1, "res": 16, "nodes": 4, "T_list": [0.25, 0.5, 0.75, 1.0]},
    "paraproduct": {"trials": 2, "res_list": [16], "s_list": [2.0]},
    "bony_identity": {"pairs": 2, "res_list": [16], "dims": [2]},
    "heat_ln_linf": {"trials": 2, "res_list": [16]},
    "oseen_kernel": {"trials": 1, "res_list": [16]},
    "embedding": {"trials": 2, "res_list": [16]},
    "composite_bound": {"res_list": [16]},
}


def refuse_forks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the command forked a child")
    monkeypatch.setattr(os, "fork", refuse)


def fake_check(tmp_path, name, delay=0.0, error=None):
    """A verify_* stand-in that notes the pid it ran in, waits, then returns
    a list of one passing report or raises error."""
    def verify(*, seed, **sizes):
        (tmp_path / f"{name}.pid").write_text(str(os.getpid()))
        time.sleep(delay)
        if error is not None:
            raise error
        return [VerificationReport(name=name, passed=True, trials=1, headline_constant=1.0)]
    return verify


def raised_by(name, kind, t):
    """An exception of the given kind from check name. NonConvergence and
    BlowupSuspected carry a one-state trajectory, and BlowupSuspected's
    message is made from the time t."""
    if kind == "ValueError":
        return ValueError(f"{name} raised")
    grid = Grid(2, 8)
    traj = solver.Trajectory(grid, TimeGrid([0.0, t]),
                             make_profile(grid, "taylor_green_2d").coeffs[None], "picard",
                             {"blowup_time": t})
    if kind == "NonConvergence":
        report = solver.ConvergenceReport(False, 1, [1.0], [], None, 1e-10, 0.0)
        return solver.NonConvergence(f"{name} raised", traj, report)
    return solver.BlowupSuspected(traj)


class TestVerifyWorkers:
    """verify ends the same, file for file and in its exit code, whether its
    checks run on forked worker processes or one after another in-process."""

    @staticmethod
    def run(tmp_path, monkeypatch, capsys, cpus, argv=("--all",), tag=None, sizes=VERIFY_SMALL):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        cfg = write_json(tmp_path / "small.json", {"sizes": sizes})
        out = tmp_path / (tag or f"cpus{cpus}")
        threads = threading.active_count()
        code = cli_main(["verify", *argv, "--config", str(cfg), "--seed", "5",
                         "--out", str(out)])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        err = capsys.readouterr().err.replace(str(out), "OUT")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return code, err, files

    def test_forked_checks_write_the_in_process_bytes(self, tmp_path, monkeypatch, capsys):
        forked = self.run(tmp_path, monkeypatch, capsys, 2)
        in_process = self.run(tmp_path, monkeypatch, capsys, 1)
        assert forked == in_process
        code, _, files = in_process
        reports = run_checks(list(CHECKS), seed=5, sizes=VERIFY_SMALL)
        assert sorted(files) == sorted([f"{rep.name}.json" for rep in reports] + ["summary.csv"])
        assert files["summary.csv"].decode().splitlines()[1:] == [
            ",".join(rep.summary_row()) for rep in reports]
        assert code == (0 if all(rep.passed for rep in reports) else 2)

    @pytest.mark.parametrize("case", ["rebound-transforms", "no-fork", "other-thread"])
    def test_unforkable_runs_stay_in_process(self, tmp_path, monkeypatch, capsys, case):
        # verify's checks, and simulate --method both's ETDRK4 route
        want = self.run(tmp_path, monkeypatch, capsys, 2, tag="forked")
        want_sim, in_child, *_ = TestSimulateOverlap.run(tmp_path / "sim-forked", monkeypatch,
                                                         capsys, OVERLAP_SIM, 2)
        assert in_child != [os.getpid()]
        refuse_forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        if case == "rebound-transforms":
            # a wrapper around a numpy transform, as a profiler installs one
            rfftn = np.fft.rfftn
            monkeypatch.setattr(np.fft, "rfftn", lambda *a, **k: rfftn(*a, **k))
        elif case == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            other.start()
        try:
            assert self.run(tmp_path, monkeypatch, capsys, 2, tag=case) == want
            got_sim, in_caller, *_ = TestSimulateOverlap.run(tmp_path / f"sim-{case}",
                                                             monkeypatch, capsys, OVERLAP_SIM, 2)
            assert (got_sim, in_caller) == (want_sim, [os.getpid()])
        finally:
            release.set()
            if other.is_alive():
                other.join(60)

    def test_a_check_is_one_forked_task(self, tmp_path, monkeypatch, capsys):
        # smoothing's four reports come from one call, as do paraproduct's
        names = ("smoothing", "paraproduct")
        calls = tmp_path / "calls"
        calls.mkdir()

        def noting(name, verify):
            def run(**keywords):
                with open(calls / name, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return verify(**keywords)
            return run

        for name in names:
            monkeypatch.setitem(CHECKS, name, noting(name, CHECKS[name]))
        argv = ("--checks", *names)
        sizes = {**VERIFY_SMALL, "paraproduct": {**VERIFY_SMALL["paraproduct"],
                                                 "s_list": [2.0, 1.5]}}
        forked = self.run(tmp_path, monkeypatch, capsys, 2, argv=argv, sizes=sizes)
        pids = [(calls / name).read_text().split() for name in names]
        assert all(len(p) == 1 and int(p[0]) != os.getpid() for p in pids)
        assert forked == self.run(tmp_path, monkeypatch, capsys, 1, argv=argv, sizes=sizes)
        assert [row.split(",")[0] for row in forked[2]["summary.csv"].decode().splitlines()[1:]] == [
            f"smoothing_r{r:+g}_a{a:g}" for r in (-1, 0) for a in (1, 2)] + [
            "paraproduct_s2", "paraproduct_s1.5"]

    def test_one_task_per_check(self):
        tasks = []

        def recording(runner, items):  # map, noting the tasks it is given
            tasks.extend(items)
            return map(runner, items)

        reports = run_checks(list(reversed(CHECKS)), 5, VERIFY_SMALL, recording)
        assert tasks == [(name, {**VERIFY_SMALL[name], "seed": 5}) for name in CHECKS]
        assert len(tasks) == 7
        assert reports == run_checks(list(CHECKS), seed=5, sizes=VERIFY_SMALL)
        # s_list is paraproduct's keyword like any other size
        sizes = {"paraproduct": {"trials": 2, "res_list": [16], "s_list": [3.0, 1.5, 2.0]}}
        tasks.clear()
        reports = run_checks(["paraproduct"], 5, sizes, recording)
        assert tasks == [("paraproduct", {**sizes["paraproduct"], "seed": 5})]
        assert [rep.name for rep in reports] == [
            "paraproduct_s3", "paraproduct_s1.5", "paraproduct_s2"]

    def test_single_check_stays_in_process(self, tmp_path, monkeypatch, capsys):
        refuse_forks(monkeypatch)
        code, err, files = self.run(tmp_path, monkeypatch, capsys, 2,
                                    argv=("--checks", "embedding"))
        assert (code, err, sorted(files)) == (0, "", ["embedding.json", "summary.csv"])

    def test_reports_keep_the_canonical_order(self, tmp_path, monkeypatch, capsys):
        # the first check ends last on the workers, after all the others
        first, *_ = CHECKS
        for name in CHECKS:
            monkeypatch.setitem(CHECKS, name, fake_check(tmp_path, name))
        monkeypatch.setitem(CHECKS, first, fake_check(tmp_path, first, 0.5))
        code, _, files = self.run(tmp_path, monkeypatch, capsys, 2)
        assert code == 0
        rows = files["summary.csv"].decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == list(CHECKS)

    # the solver's exceptions carry a trajectory back from the worker
    @pytest.mark.parametrize("kind, exit_code", [
        ("ValueError", 1), ("NonConvergence", 3), ("BlowupSuspected", 4)])
    def test_first_raising_check_in_canonical_order_surfaces(self, tmp_path, monkeypatch,
                                                             capsys, kind, exit_code):
        # the first check raises last, the second at once
        first, second, *rest = CHECKS
        error = raised_by(first, kind, 0.5)
        monkeypatch.setitem(CHECKS, first, fake_check(tmp_path, first, 0.5, error))
        monkeypatch.setitem(CHECKS, second, fake_check(tmp_path, second, 0.0,
                                                       raised_by(second, kind, 0.25)))
        for name in rest:
            monkeypatch.setitem(CHECKS, name, fake_check(tmp_path, name))
        ends = []
        for cpus in (2, 1):
            code, err, files = self.run(tmp_path, monkeypatch, capsys, cpus)
            ends.append((code, err, files, int((tmp_path / f"{first}.pid").read_text())))
        (code, err, files, pid), in_process = ends
        assert (code, err, files) == in_process[:3]
        assert pid != os.getpid() and in_process[3] == os.getpid()
        lines = err.splitlines()
        assert code == exit_code and len(lines) == 1 and files == {}
        extra = {"time": 0.5} if kind == "BlowupSuspected" else {}
        assert json.loads(lines[0])["error"] == {"type": kind, "message": str(error), **extra}

    def test_a_raising_check_cancels_the_checks_not_started(self, tmp_path, monkeypatch,
                                                            capsys):
        first, *rest = CHECKS
        monkeypatch.setitem(CHECKS, first, fake_check(tmp_path, first, 0.0, ValueError("no")))
        for name in rest:
            monkeypatch.setitem(CHECKS, name, fake_check(tmp_path, name, 0.5))
        code, err, files = self.run(tmp_path, monkeypatch, capsys, 2)
        assert code == 1 and json.loads(err)["error"]["message"] == "no" and files == {}
        assert not (tmp_path / f"{rest[-1]}.pid").exists()

    def test_a_raising_check_ends_the_checks_running(self, tmp_path, monkeypatch, capsys):
        # the second check sleeps for 60 s, and the first raises once it runs
        first, second, *rest = CHECKS
        started = tmp_path / f"{second}.pid"
        raising = fake_check(tmp_path, first, 0.0, ValueError("no"))
        monkeypatch.setitem(CHECKS, first,
                            lambda **sizes: wait_for(started.exists) and raising(**sizes))
        monkeypatch.setitem(CHECKS, second, fake_check(tmp_path, second, 60.0))
        for name in rest:
            monkeypatch.setitem(CHECKS, name, fake_check(tmp_path, name))
        begin = time.monotonic()
        code, err, files = self.run(tmp_path, monkeypatch, capsys, 2)
        assert time.monotonic() - begin < 30
        assert code == 1 and json.loads(err)["error"]["message"] == "no" and files == {}
        assert int(started.read_text()) != os.getpid()

    def test_a_killed_check_ends_the_checks_running(self, tmp_path, monkeypatch, capsys):
        # the first check dies of SIGKILL once the second, which sleeps for
        # 60 s, runs
        first, second, *rest = CHECKS
        started = tmp_path / f"{second}.pid"

        def killed(**sizes):
            assert wait_for(started.exists)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(CHECKS, first, killed)
        monkeypatch.setitem(CHECKS, second, fake_check(tmp_path, second, 60.0))
        for name in rest:
            monkeypatch.setitem(CHECKS, name, fake_check(tmp_path, name))
        begin = time.monotonic()
        code, err, files = self.run(tmp_path, monkeypatch, capsys, 2)
        assert time.monotonic() - begin < 30
        assert code == 1 and files == {}
        assert json.loads(err)["error"] == {"type": "OSError",
                                            "message": "a forked child ended without a result"}
        assert int(started.read_text()) != os.getpid()

    def test_an_interrupt_ends_the_checks_running(self, tmp_path, monkeypatch):
        # the first check reports at once and the others sleep for 60 s; the
        # interrupt comes once the first report is in and the second check runs
        first, second, *rest = CHECKS
        monkeypatch.setitem(CHECKS, first, fake_check(tmp_path, first))
        for name in (second, *rest):
            monkeypatch.setitem(CHECKS, name, fake_check(tmp_path, name, 60.0))
        started = tmp_path / f"{second}.pid"

        def interrupted(checks, seed, sizes, run):
            def run_until_a_report(runner, tasks):
                for _ in run(runner, tasks):
                    assert wait_for(started.exists)
                    raise KeyboardInterrupt
            return run_checks(checks, seed, sizes, run_until_a_report)

        monkeypatch.setattr(cli, "run_checks", interrupted)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "v"
        threads = threading.active_count()
        begin = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli_main(["verify", "--all", "--out", str(out)])
        assert time.monotonic() - begin < 30
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert int(started.read_text()) != os.getpid()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("jobs, cpus, forks", [
        (0, 4, 0), (1, 4, 0), (7, 1, 0), (7, 2, 2), (2, 8, 2), (7, 64, 7), (11, 64, 11)])
    def test_fork_count(self, monkeypatch, jobs, cpus, forks):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert cli._fork_count(jobs) == forks


class TestProfileCommand:
    def test_snapshot_and_stats(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {
            "dim": 2, "res": 16, "horizon": 0.5,
            "profile": {"kind": "random_divfree", "amplitude": 0.3, "seed": 9}})
        snap = tmp_path / "u0.snap"
        code = cli_main(["profile", "--config", str(cfg), "--out", str(snap)])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        field, t = read_snapshot(snap)
        want = make_profile(field.grid, "random_divfree", amplitude=0.3, seed=9)
        assert t == 0.0
        assert np.array_equal(field.coeffs, want.coeffs)
        assert info["lp_inf"] == pytest.approx(0.3, rel=1e-12)
        assert (info["lp_2"], info["lp_n"], info["lp_inf"]) == (
            lp_norm(want, 2.0), lp_norm(want, float(field.grid.dim)), linf(want))
        assert info["besov_m1"] == besov_norm(want, -1.0)
        assert info["kato_I"] == kato_smallness(want, 0.5, 1.0)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("cnlab ")

    def test_missing_required_argument(self, capsys):
        code = cli_main(["simulate", "--out", "somewhere"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "UsageError"

    def test_bad_choice(self, capsys):
        code = cli_main(["simulate", "--config", "c.json", "--out", "o",
                         "--method", "rk4"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "UsageError"

    def test_python_m_cnlab_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-m", "cnlab", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: cnlab")
        for command in ("simulate", "monitor", "verify", "profile"):
            assert command in done.stdout

    @pytest.mark.parametrize("case, kind", [
        ("profile config is a directory", "ConfigError"),
        ("simulate out is a file", "OSError"),
        ("profile out in a missing directory", "OSError"),
        ("monitor omega is missing", "OSError"),
        ("monitor out in a missing directory", "OSError"),
        ("config is not UTF-8", "ConfigError"),
    ])
    def test_file_errors_are_one_json_line(self, tg_simdir, tmp_path, capsys, case, kind):
        # the type and the exit code, not the message: an atomic write names
        # its random temporary file
        cfg = write_json(tmp_path / "cfg.json", TG_SIM)
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"dim": 2, "note": "caf\xe9"}')
        missing = tmp_path / "missing"
        snaps = str(tg_simdir / "snapshots" / "picard")
        argv = {
            "profile config is a directory":
                ["profile", "--config", str(tmp_path), "--out", str(tmp_path / "u0.snap")],
            "simulate out is a file": ["simulate", "--config", str(cfg), "--out", str(cfg)],
            "profile out in a missing directory":
                ["profile", "--config", str(cfg), "--out", str(missing / "u0.snap")],
            "monitor omega is missing": ["monitor", "--snapshots", snaps, "--omega",
                                         str(missing / "w.snap"), "--out", str(tmp_path / "m.csv")],
            "monitor out in a missing directory":
                ["monitor", "--snapshots", snaps, "--out", str(missing / "m.csv")],
            "config is not UTF-8":
                ["simulate", "--config", str(latin1), "--out", str(tmp_path / "out")],
        }[case]
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert json.loads(err)["error"]["type"] == kind

    def test_docs_name_every_error_type(self):
        # the table's names, and the two failures a command reports itself
        kinds = [kind.__name__ for kind in cli._FAILURES]
        kinds += ["CheckFailed", "CrossValidationFailed"]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for doc in (cli.__doc__, readme):
            for kind in kinds:
                assert kind in doc
