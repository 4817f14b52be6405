"""Strict config parsing and the in-process command line surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cnlab import cli, config, solver
from cnlab.cli import main as cli_main
from cnlab.config import (ConfigError, load_json, monitor_options_from_dict,
                          solver_config_from_dict, verify_config_from_dict)
from cnlab.fields import lp_norm
from cnlab.grid import Grid
from cnlab.monitor import CSV_COLUMNS, read_monitor_csv, write_monitor_csv
from cnlab.semigroup import heat
from cnlab.snapshots import read_snapshot, write_snapshot
from cnlab.solver import (EtdrkOptions, PicardOptions, ProfileSpec, SolverConfig,
                          etdrk4_integrate, kato_smallness, make_profile)
from cnlab.verification import CHECKS, SIZE_KEYS, VerificationReport


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


# a random 2D/16 run that converges and cross-validates, with the sidecar on
OVERLAP_SIM = {"dim": 2, "res": 16, "nu": 0.7, "horizon": 0.2,
               "picard": {"node_count": 8}, "etdrk4": {"dt": 0.005},
               "profile": {"kind": "random_divfree", "amplitude": 0.3, "seed": 1},
               "monitor": {"p_list": [4]}}
BLOWUP_SIM = {"dim": 2, "res": 16, "nu": 1e-3, "horizon": 1.0,
              "picard": {"node_count": 10}, "etdrk4": {"dt": 0.05},
              "profile": {"kind": "random_divfree", "amplitude": 1e3, "seed": 1}}


class TestSimulateOverlap:
    """simulate --method both ends the same, artifact for artifact, whether
    ETDRK4 runs on a worker thread beside Picard (cutoff 0) or after it on
    the calling thread (cutoff inf)."""

    @staticmethod
    def run(tmp_path, monkeypatch, capsys, data, cutoff):
        monkeypatch.setattr(cli, "_OVERLAP_BYTES", cutoff)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        solved_on = []

        def integrate(*args, **kwargs):
            solved_on.append(threading.current_thread())
            return etdrk4_integrate(*args, **kwargs)

        monkeypatch.setattr(cli, "etdrk4_integrate", integrate)
        cfg = write_json(tmp_path / "cfg.json", data)
        out = tmp_path / f"out-{cutoff}"
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                             "--method", "both"])
        assert threading.active_count() == threads
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.replace(str(out), "OUT")
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file() and p.name != "report.json"}
        report = json.loads((out / "report.json").read_text().replace(str(out), "OUT"))
        report["runs"]["picard"]["convergence"].pop("wall_time")
        return code, err, files, report, solved_on

    @pytest.mark.parametrize("case, data, exit_code", [
        ("converged", OVERLAP_SIM, 0),
        ("max-iters", {**OVERLAP_SIM, "picard": {"node_count": 8, "max_iters": 1}}, 3),
        ("cross-validation", {**OVERLAP_SIM, "cross_tol": 1e-30}, 2),
        # Picard diverges on the blow-up config before ETDRK4 is asked for
        ("picard-diverges", BLOWUP_SIM, 3),
        # a loose tolerance lets Picard pass, so ETDRK4's blow-up decides
        ("etdrk4-blows-up", {**BLOWUP_SIM, "picard": {"node_count": 10,
                                                      "contraction_tol": 1e30}}, 4)])
    def test_worker_thread_changes_no_artifact(self, tmp_path, monkeypatch, capsys,
                                               case, data, exit_code):
        *overlapped, on_worker = self.run(tmp_path, monkeypatch, capsys, data, 0)
        *sequential, on_caller = self.run(tmp_path, monkeypatch, capsys, data, math.inf)
        assert overlapped == sequential
        code, err, files, report = sequential
        assert code == exit_code
        assert (json.loads(err)["error"]["type"] if err else None) == (
            report["error"] and report["error"]["type"])
        # a failed Picard route drops ETDRK4's result, which the worker computed
        routes = {"picard"} if exit_code == 3 else {"picard", "etdrk4"}
        assert set(report["runs"]) == routes
        assert {name.split("/")[1] for name in files if "/" in name} == routes
        assert len(on_worker) == 1 and on_worker[0] is not threading.main_thread()
        assert on_caller == [threading.main_thread()] * (len(routes) - 1)

    def test_small_states_stay_on_the_calling_thread(self, tmp_path, monkeypatch, capsys):
        # 2D/16 states are 4.5 KiB, below the module's cutoff
        *_, solved_on = self.run(tmp_path, monkeypatch, capsys, OVERLAP_SIM, cli._OVERLAP_BYTES)
        assert solved_on == [threading.main_thread()]

    def test_rebound_transforms_keep_the_calling_thread(self, tmp_path, monkeypatch, capsys):
        # a wrapper around a numpy transform, as a profiler installs one
        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", lambda *a, **k: irfftn(*a, **k))
        *_, solved_on = self.run(tmp_path, monkeypatch, capsys, OVERLAP_SIM, 0)
        assert solved_on == [threading.main_thread()]

    @pytest.mark.parametrize("data", [
        {**OVERLAP_SIM, "picard": {"node_count": 8, "max_iters": 1}}, BLOWUP_SIM])
    def test_failed_picard_stops_the_worker(self, tmp_path, monkeypatch, data):
        monkeypatch.setattr(cli, "_OVERLAP_BYTES", 0)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        ends = []

        def integrate(u0, cfg, stop):
            # hold the solve back until the calling thread has left the
            # overlap; a stop that never comes leaves False here
            ends.append(stop.wait(60))
            try:
                etdrk4_integrate(u0, cfg, stop)
            except solver.Cancelled:
                ends.append("cancelled")
            else:
                ends.append("finished")

        monkeypatch.setattr(cli, "etdrk4_integrate", integrate)
        cfg = write_json(tmp_path / "cfg.json", data)
        out = tmp_path / "out"
        threads = threading.active_count()
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--method", "both"]) == 3
        assert threading.active_count() == threads
        assert ends == [True, "cancelled"]
        assert not (out / "snapshots" / "etdrk4").exists()


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
        monkeypatch.setattr("cnlab.cli.run_checks", lambda *a, **k: [fake])
        out = tmp_path / "v"
        code = cli_main(["verify", "--all", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CheckFailed"
        assert (out / "summary.csv").read_text().splitlines()[1].endswith(",fail")


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
        assert info["kato_I"] == pytest.approx(
            kato_smallness(want, 0.5, 1.0).value, rel=1e-12)


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
