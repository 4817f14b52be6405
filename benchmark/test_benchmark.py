"""Tests of the benchmark itself: run with ``python3 -m pytest benchmark``.

The exact-count tests run each workload twice in fresh processes (about
four minutes for all three); select one with ``-k session``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer

run._import_cnlab()

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

# counts that must repeat exactly between runs of one seed
EXACT = ("fft.calls", "fft.points", "solver.rhs_evals", "solver.picard_iters",
         "phi.calls", "snapshots.write_snapshot.bytes", "snapshots.read_snapshot.bytes",
         "verification.summary_csv_bytes")


def _result(cmd: list[str], cwd: Path, timeout: float) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc, last if isinstance(last, dict) and "metrics" in last else None


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(EXACT) <= {name for name, _, _ in run.PER_LAYER}


def test_self_time_excludes_child_spans():
    tr = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        tr._call("m.inner", inner, (), {})
        time.sleep(0.01)

    tr._call("m.outer", outer, (), {})
    out, inn = tr.stats["m.outer"], tr.stats["m.inner"]
    assert out["calls"] == inn["calls"] == 1
    assert math.isclose(out["self_s"], out["total_s"] - inn["total_s"], rel_tol=1e-9)
    assert 0.008 < out["self_s"] < out["total_s"]


def test_install_rebinds_imports_by_value_and_uninstall_restores():
    import importlib

    from cnlab.grid import Grid
    from cnlab.solver import make_profile

    fields = importlib.import_module("cnlab.fields")
    semigroup = importlib.import_module("cnlab.semigroup")
    mon = importlib.import_module("cnlab.monitor")
    cli = importlib.import_module("cnlab.cli")
    verification = importlib.import_module("cnlab.verification")
    before = (semigroup.pointwise_tensor, cli.monitor, mon.monitor, np.fft.fftn,
              dict(verification.CHECKS))
    u = make_profile(Grid(2, 16), "random_divfree", amplitude=0.5, seed=3)
    with Tracer() as tr:
        tr.install()
        assert semigroup.pointwise_tensor.__wrapped__ is before[0]
        assert cli.monitor is mon.monitor and cli.monitor.__wrapped__ is before[1]
        assert verification.CHECKS["smoothing"].__wrapped__ is before[4]["smoothing"]
        semigroup.nonlinearity(u)
        # linf, divergence_sup: one inverse transform each; the product: one
        # inverse and three forward
        assert tr.stats["fields.pointwise_tensor"]["fft_calls"] == 4
        assert tr.stats["fields.divergence_sup"]["fft_calls"] == 1
        assert tr.stats["fields.lp_norm"]["fft_calls"] == 1
        assert tr.fft["calls"] == 6
    after = (semigroup.pointwise_tensor, cli.monitor, mon.monitor, np.fft.fftn,
             dict(verification.CHECKS))
    assert after[:4] == before[:4] and after[4] == before[4]
    assert fields.pointwise_tensor is before[0]


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    path.write_text("\n".join([",".join(workloads.CSV_COLUMNS)] + [",".join(r) for r in rows]) + "\n")


def test_monitor_csv_gate(tmp_path):
    good = [["0.0", "1", "1", "1", "1", "", "0.5", "0.5"],
            ["1.0", "1", "1", "1", "1", "", "", "0.5"]]
    path = tmp_path / "m.csv"
    _write_csv(path, good)
    assert workloads.monitor_csv_problems(path, 2, omega=False, kato=True) == []
    assert workloads.monitor_csv_problems(path, 3, omega=False, kato=True)
    assert workloads.monitor_csv_problems(path, 2, omega=True, kato=True)
    _write_csv(path, [good[0][:4] + ["nan"] + good[0][5:], good[1]])
    assert workloads.monitor_csv_problems(path, 2, omega=False, kato=True)
    _write_csv(path, [good[0][:6] + [""] + good[0][7:], good[1]])
    assert workloads.monitor_csv_problems(path, 2, omega=False, kato=True)
    assert workloads.monitor_csv_problems(path, 2, omega=False, kato=False) == []


def test_summary_reference_flags_a_changed_summary(tmp_path):
    ref = workloads.SummaryReference(tmp_path, "abc")
    assert ref.problems(1, "a\n") == []
    assert ref.problems(1, "a\n") == []
    assert ref.problems(1, "b\n")
    # a later run in the same checkout compares against the stored file
    assert workloads.SummaryReference(tmp_path, "abc").problems(1, "b\n")
    assert workloads.SummaryReference(tmp_path, "other").problems(1, "b\n") == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc, result = _result([sys.executable, f"{HERE.name}/run.py", "--workload", "verify",
                            "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path, 60)
    assert proc.returncode != 0
    assert result is None


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counts_repeat_between_runs(workload):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", "1"]
    results = []
    for _ in range(2):
        proc, result = _result(cmd, run.ROOT, 170)
        assert proc.returncode == 0, proc.stderr
        assert result is not None and result["correct"], proc.stderr
        results.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "B")}
              for m in results]
    assert counts[0] == counts[1]
    for name in EXACT:
        assert name in counts[0]
