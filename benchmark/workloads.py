"""The three user workloads and the correctness gate of each operation.

A workload is a list of ``cnlab`` commands (steps) run in order through
``cnlab.cli.main``; one pass over the list is a round. Every command is one
operation and every check of ``verify`` is one more. An operation fails when
its gate below finds a problem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CHECK_NAMES = ("smoothing", "paraproduct", "bony_identity", "heat_ln_linf",
               "oseen_kernel", "embedding", "composite_bound")
CSV_COLUMNS = ("t", "lp_2", "lp_n", "lp_inf", "besov_m1", "besov_dist_omega",
               "kato_I", "energy")


Ops = list[tuple[str, list[str]]]   # (operation, its problems; none means it passed)


@dataclass
class Step:
    """One cnlab command and the gate that judges its outputs.

    The gate returns the step's operations and the facts it read from the
    outputs (``cross_discrepancy``, ``summary_csv_bytes``).
    """

    name: str
    argv: list[str]
    gate: Callable[[int | None, "Step"], tuple[Ops, dict]]
    out: Path
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    grids: tuple[tuple[int, int, int], ...]   # (dim, res, states held at once)
    build: Callable[[int, Path, "SummaryReference", bool], list[Step]]

    def setup(self, seed: int, workdir: Path, reference: "SummaryReference",
              warmup: bool = False) -> list[Step]:
        """Write the workload's inputs for ``seed`` under ``workdir``.

        With ``warmup`` the steps are the same commands on the workload's
        grids at a fraction of the work (1/8 for the simulate workloads,
        about 1/4 for verify), for the discarded round before the timed ones.
        """
        workdir.mkdir(parents=True, exist_ok=True)
        return self.build(seed, workdir, reference, warmup)


def _write_json(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _exit_problems(rc: int | None) -> list[str]:
    if rc is None:
        return ["command raised"]
    return [] if rc == 0 else [f"exit code {rc}"]


def monitor_csv_problems(path: Path, rows_expected: int, omega: bool, kato: bool) -> list[str]:
    """Missing or non-finite values in a monitor CSV.

    ``besov_dist_omega`` is expected only with a reference profile, and
    ``kato_I`` only with the Kato column on and some horizon left (t < the
    last time, whose remaining horizon is 0).
    """
    if not path.is_file():
        return [f"{path.name}: missing"]
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        return [f"{path.name}: bad header"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != rows_expected:
        return [f"{path.name}: {len(rows)} rows, expected {rows_expected}"]
    problems = []
    try:
        horizon = float(rows[-1][0])
    except (ValueError, IndexError):
        return [f"{path.name}: unreadable last time"]
    for i, row in enumerate(rows):
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"{path.name} row {i}: {len(row)} fields")
            continue
        t = float(row[0]) if row[0] else math.nan
        for col, val in zip(CSV_COLUMNS, row):
            expected = not ((col == "besov_dist_omega" and not omega)
                            or (col == "kato_I" and (not kato or t >= horizon)))
            if not val:
                if expected:
                    problems.append(f"{path.name} row {i}: {col} missing")
                continue
            try:
                finite = math.isfinite(float(val))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"{path.name} row {i}: {col} = {val}")
    return problems


def simulate_gate(rc: int | None, step: Step) -> tuple[Ops, dict]:
    problems = _exit_problems(rc)
    report_path = step.out / "report.json"
    if not report_path.is_file():
        return [("simulate", problems + ["report.json missing"])], {}
    report = json.loads(report_path.read_text())
    cross = report.get("cross_validation") or {}
    if cross.get("passed") is not True:
        problems.append(f"cross-validation did not pass: {cross.get('discrepancy')}")
    conv = report.get("runs", {}).get("picard", {}).get("convergence", {})
    if conv.get("converged") is not True:
        problems.append("picard did not converge")
    kato = report["config"]["monitor"]["kato_horizon"] is not None
    for method, run in report.get("runs", {}).items():
        problems += monitor_csv_problems(step.out / f"monitor_{method}.csv",
                                         run.get("states", -1), omega=False, kato=kato)
    return [("simulate", problems)], {"cross_discrepancy": cross.get("discrepancy")}


def monitor_gate(rc: int | None, step: Step) -> tuple[Ops, dict]:
    problems = _exit_problems(rc)
    if not problems:
        problems = monitor_csv_problems(step.out, step.params["snapshots"], omega=True, kato=True)
    return [("monitor", problems)], {}


class SummaryReference:
    """The first summary.csv seen for each seed.

    Held in memory for the rounds of one run and on disk, under a key that
    includes a hash of the cnlab sources, for later runs in the same checkout.
    """

    def __init__(self, directory: Path, source_hash: str) -> None:
        self.directory = directory
        self.source_hash = source_hash
        self.seen: dict[int, str] = {}

    def problems(self, seed: int, text: str) -> list[str]:
        path = self.directory / f"verify-seed{seed}-{self.source_hash}.summary.csv"
        if seed not in self.seen:
            if path.is_file():
                self.seen[seed] = path.read_text()
            else:
                self.directory.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                self.seen[seed] = text
        if text != self.seen[seed]:
            return ["summary.csv differs from the first run of this seed"]
        return []


def verify_gate(rc: int | None, step: Step) -> tuple[Ops, dict]:
    problems = _exit_problems(rc)
    summary = step.out / "summary.csv"
    if not summary.is_file():
        return [("verify", problems + ["summary.csv missing"])] + [
            (f"verify.{c}", ["no result"]) for c in CHECK_NAMES], {}
    text = summary.read_text()
    problems += step.params["reference"].problems(step.params["seed"], text)
    rows = [ln.split(",") for ln in text.splitlines()[1:] if ln]
    ops = [("verify", problems)]
    for check in CHECK_NAMES:
        mine = [r for r in rows if r[0].startswith(check)]
        bad = [r[0] for r in mine if r[-1] != "pass"]
        ops.append((f"verify.{check}", ["no result"] if not mine else [f"{n} failed" for n in bad]))
    return ops, {"summary_csv_bytes": len(text.encode())}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Picard time nodes of both simulate workloads. Both routes record a state at
# each of the NODE_COUNT + 1 grid times: the monitor stack, and the snapshots
# that session-2d's monitor command reads back.
NODE_COUNT = 64
# A warm-up round keeps the node spacing and the step size and covers 1/8 of
# the horizon, so it makes the same transforms on the same arrays 1/8 as often.
WARMUP_SCALE = 8


def _simulate_config(seed: int, dim: int, res: int, horizon: float, dt: float,
                     amplitude: float, warmup: bool) -> dict:
    scale = WARMUP_SCALE if warmup else 1
    return {"dim": dim, "res": res, "nu": 1.0, "horizon": horizon / scale,
            "picard": {"node_count": NODE_COUNT // scale}, "etdrk4": {"dt": dt},
            "profile": {"kind": "random_divfree", "amplitude": amplitude, "seed": seed}}


def _build_simulate_3d(seed: int, workdir: Path, reference, warmup: bool) -> list[Step]:
    data = _simulate_config(seed, dim=3, res=32, horizon=0.5, dt=5e-3, amplitude=0.1,
                            warmup=warmup)
    data["monitor"] = {"kato_horizon": None}
    cfg = _write_json(workdir / "simulate-3d.json", data)
    out = workdir / "sim3d"
    return [Step("simulate", ["simulate", "--config", cfg, "--out", str(out),
                              "--method", "both"], simulate_gate, out)]


def _build_session_2d(seed: int, workdir: Path, reference, warmup: bool) -> list[Step]:
    data = _simulate_config(seed, dim=2, res=64, horizon=1.0, dt=1e-3, amplitude=0.25,
                            warmup=warmup)
    cfg = _write_json(workdir / "session-2d.json", data)
    out = workdir / "s2d"
    snaps = out / "snapshots" / "etdrk4"
    return [
        Step("simulate", ["simulate", "--config", cfg, "--out", str(out), "--method", "both"],
             simulate_gate, out),
        Step("monitor", ["monitor", "--snapshots", str(snaps), "--omega",
                         str(snaps / "state_0000.snap"), "--p", "4",
                         "--out", str(workdir / "monitor.csv")],
             monitor_gate, workdir / "monitor.csv",
             {"snapshots": data["picard"]["node_count"] + 1}),
    ]


VERIFY_SIZES = {
    "smoothing": {"trials": 4, "nodes": 32},
    "paraproduct": {"trials": 10},
    "bony_identity": {"pairs": 60, "res_list": [16, 32], "dims": [2, 3]},
}


# Few trials, on the grids of VERIFY_SIZES and the defaults. Smoothing needs
# 4 trials to pass; its fit over six horizons is a fixed cost, so this round
# is about a quarter of a timed one.
VERIFY_WARMUP_SIZES = {
    "smoothing": {"trials": 4, "nodes": 8},
    "paraproduct": {"trials": 2},
    "bony_identity": {"pairs": 8, "res_list": [16, 32], "dims": [2, 3]},
    "heat_ln_linf": {"trials": 5},
    "oseen_kernel": {"trials": 1},
    "embedding": {"trials": 10},
    "composite_bound": {"res_list": [16]},
}


def _build_verify(seed: int, workdir: Path, reference, warmup: bool) -> list[Step]:
    sizes = VERIFY_WARMUP_SIZES if warmup else VERIFY_SIZES
    cfg = _write_json(workdir / "verify.json", {"sizes": sizes})
    out = workdir / "verify"
    return [Step("verify", ["verify", "--all", "--config", cfg, "--seed", str(seed),
                            "--out", str(out)], verify_gate, out,
                 {"seed": seed, "reference": reference})]


WORKLOADS = {w.name: w for w in (
    Workload("simulate-3d", ((3, 32, NODE_COUNT + 1),), _build_simulate_3d),
    Workload("session-2d", ((2, 64, NODE_COUNT + 1),), _build_session_2d),
    # paraproduct, heat_ln_linf and oseen_kernel at their default top grid
    # 2D/128; smoothing's Duhamel path holds nodes + 1 states on 2D/64;
    # bony_identity's largest 3D grid
    Workload("verify", ((2, 128, 1), (2, 64, VERIFY_SIZES["smoothing"]["nodes"] + 1),
                        (3, max(VERIFY_SIZES["bony_identity"]["res_list"]), 1)),
             _build_verify),
)}


def load_configs(steps: list[Step]) -> None:
    """Parse every config through cnlab's strict reader, as the CLI will."""
    from cnlab import config
    for step in steps:
        if "--config" not in step.argv:
            continue
        data = config.load_json(step.argv[step.argv.index("--config") + 1])
        if step.name == "simulate":
            config.monitor_options_from_dict(data.pop("monitor", None))
            config.solver_config_from_dict(data)
        else:
            config.verify_config_from_dict(data)


def working_sets(workload: Workload) -> list[dict]:
    """Bytes of one field, one tensor and the largest state stack per grid."""
    out = []
    for dim, res, states in workload.grids:
        field_bytes = dim * res**dim * 16   # complex128
        out.append({"dim": dim, "res": res, "field_bytes": field_bytes,
                    "tensor_bytes": dim * field_bytes, "stack_states": states,
                    "stack_bytes": states * field_bytes})
    return out
