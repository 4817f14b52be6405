"""Command-line front end.

Subcommands:
    simulate   run the mild solver on a configured profile, writing state
               snapshots, a monitor CSV, and report.json; --method both
               solves by the two routes side by side on two threads when
               the states are large enough to gain from it
    monitor    recompute monitor records from stored snapshots
    verify     run the estimate-verification suite, writing per-check JSON
               reports and a deterministic summary.csv
    profile    materialize configured initial data as a snapshot

Exit codes: 0 success, 1 usage or configuration error, 2 verification check
failed or simulate --method both failed cross-validation (after writing all
artifacts), 3 fixed-point iteration did not converge, 4 suspected blow-up.
Errors are emitted as a single JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import os
import sys
import threading
from contextlib import ExitStack
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, load_json, monitor_options_from_dict,
                     solver_config_from_dict, verify_config_from_dict)
from .fields import _transforms_rebound, linf, lp_norm
from .littlewood_paley import besov_norm
from .monitor import monitor, write_monitor_csv
from .semigroup import TimeGrid
from .snapshots import SnapshotError, atomic_write, read_snapshot, write_snapshot
from .solver import (BlowupSuspected, NonConvergence, Trajectory,
                     compare_trajectories, etdrk4_integrate, kato_smallness,
                     picard_solve, profile_from_spec)
from .verification import run_checks, summary_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BLOWUP = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the JSON error channel with exit code 1
    def error(self, message: str) -> None:
        raise UsageError(message)


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _dump_json(path: Path, obj: dict) -> None:
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _write_trajectory_artifacts(outdir: Path, traj: Trajectory, method: str,
                                mon_opts: dict, echo: dict) -> dict:
    snapdir = outdir / "snapshots" / method
    snapdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for m, state in enumerate(traj.states):
        p = snapdir / f"state_{m:04d}.snap"
        write_snapshot(p, state, float(traj.times[m]))
        paths.append(str(p))
    records = monitor(traj, p_list=mon_opts["p_list"],
                      kato_horizon=mon_opts["kato_horizon"],
                      cutoff=mon_opts["cutoff"])
    csv_path = outdir / f"monitor_{method}.csv"
    write_monitor_csv(records, csv_path, config_echo=echo)
    return {"snapshots": paths, "monitor_csv": str(csv_path),
            "states": len(traj.coeffs)}


# Half-spectrum bytes of one state from which simulate --method both solves
# by ETDRK4 on a worker thread while Picard runs on the calling thread. The
# two routes share only u0, and their time goes to FFTs and large
# elementwise loops, which numpy runs without holding the GIL. On smaller
# states the GIL hand-offs cost more than the second core gains (measured:
# 2D/64 and 3D/16 lose, 2D/128 and 3D/32 win). Both routes would call a
# profiler's wrappers around the transforms, and one that keeps a single
# call stack per process would mix their attributions from run to run, so
# with the transforms rebound the routes run one after the other.
_OVERLAP_BYTES = 256 << 10


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    data = load_json(args.config)
    cfg = solver_config_from_dict(data)
    mon_opts = monitor_options_from_dict(data.get("monitor"))
    echo = {"solver": cfg.to_dict(), "monitor": mon_opts, "method": args.method}
    u0 = profile_from_spec(cfg.grid(), cfg.profile)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    report: dict = {"config": echo, "runs": {}, "cross_validation": None, "error": None}
    code = EXIT_OK
    methods = ["picard", "etdrk4"] if args.method == "both" else [args.method]
    trajs: dict[str, Trajectory] = {}
    # leaving the block stops and joins the worker, on every path: a failed
    # Picard route drops ETDRK4's result, and an ETDRK4 failure is raised by
    # etdrk4() after Picard's artifacts are written, as in a sequential run
    with ExitStack() as stack:
        etdrk4 = partial(etdrk4_integrate, u0, cfg)
        if (args.method == "both" and u0.coeffs.nbytes >= _OVERLAP_BYTES
                and _usable_cpus() >= 2 and not _transforms_rebound()):
            from concurrent.futures import ThreadPoolExecutor  # only this path pays its import
            pool = stack.enter_context(ThreadPoolExecutor(1))
            # set before the pool joins the worker, so that a run whose Picard
            # route failed, or that is interrupted, does not wait for the rest
            # of the ETDRK4 solve; after a whole run it is already done
            stop = threading.Event()
            stack.callback(stop.set)
            # the worker runs in the caller's context, numpy's error state included
            etdrk4 = pool.submit(contextvars.copy_context().run, etdrk4, stop=stop).result
        for method in methods:
            try:
                if method == "picard":
                    traj, conv = picard_solve(u0, cfg)
                    run_info = {"convergence": conv.to_dict()}
                else:
                    traj = etdrk4()
                    run_info = {"meta": {k: v for k, v in traj.meta.items() if k != "config"}}
            except NonConvergence as exc:
                traj, run_info = exc.trajectory, {"convergence": exc.report.to_dict()}
                report["error"] = {"type": "NonConvergence", "message": str(exc)}
                code = EXIT_NO_CONVERGENCE
            except BlowupSuspected as exc:
                traj, run_info = exc.trajectory, {"blowup_time": exc.time}
                report["error"] = {"type": "BlowupSuspected", "message": str(exc),
                                   "time": exc.time}
                code = EXIT_BLOWUP
            trajs[method] = traj
            run_info.update(_write_trajectory_artifacts(outdir, traj, method, mon_opts, echo))
            report["runs"][method] = run_info
            if code != EXIT_OK:
                break

    if code == EXIT_OK and len(trajs) == 2:
        cross = compare_trajectories(trajs["picard"], trajs["etdrk4"], cfg.cross_tol)
        report["cross_validation"] = cross
        if not cross["passed"]:
            report["error"] = {"type": "CrossValidationFailed",
                               "message": f"discrepancy {cross['discrepancy']:.6g} exceeds "
                                          f"cross_tol {cfg.cross_tol:.6g}"}
            code = EXIT_CHECK_FAILED

    _dump_json(outdir / "report.json", report)
    if report["error"] is not None:
        _emit_error(report["error"]["type"], report["error"]["message"],
                    report_json=str(outdir / "report.json"))
    return code


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def _collect_snapshot_paths(items: list[str]) -> list[Path]:
    paths: list[Path] = []
    for item in items:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.snap")))
        elif p.exists():
            paths.append(p)
        else:
            raise UsageError(f"snapshot path not found: {item}")
    if not paths:
        raise UsageError("no snapshot files found")
    return paths


def _cmd_monitor(args: argparse.Namespace) -> int:
    loaded = []
    for p in _collect_snapshot_paths(args.snapshots):
        f, t = read_snapshot(p)
        loaded.append((t, f, p))
    # order by header time, not file name: state_10000.snap sorts before state_1001.snap
    loaded.sort(key=lambda item: item[0])
    times, states, paths = zip(*loaded)
    grid = states[0].grid
    if any(f.grid != grid for f in states):
        raise UsageError("snapshots mix different grids")
    if len(times) < 2:
        raise UsageError("need at least two snapshots to form a trajectory")
    try:
        tgrid = TimeGrid(np.array(times))
    except ValueError as exc:
        raise UsageError(f"snapshot times do not form a time grid: {exc}")
    omega = read_snapshot(args.omega)[0] if args.omega else None
    kh = None if args.kato_horizon == "none" else (
        "default" if args.kato_horizon == "default" else float(args.kato_horizon))
    traj = Trajectory(grid, tgrid, np.stack([f.coeffs for f in states]),
                      method="snapshots", meta={"nu": args.nu})
    records = monitor(traj, p_list=tuple(args.p), omega=omega, kato_horizon=kh,
                      cutoff=args.cutoff, nu=args.nu)
    echo = {"nu": args.nu, "cutoff": args.cutoff, "kato_horizon": args.kato_horizon,
            "p_list": args.p, "snapshots": [str(p) for p in paths]}
    write_monitor_csv(records, args.out, config_echo=echo)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    data = load_json(args.config) if args.config else {}
    if args.checks:
        data["checks"] = args.checks
    if args.all:
        data.pop("checks", None)
    if args.seed is not None:
        data["seed"] = args.seed
    checks, seed, sizes = verify_config_from_dict(data)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = run_checks(checks, seed=seed, sizes=sizes)
    for rep in reports:
        _dump_json(outdir / f"{rep.name}.json", rep.to_dict())
    atomic_write(outdir / "summary.csv", summary_csv(reports).encode())
    failed = [r.name for r in reports if not r.passed]
    if failed:
        _emit_error("CheckFailed", f"{len(failed)} check(s) failed: {failed}",
                    summary_csv=str(outdir / "summary.csv"))
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _cmd_profile(args: argparse.Namespace) -> int:
    cfg = solver_config_from_dict(load_json(args.config))
    grid = cfg.grid()
    u0 = profile_from_spec(grid, cfg.profile)
    write_snapshot(args.out, u0, 0.0)
    info = {
        "snapshot": str(args.out),
        "kind": cfg.profile.kind,
        "dim": grid.dim,
        "res": grid.res,
        "lp_2": lp_norm(u0, 2.0),
        "lp_n": lp_norm(u0, float(grid.dim)),
        "lp_inf": linf(u0),
        "besov_m1": besov_norm(u0, -1.0),
        "kato_I": kato_smallness(u0, min(1.0, cfg.horizon), cfg.nu).value,
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="cnlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"cnlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the mild solver")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--method", choices=["picard", "etdrk4", "both"],
                       default="picard",
                       help="'both' solves by both routes and cross-validates; "
                            "exit code 2 if they differ by more than cross_tol")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mon = sub.add_parser("monitor", help="monitor stored snapshots")
    p_mon.add_argument("--snapshots", nargs="+", required=True,
                       help="snapshot files or directories")
    p_mon.add_argument("--out", required=True, help="output CSV path")
    p_mon.add_argument("--nu", type=float, default=1.0,
                       help="viscosity of the Kato column, a finite number > 0")
    p_mon.add_argument("--p", type=float, nargs="*", default=[],
                       help="extra Lebesgue exponents; their norms go to "
                            "<out stem>.extra_lp.json beside the CSV (t plus one "
                            "list per exponent), since the CSV columns are fixed")
    p_mon.add_argument("--kato-horizon", default="default",
                       help="'default', 'none', or a finite number > 0")
    p_mon.add_argument("--cutoff", choices=["sharp", "smooth"], default="sharp")
    p_mon.add_argument("--omega", default=None,
                       help="reference snapshot for the Besov distance column")
    p_mon.set_defaults(func=_cmd_monitor)

    p_ver = sub.add_parser("verify", help="run estimate verification checks")
    p_ver.add_argument("--all", action="store_true", help="run every check")
    p_ver.add_argument("--checks", nargs="*", default=None,
                       help="subset of check names")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--config", default=None,
                       help="optional JSON with checks/seed/sizes")
    p_ver.add_argument("--out", required=True, help="output directory")
    p_ver.set_defaults(func=_cmd_verify)

    p_prof = sub.add_parser("profile", help="materialize initial data")
    p_prof.add_argument("--config", required=True)
    p_prof.add_argument("--out", required=True, help="snapshot path")
    p_prof.set_defaults(func=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _emit_error("UsageError", str(exc))
        return EXIT_USAGE
    except ConfigError as exc:
        _emit_error("ConfigError", str(exc))
        return EXIT_USAGE
    except SnapshotError as exc:
        _emit_error("SnapshotError", str(exc))
        return EXIT_USAGE
    except ValueError as exc:
        _emit_error("ValueError", str(exc))
        return EXIT_USAGE
    except NonConvergence as exc:
        _emit_error("NonConvergence", str(exc))
        return EXIT_NO_CONVERGENCE
    except BlowupSuspected as exc:
        _emit_error("BlowupSuspected", str(exc), time=exc.time)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
