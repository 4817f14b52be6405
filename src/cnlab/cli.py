"""Command-line front end.

Subcommands:
    simulate   run the mild solver on a configured profile. Once the config
               has parsed, clear report.json, snapshots/<method> and
               monitor_<method>.* in --out; stage snapshots and take monitor
               records as the solve makes the states; per route, publish the
               snapshots with one rename and write a monitor CSV; write
               report.json last, so a run that dies leaves none, only the
               routes it published (and a hidden stage if killed). --method
               both forks ETDRK4's route beside Picard's on two or more usable
               CPUs and cross-validates Picard's against ETDRK4's snapshots
    monitor    recompute monitor records from stored snapshots
    verify     run the estimate-verification suite, writing per-report JSON
               files and a deterministic summary.csv; each check runs in its
               own forked child, at most one at a time per usable CPU, with
               the same output as one after another in-process; a single
               check runs in-process, and a raising check, an interrupt or a
               child that dies ends the checks still running
    profile    materialize configured initial data as a snapshot and print
               its monitor record at t = 0

Exit codes, each with its error types: 0 success; 1 a usage, configuration,
snapshot or file error: UsageError, ConfigError, SnapshotError, ValueError, OSError;
2 CheckFailed or, for simulate --method both, CrossValidationFailed (after writing
all artifacts); 3 NonConvergence of the fixed-point iteration; 4 BlowupSuspected.
Errors are emitted as a single JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import uuid
from collections import deque
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import (ConfigError, load_json, monitor_options_from_dict,
                     solver_config_from_dict, verify_config_from_dict)
from .fields import SpectralVectorField, _transforms_rebound
from .monitor import monitor, monitor_rows, write_monitor_csv
from .semigroup import TimeGrid
from .snapshots import SnapshotError, atomic_write, read_snapshot, read_snapshot_header, write_snapshot
from .solver import (BlowupSuspected, NonConvergence, PicardPath, SolverConfig,
                     Trajectory, _etdrk4_meta, compare_trajectories, etdrk4_rows,
                     picard_path, profile_from_spec)
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


# Each reported failure and its exit code. An exception is reported under the
# first row it is an instance of, so a ValueError subclass without a row is a ValueError.
_FAILURES = {UsageError: EXIT_USAGE, ConfigError: EXIT_USAGE, SnapshotError: EXIT_USAGE,
             ValueError: EXIT_USAGE, OSError: EXIT_USAGE,
             NonConvergence: EXIT_NO_CONVERGENCE, BlowupSuspected: EXIT_BLOWUP}


def _failure(exc: Exception) -> tuple[dict, int]:
    """The error {type, message[, time]} of a reported failure, and its exit code."""
    kind = next(kind for kind in _FAILURES if isinstance(exc, kind))
    error = {"type": kind.__name__, "message": str(exc)}
    if isinstance(exc, BlowupSuspected):
        error["time"] = exc.time
    return error, _FAILURES[kind]


def _emit_error(error: dict) -> None:
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)


def _dump_json(path: Path, obj: dict) -> None:
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _route(method: str, u0: SpectralVectorField, cfg: SolverConfig, mon_opts: dict,
           stage: Path) -> tuple[dict, dict | None, int, list, PicardPath | None]:
    """Solve by one method and monitor the states as they come, writing
    their snapshots into ``stage`` as state_<m>.snap. Returns
    the run info for report.json, the error (None if the solve succeeded),
    the exit code, the monitor records and Picard's converged path (None
    for ETDRK4 and for a failed solve)."""
    error, code, path = None, EXIT_OK, None
    if method == "picard":
        try:
            path = picard_path(u0, cfg)
            conv, rows = path.report, path.rows()
        except NonConvergence as exc:
            conv, rows, (error, code) = exc.report, exc.trajectory.coeffs, _failure(exc)
        run_info = {"convergence": conv.to_dict()}
    else:
        run_info = {"meta": _etdrk4_meta(cfg)}
        rows = etdrk4_rows(u0, cfg)
    tg = cfg.time_grid()
    blowups = []

    def finite():
        try:
            yield from rows
        except BlowupSuspected as exc:  # the finite states before it are monitored
            blowups.append(exc)

    # a batch's snapshots in one burst: one at a time between solve steps took twice as long
    def write(start: int, states: np.ndarray) -> None:
        for m, row in enumerate(states, start):
            write_snapshot(stage / f"state_{m:04d}.snap",
                           SpectralVectorField(u0.grid, row), float(tg.nodes[m]))

    records = monitor_rows(finite(), u0.grid, tg.nodes, tg.horizon, float(cfg.nu), **mon_opts,
                           on_batch=write)
    if blowups:
        run_info, (error, code) = {"blowup_time": blowups[0].time}, _failure(blowups[0])
    return run_info, error, code, records, path


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fork_count(jobs: int) -> int:
    """How many forked children run ``jobs`` at a time: one per job, capped
    by the usable CPUs; 0 where the jobs stay in this process: on one core,
    while numpy's transforms are rebound, since a profiler's wrappers
    attribute each transform to one call stack, without os.fork, or beside
    another live thread, whose locks would stay held in a forked child."""
    cores = min(jobs, _usable_cpus())
    return 0 if (cores < 2 or _transforms_rebound() or not hasattr(os, "fork")
                 or threading.active_count() > 1) else cores


def _send_outcome(send, call: Callable) -> None:
    # in the forked child: (True, what call() returned) or (False, what it raised)
    try:
        outcome = True, call()
    except Exception as exc:
        outcome = False, exc
    send.send(outcome)


def _fork(stack: ExitStack, call: Callable):
    """Start call() in a forked child, which inherits it unpickled and which
    leaving ``stack`` ends: terminated, a running call's too, and joined.
    Returns the read end of the pipe that gets the call's outcome."""
    import multiprocessing  # only this path pays its imports
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_outcome, args=(send, call))
    child.start()
    send.close()  # the child holds the only write end: its death leaves the pipe at EOF
    stack.callback(child.join)
    stack.callback(child.terminate)
    stack.callback(recv.close)
    return recv


def _result(recv):
    """What a forked call() returned, or what it raised, raised again here;
    ChildProcessError if its child ended without either, killed say."""
    try:
        ok, value = recv.recv()
    except EOFError:
        raise ChildProcessError("a forked child ended without a result") from None
    if not ok:
        raise value
    return value


def _fork_imap(stack: ExitStack, cores: int, fn: Callable, items):
    """fn(item) for each item, in order, each call in its own forked child
    (see _fork), at most ``cores`` at a time: the next starts once a running
    child's pipe is readable, its outcome sent or the child dead. Outcomes
    are read in item order, so the error raised is the first in that order."""
    from multiprocessing.connection import wait
    todo = deque(enumerate(items))
    running, ended = {}, {}  # read end -> item index; item index -> read end
    for k in range(len(todo)):
        while k not in ended:
            while todo and len(running) < cores:
                i, item = todo.popleft()
                running[_fork(stack, partial(fn, item))] = i
            for recv in wait(list(running)):
                ended[running.pop(recv)] = recv
        yield _result(ended.pop(k))


def _cmd_simulate(args: argparse.Namespace) -> int:
    data = load_json(args.config)
    cfg = solver_config_from_dict(data)
    mon_opts = monitor_options_from_dict(data.get("monitor"))
    echo = {"solver": cfg.to_dict(), "monitor": mon_opts, "method": args.method}
    u0 = profile_from_spec(cfg.grid(), cfg.profile)

    # an earlier run's files go once the config and u0 stand, so a bad config
    # leaves them, and nothing later removes any: a run that dies leaves no report.json
    outdir = Path(args.out)
    (outdir / "report.json").unlink(missing_ok=True)
    for method in ("picard", "etdrk4"):
        shutil.rmtree(outdir / "snapshots" / method, ignore_errors=True)
        for path in outdir.glob(f"monitor_{method}.*"):
            path.unlink()
    (outdir / "snapshots").mkdir(parents=True, exist_ok=True)

    report: dict = {"config": echo, "runs": {}, "cross_validation": None, "error": None}
    methods = ["picard", "etdrk4"] if args.method == "both" else [args.method]
    picard = None  # Picard's converged path, which cross-validation reads again
    with ExitStack() as stack:
        # a hidden staging directory per route, with the mode of snapshots/
        # (mkdtemp's is 0o700), removed after the child is ended: a failed
        # Picard route or an interrupt publishes no snapshots/etdrk4
        stages = [outdir / "snapshots" / f".{method}-{uuid.uuid4().hex[:12]}" for method in methods]
        for stage in stages:
            stage.mkdir()
            stack.callback(shutil.rmtree, stage, ignore_errors=True)
        routes = [partial(_route, method, u0, cfg, mon_opts, stage)
                  for method, stage in zip(methods, stages)]
        # a forked child runs the whole ETDRK4 route while Picard's runs here.
        # A failed Picard route drops ETDRK4's result, and an ETDRK4 failure
        # is reported after Picard's artifacts are written, as in a sequential run
        if _fork_count(len(routes)):
            routes[1] = partial(_result, _fork(stack, routes[1]))
        for method, stage, route in zip(methods, stages, routes):
            run_info, report["error"], code, records, path = route()
            picard = picard or path
            snapdir = outdir / "snapshots" / method
            os.replace(stage, snapdir)
            csv_path = outdir / f"monitor_{method}.csv"
            write_monitor_csv(records, csv_path, config_echo=echo)
            run_info.update(snapshots=[str(snapdir / f"state_{m:04d}.snap")
                                       for m in range(len(records))],
                            monitor_csv=str(csv_path), states=len(records))
            report["runs"][method] = run_info
            if code != EXIT_OK:
                break

    if code == EXIT_OK and len(methods) == 2:
        # one state at a time: ETDRK4's, read back from the snapshots of the route
        # that ran last, whose records hold their sup norms, and Picard's, formed
        etdrk4 = (read_snapshot(p)[0] for p in report["runs"]["etdrk4"]["snapshots"])
        cross = compare_trajectories((SpectralVectorField(u0.grid, c) for c in picard.rows()),
                                     etdrk4, [r.lp_inf for r in records], cfg.cross_tol)
        report["cross_validation"] = cross
        if not cross["passed"]:
            report["error"] = {"type": "CrossValidationFailed",
                               "message": f"discrepancy {cross['discrepancy']:.6g} exceeds "
                                          f"cross_tol {cfg.cross_tol:.6g}"}
            code = EXIT_CHECK_FAILED

    _dump_json(outdir / "report.json", report)
    if report["error"] is not None:
        _emit_error({"type": report["error"]["type"], "message": report["error"]["message"],
                     "report_json": str(outdir / "report.json")})
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
    # all headers checked in path order, then each body read as the batch takes it, in time order
    heads = sorted(((*read_snapshot_header(p)[:2], p) for p in _collect_snapshot_paths(args.snapshots)),
                   key=lambda head: head[1])
    grid = heads[0][0]
    if any(g != grid for g, _, _ in heads):
        raise UsageError("snapshots mix different grids")
    times = [t for _, t, _ in heads]
    if len(times) < 2:
        raise UsageError("need at least two snapshots to form a trajectory")
    try:
        tgrid = TimeGrid(np.array(times))
    except ValueError as exc:
        raise UsageError(f"snapshot times do not form a time grid: {exc}")
    omega = read_snapshot(args.omega)[0] if args.omega else None
    kh = None if args.kato_horizon == "none" else (
        "default" if args.kato_horizon == "default" else float(args.kato_horizon))
    records = monitor_rows((read_snapshot(p)[0].coeffs for _, _, p in heads), grid, times,
                           tgrid.horizon, args.nu, p_list=tuple(args.p), omega=omega,
                           kato_horizon=kh, cutoff=args.cutoff)
    echo = {"nu": args.nu, "cutoff": args.cutoff, "kato_horizon": args.kato_horizon,
            "p_list": args.p, "snapshots": [str(p) for _, _, p in heads]}
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
    with ExitStack() as stack:
        cores = _fork_count(len(set(checks)))
        # read in canonical order: the in-process reports and, if checks
        # raise, the error of the first of them in that order
        reports = run_checks(checks, seed, sizes,
                             partial(_fork_imap, stack, cores) if cores else map)
    for rep in reports:
        _dump_json(outdir / f"{rep.name}.json", rep.to_dict())
    atomic_write(outdir / "summary.csv", summary_csv(reports).encode())
    failed = [r.name for r in reports if not r.passed]
    if failed:
        _emit_error({"type": "CheckFailed", "message": f"{len(failed)} check(s) failed: {failed}",
                     "summary_csv": str(outdir / "summary.csv")})
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
    traj = Trajectory(grid, TimeGrid([0.0, cfg.horizon]), u0.coeffs[None], "profile",
                      {"nu": cfg.nu})
    rec = monitor(traj, kato_horizon="default")[0]
    info = {"snapshot": str(args.out), "kind": cfg.profile.kind, "dim": grid.dim, "res": grid.res,
            "lp_2": rec.lp_2, "lp_n": rec.lp_n, "lp_inf": rec.lp_inf, "besov_m1": rec.besov_m1,
            "kato_I": rec.kato_I}
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

    p_ver = sub.add_parser("verify", help="run estimate verification checks, each check "
                                          "one task that writes all of its reports")
    p_ver.add_argument("--all", action="store_true", help="run every check")
    p_ver.add_argument("--checks", nargs="+", default=None,
                       help="one or more check names to run, in place of the "
                            "config's checks")
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
    except tuple(_FAILURES) as exc:
        error, code = _failure(exc)
        _emit_error(error)
        return code


if __name__ == "__main__":
    sys.exit(main())
