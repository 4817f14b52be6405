"""cnlab benchmark: three user workloads, end to end and layer by layer.

Run from the repository root:

    python3 benchmark/run.py --workload simulate-3d --seed 0 --seconds 15 --trace 0

Workloads are ``simulate-3d``, ``session-2d`` and ``verify`` (see
``benchmark/README.md``). The seed is the profile seed of the simulate
workloads and the ``--seed`` of verify. Rounds of the workload run through
``cnlab.cli.main`` in this process, after one discarded warm-up round at
reduced size, until ``--seconds`` have passed (at least one round).

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced rounds, equal in number, and reports the
per-layer metrics and the tracing overhead. Each run prints a
``{"report": ...}`` line (phase times, ops, machine facts, working sets) and,
last, one JSON result line. Full results, including every traced function,
go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import CHECK_NAMES, WORKLOADS, SummaryReference, load_configs, working_sets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 10   # half before the timed rounds, half after

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

FFT_MODULES = ("fields", "solver", "littlewood_paley", "paraproduct", "monitor",
               "verification")


def _calls_self(key: str) -> list[tuple[str, str, str]]:
    return [(f"{key}.calls", "count", "lower"), (f"{key}.self_s", "s", "lower")]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    *_calls_self("fields.pointwise_tensor"),
    *_calls_self("fields.divergence_sup"),
    *_calls_self("fields.lp_norm"),
    ("fft.calls", "count", "lower"),
    ("fft.points", "count", "lower"),
    ("fft.bytes", "B", "lower"),
    ("fft.zero_input_frac", "fraction", "lower"),
    ("fft.self_s", "s", "lower"),
    *[(f"{m}.fft_calls", "count", "lower") for m in FFT_MODULES],
    *_calls_self("semigroup.nonlinearity"),
    *_calls_self("semigroup.leray_project"),
    *_calls_self("semigroup.div_tensor"),
    *_calls_self("semigroup.duhamel_L"),
    *_calls_self("semigroup.heat"),
    ("phi.calls", "count", "lower"),
    ("phi.self_s", "s", "lower"),
    ("solver.picard_iters", "count", "lower"),
    ("solver.rhs_evals", "count", "lower"),
    ("solver.etdrk4_steps", "count", "lower"),
    *_calls_self("solver.kato_smallness"),
    ("solver.kato_smallness.fft_calls", "count", "lower"),
    ("solver.picard_solve.self_s", "s", "lower"),
    ("solver.etdrk4_integrate.self_s", "s", "lower"),
    *_calls_self("littlewood_paley.besov_norm_states"),
    *_calls_self("littlewood_paley.besov_norm"),
    ("littlewood_paley.empty_block_frac", "fraction", "lower"),
    ("littlewood_paley.build_partition.hits", "count", "higher"),
    ("littlewood_paley.build_partition.misses", "count", "lower"),
    *_calls_self("paraproduct.tensor_paraproduct"),
    *_calls_self("paraproduct.bony_split"),
    *_calls_self("monitor.monitor"),
    ("monitor.records", "count", "higher"),
    ("monitor.write_monitor_csv.self_s", "s", "lower"),
    *_calls_self("snapshots.write_snapshot"),
    ("snapshots.write_snapshot.bytes", "B", "lower"),
    *_calls_self("snapshots.read_snapshot"),
    ("snapshots.read_snapshot.bytes", "B", "lower"),
    *[(f"verification.{c}.s", "s", "lower") for c in CHECK_NAMES],
    ("verification.summary_csv_bytes", "B", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _size_bytes(text: str) -> int:
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def machine_facts() -> dict:
    """CPU, cache sizes and versions, read-only from /proc and /sys."""
    import numpy as np
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError, KeyError):
            continue
        if kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}_bytes"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, **caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cnlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Runner:
    """Set-up inputs of one workload and the rounds run over them."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.cli = importlib.import_module("cnlab.cli")
        # an lru_cache object, so never wrapped; its counters give hits and misses
        self.partitions = importlib.import_module("cnlab.littlewood_paley").build_partition
        reference = SummaryReference(OUT / "ref", source_hash())
        self.steps = workload.setup(seed, workdir, reference)
        self.warmup_steps = workload.setup(seed, workdir / "warmup", reference, warmup=True)
        load_configs(self.steps + self.warmup_steps)

    def warm_up(self) -> None:
        """Run the reduced steps once and discard them, so that the first
        timed round is not the process's first pass through its transforms,
        allocations and code paths. A full round would double the run time."""
        for step in self.warmup_steps:
            try:
                rc = self.cli.main(list(step.argv))
            except Exception:
                traceback.print_exc()
                rc = None
            if rc != 0:
                print(f"warm-up {step.name}: exit code {rc}", file=sys.stderr)

    def round(self, tracer, only: tuple[str, ...] | None = None) -> dict:
        """Run every step once under ``tracer`` (installed for ``only``, or
        for everything), from no outputs and an empty partition cache, as a
        new ``cnlab`` process in a fresh directory would."""
        with tracer:
            tracer.install(only=only)
            return self._round(tracer)

    def _round(self, tracer) -> dict:
        for step in self.steps:
            if step.out.is_dir():
                shutil.rmtree(step.out)
            elif step.out.exists():
                step.out.unlink()
        self.partitions.cache_clear()
        tracer.reset()
        step_s: dict[str, float] = {}
        ops: list[tuple[str, list[str]]] = []
        facts: dict = {}
        for step in self.steps:
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(step.argv))
            except Exception:
                traceback.print_exc()
                rc = None
            step_s[step.name] = time.perf_counter() - t0
            step_ops, step_facts = step.gate(rc, step)
            ops += step_ops
            facts.update(step_facts)
        for name, problems in ops:
            for problem in problems:
                print(f"failed op {name}: {problem}", file=sys.stderr)
        phases = {f"{name}_s": s for name, s in step_s.items()}
        for key, label in (("solver.picard_solve", "picard_s"),
                           ("solver.etdrk4_integrate", "etdrk4_s")):
            if tracer.stats[key]["calls"]:
                phases[label] = tracer.stats[key]["total_s"]
        return {"wall_s": sum(step_s.values()), "phases": phases,
                "ops": len(ops), "ops_failed": sum(1 for _, p in ops if p),
                "facts": facts, "partitions": self.partitions.cache_info()}


def layer_metrics(tracer, rnd: dict) -> dict:
    """Per-layer metrics of one traced round, keyed as in PER_LAYER."""
    stats = tracer.stats

    def stat(key: str, field: str):
        return stats[key][field] if key in stats else 0

    fft_calls = tracer.fft["calls"]
    blocks = tracer.blocks
    phis = [f"phi.phi{k}" for k in (1, 2, 3)]
    derived = {
        "fft.calls": fft_calls,
        "fft.points": tracer.fft["points"],
        "fft.bytes": tracer.fft["bytes"],
        "fft.zero_input_frac": tracer.fft["zero_input"] / fft_calls if fft_calls else 0.0,
        "fft.self_s": stat("fft", "self_s"),
        "phi.calls": sum(stat(k, "calls") for k in phis),
        "phi.self_s": sum(stat(k, "self_s") for k in phis),
        "solver.picard_iters": tracer.counts["picard_iters"],
        "solver.rhs_evals": tracer.counts["rhs_picard"] + tracer.counts["rhs_etdrk4"],
        "solver.etdrk4_steps": tracer.counts["rhs_etdrk4"] // 4,
        "littlewood_paley.empty_block_frac":
            blocks["empty"] / blocks["transforms"] if blocks["transforms"] else 0.0,
        "littlewood_paley.build_partition.hits": rnd["partitions"].hits,
        "littlewood_paley.build_partition.misses": rnd["partitions"].misses,
        "monitor.records": tracer.counts["monitor_records"],
        "snapshots.write_snapshot.bytes": tracer.counts["write_snapshot_bytes"],
        "snapshots.read_snapshot.bytes": tracer.counts["read_snapshot_bytes"],
        "verification.summary_csv_bytes": rnd["facts"].get("summary_csv_bytes", 0),
        **{f"verification.{c}.s": stat(f"verification.{c}", "total_s") for c in CHECK_NAMES},
        **{f"{m}.fft_calls": sum(v["fft_calls"] for k, v in stats.items()
                                 if k.startswith(m + "."))
           for m in FFT_MODULES},
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif not name.startswith("trace."):
            key, field = name.rsplit(".", 1)
            out[name] = stat(key, field)
    return out


def timed_rounds(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced rounds, each followed by a traced one if ``trace``, until
    ``seconds`` have passed.

    Untraced rounds wrap only the solver entry points, to split the round
    into phases. Alternating puts each traced round next to an untraced one
    at nearly the same host speed, so the difference of their medians is the
    tracing overhead.
    """
    from tracer import SOLVER_SPANS, Tracer
    phases, full = Tracer(), Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(runner.round(phases, only=SOLVER_SPANS))
        if trace:
            rnd = runner.round(full)
            rnd["layers"] = layer_metrics(full, rnd)
            rnd["functions"] = {k: dict(v) for k, v in sorted(full.stats.items())}
            traced.append(rnd)
        if time.perf_counter() - t0 >= seconds:
            return untraced, traced


def _median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def _phase_medians(rounds: list[dict]) -> dict:
    keys = sorted({k for r in rounds for k in r["phases"]})
    return {k: statistics.median(r["phases"].get(k, 0.0) for r in rounds) for k in keys}


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def probe(workload_name: str, seed: int) -> None:
    """Child process: import cnlab and make the inputs ready, then exit."""
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        Runner(WORKLOADS[workload_name], seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload_name: str, seed: int, count: int) -> list[float]:
    """Process start to inputs ready, timed around fresh child processes.

    Host speed shifts every few seconds on a shared VM, and a burst of probes
    sees one speed; callers spread the probes over the run.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which quantizes the sample
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _import_cnlab() -> None:
    if not (SRC / "cnlab" / "cli.py").is_file():
        raise SystemExit(f"cnlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cnlab
    if Path(cnlab.__file__).resolve().parent != (SRC / "cnlab").resolve():
        raise SystemExit(f"imported cnlab from {cnlab.__file__}, not {SRC}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    _import_cnlab()
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    workload = WORKLOADS[args.workload]
    probes = SETUP_PROBES // 2 if args.trace == 0 else 0
    samples = setup_samples(args.workload, args.seed, probes)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        runner = Runner(workload, args.seed, workdir)
        t0 = time.perf_counter()
        runner.warm_up()
        warmup_s = time.perf_counter() - t0
        rounds, traced = timed_rounds(runner, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples += setup_samples(args.workload, args.seed, probes)

    every = rounds + traced
    attempted = sum(r["ops"] for r in every)
    failed = sum(r["ops_failed"] for r in every)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "warmup_s": warmup_s, "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "phases_s": _phase_medians(rounds), "ops": attempted, "ops_failed": failed,
        "cross_discrepancy": rounds[0]["facts"].get("cross_discrepancy"),
        "setup_samples_s": samples, "machine": machine_facts(),
        "working_sets": working_sets(workload), "source_hash": source_hash(),
    }
    if args.trace == 0:
        values = {"setup_s": statistics.median(samples), "wall_s": _median_of(rounds, "wall_s"),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        # median_low keeps counts whole; they repeat exactly across rounds
        layers = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.wall_s"] = _median_of(traced, "wall_s")
        layers["trace.overhead_s"] = layers["trace.wall_s"] - _median_of(rounds, "wall_s")
        report["traced_round_wall_s"] = [r["wall_s"] for r in traced]
        report["traced_phases_s"] = _phase_medians(traced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {"report": report, "result": result,
              "functions": traced[0]["functions"] if traced else None}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
