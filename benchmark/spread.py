"""Run one workload over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload verify --seeds 0-9

Each run is untraced and measures ``run_seconds`` from ``BENCHMARK.json``.
For every end-to-end metric, and for each phase time in the report line, it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``. The last line is a JSON summary, the form kept in
``benchmark/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples: dict[str, list[float]] = {}
    ops = failed = 0
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                              check=True)
        report_line, result_line = proc.stdout.strip().splitlines()[-2:]
        report, result = json.loads(report_line)["report"], json.loads(result_line)
        ops += result["attempted"]
        failed += result["failed"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        row.update({f"phase.{k}": v for k, v in report["phases_s"].items()})
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items() if k in bounds or "phase" in k),
              flush=True)

    summary = {k: summarize(v) for k, v in samples.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if s["spread"] <= bound / 3 else "  WIDE")
        print(f"{name:28s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
              f"spread {s['spread']:.3f}" + ("" if bound is None else f" (bound {bound})") + flag)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": spec["run_seconds"], "ops": ops, "ops_failed": failed,
                      "metrics": summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
