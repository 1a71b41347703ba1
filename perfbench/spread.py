"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corpus search --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed) for ``run_seconds`` from
``BENCHMARK.json``, one process at a time. For every metric it prints the
median of the values and the distance between their first and third
quartiles as a share of the median (``statistics.quantiles(values,
n=4)``). With ``--out`` it writes the values, the summary and each run's
environment as JSON; that is how ``perfbench/baseline/`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "ensemble", "search", "certify")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its last output line plus its result file's environment."""
    result_file = BENCH_DIR / "results" / f"BENCH_{workload}_s{seed}_t{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(result_file)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["environment"] = json.loads(result_file.read_text(encoding="utf-8"))["environment"]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "iqr_frac": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seconds = json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    report = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        names = list(results[0]["metrics"])
        summary = {
            name: {"unit": results[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in results])}
            for name in names
        }
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
            "environment": [{"seed": seed, **r["environment"]} for seed, r in zip(args.seeds, results)],
        }
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"failed={report['workloads'][workload]['failed']}", flush=True)
        for name, s in summary.items():
            print(f"  {name:28s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"iqr/median {s['iqr_frac']:.4f}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
