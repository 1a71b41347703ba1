"""Paired benchmark of two source checkouts: a parent against a change.

    python3 scripts/paired_bench.py PARENT CHANGE --workloads search --seeds 1 2 3

For every workload and seed it runs the ``perfbench/run.py`` of each
checkout once, one process at a time, and alternates which side runs first
from one seed to the next, so a drift of the machine's speed falls on both
sides alike. Runs last ``--seconds`` (default: ``run_seconds`` of the
change's ``BENCHMARK.json``) and write their result files to a temporary
directory. For every end-to-end metric of ``BENCHMARK.json`` it prints one
line: the median and quartiles of each side, the number of pairs (same
seed) in which the change was strictly better, the median gain against
the parent's interquartile range, and the no-regression check: how much
worse the change's median is than the parent's, relative to the parent's,
beside that metric's ``bound``, with ``OVER`` after a line whose
difference exceeds its bound. The ``peak_rss_mb`` line also gives
each side's median number of timed passes, since the benchmark keeps every
pass and its peak memory grows with them. Exit status 1 if any run failed
or reported a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, out: Path) -> dict | None:
    """Metrics of one benchmark run, or None with the reason on stderr."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)],
        cwd=checkout, capture_output=True, text=True, timeout=max(600, 20 * seconds),
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        print(f"error: {checkout} {workload} seed {seed}: exit {proc.returncode}, "
              f"{'no result' if result is None else 'wrong answers'}\n{proc.stderr}",
              file=sys.stderr)
        return None
    passes = json.loads(out.read_text(encoding="utf-8"))["passes"]
    return {"passes": passes, **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(before: float, after: float, lower: bool) -> float:
    """How much worse ``after`` is than ``before``, relative to ``before``."""
    diff = (after - before) if lower else (before - after)
    return diff / abs(before) if before else math.inf if diff > 0 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workloads to run (default: all of BENCHMARK.json)")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    checkout = parent if side == "parent" else change
                    out = Path(tmp) / f"{side}_{workload}_{seed}.json"
                    runs[side].append(run_once(checkout, workload, seed, seconds, out))
            pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
            ok = ok and len(pairs) == len(args.seeds)
            print(f"# {workload}: {len(pairs)} pairs of {seconds:g} s runs, seeds "
                  + " ".join(map(str, args.seeds)), flush=True)
            if not pairs:
                continue
            for metric in bench["end_to_end"]:
                name, lower = metric["name"], metric["better"] == "lower"
                before = [p[name] for p, _ in pairs]
                after = [c[name] for _, c in pairs]
                won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
                bq, aq = quartiles(before), quartiles(after)
                gain = (bq[1] - aq[1]) if lower else (aq[1] - bq[1])
                rel, bound = worse(bq[1], aq[1], lower), metric["bound"]
                # The benchmark keeps every pass, so its peak RSS grows with
                # the passes that fit in a run: print those beside it.
                passes = "" if name != "peak_rss_mb" else (
                    " passes parent %g change %g" % tuple(
                        statistics.median(r["passes"] for r in side) for side in zip(*pairs)))
                print(f"{workload} {name} [{metric['unit']}, {metric['better']}] "
                      f"parent {bq[1]:.4g} ({bq[0]:.4g}..{bq[2]:.4g}) "
                      f"change {aq[1]:.4g} ({aq[0]:.4g}..{aq[2]:.4g}) "
                      f"won {won}/{len(pairs)} gain {gain:.4g} parent-iqr {bq[2] - bq[0]:.4g} "
                      f"worse {rel:+.4f} bound {bound:g}{' OVER' if rel > bound else ''}"
                      f"{passes}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
