"""Benchmark of the superbridge package: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else. The run sets up the workload several times
(``setup_s`` is the median), then runs whole passes over the same inputs
until the next pass would end after ``--seconds``, and at least
``MIN_PASSES``. Every output is checked exactly after the timed passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics of the
traced ones, plus the tracing overhead. ``--negative-control`` plants a
wrong answer into every workload's checker at a tiny size and exits 1
unless each one is caught.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with quartiles, sample counts and the environment, goes to ``--out``
(default ``perfbench/results/BENCH_<workload>_s<seed>_t<trace>.json``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 2


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scale_of(passes) -> float:
    """Overall factor from wall time to reference-speed time."""
    wall = sum(p.seconds for p in passes)
    return sum(p.scaled_seconds for p in passes) / wall if wall else 1.0


def item_stats(passes) -> dict:
    """Per-item medians of scaled times over passes, then their median and tail."""
    by_key: dict = {}
    for p in passes:
        for rec in p.items:
            by_key.setdefault(rec.key, []).append(rec.seconds * rec.scale)
    ranked = sorted(((statistics.median(v), key) for key, v in by_key.items()), key=lambda r: r[0])
    n = len(ranked)
    beyond = min(10, n - 1)
    return {
        "p50_ms": statistics.median(t for t, _ in ranked) * 1e3,
        "tail_ms": ranked[n - 1 - beyond][0] * 1e3,
        "tail_item": ranked[n - 1 - beyond][1],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "items": n,
    }


def measure(workload, seconds: float, traced: bool):
    """Whole passes until the next would end after ``seconds``.

    With ``traced`` the passes alternate untraced and traced, starting
    untraced; returns (untraced passes, traced passes, tracer).
    """
    from tracing import Tracer

    tracer = Tracer()
    plain, with_trace = [], []
    start = perf_counter()
    while True:
        gc.collect()
        if traced and len(plain) > len(with_trace):
            with tracer:
                with_trace.append(workload.run_pass())
            last = with_trace[-1]
        else:
            plain.append(workload.run_pass())
            last = plain[-1]
            if traced:
                continue  # every untraced pass gets its traced partner
        enough = len(plain) >= (1 if traced else MIN_PASSES)
        if enough and perf_counter() - start + last.seconds > seconds:
            return plain, with_trace, tracer


def setup(workload_cls, seed: int, tiny: bool):
    """Set up SETUP_REPEATS times from a fresh package import; keep the last.

    Returns the workload, the wall times and the times scaled by the mean
    of the calibration ticks just before and after each set-up.
    """
    from workloads import REFERENCE_TICK_S, calibration_tick, import_package

    times, scaled = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        before = calibration_tick()
        t0 = perf_counter()
        mods = import_package()
        workload = workload_cls()
        workload.setup(mods, seed, tiny=tiny)
        times.append(perf_counter() - t0)
        scaled.append(times[-1] * 2 * REFERENCE_TICK_S / (before + calibration_tick()))
    return workload, times, scaled


def negative_controls() -> int:
    from workloads import WORKLOADS

    missed = 0
    for name, cls in WORKLOADS.items():
        workload, _, _ = setup(cls, seed=1, tiny=True)
        passes = [workload.run_pass()]
        real = workload.failures(passes)
        reason = workload.negative_control(passes)
        print(f"{name}: {len(real)} failed on real outputs; planted error "
              + (f"caught ({reason})" if reason else "MISSED"))
        missed += bool(real) or not reason
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("corpus", "ensemble", "search", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "superbridge" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.negative_control:
        return negative_controls()
    if args.workload is None:
        parser.error("--workload is required")

    from tracing import per_module_metrics
    from workloads import WORKLOADS

    load_start = os.getloadavg()[0]
    workload, setup_wall, setup_times = setup(WORKLOADS[args.workload], args.seed, tiny=False)
    if not sys.modules["superbridge"].__file__.startswith(str(SRC)):
        print("error: superbridge was not imported from src/", file=sys.stderr)
        return 2
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    plain, traced, tracer = measure(workload, args.seconds, bool(args.trace))
    passes = plain + traced

    failures = workload.failures(passes)
    control = workload.negative_control(passes)
    attempted = sum(len(p.items) for p in passes)
    pass_q = quartiles([p.scaled_seconds for p in plain])
    items = item_stats(plain)
    ticks_ms = [t * 1e3 for p in passes for t in p.ticks]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (pass_q[1], "s"),
        "item_ms.p50": (items["p50_ms"], "ms"),
        "item_ms.tail": (items["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if args.trace:
        metrics = per_module_metrics(
            tracer, len(traced), workload.screened_out_ratio(passes), scale_of(traced)
        )
        traced_s = statistics.median(p.scaled_seconds for p in traced)
        metrics["trace.overhead_frac"] = ((traced_s - pass_q[1]) / pass_q[1], "ratio")
    else:
        metrics = end_to_end
    result = {
        "correct": not failures and bool(control),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "failed_frac": len(failures) / attempted,
        "failures": [f"pass {p}: {key}: {why}" for p, key, why in failures[:20]],
        "negative_control": control or "MISSED",
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "pass_s_quartiles": pass_q,
        "pass_wall_s": [p.seconds for p in plain],
        "pass_scale": [scale_of([p]) for p in plain],
        "passes": len(plain),
        "traced_passes": len(traced),
        "item_ms_tail_percentile": items["tail_percentile"],
        "item_ms_tail_item": items["tail_item"],
        "items_per_pass": items["items"],
        "setup_s_all": setup_times,
        "setup_wall_s_all": setup_wall,
        "environment": {
            **environment(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
            "tick_ms_quartiles": quartiles(ticks_ms),
        },
    }
    out = args.out or BENCH_DIR / "results" / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(detail, indent=2, default=str) + "\n", encoding="utf-8")

    env = detail["environment"]
    print(f"# {args.workload} seed {args.seed}: {len(plain)} passes, {len(traced)} traced, "
          f"{items['items']} items per pass; load {env['loadavg_1m_start']:.2f} -> "
          f"{env['loadavg_1m_end']:.2f}, calibration tick quartiles "
          + " ".join(f"{t:.3f}" for t in env["tick_ms_quartiles"])
          + f" ms on {env['nproc']} x {env['cpu_model']}")
    print(f"failed_frac {detail['failed_frac']:.6g} ratio ({len(failures)} of {attempted}); "
          f"negative control: {detail['negative_control']}")
    print(f"pass_s quartiles {pass_q[0]:.4f} {pass_q[1]:.4f} {pass_q[2]:.4f} s; "
          f"item_ms.tail at p{items['tail_percentile']:.1f} of {items['items']} items "
          f"({items['tail_item']})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in detail["failures"]:
        print(f"FAILED {line}")
    print(f"# result file {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
