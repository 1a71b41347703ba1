"""In-memory spans around the package's public functions, from outside.

The package is not instrumented. Instead the tracer replaces a function
where its *consumer* looks it up: ``from .x import y`` binds ``y`` into the
importing module at import time, so ``cli.find_certificate`` and
``certificates.find_certificate`` are two bindings of one function and are
wrapped separately. Each call becomes a span with a name, start, end and
the index of the enclosing span. Spans stay in memory until the run ends.

Self time is a span's duration minus the time covered by its direct
children. The run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from time import perf_counter

#: (consumer module, attribute) pairs wrapped in a traced pass. The span
#: name is "<consumer>.<attribute>" with the package prefix dropped.
TRACE_POINTS = (
    ("superbridge.cli", "main"),
    ("superbridge.cli", "superbridge_number"),
    ("superbridge.cli", "realizable_patterns"),
    ("superbridge.cli", "find_certificate"),
    ("superbridge.corpus", "verify_bundle"),
    ("superbridge.corpus", "load_realization"),
    ("superbridge.corpus", "load_certificate_document"),
    ("superbridge.bounds", "load_metadata_csv"),
    ("superbridge.bounds", "render_table"),
    ("superbridge.enumeration", "realizable_patterns"),
    ("superbridge.enumeration", "superbridge_number"),
    ("superbridge.certificates", "gordan_decide"),
    ("superbridge.certificates", "find_certificate"),
    ("superbridge.certificates", "verify_bundle"),
    ("superbridge.search", "random_equilateral_polygon"),
    ("superbridge.search", "sampled_lower_bound"),
    ("superbridge.search", "superbridge_number"),
    ("superbridge.search", "find_certificate"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "arg_len", "result_len", "outcome")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.arg_len = self.result_len = 0
        self.outcome = ""

    @property
    def func(self) -> str:
        return self.name.rsplit(".", 1)[1]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _length(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class Tracer:
    """Wraps the trace points while active and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if args:
                span.arg_len = _length(args[0])
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.outcome = type(exc).__name__
                raise
            else:
                span.end = perf_counter()
                span.outcome = type(result).__name__
                span.result_len = _length(result)
                return result
            finally:
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr in TRACE_POINTS:
            module = sys.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            short = module_name.rsplit(".", 1)[1]
            setattr(module, attr, self._wrap(f"{short}.{attr}", fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like ``spans``."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten values beyond it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def per_module_metrics(
    tracer: Tracer, traced_passes: int, screened_out_ratio: float, scale: float
) -> dict:
    """The per-module metrics of a traced run, totals given per pass.

    Times are multiplied by ``scale``, the traced passes' overall factor
    from wall time to reference-speed time. Returns ``{name: (value, unit)}``. A module the
    workload never calls reports 0.
    """
    spans = tracer.spans
    total = [s.seconds * scale for s in spans]
    own = [t * scale for t in tracer.self_times()]
    per_pass = 1.0 / max(1, traced_passes)

    def pick(*funcs: str, consumer: str = "", outcome: str = "") -> list[int]:
        return [
            i
            for i, s in enumerate(spans)
            if s.func in funcs
            and s.name.startswith(consumer)
            and s.outcome.startswith(outcome)
        ]

    def ms_per_pass(ids: list[int], times: list[float] = total) -> float:
        return sum(times[i] for i in ids) * 1e3 * per_pass

    def ms_median(ids: list[int]) -> float:
        return statistics.median(total[i] for i in ids) * 1e3 if ids else 0.0

    patterns = pick("realizable_patterns")
    patterns_ms = ms_per_pass(patterns, own)
    cells = sum(spans[i].result_len for i in patterns) * per_pass
    gordan = pick("gordan_decide")
    generate = pick("random_equilateral_polygon", consumer="search.")
    return {
        "enumeration.patterns_ms": (patterns_ms, "ms"),
        "enumeration.calls": (len(patterns) * per_pass, "count"),
        "enumeration.cells": (cells, "count"),
        "enumeration.us_per_cell": (patterns_ms * 1e3 / cells if cells else 0.0, "us"),
        "enumeration.scaling_exp": (
            loglog_slope([(spans[i].arg_len, total[i]) for i in patterns]),
            "exponent",
        ),
        "enumeration.screen_ms": (ms_per_pass(pick("sampled_lower_bound")), "ms"),
        "gordan.decide_ms.p50": (ms_median(gordan), "ms"),
        "gordan.systems": (len(gordan) * per_pass, "count"),
        "gordan.null_frac": (
            len(pick("gordan_decide", outcome="NullCombination")) / len(gordan) if gordan else 0.0,
            "ratio",
        ),
        "certificates.find_self_ms": (ms_per_pass(pick("find_certificate"), own), "ms"),
        "certificates.verify_ms.p50": (ms_median(pick("verify_bundle", outcome="VerifiedBound")), "ms"),
        "certificates.reject_ms.p50": (
            ms_median(pick("verify_bundle", outcome="InvalidCertificate")),
            "ms",
        ),
        "search.generate_ms.p50": (ms_median(generate), "ms"),
        "search.generate_ms.tail": (tail([total[i] for i in generate]) * 1e3, "ms"),
        "search.exact_ms": (ms_per_pass(pick("superbridge_number", consumer="search.")), "ms"),
        "search.find_ms": (ms_per_pass(pick("find_certificate", consumer="search.")), "ms"),
        "search.screened_out_ratio": (screened_out_ratio, "ratio"),
        "corpus.parse_ms": (
            ms_per_pass(pick("load_realization", "load_certificate_document", consumer="corpus.")),
            "ms",
        ),
        "bounds.render_ms": (
            ms_per_pass(pick("load_metadata_csv", "render_table", consumer="bounds.")),
            "ms",
        ),
        "cli.self_ms": (ms_per_pass(pick("main", consumer="cli."), own), "ms"),
    }
