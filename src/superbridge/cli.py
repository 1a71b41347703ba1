"""Command line interface.

Subcommands: verify, exact, find, search, table, normalize. Exit status 0
on success, 1 on computational failure (invalid certificate, degenerate
input, parse error), 2 on usage errors. ``--json`` emits versioned
machine-readable output (schema 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import bounds, corpus
from .certificates import InvalidCertificate, find_certificate
from .enumeration import (
    descent_histogram,
    jin_upper_bound,
    max_descent_pattern,
    realizable_patterns,
)
from .geometry import edge_vectors, normalize_pose, quantize
from .linalg import SuperbridgeError, format_rational
from .search import SearchConfig, search

_JSON_SCHEMA = 1


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        payload = {"schema": _JSON_SCHEMA, **payload}
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_verify(args) -> int:
    def check(path):
        doc = corpus.load_certificate_document(path)
        try:
            vb = corpus.verify_bundle(doc.knot, doc.bundle)
            return {
                "knot": doc.knot.name,
                "n": doc.knot.n,
                "claim": f"sb <= {vb.bound}",
                "verified": True,
            }
        except InvalidCertificate as exc:
            return {
                "knot": doc.knot.name,
                "n": doc.knot.n,
                "claim": None,
                "verified": False,
                "reason": str(exc),
                "check": exc.check,
            }

    results = [check(p) for p in args.paths]
    failures = 0
    lines = []
    for res in results:
        if res["verified"]:
            lines.append(f"{res['knot']}: certified {res['claim']}")
        else:
            failures += 1
            lines.append(f"{res['knot']}: INVALID ({res['reason']})")
    _emit({"results": results}, args.json, "\n".join(lines) + "\n")
    return 1 if failures else 0


def _cmd_exact(args) -> int:
    knot = corpus.load_realization(args.path)
    patterns = realizable_patterns(edge_vectors(knot))
    best = max_descent_pattern(patterns)
    value = best.pattern.descents
    hist = descent_histogram(patterns)
    witness = [format_rational(c) for c in best.witness.v]
    text = (
        f"knot: {knot.name}\n"
        f"n: {knot.n}\n"
        f"superbridge: {value}\n"
        f"witness: {' '.join(witness)}\n"
        f"patterns: {len(patterns)}\n"
        f"descent histogram: "
        + " ".join(f"{d}:{c}" for d, c in hist.items())
    )
    _emit(
        {
            "knot": knot.name,
            "n": knot.n,
            "claim": f"sb = {value}",
            "verified": True,
            "value": value,
            "witness": witness,
            "patterns": len(patterns),
            "descent_histogram": {str(k): v for k, v in hist.items()},
        },
        args.json,
        text,
    )
    return 0


def _cmd_find(args) -> int:
    knot = corpus.load_realization(args.path)
    found = find_certificate(knot)
    if found.found:
        bundle = found.bundle
        if bundle.vector is not None:
            body = "u: " + " ".join(str(x) for x in bundle.vector)
            payload = {"u": list(bundle.vector)}
        else:
            body = "U:\n" + "\n".join(" ".join(str(x) for x in row) for row in bundle.matrix)
            payload = {"U": [list(r) for r in bundle.matrix]}
        bound = knot.n // 2 - 1
        _emit(
            {"knot": knot.name, "n": knot.n, "claim": f"sb <= {bound}", "verified": True, **payload},
            args.json,
            f"{knot.name}: certificate for sb <= {bound}\n{body}",
        )
        return 0
    evid = [
        {"system": ev.system, "direction": list(ev.direction)} for ev in found.evidence
    ]
    text_lines = [f"{knot.name}: no certificate; bound floor(n/2) = {jin_upper_bound(knot)} is attained"]
    for ev in found.evidence:
        text_lines.append(
            f"  realizable shift {ev.system}: separating direction {' '.join(map(str, ev.direction))}"
        )
    _emit(
        {"knot": knot.name, "n": knot.n, "claim": None, "verified": False, "evidence": evid},
        args.json,
        "\n".join(text_lines),
    )
    return 0


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        n=args.edges,
        target=args.target,
        samples=args.samples,
        seed=args.seed,
        confinement_radius=args.radius,
        screen_samples=args.screen_samples,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = search(cfg)
    manifest = []
    for cand in run:
        coord_file = out_dir / f"{cand.knot.name}.txt"
        corpus.save_realization(cand.knot, coord_file)
        entry = {
            "name": cand.knot.name,
            "n": cand.knot.n,
            "exact_sb": cand.exact_sb,
            "coordinates": coord_file.name,
        }
        if cand.certificate is not None:
            cert_file = out_dir / f"{cand.knot.name}.cert"
            corpus.save_certificate_document(
                corpus.CertificateDocument(knot=cand.knot, bundle=cand.certificate),
                cert_file,
            )
            entry["certificate"] = cert_file.name
        manifest.append(entry)
        print(f"candidate {cand.knot.name}: exact sb = {cand.exact_sb}")
    stats = {
        "generated": run.stats.generated,
        "screened_out": run.stats.screened_out,
        "confirmed": run.stats.confirmed,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps({"schema": _JSON_SCHEMA, "config": {
            "n": cfg.n, "target": cfg.target, "samples": cfg.samples,
            "seed": cfg.seed, "radius": str(cfg.confinement_radius),
            "screen_samples": cfg.screen_samples,
        }, "stats": stats, "candidates": manifest}, indent=2)
        + "\n",
        encoding="utf-8",
    )
    print(
        f"generated {stats['generated']}, screened out {stats['screened_out']}, "
        f"confirmed {stats['confirmed']}"
    )
    return 0


def _cmd_table(args) -> int:
    records = bounds.load_metadata_csv(args.metadata)
    sys.stdout.write(bounds.render_table(records, fmt=args.format, exact_only=args.exact_only))
    return 0


def _cmd_normalize(args) -> int:
    knot = corpus.load_realization(args.path)
    if not args.pose and args.digits is None:
        print("normalize: nothing to do (pass --pose and/or --digits)", file=sys.stderr)
        return 2
    if args.pose:
        knot = normalize_pose(knot, tolerance=args.tolerance)
    if args.digits is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            knot = quantize(knot, digits=args.digits)
        print("# note: knot type preservation after rounding is not verified", file=sys.stderr)
    out = []
    for v in knot.vertices:
        if args.pose and args.digits is None:
            out.append(" ".join(f"{float(c):.6f}" for c in v))
        else:
            out.append(" ".join(format_rational(c) for c in v))
    print("\n".join(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sb",
        description="Exact superbridge numbers and certificates for polygonal knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify certificate files")
    p.add_argument("paths", nargs="+", help="certificate document files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact superbridge number of a coordinate file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("find", help="search for a certificate for a coordinate file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("search", help="random-ensemble candidate search")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=str, default="3/2")
    p.add_argument("--screen-samples", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table", help="render the superbridge interval table")
    p.add_argument("--metadata", required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--exact-only", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("normalize", help="standard pose and/or integer quantization")
    p.add_argument("path")
    p.add_argument("--pose", action="store_true")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=_cmd_normalize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SuperbridgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
