"""Command line interface.

Subcommands: verify, exact, find, search, table, normalize. Exit status 0
on success, 1 on computational failure (invalid certificate, degenerate
input, parse error), 2 on usage errors. A closed stdout (``sb ... | head``)
also exits 1, with nothing on stderr. ``--json`` emits versioned
machine-readable output (schema 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from . import bounds, corpus
from .certificates import InvalidCertificate, find_certificate
from .enumeration import jin_upper_bound, superbridge_census
from .geometry import normalize_pose, quantize
from .linalg import SuperbridgeError, format_rational, int_text
from .search import SearchConfig, search


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps({"schema": bounds.JSON_SCHEMA, **payload}, indent=2))
    else:
        print("\n".join(lines))


def _result(knot, claim, **fields) -> dict:
    """The ``--json`` record of one knot; it is verified exactly when it makes a claim."""
    return {"knot": knot.name, "n": knot.n, "claim": claim, "verified": claim is not None, **fields}


def _cmd_verify(args) -> int:
    results, lines = [], []
    for path in args.paths:
        doc = corpus.load_certificate_document(path)
        try:
            vb = corpus.verify_bundle(doc.knot, doc.bundle)
        except InvalidCertificate as exc:
            results.append(_result(doc.knot, None, reason=str(exc), check=exc.check))
            lines.append(f"{doc.knot.name}: INVALID ({exc})")
        else:
            results.append(_result(doc.knot, f"sb <= {vb.bound}"))
            lines.append(f"{doc.knot.name}: certified sb <= {vb.bound}")
    _emit({"results": results}, args.json, lines)
    return 0 if all(r["verified"] for r in results) else 1


def _cmd_exact(args) -> int:
    knot = corpus.load_realization(args.path)
    result, hist = superbridge_census(knot)
    witness = [format_rational(c) for c in result.witness_direction.v]
    lines = [
        f"knot: {knot.name}",
        f"n: {knot.n}",
        f"superbridge: {result.value}",
        f"witness: {' '.join(witness)}",
        f"patterns: {result.pattern_count}",
        "descent histogram: " + " ".join(f"{d}:{c}" for d, c in hist.items()),
    ]
    record = _result(
        knot,
        f"sb = {result.value}",
        value=result.value,
        witness=witness,
        patterns=result.pattern_count,
        descent_histogram={str(k): v for k, v in hist.items()},
    )
    _emit(record, args.json, lines)
    return 0


def _cmd_find(args) -> int:
    knot = corpus.load_realization(args.path)
    found = find_certificate(knot)
    # The text lines are built even under --json: int_text turns an integer
    # past Python's digit limit into a SuperbridgeError before json.dumps.
    if found.found:
        bundle = found.bundle
        claim = f"sb <= {knot.n // 2 - 1}"
        if bundle.vector is not None:
            record = _result(knot, claim, u=list(bundle.vector))
        else:
            record = _result(knot, claim, U=[list(r) for r in bundle.matrix])
        lines = [f"{knot.name}: certificate for {claim}", *corpus.bundle_lines(bundle)]
    else:
        evidence = [{"system": ev.system, "direction": list(ev.direction)} for ev in found.evidence]
        record = _result(knot, None, evidence=evidence)
        lines = [f"{knot.name}: no certificate; bound floor(n/2) = {jin_upper_bound(knot)} is attained"]
        lines += [
            f"  realizable shift {ev.system}: separating direction {' '.join(map(int_text, ev.direction))}"
            for ev in found.evidence
        ]
    _emit(record, args.json, lines)
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
    stats = dataclasses.asdict(run.stats)
    (out_dir / "manifest.json").write_text(
        json.dumps({"schema": bounds.JSON_SCHEMA, "config": {
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
    if not args.pose and args.digits is None:
        print("normalize: nothing to do (pass --pose and/or --digits)", file=sys.stderr)
        return 2
    knot = corpus.load_realization(args.path)
    if args.pose:
        knot = normalize_pose(knot)
    if args.digits is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            knot = quantize(knot, digits=args.digits)
    if args.pose and args.digits is None:
        out = [" ".join(f"{float(c):.6f}" for c in v) for v in knot.vertices]
    else:
        out = [corpus.vertex_line(v) for v in knot.vertices]
    if args.digits is not None:
        print("# note: knot type preservation after rounding is not verified", file=sys.stderr)
    print("\n".join(out))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sb`` parser, built on the first call and shared by every later one.

    ``parse_args`` leaves the parser unchanged, so one instance serves every
    ``main`` call of a process; importing the package does not build it.
    """
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
    p.add_argument("--radius", type=str, default=str(SearchConfig.confinement_radius))
    p.add_argument("--screen-samples", type=int, default=SearchConfig.screen_samples)
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
    p.set_defaults(func=_cmd_normalize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout; devnull keeps the flush at exit quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (SuperbridgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
