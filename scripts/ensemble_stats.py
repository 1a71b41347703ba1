#!/usr/bin/env python3
"""Superbridge distribution of random near-equilateral n-gon ensembles.

Small-scale version of the kind of sweep used to hunt for realizations
whose superbridge number sits below the edge-count bound floor(n/2).

Usage: ensemble_stats.py [--edges N] [--samples S] [--seed K] [--radius R]

A ``--samples`` below 1 is a usage error (exit status 2); a bad ``--edges``
or ``--radius`` prints one ``error:`` line and exits 1, as ``sb`` does.
"""

import argparse
import collections
import random
import sys

from superbridge import (
    SearchConfig,
    SuperbridgeError,
    random_equilateral_polygon,
    superbridge_number,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", type=int, default=8)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--radius", default=str(SearchConfig.confinement_radius))
    args = ap.parse_args()
    if args.samples < 1:
        ap.error(f"--samples must be at least 1, got {args.samples}")

    hist = collections.Counter()
    try:
        for i in range(args.samples):
            rng = random.Random(f"{args.seed}:{i}")
            p = random_equilateral_polygon(args.edges, args.radius, rng)
            hist[superbridge_number(p).value] += 1
    except SuperbridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"n = {args.edges}, {args.samples} samples, seed {args.seed}")
    for value in sorted(hist):
        share = hist[value] / args.samples
        print(f"  sb = {value}: {hist[value]:>6}  ({share:.1%})")
    below = sum(c for v, c in hist.items() if v < args.edges // 2)
    print(f"  below the edge-count bound: {below} ({below / args.samples:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
