"""Exact superbridge numbers via the great-circle arrangement of edge normals.

The sign pattern of v . e_i is constant on each open cell of the
arrangement cut into the direction sphere by the planes orthogonal to the
edges, and distinct cells carry distinct patterns (a pattern's locus is an
open convex cone). Enumerating cells therefore enumerates every realizable
pattern; the superbridge number of the polygon is the maximal descent
count over them.

Cells are enumerated by walking arrangement vertices. Every cell of an
arrangement of at least two distinct great circles has a vertex on its
boundary, and around a vertex v the incident cells are the sectors between
consecutive circle tangent rays. Perturbing v along a tangent ray of one
incident circle and then infinitesimally toward a tangent of a second
(lexicographic two-level signs) lands in the sector flanking that ray, so
taking both rays of both circles of every generating pair on both sides
reaches every sector - including at vertices where three or more circles
concur, since each concurrent pair regenerates the same vertex. A
perturbation re-signs only the edges whose circles pass through v, none
of them to zero, and the sectors at -v are those at v negated (see
realizable_patterns). An integer witness direction is recovered per
pattern as K^2 v0 + K d1 + d2 for growing K until its exact signs match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Sequence

import numpy as np

from .geometry import (
    Direction,
    EdgeVectors,
    PolygonalKnot,
    SignPattern,
    edge_vectors,
)
from .linalg import SuperbridgeError, canonical_line, cross3, dot3, neg3, primitive_vector

_DIRECTION_BOUND = 1 << 20
_INT64_SAFE = (1 << 62) // (3 * _DIRECTION_BOUND)
#: Most samples x edges the screen accepts (its int64 table is then 128 MiB).
SCREEN_ENTRIES_MAX = 1 << 24


class DegenerateEdgeSet(SuperbridgeError):
    """Fewer than two distinct great circles: no arrangement to enumerate."""


@dataclass(frozen=True)
class RealizablePattern:
    """A sign pattern together with an exact direction realizing it."""

    pattern: SignPattern
    witness: Direction


@dataclass(frozen=True)
class SuperbridgeResult:
    value: int
    witness_direction: Direction
    pattern_count: int
    certified_by: str = "enumeration"


def realizable_patterns(e: EdgeVectors) -> tuple[RealizablePattern, ...]:
    """All sign patterns realized on open arrangement cells, with witnesses.

    Output is sorted lexicographically by pattern and is closed under the
    global sign flip (antipodal cells). Raises DegenerateEdgeSet when the
    edges define fewer than two distinct great circles.

    Each vertex v0 = na x nb is signed once; per perturbation (d1, d2) only
    an edge with v0 . e_m = 0 is re-signed, by d1 . e_m or, if that is 0,
    by d2 . e_m: then e_m is parallel to na, so d2 . e_m = +-|v0|^2 times a
    nonzero factor. The 8 triples at -v0 are (-v0, -d1, -d2) with negated
    signs, recorded after those at v0 in the same order, so each pattern's
    witness is the first triple in this order that realizes it.
    """
    prim = [primitive_vector(edge) for edge in e.edges]
    circles: dict[tuple, tuple] = {}
    for p in prim:
        circles.setdefault(canonical_line(p), p)
    normals = list(circles.values())
    if len(normals) < 2:
        raise DegenerateEdgeSet("need at least two non-parallel edges")

    found: dict[tuple[int, ...], tuple] = {}
    for a in range(len(normals)):
        for b in range(a + 1, len(normals)):
            v0 = x, y, z = cross3(normals[a], normals[b])
            dots = [x * ex + y * ey + z * ez for ex, ey, ez in prim]
            incident = [m for m, d in enumerate(dots) if d == 0]
            base = [1 if d > 0 else -1 for d in dots]
            sides = []
            for na, nb in ((normals[a], normals[b]), (normals[b], normals[a])):
                t1, t2 = cross3(v0, na), cross3(v0, nb)
                for d1 in (t1, neg3(t1)):
                    for d2 in (t2, neg3(t2)):
                        signs = base.copy()
                        for m in incident:
                            d = dot3(d1, prim[m]) or dot3(d2, prim[m])
                            signs[m] = 1 if d > 0 else -1
                        sides.append((tuple(signs), d1, d2))
            for signs, d1, d2 in sides:
                found.setdefault(signs, (v0, d1, d2))
            for signs, d1, d2 in sides:
                found.setdefault(tuple(-s for s in signs), (neg3(v0), neg3(d1), neg3(d2)))

    edge_max = max(abs(x) for p in prim for x in p)
    return tuple(
        RealizablePattern(
            pattern=SignPattern(signs=signs),
            witness=Direction(_shrink_witness(prim, signs, *found[signs], edge_max)),
        )
        for signs in sorted(found)
    )


def _shrink_witness(prim, signs, v0, d1, d2, edge_max):
    """Integer direction whose exact signs equal the symbolic pattern.

    Tries w = K^2 v0 + K d1 + d2 for K = 2^10, 2^11, ... in plain ints. That
    is a positive multiple of v0 + eps d1 + eps^2 d2 at eps = 1/K, so the
    signs are those of the lexicographic perturbation once K is large.
    Every v0 . e_m is an integer, so it is 0 or at least 1 in size; hence
    any K > max_m(|d1 . e_m| + |d2 . e_m|) is large enough. That maximum is
    at most (|d1|_1 + |d2|_1) * edge_max, with edge_max the largest |entry|
    of any e_m, so a trial past this bound can only fail through an
    internal error.
    """
    bound = (sum(map(abs, d1)) + sum(map(abs, d2))) * edge_max
    k = 1 << 10
    while True:
        w = tuple(k * k * v0[d] + k * d1[d] + d2[d] for d in range(3))
        for em, want in zip(prim, signs):
            val = dot3(w, em)
            if val == 0 or (val > 0) != (want > 0):
                break
        else:
            return tuple(Fraction(x) for x in primitive_vector(w))
        if k > bound:
            raise SuperbridgeError("internal: witness shrink failed past its proven bound")
        k *= 2


def jin_upper_bound(p: PolygonalKnot) -> int:
    """floor(n/2): a projection has at most one maximum per two edges."""
    return p.n // 2


def max_descent_pattern(patterns: Sequence[RealizablePattern]) -> RealizablePattern:
    """The first pattern, in the given order, with the most descents."""
    return max(patterns, key=lambda rp: rp.pattern.descents)


def superbridge_number(p: PolygonalKnot) -> SuperbridgeResult:
    """Exact superbridge number by complete pattern enumeration."""
    patterns = realizable_patterns(edge_vectors(p))
    best = max_descent_pattern(patterns)
    value = best.pattern.descents
    if value > jin_upper_bound(p):
        raise SuperbridgeError("internal: descent count exceeds floor(n/2)")
    return SuperbridgeResult(
        value=value,
        witness_direction=best.witness,
        pattern_count=len(patterns),
    )


def descent_histogram(patterns: tuple[RealizablePattern, ...]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for rp in patterns:
        hist[rp.pattern.descents] = hist.get(rp.pattern.descents, 0) + 1
    return dict(sorted(hist.items()))


def sampled_lower_bound(p: PolygonalKnot, samples: int, seed: int) -> int:
    """Max descent count over pseudo-random generic integer directions.

    Deterministic for a fixed seed; non-generic draws are rejected and
    redrawn. Always a lower bound for (and in practice usually equal to)
    the enumerated superbridge number. The seed must be an integer >= 0
    and samples x edges at most SCREEN_ENTRIES_MAX.
    """
    if not isinstance(seed, Integral) or seed < 0:
        raise SuperbridgeError(f"seed must be an integer >= 0, got {seed!r}")
    most = SCREEN_ENTRIES_MAX // p.n
    if not isinstance(samples, Integral) or not 1 <= samples <= most:
        raise SuperbridgeError(f"samples must be 1 to {most} for {p.n} edges, got {samples!r}")
    cols = [primitive_vector(edge) for edge in edge_vectors(p).edges]
    if max(abs(x) for col in cols for x in col) > _INT64_SAFE:
        raise SuperbridgeError("edge coordinates too large for the sampling fast path")
    mat = np.array(cols, dtype=np.int64).T  # 3 x n
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = rng.integers(
        -_DIRECTION_BOUND, _DIRECTION_BOUND + 1, size=(samples, 3), dtype=np.int64
    )
    dots = dirs @ mat
    bad = (dots == 0).any(axis=1)
    for _ in range(64):
        if not bad.any():
            break
        k = int(bad.sum())
        redraw = rng.integers(
            -_DIRECTION_BOUND, _DIRECTION_BOUND + 1, size=(k, 3), dtype=np.int64
        )
        dirs[bad] = redraw
        dots[bad] = redraw @ mat
        bad = (dots == 0).any(axis=1)
    else:
        raise SuperbridgeError("could not draw generic directions")
    pos = dots > 0
    descents = (pos & ~np.roll(pos, -1, axis=1)).sum(axis=1)
    return int(descents.max())
