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
concur, since each concurrent pair regenerates the same vertex. An
integer witness direction is recovered per pattern, in plain ints, as
K^2 v0 + K d1 + d2 for growing K until its exact signs match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import (
    Direction,
    EdgeVectors,
    PolygonalKnot,
    SignPattern,
    edge_vectors,
)
from .linalg import SuperbridgeError, canonical_line, cross3, dot3, primitive_vector

_DIRECTION_BOUND = 1 << 20
_INT64_SAFE = (1 << 62) // (3 * _DIRECTION_BOUND)


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


def _first_sign(a: int, b: int, c: int) -> int:
    if a:
        return 1 if a > 0 else -1
    if b:
        return 1 if b > 0 else -1
    if c > 0:
        return 1
    if c < 0:
        return -1
    raise SuperbridgeError("internal: undetermined symbolic sign")


def realizable_patterns(e: EdgeVectors) -> tuple[RealizablePattern, ...]:
    """All sign patterns realized on open arrangement cells, with witnesses.

    Output is sorted lexicographically by pattern and is closed under the
    global sign flip (antipodal cells). Raises DegenerateEdgeSet when the
    edges define fewer than two distinct great circles.
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
            vertex = cross3(normals[a], normals[b])
            for v0 in (vertex, tuple(-x for x in vertex)):
                for na, nb in ((normals[a], normals[b]), (normals[b], normals[a])):
                    t1 = cross3(v0, na)
                    t2 = cross3(v0, nb)
                    for s1 in (1, -1):
                        d1 = tuple(s1 * x for x in t1)
                        for s2 in (1, -1):
                            d2 = tuple(s2 * x for x in t2)
                            signs = tuple(
                                _first_sign(dot3(v0, em), dot3(d1, em), dot3(d2, em))
                                for em in prim
                            )
                            found.setdefault(signs, (v0, d1, d2))

    out = []
    for signs in sorted(found):
        v0, d1, d2 = found[signs]
        out.append(
            RealizablePattern(
                pattern=SignPattern(signs=signs),
                witness=Direction(_shrink_witness(prim, signs, v0, d1, d2)),
            )
        )
    return tuple(out)


def _shrink_witness(prim, signs, v0, d1, d2):
    """Integer direction whose exact signs equal the symbolic pattern.

    Tries w = K^2 v0 + K d1 + d2 for K = 2^10, 2^11, ... in plain ints. That
    is a positive multiple of v0 + eps d1 + eps^2 d2 at eps = 1/K, so the
    signs are those of the lexicographic perturbation once K is large.
    """
    k = 1 << 10
    for _ in range(256):
        w = tuple(k * k * v0[d] + k * d1[d] + d2[d] for d in range(3))
        for em, want in zip(prim, signs):
            val = dot3(w, em)
            if val == 0 or (val > 0) != (want > 0):
                break
        else:
            return tuple(Fraction(x) for x in primitive_vector(w))
        k *= 2
    raise SuperbridgeError("internal: witness shrink did not terminate")


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


def _integer_edge_matrix(e: EdgeVectors) -> np.ndarray:
    cols = [primitive_vector(edge) for edge in e.edges]
    mat = np.array(cols, dtype=np.int64).T  # 3 x n
    if np.abs(mat).max(initial=0) > _INT64_SAFE:
        raise SuperbridgeError("edge coordinates too large for the sampling fast path")
    return mat


def sampled_lower_bound(p: PolygonalKnot, samples: int, seed: int) -> int:
    """Max descent count over pseudo-random generic integer directions.

    Deterministic for a fixed seed; non-generic draws are rejected and
    redrawn. Always a lower bound for (and in practice usually equal to)
    the enumerated superbridge number.
    """
    if samples < 1:
        raise SuperbridgeError("samples must be >= 1")
    e = edge_vectors(p)
    mat = _integer_edge_matrix(e)
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
