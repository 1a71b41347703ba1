"""Exact superbridge numbers via the great-circle arrangement of edge normals.

The sign pattern of v . e_i is constant on each open cell of the
arrangement cut into the direction sphere by the planes orthogonal to the
edges, and distinct cells carry distinct patterns (a pattern's locus is an
open convex cone). Enumerating cells therefore enumerates every realizable
pattern; the superbridge number of the polygon is the maximal descent
count over them. One exact integer matrix kernel finds every cell (see
realizable_patterns): it reads a polygon's primitive edge rows from its
one integer edge table and keeps each cell as a packed key of 8 rows per
vertex, the other 8 being their complements. A witness direction is
recovered only for a pattern a caller returns: superbridge_number, and so
``sb exact``, shrinks one.

The kernel and the screen's numpy body live in the private ``_kernel``
module, which the three functions that run them import in their bodies:
importing this module, and so the package, loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .geometry import Direction, EdgeVectors, PolygonalKnot, SignPattern, integer_edges
from .linalg import SuperbridgeError, _reduced, primitive_vector

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

    Each cell has an arrangement vertex on its boundary and is a sector
    between tangent rays of circles through it; perturbing the vertex along
    one ray, then infinitesimally toward another circle's tangent, lands in
    a flanking sector. So for the primitive edges and each pair a < b of
    circle normals the kernel forms V = N_a x N_b, T1 = V x N_a and
    T2 = V x N_b. Perturbation (V, s1 T1, s2 T2) gives edge e the sign of
    V . e, where that is 0 of s1 T1 . e, and where that is also 0 (e is
    then parallel to N_a) of s2 T2 . e, which is not 0. Swapping the
    circles swaps T1 and T2; the cells at -V are the 8 rows negated. With M
    the largest |entry| of an edge, |V| <= 2M^2 and |T| <= 4M^3 entrywise,
    so |V . e| <= 6M^3 and |T . e| <= 12M^4: the products are exact int64
    when 12M^4 < 2^62, and Python ints otherwise. Pairs run in blocks
    within KERNEL_TEMP_BYTES. Only the 8 perturbations at +V are signed:
    their rows, packed into big-endian uint64 words so that word order is
    tuple order, are held block by block and merge into those found so far
    whenever the held rows outnumber them, and after the last block, each
    pattern keeping its first visit. The complements of the survivors then
    stand for the 8 at -V (a row first seen as perturbation j of a pair is
    first negated as j + 8), and one more merge keeps, for each pattern, the
    first triple (v0, d1, d2) in visit order: pair, 8 perturbations, their 8
    negations.
    """
    import numpy as np

    from ._kernel import _cells

    bits, _, witness = _cells([primitive_vector(edge) for edge in e.edges])
    return tuple(
        RealizablePattern(pattern=SignPattern(signs=tuple(row)), witness=witness(i))
        for i, row in enumerate(np.where(bits, 1, -1).tolist())
    )


def _primitive_rows(p: PolygonalKnot) -> list[tuple[int, ...]]:
    """``primitive_vector`` of every edge of p, from one ``integer_edges``."""
    return [_reduced(row) for row in integer_edges(p)]


def jin_upper_bound(p: PolygonalKnot) -> int:
    """floor(n/2): a projection has at most one maximum per two edges."""
    return p.n // 2


def superbridge_number(p: PolygonalKnot) -> SuperbridgeResult:
    """Exact superbridge number, with the witness of the first pattern (in
    sorted order) of most descents, the only witness recovered."""
    return superbridge_census(p)[0]


def superbridge_census(p: PolygonalKnot) -> tuple[SuperbridgeResult, dict[int, int]]:
    """superbridge_number(p), and how many patterns have each descent count."""
    import numpy as np

    from ._kernel import _cells, _descents

    bits, _, witness = _cells(_primitive_rows(p))
    descents = _descents(bits)
    best = int(descents.argmax())
    result = SuperbridgeResult(int(descents[best]), witness(best), pattern_count=len(bits))
    return result, {d: c for d, c in enumerate(np.bincount(descents).tolist()) if c}


def sampled_lower_bound(p: PolygonalKnot, samples: int, seed: int) -> int:
    """Max descent count over pseudo-random generic integer directions.

    Deterministic for a fixed seed: each direction is 24 bytes of
    ``random.Random(seed).randbytes``, three little-endian 64-bit words
    each reduced modulo 2^21 + 1 into [-2^20, 2^20]. Non-generic draws are
    rejected and redrawn from the same stream. Always a lower bound for (and
    in practice usually equal to) the enumerated superbridge number. The
    seed must be an integer >= 0 and samples x edges at most
    SCREEN_ENTRIES_MAX.
    """
    if not isinstance(seed, Integral) or seed < 0:
        raise SuperbridgeError(f"seed must be an integer >= 0, got {seed!r}")
    most = SCREEN_ENTRIES_MAX // p.n
    if not isinstance(samples, Integral) or not 1 <= samples <= most:
        raise SuperbridgeError(f"samples must be 1 to {most} for {p.n} edges, got {samples!r}")
    cols = _primitive_rows(p)
    if max(abs(x) for col in cols for x in col) > _INT64_SAFE:
        raise SuperbridgeError("edge coordinates too large for the sampling fast path")

    from ._kernel import _screen

    return _screen(cols, samples, int(seed))
