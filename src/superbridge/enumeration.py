"""Exact superbridge numbers via the great-circle arrangement of edge normals.

The sign pattern of v . e_i is constant on each open cell of the
arrangement cut into the direction sphere by the planes orthogonal to the
edges, and distinct cells carry distinct patterns (a pattern's locus is an
open convex cone). Enumerating cells therefore enumerates every realizable
pattern; the superbridge number of the polygon is the maximal descent
count over them. One exact integer matrix kernel, ``_kernel._cells``,
finds every cell. It reads a polygon's primitive edge rows, reduced once
from its one integer edge table and kept, and holds each cell as a packed
key of 8 rows per vertex, the other 8 being their complements. A witness
direction is recovered only for a pattern a caller returns:
superbridge_number, and so ``sb exact``, shrinks one.

The kernel and the screen's numpy body live in the private ``_kernel``
module, which the three functions that run them import in their bodies:
importing this module, and so the package, loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .geometry import Direction, EdgeVectors, PolygonalKnot, SignPattern, _kept, integer_edges
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
    """An exact superbridge number, a direction attaining it and the number
    of realizable sign patterns it was taken over."""

    value: int
    witness_direction: Direction
    pattern_count: int
    certified_by: str = "enumeration"


def realizable_patterns(e: EdgeVectors) -> tuple[RealizablePattern, ...]:
    """All sign patterns realized on open arrangement cells, with witnesses.

    Output is sorted lexicographically by pattern and is closed under the
    global sign flip (antipodal cells). Raises DegenerateEdgeSet when the
    edges define fewer than two distinct great circles. The cells come from
    ``_kernel._cells``, which describes how.
    """
    import numpy as np

    from ._kernel import _cells

    bits, _, witness = _cells([primitive_vector(edge) for edge in e.edges])
    return tuple(
        RealizablePattern(pattern=SignPattern(signs=tuple(row)), witness=witness(i))
        for i, row in enumerate(np.where(bits, 1, -1).tolist())
    )


def _primitive_rows(p: PolygonalKnot) -> tuple[tuple[int, ...], ...]:
    """``primitive_vector`` of every edge of p, reduced once from ``integer_edges`` and kept."""
    return _kept(p, "_primitive_rows", lambda p: tuple(_reduced(row) for row in integer_edges(p)))


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


def sampled_lower_bound(p: PolygonalKnot, samples: int, seed: int, *, stop_above=None) -> int:
    """Max descent count over pseudo-random generic integer directions.

    Deterministic for a fixed seed: each direction is 24 bytes of
    ``random.Random(seed).randbytes``, three little-endian 64-bit words
    each reduced modulo 2^21 + 1 into [-2^20, 2^20]. Non-generic draws are
    skipped, and 0 is returned if no draw is generic. Always a lower bound
    for (and in practice usually equal to) the enumerated superbridge
    number. The seed must be an integer >= 0 and samples x edges at most
    SCREEN_ENTRIES_MAX.

    With an integer ``stop_above`` the screen stops at the first chunk of
    directions (8, 16, 32, ... of them) that has a generic direction above
    it, and returns the most descents over the generic directions read so
    far: still a lower bound, and above ``stop_above`` exactly when the
    maximum is. Otherwise it returns the maximum, as without ``stop_above``.
    """
    if not isinstance(seed, Integral) or seed < 0:
        raise SuperbridgeError(f"seed must be an integer >= 0, got {seed!r}")
    most = SCREEN_ENTRIES_MAX // p.n
    if not isinstance(samples, Integral) or not 1 <= samples <= most:
        raise SuperbridgeError(f"samples must be 1 to {most} for {p.n} edges, got {samples!r}")
    if stop_above is not None and not isinstance(stop_above, Integral):
        raise SuperbridgeError(f"stop_above must be an integer or None, got {stop_above!r}")
    cols = _primitive_rows(p)
    if max(abs(x) for col in cols for x in col) > _INT64_SAFE:
        raise SuperbridgeError("edge coordinates too large for the sampling fast path")

    from ._kernel import _screen

    return _screen(cols, samples, int(seed), None if stop_above is None else int(stop_above))
