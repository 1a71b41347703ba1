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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from numbers import Integral

import numpy as np

from .geometry import Direction, EdgeVectors, PolygonalKnot, SignPattern, integer_edges
from .linalg import SuperbridgeError, cross3, dot3, primitive_vector

_DIRECTION_BOUND = 1 << 20
_INT64_SAFE = (1 << 62) // (3 * _DIRECTION_BOUND)
#: Most samples x edges the screen accepts (its int64 table is then 128 MiB).
SCREEN_ENTRIES_MAX = 1 << 24
#: Bound on the temporary bytes of one block of the arrangement kernel, for
#: n up to KERNEL_TEMP_BYTES // 256 - 4 edges. A block of k vertex pairs
#: takes at most 256 k (n + 4) bytes: the most measured is 215 k (n + 4), on
#: planar polygons with Python-int products and 13-digit coordinates, where
#: every edge is re-signed.
KERNEL_TEMP_BYTES = 1 << 22
# Perturbation j of a vertex v0 has d1 = -t1 if j & 2 and d2 = -t2 if j & 1;
# j & 4 swaps the circles (t1 and t2), and j & 8 negates v0, d1 and d2.
_S1, _S2 = np.array([[[1], [1], [-1], [-1]], [[1], [-1], [1], [-1]]], dtype=np.int8)


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
    bits, _, witness = _cells([primitive_vector(edge) for edge in e.edges])
    return tuple(
        RealizablePattern(pattern=SignPattern(signs=tuple(row)), witness=witness(i))
        for i, row in enumerate(np.where(bits, 1, -1).tolist())
    )


def _primitive_rows(p: PolygonalKnot) -> list[tuple[int, ...]]:
    """``primitive_vector`` of every edge of p, from one ``integer_edges``."""
    return [tuple(x // g for x in row) for row in integer_edges(p) for g in (gcd(*row),)]


def _cells(prim: list[tuple[int, ...]]):
    """Sign bits (True for +) of the realizable patterns, rows sorted, the
    first visit of each row (16 x vertex pair + perturbation), and the
    function giving row i its witness, for the primitive edges prim."""
    circles: dict[tuple, tuple] = {}
    for p in prim:
        # first nonzero entry positive: one key for the normals +-p
        circles.setdefault(p if (p[0] or p[1] or p[2]) > 0 else (-p[0], -p[1], -p[2]), p)
    normals = list(circles.values())
    if len(normals) < 2:
        raise DegenerateEdgeSet("need at least two non-parallel edges")
    n, edge_max = len(prim), max(abs(x) for p in prim for x in p)
    dtype = np.int64 if 12 * edge_max**4 < 1 << 62 else object
    edges, circ = np.array(prim, dtype=dtype), np.array(normals, dtype=dtype)
    pa, pb = np.triu_indices(len(normals), 1)
    step = max(1, KERNEL_TEMP_BYTES // (256 * (n + 4)))
    # Where one word has room below a key, it also holds the visit index.
    spare = 64 - n if n < 64 and 16 * len(pa) <= 1 << (64 - n) else 0
    keys, first = _pack(np.zeros((0, n), dtype=bool)), np.zeros(0, dtype=np.int64)
    held, held_first = [], []  # packed rows and visit indices not merged yet
    for lo in range(0, len(pa), step):
        hi = min(lo + step, len(pa))
        na, nb = circ[pa[lo:hi]], circ[pb[lo:hi]]
        v = _cross(na, nb)
        dots = v @ edges.T
        pi, ei = np.nonzero(dots == 0)
        t1 = np.sign((_cross(v, na)[pi] * edges[ei]).sum(axis=1)).astype(np.int8)
        t2 = np.sign((_cross(v, nb)[pi] * edges[ei]).sum(axis=1)).astype(np.int8)
        lead = np.concatenate(
            [np.where(t1 != 0, _S1 * t1, _S2 * t2), np.where(t2 != 0, _S1 * t2, _S2 * t1)]
        )
        block = np.repeat((dots > 0)[:, None], 8, axis=1)  # pair - lo, perturbation j
        block[pi, :, ei] = (lead > 0).T
        held.append(_pack(block.reshape(-1, n)))
        held_first.append((16 * np.arange(lo, hi)[:, None] + np.arange(8)).ravel())
        # Merging only once the held rows outnumber the found ones keeps the
        # merge work linear in the rows signed rather than quadratic in blocks.
        if hi == len(pa) or sum(map(len, held)) > len(keys):
            keys, first = _first_rows(
                np.concatenate([keys, *held]), np.concatenate([first, *held_first]), spare
            )
            held, held_first = [], []
    # Perturbation j + 8 of a pair negates perturbation j: complement the keys.
    words, first = _first_rows(
        np.concatenate([keys, keys ^ _pack(np.ones((1, n), dtype=bool))]),
        np.concatenate([first, first + 8]),
        spare,
    )
    bits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=n).view(bool)

    def witness(i: int) -> Direction:
        """Integer direction K^2 v0 + K d1 + d2 whose exact signs are row i's.

        It is a positive multiple of v0 + eps d1 + eps^2 d2 at eps = 1/K, so
        its signs are the perturbation's once K is large. Every v0 . e is an
        integer, 0 or at least 1 in size, so any K > max(|d1 . e| + |d2 . e|)
        works, and that is at most (|d1|_1 + |d2|_1) * edge_max: a trial of
        K = 2^10, 2^11, ... past this bound can only fail by an internal error.
        """
        pair, j = divmod(int(first[i]), 16)
        na, nb = normals[pa[pair]], normals[pb[pair]]
        v0 = cross3(na, nb)
        t1, t2 = (cross3(v0, nb), cross3(v0, na)) if j & 4 else (cross3(v0, na), cross3(v0, nb))
        g = -1 if j & 8 else 1
        s1, s2 = (-g if j & 2 else g), (-g if j & 1 else g)
        v0, d1, d2 = ([s * x for x in u] for s, u in ((g, v0), (s1, t1), (s2, t2)))
        signs = np.where(bits[i], 1, -1).tolist()
        bound = (sum(map(abs, d1)) + sum(map(abs, d2))) * edge_max
        k = 1 << 10
        while True:
            w = tuple(k * k * v0[d] + k * d1[d] + d2[d] for d in range(3))
            if all(s * dot3(w, em) > 0 for em, s in zip(prim, signs)):
                return Direction(tuple(Fraction(x) for x in primitive_vector(w)))
            if k > bound:
                raise SuperbridgeError("internal: witness shrink failed past its proven bound")
            k *= 2

    return bits, first, witness


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two k x 3 arrays, one column at a time."""
    (x0, x1, x2), (y0, y1, y2) = x.T, y.T
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=1)


def _pack(rows: np.ndarray) -> np.ndarray:
    """Bool rows packed into big-endian uint64 words, so word order is row order."""
    packed = np.zeros((len(rows), (rows.shape[1] + 63) // 64 * 8), dtype=np.uint8)
    packed[:, : (rows.shape[1] + 7) // 8] = np.packbits(rows, axis=1)
    return packed.view(">u8").astype(np.uint64)


def _first_rows(words: np.ndarray, first: np.ndarray, spare: int):
    """The distinct rows of words in sorted order, each with its least ``first``.

    With ``spare`` > 0 words has one column, whose low ``spare`` bits are 0
    and hold every ``first``: key and index then sort as one distinct word.
    """
    if spare:
        both = np.sort(words[:, 0] | first.astype(np.uint64))
        key, first = both >> spare << spare, (both & ((1 << spare) - 1)).astype(np.int64)
        keep = np.append(True, key[1:] != key[:-1])
        return key[keep, None], first[keep]
    order = np.lexsort(words.T[::-1])
    words, first = words[order], first[order]
    start = np.flatnonzero(np.append(True, (words[1:] != words[:-1]).any(axis=1)))
    return words[start], np.minimum.reduceat(first, start)


def jin_upper_bound(p: PolygonalKnot) -> int:
    """floor(n/2): a projection has at most one maximum per two edges."""
    return p.n // 2


def superbridge_number(p: PolygonalKnot) -> SuperbridgeResult:
    """Exact superbridge number, with the witness of the first pattern (in
    sorted order) of most descents, the only witness recovered."""
    return superbridge_census(p)[0]


def superbridge_census(p: PolygonalKnot) -> tuple[SuperbridgeResult, dict[int, int]]:
    """superbridge_number(p), and how many patterns have each descent count."""
    bits, _, witness = _cells(_primitive_rows(p))
    descents = (bits & ~np.roll(bits, -1, axis=1)).sum(axis=1)
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
    mat = np.array(cols, dtype=np.int64).T  # 3 x n
    rng = random.Random(int(seed))

    def directions(k: int) -> np.ndarray:
        words = np.frombuffer(rng.randbytes(24 * k), dtype="<u8").reshape(k, 3)
        dirs = (words % (2 * _DIRECTION_BOUND + 1)).view(np.int64)
        dirs -= _DIRECTION_BOUND
        return dirs

    dots = directions(samples) @ mat
    bad = (dots == 0).any(axis=1)
    for _ in range(64):
        if not bad.any():
            break
        dots[bad] = directions(int(bad.sum())) @ mat
        bad = (dots == 0).any(axis=1)
    else:
        raise SuperbridgeError("could not draw generic directions")
    pos = dots > 0
    descents = (pos & ~np.roll(pos, -1, axis=1)).sum(axis=1)
    return int(descents.max())
