"""Closed polygonal space curves, their edge vectors, and projection counts.

A projection of a closed polygon to the line spanned by a direction ``v``
has one local maximum for every cyclic sign change of ``v . e_i`` from
positive to negative ("descent"). All counting here is exact: directions
with any ``v . e_i = 0`` are rejected rather than perturbed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    Rational,
    SuperbridgeError,
    Vec3,
    _cleared,
    _integer,
    _reduced,
    cross3,
    dot3,
    is_zero3,
    sub3,
    vec3,
)


class DegeneratePolygon(SuperbridgeError):
    """The vertex list does not describe a genuine closed space polygon."""


class DegenerateEdgeSet(SuperbridgeError):
    """Fewer than two distinct great circles: no arrangement to enumerate."""


class NonGenericDirection(SuperbridgeError):
    """Some edge is orthogonal to the projection direction."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"direction orthogonal to edge {index}")


class CollinearPrefix(SuperbridgeError):
    """First three vertices are collinear; the pose frame is undefined."""


class KnotTypePreservationWarning(UserWarning):
    """Coordinate rounding may change the knot type; this is not checked."""


@dataclass(frozen=True)
class PolygonalKnot:
    """Named closed polygon with exact rational vertex coordinates.

    Vertices are ordered; the edge from the last vertex back to the first
    closes the cycle. At least three vertices, cyclically consecutive
    vertices distinct, and not all edges parallel (the curve must not lie
    on a line). Both checks read the polygon's one integer edge table, whose
    row i is zero exactly when vertex i equals vertex i + 1; ``integer_edges``
    returns it, and ``_kept`` keeps it.
    """

    name: str
    vertices: tuple[Vec3, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise DegeneratePolygon(f"{self.name}: need at least 3 vertices, got {n}")
        table = _kept(self, "_integer_edges", lambda p: _scaled_edges(p.vertices))
        for i, e in enumerate(table):
            if is_zero3(e):
                raise DegeneratePolygon(f"{self.name}: vertices {i} and {(i + 1) % n} coincide")
        first, *rest = table
        if all(is_zero3(cross3(first, e)) for e in rest):
            raise DegeneratePolygon(f"{self.name}: all edges parallel (curve lies on a line)")

    @classmethod
    def from_coordinates(cls, name: str, coordinates: Sequence[Sequence[Rational]]) -> "PolygonalKnot":
        for i, row in enumerate(coordinates):
            if len(row) != 3:
                raise SuperbridgeError(f"{name}: vertex {i} has {len(row)} coordinates, expected 3")
        verts = tuple(vec3(*row) for row in coordinates)
        return cls(name=name, vertices=verts)

    @property
    def n(self) -> int:
        """Edge count (equals vertex count for a closed polygon)."""
        return len(self.vertices)


def _kept(p: PolygonalKnot, name: str, build):
    """p's table ``name``, built by ``build(p)`` on first use and kept on p.

    Every table a polygon derives is kept this way. It is a plain
    attribute, not a field, so equality, hashing and repr ignore it;
    ``dataclasses.replace`` builds a polygon without it, and pickling and
    ``copy.deepcopy`` carry it with the vertices it was built from.
    """
    table = p.__dict__.get(name)
    if table is None:
        table = build(p)
        object.__setattr__(p, name, table)
    return table


@dataclass(frozen=True)
class EdgeVectors:
    """Cyclic list of nonzero edge vectors of a closed polygon.

    The exact sum of all edges is the zero vector.
    """

    edges: tuple[Vec3, ...]

    def __post_init__(self):
        total = (0, 0, 0)
        for i, e in enumerate(self.edges):
            if is_zero3(e):
                raise DegeneratePolygon(f"edge {i} is the zero vector")
            total = (total[0] + e[0], total[1] + e[1], total[2] + e[2])
        if not is_zero3(total):
            raise DegeneratePolygon(f"edges do not close up (sum {total})")

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Direction:
    """Nonzero exact rational direction in R^3."""

    v: Vec3

    def __post_init__(self):
        if is_zero3(self.v):
            raise SuperbridgeError("direction must be nonzero")

    @classmethod
    def of(cls, x: Rational, y: Rational, z: Rational) -> "Direction":
        return cls(vec3(x, y, z))


@dataclass(frozen=True)
class SignPattern:
    """Cyclic +/-1 vector of edge projection signs."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise SuperbridgeError("sign pattern entries must be +1 or -1")

    @property
    def descents(self) -> int:
        """The cyclic number of (+ -> -) transitions, which equals the number
        of local maxima of the projection. For a cyclic sequence it always
        equals the (- -> +) count, so it is at most floor(n/2)."""
        return cyclic_descents(self.signs)

    def __len__(self) -> int:
        return len(self.signs)


def cyclic_descents(signs: Sequence[int]) -> int:
    """Number of cyclic positions i with signs[i] > 0 > signs[i+1]."""
    n = len(signs)
    return sum(1 for i in range(n) if signs[i] > 0 and signs[(i + 1) % n] < 0)


def edge_vectors(p: PolygonalKnot) -> EdgeVectors:
    """Edge vectors e_i = v_{i+1} - v_i with cyclic indices.

    Closure (exact zero sum) holds by construction; a zero edge or an
    all-parallel edge set raises DegeneratePolygon.
    """
    n = p.n
    return EdgeVectors(
        edges=tuple(sub3(p.vertices[(i + 1) % n], p.vertices[i]) for i in range(n))
    )


def integer_edges(p: PolygonalKnot) -> tuple[tuple[int, int, int], ...]:
    """Edges of p times one common positive rational, as coprime integers.

    Equal to ``primitive_vector`` over the flattened ``edge_vectors(p)``:
    the vertices are scaled to integers by the lcm of their denominators,
    differenced, and divided by the gcd of all the differences. A common
    factor keeps every linear relation among the edges, which per-edge
    factors would not; a row divided by its own gcd is that edge's
    ``primitive_vector``. p keeps the table from when it is built, and every
    call returns that same tuple.
    """
    return p._integer_edges


#: Bit length of the vertices' common denominator above which
#: ``_scaled_edges`` reads the gcd of its differences off the reduced edges.
#: Sampler polygons (about 30 bits) and integer files (1) stay below it.
_PLAIN_GCD_BITS = 8192


def _scaled_edges(vertices: Sequence[Vec3]) -> tuple[tuple[int, int, int], ...]:
    """The table of ``integer_edges``: vertices times the lcm L of their
    denominators, differenced, divided by the gcd of the differences.

    That gcd costs time quadratic in the size of L. For a large L it is
    computed as (L // M) * G instead, with M the lcm of the reduced edge
    coordinates' denominators and G the gcd of their numerators. For a
    prime dividing M, some edge denominator holds it to M's power and that
    edge's numerator is prime to it, so the differences L * e share exactly
    its power in L // M, and any other prime to its power in L * G. Each
    step of M and G is a gcd against one edge's entry, not against a
    number of L's size.
    """
    coords = [c for v in vertices for c in v]
    ints, scale = _cleared(coords)
    diffs = tuple([b - a for a, b in zip(ints, ints[3:] + ints[:3])])
    if scale.bit_length() <= _PLAIN_GCD_BITS:
        diffs = _reduced(diffs)
    else:
        edges = [b - a for a, b in zip(coords, coords[3:] + coords[:3])]
        g = scale // math.lcm(*(e.denominator for e in edges))
        g *= math.gcd(*(e.numerator for e in edges)) or 1
        diffs = tuple(d // g for d in diffs)
    return tuple(diffs[i : i + 3] for i in range(0, len(diffs), 3))


def sign_pattern(e: EdgeVectors, v: Direction) -> SignPattern:
    """Signs of v . e_i for a generic direction v.

    Raises NonGenericDirection (with the first offending edge index) if any
    dot product vanishes.
    """
    signs = []
    for i, edge in enumerate(e.edges):
        d = dot3(v.v, edge)
        if d == 0:
            raise NonGenericDirection(i)
        signs.append(1 if d > 0 else -1)
    return SignPattern(signs=tuple(signs))


def descent_count(e: EdgeVectors, v: Direction) -> int:
    """Local maxima of the projection of the polygon to the line of v."""
    return sign_pattern(e, v).descents


def _round_half_away(x: Fraction) -> int:
    if x >= 0:
        return int(x + Fraction(1, 2))
    return -int(-x + Fraction(1, 2))


def quantize(p: PolygonalKnot, digits: int = 3) -> PolygonalKnot:
    """Round coordinates to integers with ``digits`` significant digits.

    The scale is the power of ten that puts the largest absolute coordinate
    in [10^(digits-1), 10^digits); rounding is half away from zero. All
    output vertices are anchored at the first vertex (which maps to the
    origin), so edge closure stays exact by construction. Inputs that are
    already integer-valued are passed through unscaled.

    Emits KnotTypePreservationWarning: whether rounding preserves the knot
    type is not verified here.
    """
    _integer("digits", digits)
    if digits < 1:
        raise SuperbridgeError("digits must be >= 1")
    warnings.warn(
        "quantize rounds coordinates; knot type preservation is not verified",
        KnotTypePreservationWarning,
        stacklevel=2,
    )
    v1 = p.vertices[0]
    anchored = [sub3(v, v1) for v in p.vertices]
    if all(c.denominator == 1 for v in anchored for c in v):
        scale = Fraction(1)
    else:
        largest = max(abs(c) for v in anchored for c in v)
        # Smallest k with largest * 10^k >= 10^(digits-1); then the value
        # is also < 10^digits, giving exactly `digits` significant digits.
        # The loops find it from any start; starting from the bit-length
        # estimate of log10(largest) (1233 / 4096 ~ log10 2) takes them a
        # step or two instead of one step per digit.
        bits = largest.numerator.bit_length() - largest.denominator.bit_length()
        k = digits - 1 - (bits * 1233 >> 12)
        lo = Fraction(10) ** (digits - 1)
        while largest * Fraction(10) ** k < lo:
            k += 1
        while largest * Fraction(10) ** (k - 1) >= lo:
            k -= 1
        scale = Fraction(10) ** k
    rounded = tuple(
        vec3(*(_round_half_away(c * scale) for c in v)) for v in anchored
    )
    return PolygonalKnot(name=p.name, vertices=rounded)


#: Relative size below which ``normalize_pose`` calls the first three
#: vertices collinear.
POSE_TOLERANCE = 1e-9


def normalize_pose(p: PolygonalKnot) -> PolygonalKnot:
    """Rigid motion into the standard pose, in floating point.

    The first vertex goes to the origin, the second onto the positive
    x-axis, and the third into the xy-plane with positive y-coordinate.
    Used only for display and corpus comparison; certificate arithmetic
    always runs on the raw exact coordinates. A coordinate, norm or output
    that is not a finite float raises SuperbridgeError.
    """
    too_large = f"{p.name}: coordinates too large for the floating-point pose"
    try:
        verts = [tuple(float(c) for c in v) for v in p.vertices]
    except OverflowError:
        raise SuperbridgeError(too_large) from None
    o = verts[0]
    a = tuple(verts[1][d] - o[d] for d in range(3))
    b = tuple(verts[2][d] - o[d] for d in range(3))
    zt = cross3(a, b)
    norm_a = math.sqrt(dot3(a, a))
    norm_z = math.sqrt(dot3(zt, zt))
    if not (math.isfinite(norm_a) and math.isfinite(norm_z)):
        raise SuperbridgeError(too_large)
    if norm_z <= POSE_TOLERANCE * max(norm_a, 1.0) ** 2:
        raise CollinearPrefix(f"{p.name}: first three vertices are collinear")
    xh = tuple(c / norm_a for c in a)
    zh = tuple(c / norm_z for c in zt)
    yh = cross3(zh, xh)
    out = []
    for v in verts:
        w = tuple(v[d] - o[d] for d in range(3))
        out.append((dot3(w, xh), dot3(w, yh), dot3(w, zh)))
    if not all(math.isfinite(c) for w in out for c in w):
        raise SuperbridgeError(too_large)
    coords = tuple(vec3(*(Fraction(c) for c in w)) for w in out)
    return PolygonalKnot(name=p.name, vertices=coords)
