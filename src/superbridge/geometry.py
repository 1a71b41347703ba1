"""Closed polygonal space curves, their edge vectors, and projection counts.

A projection of a closed polygon to the line spanned by a direction ``v``
has one local maximum for every cyclic sign change of ``v . e_i`` from
positive to negative ("descent"). All counting here is exact: directions
with any ``v . e_i = 0`` are rejected rather than perturbed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import (
    Rational,
    SuperbridgeError,
    Vec3,
    canonical_line,
    cross3,
    dot3,
    is_zero3,
    sub3,
    vec3,
)


class DegeneratePolygon(SuperbridgeError):
    """The vertex list does not describe a genuine closed space polygon."""


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
    on a line).
    """

    name: str
    vertices: tuple[Vec3, ...]
    provenance: str = ""

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise DegeneratePolygon(f"{self.name}: need at least 3 vertices, got {n}")
        for i in range(n):
            if self.vertices[i] == self.vertices[(i + 1) % n]:
                raise DegeneratePolygon(
                    f"{self.name}: vertices {i} and {(i + 1) % n} coincide"
                )
        edges = [sub3(self.vertices[(i + 1) % n], self.vertices[i]) for i in range(n)]
        first = canonical_line(edges[0])
        if all(canonical_line(e) == first for e in edges[1:]):
            raise DegeneratePolygon(f"{self.name}: all edges parallel (curve lies on a line)")

    @classmethod
    def from_coordinates(
        cls,
        name: str,
        coordinates: Sequence[Sequence[Rational]],
        provenance: str = "",
    ) -> "PolygonalKnot":
        verts = tuple(vec3(*row) for row in coordinates)
        return cls(name=name, vertices=verts, provenance=provenance)

    @property
    def n(self) -> int:
        """Edge count (equals vertex count for a closed polygon)."""
        return len(self.vertices)


@dataclass(frozen=True)
class EdgeVectors:
    """Cyclic list of nonzero edge vectors of a closed polygon.

    The exact sum of all edges is the zero vector.
    """

    edges: tuple[Vec3, ...]

    def __post_init__(self):
        total = (Fraction(0), Fraction(0), Fraction(0))
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
    """Cyclic +/-1 vector of edge projection signs with its descent count.

    ``descents`` is the cyclic number of (+ -> -) transitions, which equals
    the number of local maxima of the projection. For a cyclic sequence it
    always equals the (- -> +) count, so it is at most floor(n/2).
    """

    signs: tuple[int, ...]
    descents: int = field(default=-1)

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise SuperbridgeError("sign pattern entries must be +1 or -1")
        down = cyclic_descents(self.signs)
        if self.descents == -1:
            object.__setattr__(self, "descents", down)
        if self.descents != down:
            raise SuperbridgeError(f"descents {self.descents} != computed {down}")

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
        if largest == 0:
            raise DegeneratePolygon("all vertices coincide")
        # Smallest k with largest * 10^k >= 10^(digits-1); then the value
        # is also < 10^digits, giving exactly `digits` significant digits.
        k = 0
        lo = Fraction(10) ** (digits - 1)
        while largest * Fraction(10) ** k < lo:
            k += 1
        while largest * Fraction(10) ** (k - 1) >= lo:
            k -= 1
        scale = Fraction(10) ** k
    rounded = tuple(
        vec3(*(_round_half_away(c * scale) for c in v)) for v in anchored
    )
    return PolygonalKnot(name=p.name, vertices=rounded, provenance=p.provenance)


def normalize_pose(p: PolygonalKnot, tolerance: float = 1e-9) -> PolygonalKnot:
    """Rigid motion into the standard pose, in floating point.

    The first vertex goes to the origin, the second onto the positive
    x-axis, and the third into the xy-plane with positive y-coordinate.
    Used only for display and corpus comparison; certificate arithmetic
    always runs on the raw exact coordinates.
    """
    verts = [tuple(float(c) for c in v) for v in p.vertices]
    o = verts[0]
    a = tuple(verts[1][d] - o[d] for d in range(3))
    b = tuple(verts[2][d] - o[d] for d in range(3))
    zt = cross3(a, b)
    norm_a = math.sqrt(dot3(a, a))
    norm_z = math.sqrt(dot3(zt, zt))
    if norm_z <= tolerance * max(norm_a, 1.0) ** 2:
        raise CollinearPrefix(f"{p.name}: first three vertices are collinear")
    xh = tuple(c / norm_a for c in a)
    zh = tuple(c / norm_z for c in zt)
    yh = cross3(zh, xh)
    out = []
    for v in verts:
        w = tuple(v[d] - o[d] for d in range(3))
        out.append((dot3(w, xh), dot3(w, yh), dot3(w, zh)))
    coords = tuple(vec3(*(Fraction(c) for c in w)) for w in out)
    return PolygonalKnot(name=p.name, vertices=coords, provenance=p.provenance)
