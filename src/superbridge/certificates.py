"""Alternating-sign feasibility systems and superbridge certificates.

For a closed polygon with edges e_1..e_n the projection to a line can have
the maximal number of local maxima, floor(n/2), only if some direction
realizes a fully alternating sign pattern (n even) or a cyclic shift of the
pattern +,+,-,+,-,...,+,- (n odd). Each such pattern gives a 3 x n matrix;
a nonzero nonnegative null vector of that matrix certifies that the
pattern is unrealizable. For even n a single vector u suffices; for odd n
a bundle with one vector per cyclic shift certifies the bound
sb <= floor(n/2) - 1.

Published bundle layout. Shipped certificate matrices list one null vector
per column, generated by rotating the edge list rather than shifting the
sign mask. Pinned against the shipped data, 0-based column c of such a
matrix is the null vector of shifted system E_j with j = ((1 - c) mod n,
mapped into 1..n), after rotating its entries forward by c + 1 positions
(direct-frame u[p] = column[(p - c - 1) mod n]). ``verify_odd_bundle``
does not rely on this: it searches columns and rotations per system and
verifies each candidate exactly, so any layout whose columns are genuine
null vectors is accepted; the matched assignment is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import EdgeVectors, PolygonalKnot, edge_vectors
from .gordan import (
    GordanMatrix,
    NullCombination,
    SeparatingDirection,
    gordan_decide,
    null_vector_failure,
)
from .linalg import SuperbridgeError, neg3, primitive_vector


class OddEdgeCount(SuperbridgeError):
    pass


class EvenEdgeCount(SuperbridgeError):
    pass


class InvalidCertificate(SuperbridgeError):
    """A certificate failed verification.

    ``check`` names the failing test: "dimension", "negative_entry",
    "zero_vector", "nonzero_residual", or "uncovered_system". For odd
    bundles ``systems`` lists the shifted systems left without a valid
    null vector.
    """

    def __init__(
        self,
        check: str,
        detail: str = "",
        column: Optional[int] = None,
        systems: tuple[int, ...] = (),
    ):
        self.check = check
        self.column = column
        self.systems = systems
        msg = check if not detail else f"{check}: {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class EvenSystem:
    """Columns +e_1, -e_2, ..., +e_{n-1}, -e_n for an even edge count."""

    matrix: GordanMatrix


@dataclass(frozen=True)
class OddSystem:
    """The n shifted systems E_1..E_n for an odd edge count n = 2k+1."""

    systems: tuple[GordanMatrix, ...]


@dataclass(frozen=True)
class CertificateBundle:
    """Either a single vector (even n) or a square matrix of vectors (odd n).

    The matrix is stored row-major exactly as read or produced; columns are
    the candidate null vectors.
    """

    vector: Optional[tuple[int, ...]] = None
    matrix: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if (self.vector is None) == (self.matrix is None):
            raise SuperbridgeError("bundle must carry exactly one of vector / matrix")
        if self.matrix is not None:
            n = len(self.matrix)
            if any(len(row) != n for row in self.matrix):
                raise SuperbridgeError("bundle matrix must be square")

    @property
    def size(self) -> int:
        return len(self.vector) if self.vector is not None else len(self.matrix)

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.matrix)


@dataclass(frozen=True)
class VerifiedBound:
    """A certified statement sb(knot) <= bound for a specific realization.

    For odd bundles ``assignment`` records, per shifted system j, the
    (column, rotation) of the bundle entry that verified: rotation r means
    direct-frame u[p] = column[(p - r) mod n].
    """

    knot: str
    n: int
    bound: int
    assignment: tuple[tuple[int, int, int], ...] = ()

    @property
    def statement(self) -> str:
        return f"sb({self.knot}) <= {self.bound}"


def _base_flip(n: int, d: int) -> bool:
    # 0-based mask positions carrying a minus sign in the reference pattern
    # +,+,-,+,-,...,+,-  (exactly one cyclically adjacent +,+ pair).
    return d >= 2 and d % 2 == 0


def shift_sign(n: int, j: int, i: int) -> int:
    """Sign of 0-based column i in the shifted system E_j (j in 1..n)."""
    return -1 if _base_flip(n, (i + j) % n) else 1


def build_even_system(e: EdgeVectors) -> EvenSystem:
    """Columns alternate +e_i / -e_i starting with +e_1."""
    n = len(e)
    if n % 2 != 0:
        raise OddEdgeCount(f"edge count {n} is odd")
    cols = tuple(
        e.edges[i] if i % 2 == 0 else neg3(e.edges[i]) for i in range(n)
    )
    return EvenSystem(matrix=GordanMatrix(columns=cols))


def build_odd_systems(e: EdgeVectors) -> OddSystem:
    """All n cyclic shifts of the one-repeated-pair sign mask, n odd."""
    n = len(e)
    if n % 2 != 1:
        raise EvenEdgeCount(f"edge count {n} is even")
    if n < 3:
        raise SuperbridgeError("need at least 3 edges")
    systems = []
    for j in range(1, n + 1):
        cols = tuple(
            e.edges[i] if shift_sign(n, j, i) > 0 else neg3(e.edges[i])
            for i in range(n)
        )
        systems.append(GordanMatrix(columns=cols))
    return OddSystem(systems=tuple(systems))


def _integer_edge_vectors(p: PolygonalKnot) -> EdgeVectors:
    """Edges of p scaled to integers by one common positive factor.

    A common factor preserves every null-vector equation of the signed
    systems; per-edge factors would not.
    """
    flat = primitive_vector(c for edge in edge_vectors(p).edges for c in edge)
    return EdgeVectors(edges=tuple(flat[i : i + 3] for i in range(0, len(flat), 3)))


def verify_even_certificate(p: PolygonalKnot, u: Sequence) -> VerifiedBound:
    """Exact check of a single null vector; certifies sb(p) <= n/2 - 1."""
    n = p.n
    if n % 2 != 0:
        raise OddEdgeCount(f"{p.name}: edge count {n} is odd")
    if len(u) != n:
        raise InvalidCertificate("dimension", f"vector length {len(u)} != {n}")
    system = build_even_system(_integer_edge_vectors(p))
    failure = null_vector_failure(system.matrix.columns, primitive_vector(u))
    if failure is not None:
        raise InvalidCertificate(failure, f"{p.name}: even-system certificate rejected")
    return VerifiedBound(knot=p.name, n=n, bound=n // 2 - 1)


def published_column_for_system(n: int, j: int) -> tuple[int, int]:
    """(column, rotation) where the published layout keeps system j's vector.

    Pinned against the shipped bundles: system E_j lives in 0-based column
    c = (1 - j) mod n with rotation (c + 1) mod n.
    """
    c = (1 - j) % n
    return c, (c + 1) % n


def verify_odd_bundle(p: PolygonalKnot, bundle: CertificateBundle) -> VerifiedBound:
    """Exact check that every shifted system has a null vector in the bundle.

    Accepts both the published rotated-column layout and the direct layout
    (column j-1 unrotated for system j); any other arrangement is found by
    scanning columns and rotations. Every candidate is verified exactly, so
    the liberal search cannot overcertify. Certifies sb(p) <= floor(n/2)-1.
    """
    n = p.n
    if n % 2 != 1:
        raise EvenEdgeCount(f"{p.name}: edge count {n} is even")
    if bundle.matrix is None:
        raise InvalidCertificate("dimension", f"{p.name}: odd edge count needs a matrix bundle")
    if bundle.size != n:
        raise InvalidCertificate(
            "dimension", f"{p.name}: bundle is {bundle.size}x{bundle.size}, edges {n}"
        )
    systems = [m.columns for m in build_odd_systems(_integer_edge_vectors(p)).systems]
    columns = [primitive_vector(bundle.column(c)) for c in range(n)]
    rotated = {
        (c, r): tuple(columns[c][(q - r) % n] for q in range(n))
        for c in range(n)
        for r in range(n)
    }
    assignment = []
    uncovered = []
    for j in range(1, n + 1):
        candidates = [(j - 1, 0), published_column_for_system(n, j)]
        candidates += [
            (c, r) for c in range(n) for r in range(n) if (c, r) not in candidates
        ]
        hit = None
        for c, r in candidates:
            if null_vector_failure(systems[j - 1], rotated[(c, r)]) is None:
                hit = (j, c, r)
                break
        if hit:
            assignment.append(hit)
        else:
            uncovered.append(j)
    if uncovered:
        # Diagnose the published-layout column of the first uncovered
        # system, so tampering reports point at the culprit entry.
        j = uncovered[0]
        c, r = published_column_for_system(n, j)
        reason = null_vector_failure(systems[j - 1], rotated[(c, r)])
        raise InvalidCertificate(
            "uncovered_system",
            f"{p.name}: no valid null vector for shifted system(s) {uncovered}; "
            f"published-layout column {c} fails check '{reason}' for system {j}",
            column=c,
            systems=tuple(uncovered),
        )
    return VerifiedBound(knot=p.name, n=n, bound=n // 2 - 1, assignment=tuple(assignment))


def verify_bundle(p: PolygonalKnot, bundle: CertificateBundle) -> VerifiedBound:
    """Dispatch on parity: vector bundles for even n, matrices for odd n."""
    if p.n % 2 == 0:
        if bundle.vector is None:
            raise InvalidCertificate("dimension", f"{p.name}: even edge count needs a vector")
        return verify_even_certificate(p, bundle.vector)
    return verify_odd_bundle(p, bundle)


@dataclass(frozen=True)
class ShiftEvidence:
    """A shifted pattern that is realizable, with a separating direction.

    ``system`` is 0 for the even alternating system, else the shift index
    j in 1..n. The direction realizes the corresponding sign pattern, so
    its descent count attains the Jin bound.
    """

    system: int
    direction: tuple[int, ...]


@dataclass(frozen=True)
class FindResult:
    """Outcome of a certificate search: a bundle, or realizability evidence."""

    bundle: Optional[CertificateBundle]
    evidence: tuple[ShiftEvidence, ...] = ()

    @property
    def found(self) -> bool:
        return self.bundle is not None


def find_certificate(p: PolygonalKnot) -> FindResult:
    """Search for a certificate that sb(p) < floor(n/2).

    Even n: decide the single alternating system; a null vector is the
    certificate, a separating direction is evidence that the Jin bound is
    attained. Odd n: decide all n shifts; the bundle exists only if every
    shift is unrealizable, otherwise the realizable shifts and their
    separating directions are returned.
    """
    e = edge_vectors(p)
    n = p.n
    if n % 2 == 0:
        cert = gordan_decide(build_even_system(e).matrix)
        if isinstance(cert, NullCombination):
            return FindResult(bundle=CertificateBundle(vector=cert.u))
        return FindResult(bundle=None, evidence=(ShiftEvidence(0, cert.v),))
    odd = build_odd_systems(e)
    vectors = []
    evidence = []
    for j in range(1, n + 1):
        cert = gordan_decide(odd.systems[j - 1])
        if isinstance(cert, SeparatingDirection):
            evidence.append(ShiftEvidence(j, cert.v))
        else:
            vectors.append(cert.u)
    if evidence:
        return FindResult(bundle=None, evidence=tuple(evidence))
    # Direct layout: column c is the null vector of system j = c + 1.
    matrix = tuple(
        tuple(vectors[c][r] for c in range(n)) for r in range(n)
    )
    return FindResult(bundle=CertificateBundle(matrix=matrix))
