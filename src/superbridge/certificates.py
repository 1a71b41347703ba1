"""Alternating-sign feasibility systems and superbridge certificates.

For a closed polygon with edges e_1..e_n the projection to a line can have
the maximal number of local maxima, floor(n/2), only if some direction
realizes a fully alternating sign pattern (n even) or a cyclic shift of the
pattern +,+,-,+,-,...,+,- (n odd). Each such pattern gives a 3 x n matrix;
a nonzero nonnegative null vector of that matrix certifies that the
pattern is unrealizable. For even n a single vector u suffices; for odd n
a bundle with one vector per cyclic shift certifies the bound
sb <= floor(n/2) - 1. One sign rule, ``shift_sign``, signs the columns of
every system, and both verification and certificate search build them
straight from the polygon's integer edge table, so a certificate search
depends only on the polygon's shape: rescaled or translated coordinates
give the same table and the same result. A polygon's systems are signed
once and kept (``geometry._kept``) as their three rows; the simplex and
every null-vector check read those rows, and only ``build_even_system``
and ``build_odd_systems`` turn them into columns. The first odd bundle
check keeps beside them the same rows rotated by each system's published
rotation, so either candidate of a system costs one C-level sum per row
and no copy of the column; certificate search never builds them. An odd
bundle's columns are gathered by one transpose. A bundle of plain ints is
checked as it is: its signs and residuals cannot change under the positive
rescaling ``primitive_vector`` would apply, so only other entry types go
through it. Columns are sign-checked once each, or not at all when every
entry is positive.

Odd shifted systems share null vectors. E_(j+1) is -E_j with the one
column (n - j) mod n left unnegated, so a null vector of E_j that is 0 in
that column is a null vector of E_(j+1). ``find_certificate`` therefore
tests the previous shift's vector on E_j's kept rows before it runs the
simplex; the evidence of a realizable shift, which has no null vector, is
still decided from scratch and so cannot change.

Published bundle layout. Shipped certificate matrices list one null vector
per column, generated by rotating the edge list rather than shifting the
sign mask. Pinned against the shipped data, 0-based column c of such a
matrix is the null vector of shifted system E_j with j = ((1 - c) mod n,
mapped into 1..n), after rotating its entries forward by c + 1 positions
(direct-frame u[p] = column[(p - c - 1) mod n]). ``find_certificate``
writes the direct layout instead: column j - 1, unrotated, for E_j.
``verify_odd_bundle`` checks each system against exactly these two
candidates, direct first, and verifies each exactly; any other arrangement
(permuted columns, say) leaves systems uncovered and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .geometry import EdgeVectors, PolygonalKnot, _kept, integer_edges
from .gordan import GordanMatrix, SeparatingDirection, _decide, _residual_failure, _sign_failure
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
    null vector; the message names the published-layout column of the
    first, ``published_column_for_system(n, systems[0])[0]``.
    """

    def __init__(self, check: str, detail: str = "", systems: tuple[int, ...] = ()):
        self.check = check
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
    assignment: tuple[tuple[int, int, int], ...] = ()

    @property
    def bound(self) -> int:
        """floor(n/2) - 1, the bound every verified vector or bundle certifies."""
        return self.n // 2 - 1

    @property
    def statement(self) -> str:
        return f"sb({self.knot}) <= {self.bound}"


def shift_sign(n: int, j: int, i: int) -> int:
    """Sign of 0-based column i in system E_j: minus when (i + j - 1) mod n is odd.

    The one sign rule of every system. For even n, E_1 is the alternating
    system +,-,...,+,-; for odd n, E_1..E_n (j in 1..n) are the cyclic
    shifts of +,-,+,...,-,+, whose one cyclically adjacent +,+ pair is at
    positions n-1, 0.
    """
    return -1 if (i + j - 1) % n % 2 else 1


def _signed_systems(edges: Sequence[Sequence]) -> tuple[tuple[tuple, ...], ...]:
    """The three rows of every signed system on ``edges``, by the parity of n.

    Even n: the alternating system alone. Odd n: E_1..E_n, each E_j the
    signs of E_1 shifted by j - 1. Each edge is negated once, each system transposed once.
    """
    n = len(edges)
    signed = (edges, tuple(neg3(e) for e in edges))
    flips = [shift_sign(n, 1, i) < 0 for i in range(n)]
    return tuple(
        tuple(zip(*(signed[f][i] for i, f in enumerate(flips[s:] + flips[:s]))))
        for s in (range(n) if n % 2 else (0,))
    )


def _polygon_systems(p: PolygonalKnot) -> tuple[tuple[tuple, ...], ...]:
    """``_signed_systems`` of p's integer edge table, signed once per polygon."""
    return _kept(p, "_signed_systems", lambda p: _signed_systems(integer_edges(p)))


def _published_rows(p: PolygonalKnot) -> tuple[tuple, ...]:
    """For odd n, the rows of each E_j rotated by its published rotation r.

    Item j - 1 is ``row[r:] + row[:r]`` for each row of E_j: row . u for the
    published candidate u[p] = column[(p - r) mod n] is the rotated row .
    column. Built on the first bundle check, so certificate search never
    builds them.
    """
    return _kept(p, "_published_rows", lambda p: tuple(
        tuple(row[r:] + row[:r] for row in rows)
        for j, rows in enumerate(_polygon_systems(p), start=1)
        for r in [published_column_for_system(p.n, j)[1]]
    ))


def build_even_system(e: EdgeVectors) -> EvenSystem:
    """Columns alternate +e_i / -e_i starting with +e_1."""
    n = len(e)
    if n % 2 != 0:
        raise OddEdgeCount(f"edge count {n} is odd")
    return EvenSystem(matrix=GordanMatrix(columns=tuple(zip(*_signed_systems(e.edges)[0]))))


def build_odd_systems(e: EdgeVectors) -> OddSystem:
    """All n cyclic shifts of the one-repeated-pair sign mask, n odd."""
    n = len(e)
    if n % 2 != 1:
        raise EvenEdgeCount(f"edge count {n} is even")
    return OddSystem(
        systems=tuple(GordanMatrix(columns=tuple(zip(*r))) for r in _signed_systems(e.edges))
    )


def verify_even_certificate(p: PolygonalKnot, u: Sequence) -> VerifiedBound:
    """Exact check of a single null vector; certifies sb(p) <= n/2 - 1."""
    n = p.n
    if n % 2 != 0:
        raise OddEdgeCount(f"{p.name}: edge count {n} is odd")
    if len(u) != n:
        raise InvalidCertificate("dimension", f"vector length {len(u)} != {n}")
    u = primitive_vector(u)
    failure = _sign_failure(u) or _residual_failure(_polygon_systems(p)[0], u)
    if failure is not None:
        raise InvalidCertificate(failure, f"{p.name}: even-system certificate rejected")
    return VerifiedBound(knot=p.name, n=n)


def published_column_for_system(n: int, j: int) -> tuple[int, int]:
    """(column, rotation) where the published layout keeps system j's vector.

    Pinned against the shipped bundles: system E_j lives in 0-based column
    c = (1 - j) mod n with rotation (c + 1) mod n.
    """
    c = (1 - j) % n
    return c, (c + 1) % n


def verify_odd_bundle(p: PolygonalKnot, bundle: CertificateBundle) -> VerifiedBound:
    """Exact check that every shifted system has a null vector in the bundle.

    System j is checked against the direct layout (column j-1, unrotated)
    and then the published layout (``published_column_for_system``) on the
    kept rotated rows; no other arrangement is tried. Each candidate is
    verified exactly, and the matched (column, rotation) is reported per
    system. Columns of plain ints are used as they are; other entries go
    through ``primitive_vector``. Certifies sb(p) <= floor(n/2)-1.
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
    matrix = bundle.matrix
    if set(map(type, chain.from_iterable(matrix))) == {int}:
        columns = list(zip(*matrix))
        positive = min(map(min, matrix)) > 0
    else:
        columns = [primitive_vector(col) for col in zip(*matrix)]
        positive = False
    signs = [None] * n if positive else [_sign_failure(col) for col in columns]
    assignment = []
    uncovered = []
    for j, (rows, turned) in enumerate(zip(_polygon_systems(p), _published_rows(p)), start=1):
        if signs[j - 1] is None and _residual_failure(rows, columns[j - 1]) is None:
            assignment.append((j, j - 1, 0))
            continue
        c, r = published_column_for_system(n, j)
        if signs[c] is None and _residual_failure(turned, columns[c]) is None:
            assignment.append((j, c, r))
        else:
            uncovered.append(j)
    if uncovered:
        # Diagnose the published-layout column of the first uncovered
        # system, so tampering reports point at the culprit entry.
        j = uncovered[0]
        c = published_column_for_system(n, j)[0]
        raise InvalidCertificate(
            "uncovered_system",
            f"{p.name}: no valid null vector for shifted system(s) {uncovered}; "
            f"published-layout column {c} fails check "
            f"'{signs[c] or 'nonzero_residual'}' for system {j}",
            systems=tuple(uncovered),
        )
    return VerifiedBound(knot=p.name, n=n, assignment=tuple(assignment))


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

    Odd shifts reuse null vectors. By ``shift_sign``, E_(j+1) is -E_j with
    one column, (n - j) mod n, left unnegated, and negating a whole system
    keeps its null vectors. So for j >= 2 the null vector of E_(j-1), whose
    signs its own recheck already passed, is first tested on the kept rows
    of E_j; if every residual is 0 it is E_j's column (a column may repeat
    its predecessor), else E_j is decided from scratch. A separating
    direction leaves nothing to carry. Evidence cannot change: by Gordan's
    alternative a system with a null vector has no separating direction,
    so every realizable shift fails the test and is decided from scratch.
    On the 22 realizations this cuts the simplex runs from 206 to 90. Each
    system is decided as it is, coprime signed integer edges.
    """
    n = p.n
    vectors = []
    evidence = []
    prev = None
    for j, rows in enumerate(_polygon_systems(p), start=1):
        if prev is not None and _residual_failure(rows, prev) is None:
            vectors.append(prev)
            continue
        cert = _decide(rows)
        if isinstance(cert, SeparatingDirection):
            evidence.append(ShiftEvidence(j if n % 2 else 0, cert.v))
            prev = None
        else:
            vectors.append(cert.u)
            prev = cert.u
    if evidence:
        return FindResult(bundle=None, evidence=tuple(evidence))
    if n % 2 == 0:
        return FindResult(bundle=CertificateBundle(vector=vectors[0]))
    # Direct layout: column c is the null vector of system j = c + 1.
    return FindResult(bundle=CertificateBundle(matrix=tuple(zip(*vectors))))
