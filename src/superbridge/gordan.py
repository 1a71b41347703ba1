"""Exact decision procedure for the two-sided alternative on 3-row matrices.

For a rational 3 x l matrix A, exactly one of the following holds:

* some direction v has v^T A entrywise strictly positive, or
* some nonzero u >= 0 satisfies A u = 0.

``gordan_decide`` constructs a certificate for whichever side holds, using
an exact rational phase-one simplex on ``{u >= 0 : A u = 0, sum(u) = 1}``
with Bland's anti-cycling rule. Infeasibility yields dual multipliers from
which the separating direction is read off. Every certificate is verified
in exact arithmetic before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .linalg import SuperbridgeError, Vec3, dot3, primitive_vector, rational, vec3


class DimensionMismatch(SuperbridgeError):
    pass


@dataclass(frozen=True)
class GordanMatrix:
    """Ordered columns of an exact rational 3 x l matrix, l >= 1."""

    columns: tuple[Vec3, ...]

    def __post_init__(self):
        if len(self.columns) < 1:
            raise SuperbridgeError("matrix needs at least one column")

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "GordanMatrix":
        return cls(columns=tuple(vec3(*c) for c in cols))

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class SeparatingDirection:
    """Direction v with v^T A strictly positive in every entry."""

    v: tuple[int, ...]


@dataclass(frozen=True)
class NullCombination:
    """Nonzero nonnegative u with A u = 0, scaled to coprime integers."""

    u: tuple[int, ...]


Certificate = Union[SeparatingDirection, NullCombination]


def verify_separating(a: GordanMatrix, v: Sequence) -> bool:
    """True iff every entry of v^T A is strictly positive (exact)."""
    w = vec3(*(rational(x) for x in v))
    return all(dot3(w, col) > 0 for col in a.columns)


def null_vector_failure(columns: Sequence[Sequence], u: Sequence) -> Optional[str]:
    """First failed check of u as a null combination of ``columns``, or None.

    The checks, in order, are "dimension", "negative_entry", "zero_vector"
    and "nonzero_residual". Columns and u must already be exact numbers
    (ints or Fractions); nothing is converted here. This is the one place
    the residual A u is computed; every verifier in the package calls it.
    """
    if len(u) != len(columns):
        return "dimension"
    if any(x < 0 for x in u):
        return "negative_entry"
    if not any(u):
        return "zero_vector"
    for d in range(3):
        if sum(col[d] * x for col, x in zip(columns, u)) != 0:
            return "nonzero_residual"
    return None


def verify_null_combination(a: GordanMatrix, u: Sequence) -> bool:
    """True iff u >= 0, u != 0 and A u = 0, all checked exactly."""
    if len(u) != len(a.columns):
        raise DimensionMismatch(f"u has {len(u)} entries, matrix has {len(a.columns)} columns")
    return null_vector_failure(a.columns, [rational(x) for x in u]) is None


def gordan_decide(a: GordanMatrix) -> Certificate:
    """Decide the alternative and return a verified certificate.

    Deterministic: the simplex uses Bland's rule throughout. The recheck
    of the certificate is an explicit raise, so ``python -O`` keeps it.
    """
    feasible, u, y = _phase_one(a)
    if feasible:
        cert_u = primitive_vector(u)
        if null_vector_failure(a.columns, cert_u) is not None:
            raise SuperbridgeError("internal: null combination failed recheck")
        return NullCombination(u=cert_u)
    v = primitive_vector((-y[0], -y[1], -y[2]))
    if not verify_separating(a, v):
        raise SuperbridgeError("internal: separating direction failed recheck")
    return SeparatingDirection(v=v)


def _phase_one(a: GordanMatrix):
    """Exact phase-one simplex for {u >= 0 : A u = 0, sum(u) = 1}.

    Returns (True, u, None) on feasibility, else (False, None, y) where y
    are the optimal dual multipliers of the four equality rows.
    """
    ell = len(a.columns)
    m = 4
    width = ell + m
    # Constraint rows [A; 1] with rhs (0, 0, 0, 1), artificial basis.
    rows: list[list[Fraction]] = []
    for d in range(3):
        rows.append([Fraction(a.columns[j][d]) for j in range(ell)])
    rows.append([Fraction(1)] * ell)
    rhs = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    for r in range(m):
        art = [Fraction(0)] * m
        art[r] = Fraction(1)
        rows[r] = rows[r] + art
    basis = [ell + r for r in range(m)]
    # Reduced-cost row for minimizing the artificial sum, adjusted for the
    # initial all-artificial basis.
    obj = [Fraction(0)] * ell + [Fraction(1)] * m
    for r in range(m):
        for q in range(width):
            obj[q] -= rows[r][q]

    while True:
        enter = next((q for q in range(width) if obj[q] < 0), None)
        if enter is None:
            break
        leave_row = None
        best = None
        for r in range(m):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rhs[r] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave_row])
                ):
                    best = ratio
                    leave_row = r
        if leave_row is None:
            raise SuperbridgeError("internal: phase-one objective unbounded")
        _pivot(rows, rhs, obj, leave_row, enter)
        basis[leave_row] = enter

    z = sum(rhs[r] for r in range(m) if basis[r] >= ell)
    if z == 0:
        u = [Fraction(0)] * ell
        for r in range(m):
            if basis[r] < ell:
                u[basis[r]] = rhs[r]
        return True, u, None
    y = [Fraction(1) - obj[ell + i] for i in range(m)]
    return False, None, y


def _pivot(rows, rhs, obj, r, q):
    piv = rows[r][q]
    inv = Fraction(1) / piv
    rows[r] = [x * inv for x in rows[r]]
    rhs[r] *= inv
    for rr in range(len(rows)):
        if rr == r:
            continue
        f = rows[rr][q]
        if f != 0:
            rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
            rhs[rr] -= f * rhs[r]
    f = obj[q]
    if f != 0:
        for i in range(len(obj)):
            obj[i] -= f * rows[r][i]
