"""Exact decision procedure for the two-sided alternative on 3-row matrices.

For a rational 3 x l matrix A, exactly one of the following holds:

* some direction v has v^T A entrywise strictly positive, or
* some nonzero u >= 0 satisfies A u = 0.

``gordan_decide`` constructs a certificate for whichever side holds, using
an exact phase-one simplex on ``{u >= 0 : A u = 0, sum(u) = 1}`` with
Bland's anti-cycling rule. Infeasibility yields dual multipliers from
which the separating direction is read off. Every certificate is verified
in exact arithmetic before being returned. The simplex pivots on integer
rows; ``_phase_one`` says why Bland's choices are those of a rational one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
    """Phase-one simplex on integer rows for {u >= 0 : A u = 0, sum(u) = 1}.

    Returns (True, u, None) on feasibility, else (False, None, y) where y
    are the optimal dual multipliers of the four equality rows.

    Rows [A | I | rhs | 0] and the reduced-cost row (a sum of rows, so its
    signs depend on the column scaling) are built from the rational columns,
    then each row is scaled once to primitive integers and from then on is
    known only up to its own positive factor. No factor changes a pivot:
    Bland's entering rule reads only signs of the reduced-cost row, and the
    ratio test compares rhs/coef within one row. The reduced-cost row's last
    entry is its factor (1 in rational terms), so the duals come back exact.
    """
    ell, m = len(a.columns), 4
    width = ell + m
    rows = [[col[d] for col in a.columns] for d in range(3)] + [[1] * ell]
    for r in range(m):
        rows[r] += [int(i == r) for i in range(m)] + [int(r == 3), 0]
    # Minimize the artificial sum from the all-artificial basis; the rhs
    # entry of this row is minus the objective value.
    obj = [-sum(row[q] for row in rows) for q in range(ell)] + [0] * m + [-1, 1]
    rows = [list(primitive_vector(row)) for row in rows + [obj]]
    basis = list(range(ell, width))

    while (enter := next((q for q in range(width) if rows[m][q] < 0), None)) is not None:
        leave = None
        for r in range(m):
            coef = rows[r][enter]
            if coef <= 0:
                continue
            if leave is not None:
                # rhs/coef against the best row so far; Bland breaks ties
                lhs, rhs = rows[r][width] * rows[leave][enter], rows[leave][width] * coef
                if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                    continue
            leave = r
        if leave is None:
            raise SuperbridgeError("internal: phase-one objective unbounded")
        pivot, p = rows[leave], rows[leave][enter]
        for r, row in enumerate(rows):
            f = row[enter]
            if r != leave and f != 0:
                row = [x * p - f * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        basis[leave] = enter

    obj = rows[m]
    if obj[width] == 0:
        u = [Fraction(0)] * ell
        for r in range(m):
            if basis[r] < ell:
                u[basis[r]] = Fraction(rows[r][width], rows[r][basis[r]])
        return True, u, None
    scale = obj[width + 1]
    return False, None, [Fraction(scale - obj[ell + i], scale) for i in range(m)]
