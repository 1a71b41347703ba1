"""Exact decision procedure for the two-sided alternative on 3-row matrices.

For a rational 3 x l matrix A, exactly one of the following holds:

* some direction v has v^T A entrywise strictly positive, or
* some nonzero u >= 0 satisfies A u = 0.

``gordan_decide`` constructs a certificate for whichever side holds, using
an exact phase-one simplex on ``{u >= 0 : A u = 0, sum(u) = 1}`` with
Bland's anti-cycling rule. Infeasibility yields dual multipliers from
which the separating direction is read off. Every certificate is verified
in exact arithmetic before being returned. The matrix is read once as
A = (p/q) B with B coprime integer columns; the simplex pivots on integer
rows built from (B, p, q), and ``_phase_one`` says why Bland's choices are
those of the rational tableau. Both rechecks run on B.

``null_vector_failure`` is the package's one residual check: the simplex
recheck and every certificate verifier call it, and each of its checks is
one pass at C level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
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
    w = _exact(v, 3, "v has {} entries, matrix has 3 rows")
    return all(dot3(w, col) > 0 for col in a.columns)


def _exact(x: Sequence, size: int, mismatch: str) -> list[Fraction]:
    """x as Fractions: DimensionMismatch unless it has ``size`` entries."""
    if len(x) != size:
        raise DimensionMismatch(mismatch.format(len(x), size))
    try:
        return [rational(e) for e in x]
    except (ValueError, ZeroDivisionError):
        raise SuperbridgeError(f"entries must be rational numbers, got {list(x)!r}") from None


def null_vector_failure(columns: Sequence[Sequence], u: Sequence) -> Optional[str]:
    """First failed check of u as a null combination of ``columns``, or None.

    The checks, in order, are "dimension", "negative_entry", "zero_vector"
    and "nonzero_residual". Columns and u must already be exact numbers
    (ints or Fractions); nothing is converted here. This is the one place
    the residual A u is computed; every verifier in the package calls it.
    Each check is one C-level pass (``min``, ``any``, and per row of A a
    ``sum`` of ``operator.mul`` over the row and u), with no Python loop
    over the entries.
    """
    if len(u) != len(columns):
        return "dimension"
    if min(u, default=0) < 0:
        return "negative_entry"
    if not any(u):
        return "zero_vector"
    for row in zip(*columns):
        if sum(map(mul, row, u)):
            return "nonzero_residual"
    return None


def verify_null_combination(a: GordanMatrix, u: Sequence) -> bool:
    """True iff u >= 0, u != 0 and A u = 0, all checked exactly."""
    u = _exact(u, len(a.columns), "u has {} entries, matrix has {} columns")
    return null_vector_failure(a.columns, u) is None


def gordan_decide(a: GordanMatrix) -> Certificate:
    """Decide the alternative and return a verified certificate.

    Deterministic: the simplex uses Bland's rule throughout. The recheck
    of the certificate is an explicit raise, so ``python -O`` keeps it.
    """
    return _decide(*_integer_columns(a))


def _decide(cols: tuple[tuple[int, ...], ...], p: int, q: int) -> Certificate:
    """``gordan_decide`` on the matrix A = (p/q) B read as B = ``cols``.

    B must be coprime integer columns and p/q the scale ``_integer_columns``
    gives A; the pivots depend on p/q, not only on B. Both rechecks run on B.
    """
    feasible, u, y = _phase_one((cols, p, q))
    if feasible:
        cert_u = primitive_vector(u)
        if null_vector_failure(cols, cert_u) is not None:
            raise SuperbridgeError("internal: null combination failed recheck")
        return NullCombination(u=cert_u)
    v = primitive_vector((-y[0], -y[1], -y[2]))
    if not all(dot3(v, col) > 0 for col in cols):
        raise SuperbridgeError("internal: separating direction failed recheck")
    return SeparatingDirection(v=v)


def _integer_columns(a: GordanMatrix) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(B, p, q): coprime integer columns B and coprime p, q > 0, A = (p/q) B.

    A u = 0 exactly when B u = 0, and v^T A has the signs of v^T B. A zero
    matrix reads as B = 0, p = q = 1.
    """
    flat = [x for col in a.columns for x in col]
    b = primitive_vector(flat)
    i = next((i for i, x in enumerate(b) if x), None)
    ratio = Fraction(1) if i is None else Fraction(flat[i]) / b[i]
    return tuple(zip(b[0::3], b[1::3], b[2::3])), ratio.numerator, ratio.denominator


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (one is nonzero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _phase_one(a: tuple[tuple[tuple[int, ...], ...], int, int]):
    """Phase-one simplex on integer rows for {u >= 0 : A u = 0, sum(u) = 1}.

    ``a`` is the matrix A = (p/q) B as ``_integer_columns`` reads it.
    Returns (True, u, None) on feasibility, else (False, None, y) where y
    are the optimal dual multipliers of the four equality rows.

    The rational tableau has rows [A | I | rhs | 0] and the reduced-cost
    row (a sum of rows, so its signs depend on the column scaling). Here
    each row is that row times q, [p B_d | q I_d | 0 0], and the cost row is
    q times the rational one, -(p sum(B) + q) | 0 | -q | q; each is reduced
    once to coprime integers and from then on is known only up to its own
    positive factor. No factor changes a pivot: Bland's entering rule reads
    only signs of the reduced-cost row, and the ratio test compares
    rhs/coef within one row. The reduced-cost row's last entry is its
    factor (1 in rational terms), so the duals come back exact.
    """
    cols, p, q = a
    ell, m = len(cols), 4
    width = ell + m
    rows = [_reduced([p * col[d] for col in cols] + [q * (i == d) for i in range(m)] + [0, 0])
            for d in range(3)]
    rows.append([1] * ell + [0, 0, 0, 1, 1, 0])
    # Minimize the artificial sum from the all-artificial basis; the rhs
    # entry of this row is minus the objective value.
    rows.append(_reduced([-(p * sum(col) + q) for col in cols] + [0] * m + [-q, q]))
    basis = list(range(ell, width))

    while (enter := next((c for c in range(width) if rows[m][c] < 0), None)) is not None:
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
        pivot, piv = rows[leave], rows[leave][enter]
        for r, row in enumerate(rows):
            f = row[enter]
            if r != leave and f != 0:
                rows[r] = _reduced([x * piv - f * y for x, y in zip(row, pivot)])
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
