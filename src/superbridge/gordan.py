"""Exact decision procedure for the two-sided alternative on 3-row matrices.

For a rational 3 x l matrix A, exactly one of the following holds:

* some direction v has v^T A entrywise strictly positive, or
* some nonzero u >= 0 satisfies A u = 0.

``gordan_decide`` constructs a certificate for whichever side holds, using
an exact phase-one simplex on ``{u >= 0 : A u = 0, sum(u) = 1}`` with
Bland's anti-cycling rule. Infeasibility yields dual multipliers from
which the separating direction is read off. Every certificate is verified
in exact arithmetic before being returned. Only B, the positive multiple
of A whose entries are coprime integers, is decided, so the answer
depends on A only up to a positive scale. B is decided as its three
rows. The simplex runs in revised form: it keeps each row of the basis
inverse in integers and prices a column of B only when Bland's scan
reaches it.

``_sign_failure`` and ``_residual_failure`` are the package's null-vector
checks, each one pass at C level on rows: the simplex recheck runs them on
the rows it decided, certificate verifiers on rows kept on the polygon,
and ``verify_null_combination`` on the rows of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .linalg import NotRational, SuperbridgeError, Vec3, _reduced, dot3, primitive_vector, rational


class DimensionMismatch(SuperbridgeError):
    pass


@dataclass(frozen=True)
class GordanMatrix:
    """Ordered columns of an exact rational 3 x l matrix, l >= 1.

    Every column has three entries, each an int or a Fraction;
    ``from_columns`` coerces rational strings and floats first.
    """

    columns: tuple[Vec3, ...]

    def __post_init__(self):
        if len(self.columns) < 1:
            raise SuperbridgeError("matrix needs at least one column")
        for col in self.columns:
            if len(col) != 3:
                raise DimensionMismatch(f"column has {len(col)} entries, matrix has 3 rows")
            if not all(isinstance(x, (int, Fraction)) for x in col):
                raise SuperbridgeError(f"entries must be ints or Fractions, got {list(col)!r}")

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "GordanMatrix":
        return cls(columns=tuple(
            tuple(_exact(c, 3, "column has {} entries, matrix has {} rows")) for c in cols
        ))

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
    except NotRational:
        raise SuperbridgeError(f"entries must be rational numbers, got {list(x)!r}") from None


def _sign_failure(u: Sequence) -> Optional[str]:
    """"negative_entry" or "zero_vector" if u fails it (``min``, then ``any``)."""
    if min(u, default=0) < 0:
        return "negative_entry"
    if not any(u):
        return "zero_vector"
    return None


def _residual_failure(rows, u: Sequence) -> Optional[str]:
    """"nonzero_residual" unless each row . u, one ``sum`` of ``mul``, is 0."""
    for row in rows:
        if sum(map(mul, row, u)):
            return "nonzero_residual"
    return None


def verify_null_combination(a: GordanMatrix, u: Sequence) -> bool:
    """True iff u >= 0, u != 0 and A u = 0, all checked exactly."""
    u = _exact(u, len(a.columns), "u has {} entries, matrix has {} columns")
    return not (_sign_failure(u) or _residual_failure(zip(*a.columns), u))


def gordan_decide(a: GordanMatrix) -> Certificate:
    """Decide the alternative and return a verified certificate.

    Deterministic: the simplex uses Bland's rule throughout. The recheck
    of the certificate is an explicit raise, so ``python -O`` keeps it.
    """
    b = primitive_vector(x for col in a.columns for x in col)
    return _decide((b[0::3], b[1::3], b[2::3]))


def _decide(rows: tuple[tuple[int, ...], ...]) -> Certificate:
    """``gordan_decide`` on the three integer rows of B, rechecked on them."""
    feasible, u, y = _phase_one(rows)
    if feasible:
        cert_u = primitive_vector(u)
        if _sign_failure(cert_u) or _residual_failure(rows, cert_u):
            raise SuperbridgeError("internal: null combination failed recheck")
        return NullCombination(u=cert_u)
    v = primitive_vector((-y[0], -y[1], -y[2]))
    if not all(dot3(v, col) > 0 for col in zip(*rows)):
        raise SuperbridgeError("internal: separating direction failed recheck")
    return SeparatingDirection(v=v)


def _phase_one(rows: tuple[tuple[int, ...], ...]):
    """Revised phase-one simplex for {u >= 0 : B u = 0, sum(u) = 1}.

    ``rows`` are the three integer rows of B. Returns (True, u, None) on
    feasibility, else (False, None, y) where y are the optimal dual
    multipliers of the four equality rows.

    The rational tableau has rows [B | I | rhs] over the four equality
    rows (the three rows of B and sum(u) = 1) and the reduced-cost row.
    Each row is M [B | I | rhs] for the inverse M of the current basis, so
    it is fixed by its artificial block. Only that block is kept: a
    constraint row as [a | rhs], the cost row as [a | rhs | factor], each
    an integer row known up to its own positive factor and reduced by
    ``_reduced``. A row's entry in column c of B is a . (B_c, 1) =
    a_0 B_0c + a_1 B_1c + a_2 B_2c + a_3, and in artificial column i it is
    a_i. The cost row is factor * (0 | 1 1 1 1) - d [B | I] with
    d_i = factor - a_i the scaled duals, so column c's reduced cost is
    negative exactly when d . B_c + d_3 > 0.

    The pivots are those of the full tableau. Bland's entering rule reads
    only the signs of the reduced costs, scanned over the columns of B and
    then the artificial columns, and stops at the first negative one; the
    ratio test compares rhs/coef within one row and breaks ties by basis
    index. None of these depends on a row's positive factor, so every
    choice, and with it every basis, u and y, is that of the rational
    tableau.
    """
    ell = len(rows[0])
    tableau = [[int(i == r) for i in range(4)] + [int(r == 3)] for r in range(4)]
    # Minimize the artificial sum from the all-artificial basis; the rhs
    # entry of the cost row is minus the objective value.
    obj = [0, 0, 0, 0, -1, 1]
    basis = list(range(ell, ell + 4))

    while True:
        f = obj[5]
        d0, d1, d2, d3 = f - obj[0], f - obj[1], f - obj[2], f - obj[3]
        # Column c of B is priced: the four constraint rows' coefficients
        # and the cost row's reduced cost.
        for enter, (x, y, z) in enumerate(zip(*rows)):
            price = d0 * x + d1 * y + d2 * z + d3
            if price > 0:
                coefs = [r0 * x + r1 * y + r2 * z + r3 for r0, r1, r2, r3, _ in tableau]
                cost = -price
                break
        else:
            i = next((i for i in range(4) if obj[i] < 0), None)
            if i is None:
                break
            enter, coefs, cost = ell + i, [row[i] for row in tableau], obj[i]
        leave = None
        for r, coef in enumerate(coefs):
            if coef <= 0:
                continue
            if leave is not None:
                # rhs/coef against the best row so far; Bland breaks ties
                lhs, rhs = tableau[r][4] * coefs[leave], tableau[leave][4] * coef
                if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                    continue
            leave = r
        if leave is None:
            raise SuperbridgeError("internal: phase-one objective unbounded")
        pivot, piv = tableau[leave], coefs[leave]
        for r, coef in enumerate(coefs):
            if r != leave and coef != 0:
                tableau[r] = _reduced([s * piv - coef * t for s, t in zip(tableau[r], pivot)])
        obj = _reduced([s * piv - cost * t for s, t in zip(obj, pivot)] + [f * piv])
        basis[leave] = enter

    if obj[4] == 0:
        u = [Fraction(0)] * ell
        for (a0, a1, a2, a3, rhs), c in zip(tableau, basis):
            if c < ell:
                u[c] = Fraction(rhs, a0 * rows[0][c] + a1 * rows[1][c] + a2 * rows[2][c] + a3)
        return True, u, None
    f = obj[5]
    return False, None, [Fraction(f - obj[i], f) for i in range(4)]
