import hashlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbridge import (
    GordanMatrix,
    NullCombination,
    SeparatingDirection,
    build_even_system,
    edge_vectors,
    gordan_decide,
    verify_null_combination,
    verify_separating,
)
from superbridge.certificates import build_odd_systems
from superbridge.gordan import (
    DimensionMismatch,
    _phase_one,
    _residual_failure,
    _sign_failure,
)
from superbridge.linalg import SuperbridgeError, primitive_vector
from superbridge.search import random_equilateral_polygon

ANTIPODAL = GordanMatrix.from_columns([(1, 0, 0), (-1, 0, 0)])


def _first_failure(columns, u):
    """The first failed null-vector check of u against ``columns``, or None."""
    return _sign_failure(u) or _residual_failure(zip(*columns), u)


def test_antipodal_pair_yields_null_combination():
    cert = gordan_decide(ANTIPODAL)
    assert isinstance(cert, NullCombination)
    assert cert.u == (1, 1)


def test_common_positive_coordinate_is_separable():
    m = GordanMatrix.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    cert = gordan_decide(m)
    assert isinstance(cert, SeparatingDirection)
    assert verify_separating(m, cert.v)
    # the obvious direction works too
    assert verify_separating(m, (1, 0, 0))


def test_published_even_system_and_vector(corpus):
    entry = corpus["9_22"]
    system = build_even_system(edge_vectors(entry.knot)).matrix
    cert = gordan_decide(system)
    assert isinstance(cert, NullCombination)
    assert verify_null_combination(system, cert.u)
    # the published vector is also a valid witness
    assert verify_null_combination(system, entry.certificate.vector)


class TestVerifiers:
    def test_null_accepts(self):
        assert verify_null_combination(ANTIPODAL, (1, 1))

    def test_null_rejects_zero_vector(self):
        assert not verify_null_combination(ANTIPODAL, (0, 0))

    def test_null_rejects_negative(self):
        assert not verify_null_combination(ANTIPODAL, (1, -1))

    def test_null_rejects_nonkernel(self):
        assert not verify_null_combination(ANTIPODAL, (2, 1))

    def test_null_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_null_combination(ANTIPODAL, (1, 1, 1))

    @pytest.mark.parametrize(
        "u, failure",
        [
            ((1, 1, 1), "dimension"),
            ((-1, 0), "negative_entry"),
            ((0, 0), "zero_vector"),
            ((2, 1), "nonzero_residual"),
            ((3, 3), None),
            ((Fraction(1, 3), Fraction(1, 3)), None),
        ],
    )
    def test_null_vector_failure_names_first_failed_check(self, u, failure):
        if failure == "dimension":
            with pytest.raises(DimensionMismatch):
                verify_null_combination(ANTIPODAL, u)
        else:
            assert _first_failure(ANTIPODAL.columns, u) == failure

    @pytest.mark.parametrize(
        "u, failure",
        [
            ((Fraction(-1, 2), 1, 1), "dimension"),
            ((Fraction(-1, 2), 1, 1, 0), "negative_entry"),
            ((0, 0, 0, Fraction(-1, 7)), "negative_entry"),
            ((Fraction(0), 0, Fraction(0), 0), "zero_vector"),
            ((1, 1, 1, Fraction(1, 9)), "nonzero_residual"),
            ((1, Fraction(2), 1, 0), "nonzero_residual"),
            ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0), None),
        ],
    )
    def test_first_failed_check_on_fraction_entries(self, u, failure):
        """With Fractions in the matrix and in u, and several checks failing
        at once, the first check in order is the one reported."""
        m = GordanMatrix.from_columns([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, Fraction(1, 2))])
        if failure == "dimension":
            with pytest.raises(DimensionMismatch):
                verify_null_combination(m, u)
        else:
            assert _first_failure(m.columns, u) == failure
            assert verify_null_combination(m, u) == (failure is None)

    def test_null_accepts_rationals(self):
        assert verify_null_combination(ANTIPODAL, (Fraction(1, 3), Fraction(1, 3)))

    def test_separating_single_column(self):
        m = GordanMatrix.from_columns([(1, 0, 0)])
        assert verify_separating(m, (1, 0, 0))

    def test_separating_rejects_antipodal(self):
        for v in [(1, 0, 0), (0, 1, 0), (1, 2, 3), (-1, 5, 0)]:
            assert not verify_separating(ANTIPODAL, v)

    @pytest.mark.parametrize("v", [(1, 0), (1, 0, 0, 0), ()])
    def test_separating_wrong_length(self, v):
        m = GordanMatrix.from_columns([(1, 0, 0)])
        with pytest.raises(DimensionMismatch, match=f"v has {len(v)} entries, matrix has 3 rows"):
            verify_separating(m, v)

    @pytest.mark.parametrize("v", [("x", 0, 0), (1, "1/0", 0), (None, 0, 0)])
    def test_separating_non_rational_entry(self, v):
        m = GordanMatrix.from_columns([(1, 0, 0)])
        with pytest.raises(SuperbridgeError, match="entries must be rational numbers"):
            verify_separating(m, v)

    @pytest.mark.parametrize("u", [("x",), ("1/0",)])
    def test_null_non_rational_entry(self, u):
        m = GordanMatrix.from_columns([(1, 0, 0)])
        with pytest.raises(SuperbridgeError, match="entries must be rational numbers"):
            verify_null_combination(m, u)

    def test_rational_strings_accepted(self):
        assert verify_separating(GordanMatrix.from_columns([(1, 0, 0)]), ("1/2", "-3", 0))
        assert verify_null_combination(ANTIPODAL, ("1/3", "1/3"))

    def test_zero_row_not_strictly_positive(self):
        m = GordanMatrix.from_columns([(1, 0, 0), (0, 1, 0)])
        assert not verify_separating(m, (1, 0, 0))


def test_decide_is_deterministic():
    rng = random.Random(5)
    cols = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(3)) for _ in range(8)]
    m = GordanMatrix.from_columns(cols)
    assert gordan_decide(m) == gordan_decide(m)


def test_certificate_scale_invariance():
    cert = gordan_decide(ANTIPODAL)
    scaled = tuple(5 * x for x in cert.u)
    assert verify_null_combination(ANTIPODAL, scaled)
    m = GordanMatrix.from_columns([(1, 0, 0), (1, 1, 0)])
    cert = gordan_decide(m)
    assert verify_separating(m, tuple(7 * x for x in cert.v))


def test_recheck_survives_optimize(package_env):
    """Under python -O a bad simplex answer still raises instead of returning."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        import superbridge.gordan as gordan

        if sys.flags.optimize != 1:
            sys.exit(3)
        # A "feasible" answer that is not a null vector of the matrix.
        gordan._phase_one = lambda a: (True, [Fraction(1), Fraction(0)], None)
        m = gordan.GordanMatrix.from_columns([(1, 0, 0), (-1, 0, 0)])
        try:
            gordan.gordan_decide(m)
        except gordan.SuperbridgeError:
            sys.exit(0)
        sys.exit(4)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


def test_zero_column_forces_null_side():
    m = GordanMatrix.from_columns([(1, 2, 3), (0, 0, 0)])
    cert = gordan_decide(m)
    assert isinstance(cert, NullCombination)
    assert verify_null_combination(m, cert.u)


@st.composite
def rational_matrices(draw):
    ell = draw(st.integers(1, 13))
    cols = []
    for _ in range(ell):
        col = []
        for _ in range(3):
            den = draw(st.integers(1, 10))
            num = draw(st.integers(-10 * den, 10 * den))
            col.append(Fraction(num, den))
        cols.append(tuple(col))
    return GordanMatrix(columns=tuple(cols))


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_returned_certificate_always_verifies(m):
    cert = gordan_decide(m)
    if isinstance(cert, NullCombination):
        assert verify_null_combination(m, cert.u)
        # a valid null combination excludes any separating direction
        for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-3, 2, 5)]:
            assert not verify_separating(m, v)
    else:
        assert verify_separating(m, cert.v)
        # integer certificate with coprime entries
        from math import gcd

        g = 0
        for x in cert.v:
            g = gcd(g, abs(x))
        assert g == 1


def _random_rational_matrix(rng: random.Random) -> GordanMatrix:
    """A matrix drawn like ``rational_matrices``, from a seeded generator."""
    cols = []
    for _ in range(rng.randint(1, 13)):
        col = []
        for _ in range(3):
            den = rng.randint(1, 10)
            col.append(Fraction(rng.randint(-10 * den, 10 * den), den))
        cols.append(tuple(col))
    return GordanMatrix(columns=tuple(cols))


def test_decisions_pinned_on_seeded_random_matrices():
    """500 certificates, as recorded with the rational-tableau simplex on the
    coprime integer columns B of each matrix."""
    rng = random.Random(2024)
    lines = []
    for _ in range(500):
        cert = gordan_decide(_random_rational_matrix(rng))
        values = cert.u if isinstance(cert, NullCombination) else cert.v
        lines.append(f"{type(cert).__name__} {' '.join(map(str, values))}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "6086c394b5e0e35065f6503da4f6a87b4b55fca6041e1430073b5381910805a2"


@pytest.mark.parametrize("k", [Fraction(5, 7), Fraction(3)])
def test_decisions_do_not_depend_on_a_positive_scale(k):
    """gordan_decide(k A) == gordan_decide(A) on the 500 seeded matrices."""
    rng = random.Random(2024)
    for _ in range(500):
        m = _random_rational_matrix(rng)
        scaled = GordanMatrix(columns=tuple(tuple(k * x for x in col) for col in m.columns))
        assert gordan_decide(scaled) == gordan_decide(m), m


def _reference_phase_one(a: GordanMatrix, pivots: list | None = None):
    """The phase-one simplex as it read the rational columns of A directly.

    Rows [A | I | rhs | 0] and the reduced-cost row are built from the
    Fraction columns, then each row is scaled once to primitive integers;
    the revised simplex of ``gordan._phase_one`` must pivot exactly as this.
    Each pivot is appended to ``pivots``, if given, as (entering column,
    leaving row, whether a ratio-test tie moved the leaving row).
    """
    ell, m = len(a.columns), 4
    width = ell + m
    rows = [[col[d] for col in a.columns] for d in range(3)] + [[1] * ell]
    for r in range(m):
        rows[r] += [int(i == r) for i in range(m)] + [int(r == 3), 0]
    obj = [-sum(row[q] for row in rows) for q in range(ell)] + [0] * m + [-1, 1]
    rows = [list(primitive_vector(row)) for row in rows + [obj]]
    basis = list(range(ell, width))

    while (enter := next((q for q in range(width) if rows[m][q] < 0), None)) is not None:
        leave, tie_moved = None, False
        for r in range(m):
            coef = rows[r][enter]
            if coef <= 0:
                continue
            if leave is not None:
                lhs, rhs = rows[r][width] * rows[leave][enter], rows[leave][width] * coef
                if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                    continue
                tie_moved = tie_moved or lhs == rhs
            leave = r
        if pivots is not None:
            pivots.append((enter, leave, tie_moved))
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


def _assert_phase_one_matches_reference(m: GordanMatrix):
    """The revised simplex on B, A's coprime integer columns, pivots as the
    full rational tableau of B."""
    b = primitive_vector(x for col in m.columns for x in col)
    rows = (b[0::3], b[1::3], b[2::3])
    assert _phase_one(rows) == _reference_phase_one(GordanMatrix(columns=tuple(zip(*rows))))


_ENTRY = st.builds(
    Fraction,
    st.one_of(st.integers(-20, 20), st.integers(-(10**30), 10**30)),
    st.one_of(st.integers(1, 12), st.integers(1, 10**30)),
)
_COLUMN = st.one_of(st.tuples(_ENTRY, _ENTRY, _ENTRY), st.just((Fraction(0),) * 3))


@given(st.lists(_COLUMN, min_size=1, max_size=14))
@settings(max_examples=200, deadline=None)
def test_phase_one_matches_rational_reference(cols):
    """Mixed denominators, zero columns and 10^30-size entries."""
    _assert_phase_one_matches_reference(GordanMatrix(columns=tuple(cols)))


def test_phase_one_matches_reference_on_certify_systems():
    """The odd systems of the benchmark's ``certify`` polygons, seed 1."""
    rng = random.Random("certify:1")
    for n in range(11, 32, 2):
        p = random_equilateral_polygon(n, Fraction(3), rng, name=f"certify{n}")
        for system in build_odd_systems(edge_vectors(p)).systems:
            _assert_phase_one_matches_reference(system)


def test_phase_one_matches_reference_on_every_realization(corpus):
    """The even system or all n odd systems of each of the 22 realizations."""
    for entry in corpus.values():
        e = edge_vectors(entry.knot)
        systems = (build_even_system(e).matrix,) if len(e) % 2 == 0 else build_odd_systems(e).systems
        for system in systems:
            _assert_phase_one_matches_reference(system)


# Two seeded random matrices: in the first an artificial column enters the
# basis again (on the fourth pivot), in the second a ratio-test tie moves
# the leaving row to one with a smaller basis index (on the second pivot).
ARTIFICIAL_REENTERS = ((0, -3, 2), (-2, 1, -2), (2, -2, 3), (3, 0, 3), (-2, 3, 1))
RATIO_TIE = ((-3, 2, 1), (3, 2, -3))


def test_phase_one_matches_reference_when_an_artificial_column_reenters():
    m = GordanMatrix(columns=ARTIFICIAL_REENTERS)
    pivots = []
    _reference_phase_one(m, pivots)
    assert any(enter >= len(m) for enter, _, _ in pivots)
    _assert_phase_one_matches_reference(m)


def test_phase_one_matches_reference_on_a_ratio_tie():
    m = GordanMatrix(columns=RATIO_TIE)
    pivots = []
    _reference_phase_one(m, pivots)
    assert any(tie_moved for _, _, tie_moved in pivots)
    _assert_phase_one_matches_reference(m)


_SMALL_ENTRY = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _columns_with_repeats(draw):
    """1 to 40 columns: fresh ones, repeats, antiparallel copies and zeros."""
    fresh = st.tuples(_SMALL_ENTRY, _SMALL_ENTRY, _SMALL_ENTRY)
    cols = [draw(fresh)]
    for _ in range(draw(st.integers(0, 39))):
        kind = draw(st.sampled_from(("fresh", "repeat", "antiparallel", "zero")))
        if kind == "fresh":
            cols.append(draw(fresh))
        elif kind == "zero":
            cols.append((Fraction(0),) * 3)
        else:
            col = draw(st.sampled_from(cols))
            cols.append(col if kind == "repeat" else tuple(-x for x in col))
    return GordanMatrix(columns=tuple(cols))


@given(_columns_with_repeats())
@settings(max_examples=200, deadline=None)
def test_phase_one_matches_reference_with_repeated_columns(m):
    _assert_phase_one_matches_reference(m)


@pytest.mark.parametrize("cols", [((1, 2, 3, 4),), ((1, 2),), ((1, 0, 0), (1, 0)), ((),)])
def test_column_without_three_entries_is_rejected(cols):
    with pytest.raises(DimensionMismatch, match=r"column has \d entries, matrix has 3 rows"):
        GordanMatrix(columns=cols)
    with pytest.raises(DimensionMismatch, match=r"column has \d entries, matrix has 3 rows"):
        GordanMatrix.from_columns(cols)


@pytest.mark.parametrize("entry", [0.1, 1.0, "1", None])
def test_inexact_entry_is_rejected(entry):
    with pytest.raises(SuperbridgeError, match="entries must be ints or Fractions"):
        GordanMatrix(columns=((1, 0, 0), (entry, 0, 0)))


def test_from_columns_coerces_floats_and_rational_strings():
    """A float reads as its shortest decimal, so the decision and the
    verifiers see the same matrix."""
    m = GordanMatrix.from_columns([(0.1, 0, 0), (0.2, 0, 0), (-0.3, 0, 0)])
    assert m.columns == tuple((Fraction(k, 10), 0, 0) for k in (1, 2, -3))
    assert gordan_decide(m) == NullCombination(u=(3, 0, 1))
    assert verify_null_combination(m, (3, 0, 1))
    assert verify_null_combination(m, (1, 1, 1))
    assert GordanMatrix.from_columns([("1/2", "-3", 0)]).columns == ((Fraction(1, 2), -3, 0),)
    with pytest.raises(SuperbridgeError, match="entries must be rational numbers"):
        GordanMatrix.from_columns([("x", 0, 0)])
