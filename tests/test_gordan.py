import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

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
import superbridge
from superbridge.gordan import DimensionMismatch, null_vector_failure

ANTIPODAL = GordanMatrix.from_columns([(1, 0, 0), (-1, 0, 0)])


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
        assert null_vector_failure(ANTIPODAL.columns, u) == failure

    def test_null_accepts_rationals(self):
        assert verify_null_combination(ANTIPODAL, (Fraction(1, 3), Fraction(1, 3)))

    def test_separating_single_column(self):
        m = GordanMatrix.from_columns([(1, 0, 0)])
        assert verify_separating(m, (1, 0, 0))

    def test_separating_rejects_antipodal(self):
        for v in [(1, 0, 0), (0, 1, 0), (1, 2, 3), (-1, 5, 0)]:
            assert not verify_separating(ANTIPODAL, v)

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


def test_recheck_survives_optimize():
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
    src = str(Path(superbridge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
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
