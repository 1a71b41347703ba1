import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbridge import (
    DegeneratePolygon,
    Direction,
    PolygonalKnot,
    edge_vectors,
    jin_upper_bound,
    realizable_patterns,
    sampled_lower_bound,
    sign_pattern,
    superbridge_number,
)
from superbridge.enumeration import DegenerateEdgeSet, descent_histogram
from superbridge.geometry import EdgeVectors, NonGenericDirection


class TestRealizablePatterns:
    def test_square_has_four_cells(self, square):
        pats = realizable_patterns(edge_vectors(square))
        assert len(pats) == 4
        assert all(rp.pattern.descents == 1 for rp in pats)

    def test_witnesses_realize_their_patterns(self, square, skew_quad, triangle):
        # one coordinate of 10**400 makes witness recovery need a huge K
        huge = PolygonalKnot.from_coordinates(
            "huge", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (10**400, 0, 1)]
        )
        for p in (square, skew_quad, triangle, huge):
            e = edge_vectors(p)
            for rp in realizable_patterns(e):
                assert sign_pattern(e, rp.witness).signs == rp.pattern.signs

    def test_skew_quad_contains_alternating_pattern(self, skew_quad):
        e = edge_vectors(skew_quad)
        pats = {rp.pattern.signs: rp for rp in realizable_patterns(e)}
        assert (1, -1, 1, -1) in pats
        # witness points towards the vertical axis cell
        w = pats[(1, -1, 1, -1)].witness
        assert sign_pattern(e, w).signs == (1, -1, 1, -1)

    def test_triangle_has_six_cells(self, triangle):
        pats = realizable_patterns(edge_vectors(triangle))
        assert len(pats) == 6
        signs = {rp.pattern.signs for rp in pats}
        assert (1, 1, 1) not in signs and (-1, -1, -1) not in signs

    def test_nine_22_cell_bound_and_max(self, corpus):
        pats = realizable_patterns(edge_vectors(corpus["9_22"].knot))
        assert len(pats) <= 10 * 9 + 2
        assert max(rp.pattern.descents for rp in pats) == 4

    def test_antipodal_closure(self, corpus):
        e = edge_vectors(corpus["9_22"].knot)
        signs = {rp.pattern.signs for rp in realizable_patterns(e)}
        assert {tuple(-s for s in p) for p in signs} == signs

    def test_lexicographic_order(self, square):
        pats = realizable_patterns(edge_vectors(square))
        signs = [rp.pattern.signs for rp in pats]
        assert signs == sorted(signs)

    def test_cell_count_bound(self, corpus):
        from superbridge.linalg import canonical_line, primitive_vector

        for entry in corpus.values():
            e = edge_vectors(entry.knot)
            circles = {canonical_line(primitive_vector(ed)) for ed in e.edges}
            c = len(circles)
            assert len(realizable_patterns(e)) <= c * (c - 1) + 2

    def test_parallel_edges_share_circles(self):
        # planar rectangle: two distinct circles, four cells
        rect = PolygonalKnot.from_coordinates(
            "rect", [(0, 0, 0), (3, 0, 0), (3, 1, 0), (0, 1, 0)]
        )
        pats = realizable_patterns(edge_vectors(rect))
        assert len(pats) == 4

    def test_pencil_arrangement_planar_polygon(self, planar_11_gon):
        # all eleven circles share one antipodal vertex pair; the cells are
        # the 22 lunes and a convex polygon has a single maximum everywhere
        pats = realizable_patterns(edge_vectors(planar_11_gon))
        assert len(pats) == 22
        assert all(rp.pattern.descents == 1 for rp in pats)
        assert superbridge_number(planar_11_gon).value == 1

    def test_degenerate_edge_set(self):
        e = EdgeVectors(
            edges=(
                (Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(-2), Fraction(0), Fraction(0)),
            )
        )
        with pytest.raises(DegenerateEdgeSet):
            realizable_patterns(e)


def _random_knot(rng, n):
    while True:
        verts = [tuple(Fraction(rng.randint(-40, 40)) for _ in range(3)) for _ in range(n)]
        try:
            return PolygonalKnot.from_coordinates("rnd", verts)
        except DegeneratePolygon:
            continue


@given(seed=st.integers(0, 10**6), n=st.integers(4, 8))
@settings(max_examples=40, deadline=None)
def test_random_direction_patterns_are_enumerated(seed, n):
    rng = random.Random(seed)
    p = _random_knot(rng, n)
    e = edge_vectors(p)
    enumerated = {rp.pattern.signs for rp in realizable_patterns(e)}
    hits = 0
    while hits < 25:
        v = tuple(Fraction(rng.randint(-200, 200)) for _ in range(3))
        if v == (0, 0, 0):
            continue
        try:
            pat = sign_pattern(e, Direction(v))
        except NonGenericDirection:
            continue
        hits += 1
        assert pat.signs in enumerated


def test_corpus_completeness_ten_thousand_directions(corpus):
    """Every sampled generic direction's pattern is an enumerated pattern."""
    import numpy as np

    from superbridge.linalg import primitive_vector

    rng = np.random.Generator(np.random.PCG64(424242))
    for entry in corpus.values():
        e = edge_vectors(entry.knot)
        enumerated = {rp.pattern.signs for rp in realizable_patterns(e)}
        mat = np.array([primitive_vector(ed) for ed in e.edges], dtype=np.int64).T
        dirs = rng.integers(-(1 << 16), (1 << 16) + 1, size=(10_000, 3), dtype=np.int64)
        dots = dirs @ mat
        generic = (dots != 0).all(axis=1)
        signs = np.where(dots > 0, 1, -1)[generic]
        assert int(generic.sum()) > 9_900
        for row in {tuple(int(x) for x in s) for s in signs}:
            assert row in enumerated, (entry.knot.name, row)


class TestSuperbridgeNumber:
    def test_square(self, square):
        res = superbridge_number(square)
        assert res.value == 1
        assert res.pattern_count == 4
        assert res.certified_by == "enumeration"

    def test_witness_achieves_value(self, corpus):
        from superbridge import descent_count

        p = corpus["9_22"].knot
        res = superbridge_number(p)
        assert descent_count(edge_vectors(p), res.witness_direction) == res.value

    def test_published_values_spot(self, corpus):
        assert superbridge_number(corpus["9_22"].knot).value == 4
        assert superbridge_number(corpus["12n_66"].knot).value == 5
        assert superbridge_number(corpus["11n_72"].knot).value == 5

    def test_reflection_invariance(self, skew_quad):
        reflected = PolygonalKnot.from_coordinates(
            "r", [tuple(-c for c in v) for v in skew_quad.vertices]
        )
        assert superbridge_number(reflected).value == superbridge_number(skew_quad).value


class TestSampledLowerBound:
    def test_square_any_seed(self, square):
        for seed in (0, 1, 17):
            assert sampled_lower_bound(square, 64, seed) == 1

    def test_never_exceeds_enumeration(self, corpus):
        for name in ("9_22", "9_36", "12n_60"):
            p = corpus[name].knot
            exact = superbridge_number(p).value
            assert sampled_lower_bound(p, 2000, seed=3) <= exact

    def test_deterministic(self, corpus):
        p = corpus["9_36"].knot
        a = sampled_lower_bound(p, 500, seed=11)
        b = sampled_lower_bound(p, 500, seed=11)
        assert a == b

    def test_enough_samples_attain_exact(self, corpus):
        p = corpus["9_36"].knot
        assert sampled_lower_bound(p, 20000, seed=5) == 4


class TestJinUpperBound:
    @pytest.mark.parametrize("n,expected", [(10, 5), (11, 5), (13, 6)])
    def test_values(self, n, expected, corpus):
        by_n = {e.knot.n: e.knot for e in corpus.values()}
        assert jin_upper_bound(by_n[n]) == expected


def test_descent_histogram(square):
    hist = descent_histogram(realizable_patterns(edge_vectors(square)))
    assert hist == {1: 4}
