import copy as copy_module
import dataclasses
import math
import pickle
import random
import re
import time
import warnings
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superbridge import (
    CollinearPrefix,
    DegeneratePolygon,
    Direction,
    NonGenericDirection,
    PolygonalKnot,
    descent_count,
    edge_vectors,
    normalize_pose,
    quantize,
    random_equilateral_polygon,
    sign_pattern,
)
from superbridge.enumeration import _primitive_rows
from superbridge.geometry import (
    _PLAIN_GCD_BITS,
    EdgeVectors,
    KnotTypePreservationWarning,
    SignPattern,
    _scaled_edges,
    integer_edges,
)
from superbridge.linalg import SuperbridgeError
from superbridge.linalg import primitive_vector


class TestPolygonalKnot:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(DegeneratePolygon):
            PolygonalKnot.from_coordinates("bad", [(0, 0, 0), (1, 0, 0)])

    def test_rejects_repeated_consecutive_vertex(self):
        with pytest.raises(DegeneratePolygon):
            PolygonalKnot.from_coordinates(
                "bad", [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)]
            )

    def test_rejects_collinear_polygon(self):
        with pytest.raises(DegeneratePolygon):
            PolygonalKnot.from_coordinates("bad", [(0, 0, 0), (1, 0, 0), (3, 0, 0)])

    @pytest.mark.parametrize(
        "coords",
        [
            [(0, 0, 0), (1, 0, 0), (3, 0, 0)],
            [("1/2", "-1/3", 0), ("3/2", "1/3", 1), ("-1/2", "-1", -1), ("5/2", "1", 2)],
        ],
    )
    def test_all_parallel_message(self, coords):
        with pytest.raises(DegeneratePolygon, match=r"bad: all edges parallel \(curve lies on a line\)"):
            PolygonalKnot.from_coordinates("bad", coords)

    def test_coincident_message_comes_first(self):
        # the zero edge is reported before the parallel check sees it
        with pytest.raises(DegeneratePolygon, match="bad: vertices 1 and 2 coincide"):
            PolygonalKnot.from_coordinates("bad", [(0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0)])

    @pytest.mark.parametrize("row", [(0, 1), (0, 1, 2, 3), ()])
    def test_rejects_rows_without_three_entries(self, row):
        rows = [(0, 0, 0), (1, 0, 0), row, (0, 0, 1)]
        with pytest.raises(SuperbridgeError, match=f"bad: vertex 2 has {len(row)} coordinates, expected 3"):
            PolygonalKnot.from_coordinates("bad", rows)

    def test_rational_coordinates(self):
        p = PolygonalKnot.from_coordinates(
            "q", [("0", "0", "0"), ("1/2", "0", "0"), ("1/2", "1/3", "0")]
        )
        assert p.vertices[1][0] == Fraction(1, 2)


class TestEdgeVectors:
    def test_nine_22_leading_edges(self, corpus):
        e = edge_vectors(corpus["9_22"].knot)
        assert e.edges[0] == (1000, 0, 0)
        assert e.edges[1] == (-908, 419, 0)

    def test_unit_square(self, square):
        e = edge_vectors(square)
        assert e.edges == ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))

    def test_corpus_closure_is_exact(self, corpus):
        for entry in corpus.values():
            e = edge_vectors(entry.knot)
            total = tuple(sum(edge[d] for edge in e.edges) for d in range(3))
            assert total == (0, 0, 0)

    def test_zero_edge_rejected(self):
        with pytest.raises(DegeneratePolygon):
            EdgeVectors(edges=((Fraction(0),) * 3, (Fraction(1), Fraction(0), Fraction(0))))

    def test_open_polygon_rejected(self):
        with pytest.raises(DegeneratePolygon):
            EdgeVectors(
                edges=(
                    (Fraction(1), Fraction(0), Fraction(0)),
                    (Fraction(0), Fraction(1), Fraction(0)),
                )
            )

    def test_open_polygon_messages(self):
        # Fraction edges print their sum as Fractions, integer edges as ints
        fracs = ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2), Fraction(0)))
        with pytest.raises(DegeneratePolygon) as exc:
            EdgeVectors(edges=fracs)
        assert str(exc.value) == (
            "edges do not close up (sum (Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)))"
        )
        with pytest.raises(DegeneratePolygon) as exc:
            EdgeVectors(edges=((1, 0, 0), (0, 2, 0), (-1, -1, 0)))
        assert str(exc.value) == "edges do not close up (sum (0, 1, 0))"


class TestSignPattern:
    def test_square_generic_direction(self, square):
        pat = sign_pattern(edge_vectors(square), Direction.of(1, "1/2", 0))
        assert pat.signs == (1, 1, -1, -1)
        assert pat.descents == 1

    def test_skew_quad_vertical(self, skew_quad):
        pat = sign_pattern(edge_vectors(skew_quad), Direction.of(0, 0, 1))
        assert pat.signs == (1, -1, 1, -1)
        assert pat.descents == 2

    def test_non_generic_reports_first_index(self, square):
        with pytest.raises(NonGenericDirection) as exc:
            sign_pattern(edge_vectors(square), Direction.of(0, 0, 1))
        assert exc.value.index == 0

    def test_nine_22_random_directions_capped(self, corpus):
        e = edge_vectors(corpus["9_22"].knot)
        rng = random.Random(1)
        seen = 0
        while seen < 1000:
            v = tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(3))
            if v == (0, 0, 0):
                continue
            try:
                d = descent_count(e, Direction(v))
            except NonGenericDirection:
                continue
            seen += 1
            assert d <= 4

    def test_descents_validated(self):
        with pytest.raises(Exception):
            SignPattern(signs=(1, -1, 1, -1), descents=1)

    @pytest.mark.parametrize("signs", [(1, 0), (2, -1)])
    def test_entries_must_be_signs(self, signs):
        with pytest.raises(SuperbridgeError, match=r"^sign pattern entries must be \+1 or -1$"):
            SignPattern(signs)

    def test_direction_must_be_nonzero(self):
        with pytest.raises(SuperbridgeError, match="^direction must be nonzero$"):
            Direction((0, 0, 0))


class TestDescentCount:
    def test_square(self, square):
        assert descent_count(edge_vectors(square), Direction.of(1, "1/2", 0)) == 1

    def test_skew_quad(self, skew_quad):
        assert descent_count(edge_vectors(skew_quad), Direction.of(0, 0, 1)) == 2


def _random_knot(rng, n):
    while True:
        verts = [
            tuple(Fraction(rng.randint(-50, 50)) for _ in range(3)) for _ in range(n)
        ]
        try:
            return PolygonalKnot.from_coordinates("rnd", verts)
        except DegeneratePolygon:
            continue


_COORD = st.builds(
    Fraction,
    st.one_of(st.integers(-50, 50), st.integers(-(10**400), 10**400)),
    st.one_of(st.integers(1, 12), st.integers(1, 10**400)),
)


@given(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=3, max_size=8))
@settings(max_examples=80, deadline=None)
def test_integer_edges_match_primitive_vectors(verts):
    try:
        p = PolygonalKnot.from_coordinates("q", verts)
    except DegeneratePolygon:
        return
    edges = edge_vectors(p).edges
    flat = primitive_vector(c for e in edges for c in e)
    rows = integer_edges(p)
    assert all(type(x) is int for row in rows for x in row)
    assert rows == tuple(flat[i : i + 3] for i in range(0, len(flat), 3))
    for row, e in zip(rows, edges):
        g = gcd(*row)
        assert tuple(x // g for x in row) == primitive_vector(e)


def _flat_rows(p: PolygonalKnot) -> tuple:
    """``primitive_vector`` of p's flattened Fraction edges, as rows of three."""
    flat = primitive_vector(c for e in edge_vectors(p).edges for c in e)
    return tuple(flat[i : i + 3] for i in range(0, len(flat), 3))


def _common_denominator_bits(p: PolygonalKnot) -> int:
    return math.lcm(*(c.denominator for v in p.vertices for c in v)).bit_length()


#: Denominators of three kinds: random 400- to 700-bit, small, and the
#: sampler's n 2^24 at n = 22.
_DENOMINATORS = {
    "large": lambda rng: rng.randrange(2**400, 2**700),
    "small": lambda rng: rng.randint(1, 12),
    "sampler": lambda rng: 22 * 2**24,
}


@st.composite
def _mixed_coordinates(draw, rows):
    """``rows`` x 3 Fractions with 700-bit numerators over denominators of
    the kinds hypothesis picks, drawn from a seeded generator: hypothesis's
    own large integers share too many factors to make a large lcm."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(sorted(_DENOMINATORS)), min_size=3 * rows, max_size=3 * rows))
    coords = [Fraction(rng.randrange(-(2**700), 2**700), _DENOMINATORS[k](rng)) for k in kinds]
    return [coords[i : i + 3] for i in range(0, len(coords), 3)]


@given(
    verts=st.integers(3, 16).flatmap(_mixed_coordinates),
    shift=_mixed_coordinates(1),
    factor=st.integers(1, 2**600),
)
@settings(max_examples=60, deadline=None)
def test_integer_edges_on_mixed_large_denominators(verts, shift, factor):
    """The docstring's promise on both sides of ``_PLAIN_GCD_BITS``. Moving
    p by ``shift`` adds denominators that no edge keeps (L // M > 1) and
    scaling by ``factor`` adds a common factor to every edge numerator (G > 1);
    neither changes the table."""
    try:
        p = PolygonalKnot.from_coordinates("q", verts)
    except DegeneratePolygon:
        assume(False)
    assert integer_edges(p) == _flat_rows(p)
    moved = PolygonalKnot.from_coordinates(
        "q", [[(c + s) * factor for c, s in zip(v, shift[0])] for v in p.vertices]
    )
    assert integer_edges(moved) == integer_edges(p) == _flat_rows(moved)


def test_gcd_route_follows_the_common_denominator():
    """Sampler polygons, raw and quantized, and integer files keep the plain
    gcd; a polygon with 400-digit denominators takes the edge route and
    gives the same table."""
    for n in range(3, 32):
        p = random_equilateral_polygon(n, 3, random.Random(f"route:{n}"))
        assert _common_denominator_bits(p) <= _PLAIN_GCD_BITS
    rng = random.Random(5)
    big = PolygonalKnot.from_coordinates(
        "big", [[Fraction(rng.randrange(10**400), rng.randrange(1, 10**400)) for _ in "xyz"]
                for _ in range(8)]
    )
    assert _common_denominator_bits(big) > _PLAIN_GCD_BITS
    assert integer_edges(big) == _flat_rows(big)


def test_four_hundred_digit_denominators_build_in_known_time():
    """An n = 60 polygon with random 400-digit denominators builds in under
    2.5 s of CPU (about 0.8 s on a 2-core Xeon; 4 s through one gcd of the
    scaled differences)."""
    rng = random.Random(60)
    verts = [
        tuple(Fraction(rng.randrange(-(10**400), 10**400), rng.randrange(1, 10**400)) for _ in "xyz")
        for _ in range(60)
    ]
    start = time.process_time()
    PolygonalKnot(name="big", vertices=tuple(verts))
    assert time.process_time() - start < 2.5


class TestEdgeTable:
    """The integer edge table a PolygonalKnot keeps beside its fields, and
    the primitive edge rows kept beside it."""

    @pytest.fixture
    def knot(self):
        return PolygonalKnot.from_coordinates(
            "t", [("1/2", 0, 0), (3, "-1/3", 1), (0, 2, "5/7"), (-1, 0, 0)], provenance="src"
        )

    def test_not_a_field(self, knot):
        assert [f.name for f in dataclasses.fields(knot)] == ["name", "vertices", "provenance"]

    def test_eq_hash_repr_see_fields_only(self, knot):
        twin = PolygonalKnot(name=knot.name, vertices=knot.vertices, provenance=knot.provenance)
        assert twin == knot and twin is not knot
        assert hash(knot) == hash((knot.name, knot.vertices, knot.provenance))
        assert repr(knot) == (
            f"PolygonalKnot(name='t', vertices={knot.vertices!r}, provenance='src')"
        )

    def test_same_object_on_every_call(self, knot):
        table = integer_edges(knot)
        assert integer_edges(knot) is table
        assert table == _scaled_edges(knot.vertices)
        rows = _primitive_rows(knot)
        assert _primitive_rows(knot) is rows
        assert rows == tuple(primitive_vector(e) for e in edge_vectors(knot).edges)

    def test_replace_and_pickle(self, knot):
        """A ``replace`` copy builds its tables from its own vertices; a
        pickle or deepcopy copy carries the tables of the original."""
        rows = _primitive_rows(knot)
        moved = dataclasses.replace(knot, vertices=knot.vertices[1:] + knot.vertices[:1])
        assert integer_edges(moved) == _scaled_edges(moved.vertices)
        assert integer_edges(moved) == integer_edges(knot)[1:] + integer_edges(knot)[:1]
        assert "_primitive_rows" not in moved.__dict__
        assert _primitive_rows(moved) == tuple(primitive_vector(e) for e in edge_vectors(moved).edges)
        renamed = dataclasses.replace(knot, name="u")
        assert renamed != knot and integer_edges(renamed) == integer_edges(knot)
        for copy in (pickle.loads(pickle.dumps(knot)), copy_module.deepcopy(knot)):
            assert copy == knot and hash(copy) == hash(knot) and repr(copy) == repr(knot)
            assert integer_edges(copy) == integer_edges(knot)
            assert copy.__dict__["_primitive_rows"] == rows
            assert _primitive_rows(copy) is copy.__dict__["_primitive_rows"]


@given(
    base=st.tuples(_COORD, _COORD, _COORD),
    step=st.tuples(_COORD, _COORD, _COORD),
    ts=st.lists(_COORD, min_size=3, max_size=7, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_points_on_a_line_are_all_parallel(base, step, ts):
    if step == (0, 0, 0):
        return
    verts = [tuple(b + t * d for b, d in zip(base, step)) for t in ts]
    with pytest.raises(DegeneratePolygon, match="all edges parallel"):
        PolygonalKnot.from_coordinates("line", verts)


def _generic_direction(rng, e):
    while True:
        v = tuple(Fraction(rng.randint(-500, 500)) for _ in range(3))
        if v == (0, 0, 0):
            continue
        if all(
            v[0] * ed[0] + v[1] * ed[1] + v[2] * ed[2] != 0 for ed in e.edges
        ):
            return Direction(v)


@given(seed=st.integers(0, 10**6), n=st.integers(4, 9))
@settings(max_examples=60, deadline=None)
def test_descent_symmetries(seed, n):
    rng = random.Random(seed)
    p = _random_knot(rng, n)
    e = edge_vectors(p)
    v = _generic_direction(rng, e)
    d = descent_count(e, v)
    # antipodal invariance
    assert descent_count(e, Direction(tuple(-c for c in v.v))) == d
    # positive rational scaling of the direction and of the whole polygon
    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    assert descent_count(e, Direction(tuple(lam * c for c in v.v))) == d
    scaled = PolygonalKnot.from_coordinates(
        p.name, [tuple(lam * c for c in w) for w in p.vertices]
    )
    assert descent_count(edge_vectors(scaled), v) == d
    # at most floor(n/2)
    assert d <= n // 2


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_descent_signed_permutation_invariance(seed):
    rng = random.Random(seed)
    p = _random_knot(rng, 6)
    e = edge_vectors(p)
    v = _generic_direction(rng, e)
    perm = [0, 1, 2]
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(3)]

    def apply(w):
        return tuple(flips[d] * w[perm[d]] for d in range(3))

    moved = PolygonalKnot.from_coordinates(p.name, [apply(w) for w in p.vertices])
    assert descent_count(edge_vectors(moved), Direction(apply(v.v))) == descent_count(e, v)


@given(seed=st.integers(0, 10**6), shift=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_cyclic_relabel_and_reversal(seed, shift):
    rng = random.Random(seed)
    p = _random_knot(rng, 7)
    e = edge_vectors(p)
    dirs = [_generic_direction(rng, e) for _ in range(5)]
    counts = sorted(descent_count(e, v) for v in dirs)

    k = shift % p.n
    rotated = PolygonalKnot.from_coordinates(p.name, p.vertices[k:] + p.vertices[:k])
    assert sorted(descent_count(edge_vectors(rotated), v) for v in dirs) == counts

    reversed_p = PolygonalKnot.from_coordinates(p.name, tuple(reversed(p.vertices)))
    assert sorted(descent_count(edge_vectors(reversed_p), v) for v in dirs) == counts


class TestQuantize:
    def test_three_significant_digits(self):
        p = PolygonalKnot.from_coordinates(
            "t", [(0, 0, 0), ("0.99963", 0, 0), ("0.5", "0.5", 0)]
        )
        with pytest.warns(KnotTypePreservationWarning):
            q = quantize(p, digits=3)
        assert q.vertices[1] == (1000, 0, 0)
        assert q.vertices[2] == (500, 500, 0)

    @pytest.mark.parametrize("digits", [1, 3, 4])
    def test_large_rational_input_scales_down(self, digits):
        """Coordinates past 10^digits: the scale search steps k down."""
        p = PolygonalKnot.from_coordinates(
            "t", [(0, 0, 0), ("12345/2", 0, 0), (0, "98765/3", "1/7")]
        )
        with pytest.warns(KnotTypePreservationWarning):
            q = quantize(p, digits=digits)
        largest = max(abs(c) for v in q.vertices for c in v)
        assert 10 ** (digits - 1) <= largest < 10**digits

    @pytest.mark.parametrize("digits", [2.5, "3", None])
    def test_digits_must_be_an_integer(self, digits, corpus):
        """Rejected by name before the rounding warning."""
        message = f"digits must be an integer, got {digits!r}"
        with pytest.raises(SuperbridgeError, match=f"^{re.escape(message)}$"):
            quantize(corpus["9_22"].knot, digits=digits)

    @pytest.mark.parametrize("digits", [0, -1])
    def test_digits_below_one_are_rejected(self, digits, corpus):
        """Rejected before the rounding warning, which is not emitted."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SuperbridgeError, match="^digits must be >= 1$"):
                quantize(corpus["9_22"].knot, digits=digits)
        assert caught == []

    def test_integer_input_unchanged(self, corpus):
        p = corpus["9_22"].knot
        with pytest.warns(KnotTypePreservationWarning):
            q = quantize(p)
        assert q.vertices == p.vertices

    def test_float_ten_gon_closes_exactly(self):
        rng = random.Random(7)
        while True:
            verts = [
                tuple(Fraction(str(round(rng.uniform(-1, 1), 6))) for _ in range(3))
                for _ in range(10)
            ]
            try:
                p = PolygonalKnot.from_coordinates("t", verts)
                break
            except DegeneratePolygon:
                continue
        with pytest.warns(KnotTypePreservationWarning):
            q = quantize(p, digits=3)
        for v in q.vertices:
            assert all(c.denominator == 1 for c in v)
        e = edge_vectors(q)
        assert tuple(sum(ed[d] for ed in e.edges) for d in range(3)) == (0, 0, 0)

    def test_idempotent(self):
        p = PolygonalKnot.from_coordinates(
            "t", [(0, 0, 0), ("0.743", "0.021", 0), ("0.5", "0.5", "0.013")]
        )
        with pytest.warns(KnotTypePreservationWarning):
            q1 = quantize(p)
        with pytest.warns(KnotTypePreservationWarning):
            q2 = quantize(q1)
        assert q1.vertices == q2.vertices


def _reference_quantize(p: PolygonalKnot, digits: int) -> list:
    """``quantize``'s vertices, its scale found by stepping k one at a time
    from 0."""
    anchored = [[c - c1 for c, c1 in zip(v, p.vertices[0])] for v in p.vertices]
    largest = max(abs(c) for v in anchored for c in v)
    k = 0
    lo = Fraction(10) ** (digits - 1)
    while largest * Fraction(10) ** k < lo:
        k += 1
    while largest * Fraction(10) ** (k - 1) >= lo:
        k -= 1
    scale = Fraction(10) ** k
    half_away = lambda x: int(abs(x) + Fraction(1, 2)) * (1 if x >= 0 else -1)
    return [tuple(half_away(c * scale) for c in v) for v in anchored]


_BIG = st.integers(min_value=-(10**60), max_value=10**60)


@settings(max_examples=300, deadline=None)
@given(
    nums=st.lists(st.tuples(_BIG, _BIG, _BIG), min_size=4, max_size=4),
    dens=st.tuples(*[st.integers(min_value=1, max_value=10**60)] * 3),
    digits=st.integers(min_value=1, max_value=39),
)
def test_quantize_matches_one_step_scale_search(nums, dens, digits):
    """``quantize`` starts its scale search at a bit-length estimate of
    log10; its vertices are those of the search that steps k one at a time
    from 0, on 1- to 60-digit numerators and denominators."""
    verts = [tuple(Fraction(x, d) for x, d in zip(v, dens)) for v in nums]
    try:
        p = PolygonalKnot.from_coordinates("t", verts)
    except DegeneratePolygon:
        assume(False)
    assume(any(c.denominator != 1 for v in p.vertices for c in v))
    want = _reference_quantize(p, digits)
    with pytest.warns(KnotTypePreservationWarning):
        try:
            got = list(quantize(p, digits=digits).vertices)
        except DegeneratePolygon:
            got = None
    if got is None:  # rounding made the polygon degenerate, in both
        with pytest.raises(DegeneratePolygon):
            PolygonalKnot.from_coordinates("t", want)
    else:
        assert got == want


class TestNormalizePose:
    def test_fixed_point_on_corpus(self, corpus):
        # every shipped realization is already in the standard pose
        for entry in corpus.values():
            p = entry.knot
            out = normalize_pose(p)
            for v, w in zip(out.vertices, p.vertices):
                for a, b in zip(v, w):
                    assert abs(float(a) - float(b)) < 1e-6, p.name

    def test_rotated_corpus_knot_recovered(self, corpus):
        import math

        p = corpus["9_36"].knot
        # rigid motion: rotate about a skew axis and translate
        c, s = math.cos(1.1), math.sin(1.1)
        rot = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
        c2, s2 = math.cos(0.6), math.sin(0.6)
        rot2 = [[1, 0, 0], [0, c2, -s2], [0, s2, c2]]

        def apply(v):
            x = [float(v[d]) for d in range(3)]
            y = [sum(rot[i][j] * x[j] for j in range(3)) for i in range(3)]
            z = [sum(rot2[i][j] * y[j] for j in range(3)) for i in range(3)]
            return tuple(Fraction(z[d] + [3.5, -2.25, 7.125][d]) for d in range(3))

        moved = PolygonalKnot.from_coordinates(p.name, [apply(v) for v in p.vertices])
        out = normalize_pose(moved)
        for v, w in zip(out.vertices, p.vertices):
            for a, b in zip(v, w):
                assert abs(float(a) - float(b)) < 1e-5

    def test_collinear_prefix_rejected(self):
        p = PolygonalKnot.from_coordinates(
            "c", [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
        )
        with pytest.raises(CollinearPrefix):
            normalize_pose(p)

    @pytest.mark.parametrize(
        "coords",
        [
            [(0, 0, 0), (10**400, 0, 0), (0, 1, 0)],  # a coordinate
            [(0, 0, 0), (10**170, 0, 0), (0, 10**170, 0), (0, 0, 10**170)],  # a norm
            [(0, 0, 0), (1, 1, 0), (-1, 1, 0), (17 * 10**307, 17 * 10**307, 0)],  # an output
        ],
    )
    def test_float_overflow_is_a_typed_error(self, coords):
        p = PolygonalKnot.from_coordinates("big", coords)
        with pytest.raises(SuperbridgeError, match="big: coordinates too large") as info:
            normalize_pose(p)
        assert not isinstance(info.value, CollinearPrefix)

    def test_convention_holds(self, skew_quad):
        out = normalize_pose(skew_quad)
        v = [tuple(float(c) for c in w) for w in out.vertices]
        assert v[0] == (0.0, 0.0, 0.0)
        assert abs(v[1][1]) < 1e-12 and abs(v[1][2]) < 1e-12 and v[1][0] > 0
        assert abs(v[2][2]) < 1e-12 and v[2][1] > 0
