import hashlib
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superbridge import (
    DegeneratePolygon,
    Direction,
    PolygonalKnot,
    edge_vectors,
    jin_upper_bound,
    random_equilateral_polygon,
    realizable_patterns,
    sampled_lower_bound,
    sign_pattern,
    superbridge_number,
)
from superbridge import _kernel, enumeration
from superbridge._kernel import KERNEL_TEMP_BYTES
from superbridge.enumeration import DegenerateEdgeSet, superbridge_census
from superbridge.geometry import EdgeVectors, NonGenericDirection, cyclic_descents
from superbridge.linalg import SuperbridgeError, cross3, dot3, neg3, primitive_vector


def canonical_line(v):
    """Primitive integer representative of the line spanned by ``v``.

    The first nonzero entry is made positive, so ``v`` and ``-v`` map to
    the same key: the reference walk's key for great circles.
    """
    p = primitive_vector(v)
    for x in p:
        if x != 0:
            if x < 0:
                p = tuple(-y for y in p)
            break
    return p


def arrangement_cell_count(e):
    """2 + sum over circles of their arrangement points - the number of points.

    Euler's formula for the great-circle arrangement: the points are the
    +- lines through pairs of circle normals, and each circle is cut into as
    many arcs as it carries points.
    """
    normals = list({canonical_line(primitive_vector(ed)) for ed in e.edges})
    lines = {
        canonical_line(cross3(normals[a], normals[b]))
        for a in range(len(normals))
        for b in range(a + 1, len(normals))
    }
    on_circles = sum(dot3(line, nm) == 0 for line in lines for nm in normals)
    return 2 + 2 * on_circles - 2 * len(lines)


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
        counts = set()
        for entry in corpus.values():
            e = edge_vectors(entry.knot)
            circles = {canonical_line(primitive_vector(ed)) for ed in e.edges}
            c = len(circles)
            count = len(realizable_patterns(e))
            # general position attains the bound, and the Euler count is exact
            assert count == c * (c - 1) + 2 == arrangement_cell_count(e)
            counts.add(count)
        assert counts == {92, 112, 134, 158}

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


def _random_knot(rng, n, bound=40):
    while True:
        verts = [tuple(Fraction(rng.randint(-bound, bound)) for _ in range(3)) for _ in range(n)]
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


# Recorded with a walk that signed all 16 perturbations of +-v0 at every edge;
# any walk must find the same first witness of every pattern. Of the 200 small
# polygons (n = 4..11, vertices in -2..2), 50 have parallel edges, 138 have
# three or more circles through one point and 3 are planar.
WALK_DIGEST = "e2679eb07378ed227538c954bb44cb2a7e302cd446d5d29959f380ec413efcc4"


def test_walk_pinned(corpus):
    """Signs, descents and witness of every pattern of the corpus and 200 small polygons."""
    digest = hashlib.sha256()
    small = [_random_knot(random.Random(s), 4 + s % 8, bound=2) for s in range(200)]
    for p in [entry.knot for entry in corpus.values()] + small:
        for rp in realizable_patterns(edge_vectors(p)):
            digest.update(repr((rp.pattern.signs, rp.pattern.descents, rp.witness.v)).encode())
    assert digest.hexdigest() == WALK_DIGEST


small_vertices = st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=9)


def _knot(verts, planar=False):
    try:
        verts = [(x, y, 0 if planar else z) for x, y, z in verts]
        return PolygonalKnot.from_coordinates("h", verts)
    except DegeneratePolygon:
        assume(False)


@given(verts=small_vertices, planar=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cell_count_is_the_euler_count(verts, planar):
    e = edge_vectors(_knot(verts, planar))
    assert len(realizable_patterns(e)) == arrangement_cell_count(e)


def _pattern_set(verts):
    return {rp.pattern.signs for rp in realizable_patterns(edge_vectors(_knot(verts)))}


@given(
    verts=small_vertices,
    perm=st.permutations(range(3)),
    flips=st.tuples(*[st.sampled_from((1, -1))] * 3),
    scale=st.integers(1, 5),
    shift=st.tuples(*[st.integers(-3, 3)] * 3),
    k=st.integers(0, 8),
)
@settings(max_examples=30, deadline=None)
def test_symmetries_of_the_pattern_set(verts, perm, flips, scale, shift, k):
    n = len(verts)
    k %= n
    base = _pattern_set(verts)
    moved = [
        tuple(scale * flips[d] * v[perm[d]] + shift[d] for d in range(3)) for v in verts
    ]
    # e'_i = e_{i+k} after relabelling; e'_i = -e_{n-2-i} after reversal
    images = {
        "moved": (moved, base),
        "cyclic": (verts[k:] + verts[:k], {s[k:] + s[:k] for s in base}),
        "reversed": (
            verts[::-1],
            {tuple(-s[(n - 2 - i) % n] for i in range(n)) for s in base},
        ),
    }
    value = superbridge_number(_knot(verts)).value
    for name, (image, expected) in images.items():
        assert _pattern_set(image) == expected, name
        assert superbridge_number(_knot(image)).value == value, name


def _reference_walk(e):
    """{signs: first (v0, d1, d2)} from the vertex-pair loop the kernel replaced.

    Each vertex v0 = na x nb is signed once; each of its 8 perturbations
    re-signs the edges through v0 by d1 . e_m, or d2 . e_m where that is 0,
    and the 8 triples at -v0 follow with negated signs.
    """
    prim = [primitive_vector(edge) for edge in e.edges]
    circles = {}
    for p in prim:
        circles.setdefault(canonical_line(p), p)
    normals = list(circles.values())
    found = {}
    for a in range(len(normals)):
        for b in range(a + 1, len(normals)):
            v0 = cross3(normals[a], normals[b])
            dots = [dot3(v0, p) for p in prim]
            base = [1 if d > 0 else -1 for d in dots]
            sides = []
            for na, nb in ((normals[a], normals[b]), (normals[b], normals[a])):
                t1, t2 = cross3(v0, na), cross3(v0, nb)
                for d1 in (t1, neg3(t1)):
                    for d2 in (t2, neg3(t2)):
                        signs = base.copy()
                        for m, d in enumerate(dots):
                            if d == 0:
                                d = dot3(d1, prim[m]) or dot3(d2, prim[m])
                                signs[m] = 1 if d > 0 else -1
                        sides.append((tuple(signs), d1, d2))
            for signs, d1, d2 in sides:
                found.setdefault(signs, (v0, d1, d2))
            for signs, d1, d2 in sides:
                found.setdefault(tuple(-s for s in signs), (neg3(v0), neg3(d1), neg3(d2)))
    return found


def _reference_witness(prim, signs, v0, d1, d2):
    """Primitive K^2 v0 + K d1 + d2 for the first K = 2^10, 2^11, ... that realizes signs."""
    k = 1 << 10
    while True:
        w = tuple(k * k * v0[d] + k * d1[d] + d2[d] for d in range(3))
        if all(s * dot3(w, em) > 0 for em, s in zip(prim, signs)):
            return tuple(Fraction(x) for x in primitive_vector(w))
        k *= 2


def _assert_kernel_matches_reference(p):
    e = edge_vectors(p)
    prim = [primitive_vector(edge) for edge in e.edges]
    found = _reference_walk(e)
    expected = [
        (s, cyclic_descents(s), _reference_witness(prim, s, *found[s])) for s in sorted(found)
    ]
    got = [(rp.pattern.signs, rp.pattern.descents, rp.witness.v) for rp in realizable_patterns(e)]
    assert got == expected
    assert len(got) == arrangement_cell_count(e)
    best = max(expected, key=lambda row: row[1])
    res = superbridge_number(p)
    assert (res.value, res.witness_direction.v, res.pattern_count) == (best[1], best[2], len(got))


@given(verts=small_vertices, planar=st.booleans(), pieces=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_small(verts, planar, pieces):
    """Cutting each edge into equal pieces keeps the circles; n > 64 packs rows into words."""
    p = _knot(verts, planar)
    cut = [
        tuple(a + (b - a) * Fraction(t, pieces) for a, b in zip(u, w))
        for u, w in zip(p.vertices, p.vertices[1:] + p.vertices[:1])
        for t in range(pieces)
    ]
    _assert_kernel_matches_reference(PolygonalKnot.from_coordinates("cut", cut))


@given(
    verts=st.lists(st.tuples(*[st.integers(-10**12, 10**12)] * 3), min_size=4, max_size=8),
    planar=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_kernel_matches_reference_python_ints(verts, planar):
    """Edge entries near 10^12 put the kernel on its Python-int (object) path."""
    _assert_kernel_matches_reference(_knot(verts, planar))


def _int64_limit():
    """Largest M with 12 M^4 < 2^62."""
    return isqrt(isqrt(((1 << 62) - 1) // 12))


@pytest.mark.parametrize("extra", [0, 1], ids=["int64", "object"])
def test_kernel_matches_reference_at_the_int64_limit(extra):
    m = _int64_limit() + extra
    assert (12 * m**4 < 1 << 62) == (extra == 0)
    # every edge has an entry of size 1, so it is primitive, and m is the largest entry
    p = PolygonalKnot.from_coordinates(
        "limit", [(0, 0, 0), (m, 1, 0), (0, m, 1), (-1, 0, m), (-m, -1, 1)]
    )
    assert max(abs(x) for ed in edge_vectors(p).edges for x in primitive_vector(ed)) == m
    _assert_kernel_matches_reference(p)


#: Largest edge entry M with 6 M^3 < 2^62, where V . e is one int64 product.
ONE_PRODUCT_MAX = 916_015
#: Largest M that ``_kernel._limb_shift`` takes in two int64 limbs.
TWO_LIMB_MAX = 1_181_805_795


def test_limb_shift_regimes_end_at_their_bounds():
    assert 6 * ONE_PRODUCT_MAX**3 < 1 << 62 <= 6 * (ONE_PRODUCT_MAX + 1) ** 3
    assert _kernel._limb_shift(ONE_PRODUCT_MAX) == 0 < _kernel._limb_shift(ONE_PRODUCT_MAX + 1)
    assert _kernel._limb_shift(TWO_LIMB_MAX) == 31
    assert _kernel._limb_shift(TWO_LIMB_MAX + 1) is None


def _regime_knot(m, n, seed, shape):
    """An n-gon whose largest primitive edge entry is exactly m.

    Vertex 0 is the origin and vertex 1 is (m, 1, z), so edge 0 is primitive
    with entry m; every other vertex lies in the box [0, m]^3, so no edge
    entry exceeds m. A "planar" knot has z = 0 throughout; a "coplanar" one
    only off its last vertex, so n - 2 >= 3 of its edges lie in one plane,
    pairwise not parallel, and each pair's vertex V is orthogonal to the
    third: the tangent signs then run on edges in span(N_a, N_b) that are
    parallel to neither normal.
    """
    rng = random.Random(seed)
    flat = shape != "generic"
    verts = [(0, 0, 0), (m, 1, 0 if flat else rng.randint(0, m))]
    verts += [
        (rng.randint(0, m), rng.randint(0, m), 0 if flat else rng.randint(0, m))
        for _ in range(n - 2)
    ]
    if shape == "coplanar":
        verts[-1] = (*verts[-1][:2], rng.randint(1, m))
    p = _knot(verts)
    assert max(abs(x) for row in enumeration._primitive_rows(p) for x in row) == m
    return p


@given(
    m=st.integers(15, 30).flatmap(lambda b: st.integers(1 << b, 1 << (b + 1))),
    n=st.integers(5, 7),
    seed=st.integers(0, 2**32),
    shape=st.sampled_from(["generic", "planar", "coplanar"]),
)
@example(m=ONE_PRODUCT_MAX, n=6, seed=1, shape="coplanar")
@example(m=ONE_PRODUCT_MAX + 1, n=6, seed=1, shape="coplanar")
@example(m=ONE_PRODUCT_MAX + 1, n=5, seed=2, shape="planar")
@example(m=TWO_LIMB_MAX, n=7, seed=3, shape="generic")
@example(m=TWO_LIMB_MAX, n=6, seed=4, shape="coplanar")
@example(m=TWO_LIMB_MAX + 1, n=6, seed=4, shape="coplanar")
@example(m=(1 << 31) - 1, n=5, seed=5, shape="planar")
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_in_every_regime(m, n, seed, shape):
    """Edge entries from 2^15 to 2^31: one int64 product, two int64 limbs
    and Python ints, with the examples on both sides of each bound."""
    _assert_kernel_matches_reference(_regime_knot(m, n, seed, shape))


@pytest.mark.parametrize("n", [12, 22, 32, 48])
def test_raw_sampler_polygons_take_two_int64_limbs(n):
    """Raw sampler polygons, whose primitive edge entries reach 27 to 30
    bits, stay on the int64 path."""
    p = random_equilateral_polygon(n, Fraction(5, 2), random.Random(n))
    m = max(abs(x) for row in enumeration._primitive_rows(p) for x in row)
    assert m.bit_length() >= 27
    assert _kernel._limb_shift(m) > 0


def test_large_n_stays_within_the_block_bound():
    """A 96-gon has 4560 vertex pairs; blocks keep every temporary small."""
    import tracemalloc

    p = _random_knot(random.Random(96), 96)
    tracemalloc.start()
    try:
        res = superbridge_number(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < KERNEL_TEMP_BYTES
    assert res.pattern_count == arrangement_cell_count(edge_vectors(p))


def _cells_record(prim):
    """Sign bits, first visit indices and witnesses of every row of ``_cells``."""
    bits, first, witness = _kernel._cells(prim)
    return bits.tolist(), first.tolist(), [witness(i).v for i in range(len(bits))]


@pytest.mark.parametrize("n,pairs_per_block", [(12, 1), (13, 4), (60, 7)])
def test_many_small_blocks_merge_to_the_same_cells(monkeypatch, n, pairs_per_block):
    """Blocks of a few vertex pairs, held and merged in batches, give the
    patterns, first visits and witnesses of the unpatched kernel: through the
    one-word merge (n = 12, 13) and the lexsort merge (n = 60)."""
    prim = enumeration._primitive_rows(_random_knot(random.Random(n), n))
    expected = _cells_record(prim)
    merges = []
    first_rows = _kernel._first_rows

    def counted(words, first, spare):
        merges.append(spare)
        return first_rows(words, first, spare)

    monkeypatch.setattr(_kernel, "_first_rows", counted)
    monkeypatch.setattr(_kernel, "KERNEL_TEMP_BYTES", 256 * (n + 4) * pairs_per_block)
    assert _cells_record(prim) == expected
    blocks = -(-(n * (n - 1) // 2) // pairs_per_block)  # n circles, one per edge
    assert 2 < len(merges) < blocks
    assert all(merges) == (n < 60)


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


def reference_screen(verts, samples, seed, bound, stop_above=None):
    """``sampled_lower_bound`` in plain Python on integer vertices.

    Direction i is bytes 24 i to 24 i + 24 of ``randbytes``, three
    little-endian words reduced into [-bound, bound]. Non-generic directions
    are skipped, and each generic one counts its cyclic descents. Without
    ``stop_above`` the result is the most descents, 0 if none is generic;
    with it, the most over the chunks of 8, 16, 32, ... directions up to the
    first chunk that has a direction above ``stop_above``.
    """
    edges = [tuple(b - a for a, b in zip(u, v)) for u, v in zip(verts, verts[1:] + verts[:1])]
    data = random.Random(seed).randbytes(24 * samples)
    counts = []
    for i in range(samples):
        d = [int.from_bytes(data[24 * i + 8 * j : 24 * i + 8 * j + 8], "little") for j in range(3)]
        d = [x % (2 * bound + 1) - bound for x in d]
        dots = [sum(x * y for x, y in zip(d, e)) for e in edges]
        # A skipped direction counts 0, which no generic direction is below.
        descents = sum(a > 0 > b for a, b in zip(dots, dots[1:] + dots[:1]))
        counts.append(0 if 0 in dots else descents)
    end, size = samples, 8
    if stop_above is not None:
        end = 0
        while end < samples:
            end = min(end + size, samples)
            size *= 2
            if max(counts[:end]) > stop_above:
                break
    return max(counts[:end], default=0)


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

    @pytest.mark.parametrize(
        "samples,seed", [(10, -1), (10, 1.5), (10, "1"), (0, 1), (2.5, 1), (10**9, 1)]
    )
    def test_bad_input_is_a_typed_error(self, square, samples, seed):
        with pytest.raises(SuperbridgeError):
            sampled_lower_bound(square, samples, seed)

    def test_non_integer_threshold_is_a_typed_error(self, square):
        with pytest.raises(SuperbridgeError, match="^stop_above must be an integer or None"):
            sampled_lower_bound(square, 10, 1, stop_above=1.5)

    def test_chunked_randbytes_are_one_call(self):
        """The stopped screen reads 24 k bytes at a time, whole 32-bit words."""
        for seed in (0, 7, 2**64 - 1):
            rng = random.Random(seed)
            chunks = b"".join(rng.randbytes(24 * k) for k in (8, 16, 32, 64, 80))
            assert chunks == random.Random(seed).randbytes(24 * 200)

    @pytest.mark.parametrize("bound", [enumeration._DIRECTION_BOUND, 1])
    def test_stopped_screen_decides_like_the_maximum(self, monkeypatch, bound):
        """``stop_above=t`` exceeds t exactly when the full maximum does,
        never exceeds that maximum, and equals it when it stays at or below
        t. Entries in [-1, 1] make 4 to 56 % of the directions non-generic
        on these polygons, so the chunks skip directions too."""
        monkeypatch.setattr(_kernel, "_DIRECTION_BOUND", bound)
        rng = random.Random(24)
        for n in range(5, 25):
            for planar in (False, True):
                verts = [
                    (rng.randint(-30, 30), rng.randint(-30, 30), 0 if planar else rng.randint(-30, 30))
                    for _ in range(n)
                ]
                p = PolygonalKnot.from_coordinates(f"p{n}", verts)
                for seed in (0, 1, 2):
                    full = sampled_lower_bound(p, 200, seed)
                    for t in range(n // 2 + 1):
                        stopped = sampled_lower_bound(p, 200, seed, stop_above=t)
                        assert (stopped > t) == (full > t), (n, planar, seed, t)
                        assert stopped == full if stopped <= t else stopped <= full

    @pytest.mark.parametrize("samples", [6, 13, 40])
    @pytest.mark.parametrize("bound", [1, 0])
    def test_screen_matches_plain_python(self, monkeypatch, bound, samples):
        """At entries in [-bound, bound] the screen equals ``reference_screen``,
        with and without ``stop_above``: no direction is redrawn, and at
        bound 0, where no direction is generic, both are 0."""
        monkeypatch.setattr(_kernel, "_DIRECTION_BOUND", bound)
        rng = random.Random(27)
        for n in range(4, 16):
            for planar in (False, True):
                verts = [
                    (rng.randint(-9, 9), rng.randint(-9, 9), 0 if planar else rng.randint(-9, 9))
                    for _ in range(n)
                ]
                p = PolygonalKnot.from_coordinates(f"p{n}", verts)
                for seed in (0, 1, 2):
                    for t in (None, *range(n // 2 + 1)):
                        expected = reference_screen(verts, samples, seed, bound, t)
                        got = sampled_lower_bound(p, samples, seed, stop_above=t)
                        assert got == expected, (n, planar, seed, t)

    def test_screen_size_limit(self, square):
        from superbridge.enumeration import SCREEN_ENTRIES_MAX

        with pytest.raises(SuperbridgeError):
            sampled_lower_bound(square, SCREEN_ENTRIES_MAX // 4 + 1, seed=0)
        assert sampled_lower_bound(square, SCREEN_ENTRIES_MAX // 64, seed=0) == 1

    def test_huge_edges_are_a_typed_error(self):
        huge = PolygonalKnot.from_coordinates(
            "huge", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (10**400, 0, 1)]
        )
        with pytest.raises(SuperbridgeError):
            sampled_lower_bound(huge, 10, seed=0)


class TestJinUpperBound:
    @pytest.mark.parametrize("n,expected", [(10, 5), (11, 5), (13, 6)])
    def test_values(self, n, expected, corpus):
        by_n = {e.knot.n: e.knot for e in corpus.values()}
        assert jin_upper_bound(by_n[n]) == expected


def test_descent_histogram(square):
    result, hist = superbridge_census(square)
    assert result == superbridge_number(square)
    assert hist == {1: 4}
