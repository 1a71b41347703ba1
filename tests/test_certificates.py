import copy
import dataclasses
import functools
import hashlib
import json
import pickle
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superbridge import (
    CertificateBundle,
    DegeneratePolygon,
    Direction,
    InvalidCertificate,
    PolygonalKnot,
    VerifiedBound,
    build_even_system,
    build_odd_systems,
    corpus_entries,
    edge_vectors,
    find_certificate,
    quantize,
    random_equilateral_polygon,
    verify_bundle,
    verify_even_certificate,
    verify_odd_bundle,
    verify_separating,
)
from superbridge import certificates
from superbridge.certificates import (
    EvenEdgeCount,
    FindResult,
    OddEdgeCount,
    ShiftEvidence,
    _polygon_systems,
    _published_rows,
    _signed_systems,
    published_column_for_system,
    shift_sign,
)
from superbridge.corpus import (
    CertificateDocument,
    load_certificate_document,
    save_certificate_document,
)
from superbridge.geometry import KnotTypePreservationWarning, integer_edges
from superbridge.gordan import SeparatingDirection, _decide
from superbridge.linalg import NotRational, SuperbridgeError, primitive_vector, rational


class TestEvenSystem:
    def test_nine_22_columns(self, corpus):
        system = build_even_system(edge_vectors(corpus["9_22"].knot))
        assert system.matrix.columns[0] == (1000, 0, 0)
        assert system.matrix.columns[1] == (908, -419, 0)

    def test_square_columns(self, square):
        system = build_even_system(edge_vectors(square))
        assert system.matrix.columns == (
            (1, 0, 0),
            (0, -1, 0),
            (-1, 0, 0),
            (0, 1, 0),
        )

    def test_corpus_rebuild_matches_direct_derivation(self, corpus):
        for entry in corpus.values():
            p = entry.knot
            if p.n % 2:
                continue
            cols = build_even_system(edge_vectors(p)).matrix.columns
            verts = p.vertices
            for i in range(p.n):
                edge = tuple(verts[(i + 1) % p.n][d] - verts[i][d] for d in range(3))
                want = edge if i % 2 == 0 else tuple(-c for c in edge)
                assert cols[i] == want

    def test_odd_count_rejected(self, triangle):
        with pytest.raises(OddEdgeCount):
            build_even_system(edge_vectors(triangle))


class TestOddSystems:
    def test_even_count_rejected(self, square):
        with pytest.raises(EvenEdgeCount):
            build_odd_systems(edge_vectors(square))

    def test_triangle_mask(self, triangle):
        odd = build_odd_systems(edge_vectors(triangle))
        assert len(odd.systems) == 3
        masks = {
            tuple(shift_sign(3, j, i) for i in range(3)) for j in range(1, 4)
        }
        assert masks == {(1, -1, 1), (1, 1, -1), (-1, 1, 1)}

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_masks_are_balanced_shifts(self, n):
        k = n // 2
        masks = [tuple(shift_sign(n, j, i) for i in range(n)) for j in range(1, n + 1)]
        assert len(set(masks)) == n
        for mask in masks:
            assert mask.count(-1) == k and mask.count(1) == k + 1
            adjacent_pp = sum(
                1 for i in range(n) if mask[i] == 1 and mask[(i + 1) % n] == 1
            )
            assert adjacent_pp == 1
        # closed under cyclic shift
        rotations = {tuple(masks[0][(i + t) % n] for i in range(n)) for t in range(n)}
        assert set(masks) == rotations


class TestVerifyEven:
    def test_published_nine_22(self, corpus):
        entry = corpus["9_22"]
        vb = verify_even_certificate(entry.knot, entry.certificate.vector)
        assert vb.bound == 4
        assert vb.statement == "sb(9_22) <= 4"

    def test_square_certificate(self, square):
        vb = verify_even_certificate(square, (1, 0, 1, 0))
        assert vb.bound == 1

    def test_skew_quad_has_no_certificate(self, skew_quad):
        found = find_certificate(skew_quad)
        assert found.bundle is None
        with pytest.raises(InvalidCertificate):
            verify_even_certificate(skew_quad, (1, 1, 1, 1))

    def test_rejects_negative(self, square):
        with pytest.raises(InvalidCertificate) as exc:
            verify_even_certificate(square, (1, 0, -1, 0))
        assert exc.value.check == "negative_entry"

    def test_rejects_zero_vector(self, square):
        with pytest.raises(InvalidCertificate) as exc:
            verify_even_certificate(square, (0, 0, 0, 0))
        assert exc.value.check == "zero_vector"

    def test_rejects_wrong_length(self, square):
        with pytest.raises(InvalidCertificate) as exc:
            verify_even_certificate(square, (1, 0, 1))
        assert exc.value.check == "dimension"

    def test_rejects_nonkernel(self, square):
        with pytest.raises(InvalidCertificate) as exc:
            verify_even_certificate(square, (2, 0, 1, 0))
        assert exc.value.check == "nonzero_residual"

    def test_odd_knot_rejected(self, triangle):
        with pytest.raises(OddEdgeCount):
            verify_even_certificate(triangle, (1, 1, 1))


class TestVerifyOdd:
    def test_published_nine_36(self, corpus):
        entry = corpus["9_36"]
        vb = verify_odd_bundle(entry.knot, entry.certificate)
        assert vb.bound == 4
        assert len(vb.assignment) == 11

    def test_published_12n66(self, corpus):
        entry = corpus["12n_66"]
        vb = verify_odd_bundle(entry.knot, entry.certificate)
        assert vb.bound == 5

    def test_published_layout_assignment(self, corpus):
        """Every published bundle uses the same column/rotation layout."""
        for name, entry in corpus.items():
            p = entry.knot
            if p.n % 2 == 0 or entry.certificate is None:
                continue
            vb = verify_odd_bundle(p, entry.certificate)
            for j, c, r in vb.assignment:
                assert (c, r) == published_column_for_system(p.n, j), name

    def test_solver_bundle_on_planar_polygon(self, planar_11_gon):
        gon = planar_11_gon
        found = find_certificate(gon)
        assert found.bundle is not None
        vb = verify_odd_bundle(gon, found.bundle)
        assert vb.bound == 4
        # direct layout: column j-1 serves system j without rotation
        for j, c, r in vb.assignment:
            assert (c, r) == (j - 1, 0)

    def test_tampered_entry_detected(self, corpus):
        entry = corpus["9_36"]
        matrix = [list(row) for row in entry.certificate.matrix]
        matrix[1][7] += 1
        with pytest.raises(InvalidCertificate) as exc:
            verify_odd_bundle(entry.knot, CertificateBundle(matrix=tuple(tuple(r) for r in matrix)))
        assert exc.value.check == "uncovered_system"
        n = entry.knot.n
        expected_system = ((1 - 7) % n) or n
        assert expected_system in exc.value.systems

    def test_swapped_columns_rejected(self, corpus):
        """Only the two documented layouts count; a column swap is not one."""
        entry = corpus["9_36"]
        n = entry.knot.n
        swapped = tuple((row[1], row[0], *row[2:]) for row in entry.certificate.matrix)
        with pytest.raises(InvalidCertificate) as exc:
            verify_odd_bundle(entry.knot, CertificateBundle(matrix=swapped))
        assert exc.value.check == "uncovered_system"
        # published columns 0 and 1 hold the vectors of systems 1 and n
        assert exc.value.systems == (1, n)

    def test_mixed_layouts_verify(self, corpus):
        """Each system may sit in its direct or its published column."""
        for name, entry in corpus.items():
            p = entry.knot
            if p.n % 2 == 0 or entry.certificate is None:
                continue
            n = p.n
            published = entry.certificate
            # system j's direct column is the published column of system
            # (2 - j) mod n, so move both members of such a pair together
            moved = {2, n, 3, n - 1}
            columns = [published.column(c) for c in range(n)]
            for j in moved:
                c, r = published_column_for_system(n, j)
                col = published.column(c)
                columns[j - 1] = tuple(col[(q - r) % n] for q in range(n))
            matrix = tuple(tuple(col[r] for col in columns) for r in range(n))
            vb = verify_odd_bundle(p, CertificateBundle(matrix=matrix))
            want = tuple(
                (j, j - 1, 0) if j in moved else (j, *published_column_for_system(n, j))
                for j in range(1, n + 1)
            )
            assert vb.assignment == want, name

    def test_wrong_shape_rejected(self, corpus):
        entry = corpus["9_36"]
        with pytest.raises(InvalidCertificate) as exc:
            verify_odd_bundle(entry.knot, CertificateBundle(matrix=((1, 2), (3, 4))))
        assert exc.value.check == "dimension"

    def test_even_knot_rejected(self, corpus):
        entry = corpus["9_36"]
        with pytest.raises(EvenEdgeCount):
            verify_odd_bundle(corpus["9_22"].knot, entry.certificate)


def test_verify_bundle_needs_the_bundle_kind_of_the_parity(corpus):
    even, odd = corpus["9_22"].knot, corpus["9_36"].knot
    cases = [
        (even, CertificateBundle(matrix=((1,) * even.n,) * even.n), "even edge count needs a vector"),
        (odd, CertificateBundle(vector=(1,) * odd.n), "odd edge count needs a matrix bundle"),
    ]
    for knot, bundle, message in cases:
        with pytest.raises(InvalidCertificate, match=message) as exc:
            verify_bundle(knot, bundle)
        assert exc.value.check == "dimension"


def _rational_affine_image(p: PolygonalKnot) -> PolygonalKnot:
    """Every vertex times 7/3, shifted by (1/2, -1/5, 3/7): edges scale by 7/3."""
    shift = (Fraction(1, 2), Fraction(-1, 5), Fraction(3, 7))
    verts = tuple(
        tuple(Fraction(7, 3) * c + s for c, s in zip(v, shift)) for v in p.vertices
    )
    return PolygonalKnot(name=p.name, vertices=verts)


def _bump_first_entry(bundle: CertificateBundle) -> CertificateBundle:
    if bundle.vector is not None:
        return CertificateBundle(vector=(bundle.vector[0] + 1, *bundle.vector[1:]))
    first = (bundle.matrix[0][0] + 1, *bundle.matrix[0][1:])
    return CertificateBundle(matrix=(first, *bundle.matrix[1:]))


def test_shipped_bundles_verify_on_rational_coordinates(corpus):
    """A common positive edge scaling keeps every certificate and diagnosis."""
    checked = 0
    for entry in corpus.values():
        if entry.certificate is None:
            continue
        knot, image = entry.knot, _rational_affine_image(entry.knot)
        assert any(c.denominator > 1 for v in image.vertices for c in v)
        want = verify_bundle(knot, entry.certificate)
        got = verify_bundle(image, entry.certificate)
        assert got.bound == want.bound
        if knot.n % 2:
            assert got.assignment == want.assignment
        tampered = _bump_first_entry(entry.certificate)
        with pytest.raises(InvalidCertificate) as on_integers:
            verify_bundle(knot, tampered)
        with pytest.raises(InvalidCertificate) as on_rationals:
            verify_bundle(image, tampered)
        assert on_rationals.value.check == on_integers.value.check
        assert on_rationals.value.systems == on_integers.value.systems
        checked += 1
    assert checked == 20


def _with_first_entry(rows, bad):
    return ((bad, *rows[0][1:]), *rows[1:])


_BAD_ENTRY_CALLS = {
    "verify_bundle_even": lambda c, bad: verify_bundle(
        c["9_22"].knot, CertificateBundle(vector=(bad, *c["9_22"].certificate.vector[1:]))
    ),
    "verify_bundle_odd": lambda c, bad: verify_bundle(
        c["9_36"].knot, CertificateBundle(matrix=_with_first_entry(c["9_36"].certificate.matrix, bad))
    ),
    "from_coordinates": lambda c, bad: PolygonalKnot.from_coordinates(
        "p", _with_first_entry(c["9_22"].knot.vertices, bad)
    ),
    "direction": lambda c, bad: Direction.of(bad, 0, 1),
}


@pytest.mark.parametrize("bad", ["x", None, float("nan"), float("inf"), "1/0", "1e200000", "1e-4400"])
@pytest.mark.parametrize("call", sorted(_BAD_ENTRY_CALLS))
def test_entries_that_are_not_rational_raise_a_typed_error(corpus, call, bad):
    """One error at the one coercion point: a SuperbridgeError that is also
    the ValueError older callers caught. An exponent token is not rational
    here once it expands past Python's 4300-digit int-from-string limit."""
    with pytest.raises(NotRational) as exc:
        _BAD_ENTRY_CALLS[call](corpus, bad)
    assert isinstance(exc.value, SuperbridgeError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "tok, value", [("1.5e3", 1500), ("2.5e-3", Fraction(1, 400)), ("-1E4299", -(10**4299))]
)
def test_exponent_tokens_within_the_digit_limit_parse(tok, value):
    assert rational(tok) == value


class TestFindCertificate:
    def test_nine_22_yields_valid_vector(self, corpus):
        p = corpus["9_22"].knot
        found = find_certificate(p)
        assert found.bundle is not None
        vb = verify_even_certificate(p, found.bundle.vector)
        assert vb.bound == 4

    def test_skew_quad_evidence_attains_jin_bound(self, skew_quad):
        from superbridge import Direction, descent_count

        found = find_certificate(skew_quad)
        assert found.bundle is None
        assert len(found.evidence) == 1
        ev = found.evidence[0]
        assert ev.system == 0
        v = Direction(tuple(Fraction(x) for x in ev.direction))
        assert descent_count(edge_vectors(skew_quad), v) == 2

    def test_jin_attaining_odd_realization(self, corpus):
        # 11 edges with superbridge 5 = floor(11/2): some shift is realizable
        found = find_certificate(corpus["11n_72"].knot)
        assert found.bundle is None
        assert found.evidence
        for ev in found.evidence:
            assert 1 <= ev.system <= 11

    def test_odd_bundle_round_trip(self, corpus, tmp_path):
        """find -> save -> load -> verify on every certified odd corpus knot."""
        checked = 0
        for name, entry in corpus.items():
            p = entry.knot
            if p.n % 2 == 0 or entry.certificate is None:
                continue
            found = find_certificate(p)
            assert found.bundle is not None, name
            path = tmp_path / f"{name}.cert"
            save_certificate_document(CertificateDocument(knot=p, bundle=found.bundle), path)
            doc = load_certificate_document(path)
            vb = verify_odd_bundle(doc.knot, doc.bundle)
            assert vb.bound == p.n // 2 - 1
            # find writes the direct layout, so no published candidate is needed
            assert vb.assignment == tuple((j, j - 1, 0) for j in range(1, p.n + 1)), name
            checked += 1
        assert checked == 16


@given(
    verts=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=6, max_size=11),
    planar=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_find_save_load_verify_round_trip(verts, planar, tmp_path_factory):
    """find -> save -> load -> verify on small polygons of both parities.

    Half the draws are planar, which find certifies more often. When it
    returns evidence instead, every direction separates its system.
    """
    try:
        p = PolygonalKnot.from_coordinates("rt", [(x, y, 0 if planar else z) for x, y, z in verts])
    except DegeneratePolygon:
        assume(False)
    found = find_certificate(p)
    if found.bundle is None:
        e = edge_vectors(p)
        systems = build_odd_systems(e).systems if p.n % 2 else (build_even_system(e).matrix,)
        assert found.evidence
        for ev in found.evidence:
            assert verify_separating(systems[max(ev.system - 1, 0)], ev.direction)
        return
    path = tmp_path_factory.mktemp("rt") / "rt.cert"
    save_certificate_document(CertificateDocument(knot=p, bundle=found.bundle), path)
    doc = load_certificate_document(path)
    assert doc.knot.vertices == p.vertices
    assert verify_bundle(doc.knot, doc.bundle).bound == p.n // 2 - 1


def _find_digest(p: PolygonalKnot) -> str:
    """sha256 of everything ``find_certificate`` returns for ``p``."""
    found = find_certificate(p)
    if found.bundle is None:
        payload = {"evidence": [[ev.system, list(ev.direction)] for ev in found.evidence]}
    elif found.bundle.vector is not None:
        payload = {"u": list(found.bundle.vector)}
    else:
        payload = {"U": [list(row) for row in found.bundle.matrix]}
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


# Digests of what a rational simplex tableau returns: an integer tableau
# that makes the same Bland choices returns every bundle and direction unchanged.
# Odd bundles were recorded once a shift reused the previous shift's null vector.
FIND_DIGESTS = {
    "9_3": "9b217c19f4dbad44799280ec106bc4b392d4dfffd5b4e7c2dbe80ee6a12e5905",
    "9_4": "f5b69876e0f31f82ea3d04720b913d35a43c94b5172f9aa64ae984e0f569a5b8",
    "9_6": "4638136836bcd1656209c7143fb1413d47d11a811e07c358879c0dd6e6abb452",
    "9_9": "f0f2248d68bee46d971eefe7ef48c63a13f8579c919425f0ffb0227b731f1025",
    "9_11": "4730d561db10750cd80fd20b8422723d12e2b47eca1efca31d7b6b7c4af879b1",
    "9_13": "afb23333d605105604314dc2b3041de0ce5318e5c0f2a752bd88d6be11e2fa4f",
    "9_17": "939b77f6ad7e263f738fe29a3edc7d3c4df5685ef89f7ba5807de54afe47a5cb",
    "9_18": "2d46b20cc4954f4b9ec49747d70f0c2a2b6e91f6e7c4ae964c9dca86c7a989c2",
    "9_22": "fb17f6183e62f08f62c4dfa687e3b58915f6840e3ce585c6c358c472fdde5628",
    "9_23": "7213ebf5a94e4e6bf7cbfb0340e75b60bdf58b2079d1c86e771817cc11ee7396",
    "9_25": "4c516662cc62cb6cd1bbb58a97bcdfd9b355baa03beb621604cb3b5984d46e54",
    "9_27": "1c1c2b481ddfe2963dc78ce3ffcf5165e5b710cb94631d10e56fa694e4d4d4ce",
    "9_30": "c8e9f6c0e58c8cd6fd1244a817bbdac99ce6a56d867d0032a20dd28bf1ca2b16",
    "9_31": "fe4e61e0d1d79c1fc0cd21719e584c0bdd3c91e081b67056589d23301356db84",
    "9_36": "323b1b05cd33148bd9817ac67bf014df7efe5fc2d0dd4df8670489d5cd1619cb",
    "11n_72": "118cb224fc500ccd46aecacdcebb5f532f50c941af3df0a30873279fa8d080ed",
    "11n_77": "67df123dd8b1212e63ee81b714253c14c522803ba3df79d49088ce268982504d",
    "12n_60": "44ef8d7474de1ffde50fa8923f443945b0c1768a1bf02c32d6ed58722b679987",
    "12n_66": "3bce9e9dfba8c1c224b72df8905faf407c932b08394eeebb3ee448d766ee6eb4",
    "12n_219": "10a0ec52db5792775f8cb822ca2ab46e275accfef4e74acbd3f1655d19dd2e88",
    "12n_225": "2eec5aab8bfe0f8a0438085c8d4cecb9cdb4e6b79f7d36c0bd1cd9c96c5e4d3d",
    "12n_553": "dde695c22f033ad4e6e815c16725aa1266c174a603c98b71c89198f347ce90be",
}


def test_find_certificate_pinned_on_every_realization(corpus):
    assert {name: _find_digest(e.knot) for name, e in corpus.items()} == FIND_DIGESTS


# sha256 of repr(find_certificate(p)) over three sets, in order: one sampler
# polygon (radius 3, raw 2^24-grid rationals) for each n = 3..31, the same
# polygons quantized to 3 digits, then the 22 realizations by name. Recorded
# once odd shifts reused the previous shift's null vector and every system was
# decided as its coprime integer table, with no scale, and again once the
# sampler's sweeps stopped at grid precision, which moves a sampled
# coordinate by at most one 2^-24 step.
FIND_REPR_DIGEST = "9b96929a3749cf9c57be2b9d4c5ac14f8ebb248e5de507594f04076ccf016648"


def _sampler_polygons() -> list:
    """One radius-3 sampler polygon for each n = 3..31, then each quantized."""
    raw = [random_equilateral_polygon(n, 3, random.Random(f"find:{n}")) for n in range(3, 32)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KnotTypePreservationWarning)
        return raw + [quantize(p, digits=3) for p in raw]


def test_find_certificate_pinned_on_sampler_polygons(corpus):
    knots = _sampler_polygons() + [corpus[name].knot for name in sorted(corpus)]
    h = hashlib.sha256()
    for p in knots:
        h.update(repr(find_certificate(p)).encode())
    assert h.hexdigest() == FIND_REPR_DIGEST


def _reference_find_certificate(p: PolygonalKnot) -> FindResult:
    """``find_certificate`` as it was before odd shifts reused null vectors:
    ``_decide`` on every system."""
    vectors, evidence = [], []
    for j, rows in enumerate(_polygon_systems(p), start=1):
        cert = _decide(rows)
        if isinstance(cert, SeparatingDirection):
            evidence.append(ShiftEvidence(j if p.n % 2 else 0, cert.v))
        else:
            vectors.append(cert.u)
    if evidence:
        return FindResult(bundle=None, evidence=tuple(evidence))
    if p.n % 2 == 0:
        return FindResult(bundle=CertificateBundle(vector=vectors[0]))
    return FindResult(bundle=CertificateBundle(matrix=tuple(zip(*vectors))))


def _decide_calls(p: PolygonalKnot) -> tuple[FindResult, int]:
    """``find_certificate(p)`` and the number of simplex runs it made."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _decide(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificates, "_decide", counted)
        found = find_certificate(p)
    return found, len(calls)


def _check_against_reference(p: PolygonalKnot) -> tuple[FindResult, int]:
    """Same ``found`` and evidence as the reference; a found bundle verifies
    in the direct layout. Returns the result and its simplex runs."""
    found, calls = _decide_calls(p)
    reference = _reference_find_certificate(p)
    assert (found.found, found.evidence) == (reference.found, reference.evidence), p.name
    if found.found:
        vb = verify_bundle(p, found.bundle)
        if p.n % 2:
            assert vb.assignment == tuple((j, j - 1, 0) for j in range(1, p.n + 1)), p.name
    return found, calls


def test_find_certificate_matches_the_reference_on_pinned_polygons(corpus):
    """On the 22 realizations and the 58 pinned sampler polygons, found and
    evidence equal the from-scratch reference. The fixtures include evidence,
    and odd bundles where a carried vector fails and the system is decided
    from scratch (more than one simplex run)."""
    knots = [corpus[name].knot for name in sorted(corpus)] + _sampler_polygons()
    with_evidence = fallbacks = 0
    for p in knots:
        found, calls = _check_against_reference(p)
        with_evidence += bool(found.evidence)
        fallbacks += found.found and p.n % 2 == 1 and calls > 1
    assert with_evidence and fallbacks


def test_find_certificate_reuses_null_vectors_on_the_realizations(corpus):
    """Exactly 90 simplex runs on the 22 realizations; deciding every system
    from scratch makes 206."""
    assert sum(_decide_calls(e.knot)[1] for e in corpus.values()) == 90
    assert sum(len(_polygon_systems(e.knot)) for e in corpus.values()) == 206


@pytest.mark.parametrize("k", [Fraction(2), Fraction(7, 3), Fraction(1, 10)])
def test_find_certificate_depends_only_on_the_shape(corpus, k):
    """Each realization scaled by k and shifted by (1/2, -1/5, 3/7) gives the
    same bundle or evidence: only the coprime integer edge table is decided."""
    shift = (Fraction(1, 2), Fraction(-1, 5), Fraction(3, 7))
    for name, entry in corpus.items():
        p = entry.knot
        verts = tuple(tuple(k * c + s for c, s in zip(v, shift)) for v in p.vertices)
        assert find_certificate(PolygonalKnot(name, verts)) == find_certificate(p), name


@given(
    n=st.integers(2, 15).map(lambda k: 2 * k + 1),
    seed=st.integers(0, 2**32),
    quantized=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_find_certificate_matches_the_reference_on_odd_sampler_polygons(n, seed, quantized):
    p = random_equilateral_polygon(n, 3, random.Random(seed))
    if quantized:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KnotTypePreservationWarning)
            try:
                p = quantize(p, digits=3)
            except DegeneratePolygon:
                assume(False)
    _check_against_reference(p)


class TestSoundnessLinks:
    """A verified certificate caps every sampled descent count."""

    def test_even_certificates_cap_sampled_descents(self, corpus):
        from superbridge import sampled_lower_bound

        for name in ("9_22", "11n_77", "12n_60", "12n_219"):
            p = corpus[name].knot
            verify_even_certificate(p, corpus[name].certificate.vector)
            assert sampled_lower_bound(p, 10_000, seed=13) < p.n / 2

    def test_odd_bundles_cap_sampled_descents(self, corpus):
        from superbridge import sampled_lower_bound

        for name, entry in corpus.items():
            if entry.certificate is None or entry.certificate.matrix is None:
                continue
            p = entry.knot
            verify_odd_bundle(p, entry.certificate)
            assert sampled_lower_bound(p, 10_000, seed=13) < p.n // 2

    def test_bundle_never_found_when_sampling_attains_bound(self):
        import random

        from superbridge import random_equilateral_polygon, sampled_lower_bound

        for i in range(12):
            p = random_equilateral_polygon(6, "3/2", random.Random(f"x:{i}"))
            found = find_certificate(p)
            sampled = sampled_lower_bound(p, 10_000, seed=i)
            if found.bundle is not None:
                assert sampled < 3
            if sampled == 3:
                assert found.bundle is None


class TestBundleType:
    def test_requires_exactly_one_payload(self):
        with pytest.raises(Exception):
            CertificateBundle()
        with pytest.raises(Exception):
            CertificateBundle(vector=(1,), matrix=((1,),))

    def test_requires_square_matrix(self):
        with pytest.raises(Exception):
            CertificateBundle(matrix=((1, 2), (3,)))

    def test_column_access(self):
        b = CertificateBundle(matrix=((1, 2), (3, 4)))
        assert b.column(0) == (1, 3)
        assert b.column(1) == (2, 4)


def test_verified_bound_derives_its_bound_from_n():
    """A verified vector or bundle certifies floor(n/2) - 1 and nothing else,
    so the bound is read off n rather than stored beside it."""
    assert [f.name for f in dataclasses.fields(VerifiedBound)] == ["knot", "n", "assignment"]
    assert [VerifiedBound(knot="k", n=n).bound for n in (4, 5, 11, 12)] == [1, 1, 4, 5]
    vb = VerifiedBound(knot="k", n=9)
    with pytest.raises(AttributeError):
        vb.bound = 3
    with pytest.raises(TypeError):
        VerifiedBound(knot="k", n=9, bound=3)


def test_invalid_certificate_names_its_column_only_in_the_message(corpus):
    """The column of a rejected odd bundle follows from its first uncovered
    system, and the message names it; the error stores no copy of it."""
    entry = corpus["9_36"]
    matrix = [list(row) for row in entry.certificate.matrix]
    matrix[1][7] += 1
    with pytest.raises(InvalidCertificate) as exc:
        verify_odd_bundle(entry.knot, CertificateBundle(matrix=tuple(map(tuple, matrix))))
    assert not hasattr(exc.value, "column")
    c = published_column_for_system(entry.knot.n, exc.value.systems[0])[0]
    assert c == 7 and f"published-layout column {c} fails" in str(exc.value)
    with pytest.raises(TypeError):
        InvalidCertificate("uncovered_system", "detail", column=7)


def _outcome(p: PolygonalKnot, bundle: CertificateBundle, verify=verify_bundle) -> list:
    """What ``verify`` says about a bundle: the bound or the diagnosis."""
    try:
        vb = verify(p, bundle)
    except InvalidCertificate as exc:
        column = published_column_for_system(p.n, exc.systems[0])[0] if exc.systems else None
        return ["rejected", exc.check, str(exc), column, list(exc.systems)]
    return ["verified", vb.knot, vb.n, vb.bound, [list(a) for a in vb.assignment]]


def _single_entry_tampers(bundle: CertificateBundle, delta: int):
    if bundle.vector is not None:
        for i in range(len(bundle.vector)):
            vector = list(bundle.vector)
            vector[i] += delta
            yield CertificateBundle(vector=tuple(vector))
        return
    for r in range(bundle.size):
        for c in range(bundle.size):
            matrix = [list(row) for row in bundle.matrix]
            matrix[r][c] += delta
            yield CertificateBundle(matrix=tuple(map(tuple, matrix)))


# sha256 of every verdict and diagnostic on the shipped certificates: each
# one as shipped, then every single-entry +1, -1 and +7 tamper of it.
TAMPER_DIGEST = "9585f8d547be2ee0047c781952a74f0ed6b9d06ac684576f04cf5ddf43f510ab"


def test_tamper_verdicts_pinned(corpus):
    outcomes = []
    for name, entry in sorted(corpus.items()):
        if entry.certificate is None:
            continue
        outcomes.append([name, _outcome(entry.knot, entry.certificate)])
        for delta in (1, -1, 7):
            outcomes.extend(
                [name, delta, _outcome(entry.knot, tampered)]
                for tampered in _single_entry_tampers(entry.certificate, delta)
            )
    assert len(outcomes) == 6254
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == TAMPER_DIGEST


#: entry type -> (an int entry x in that type, the integer it stands for)
_ENTRY_FORMS = {
    "fraction": (lambda x: Fraction(x, 3), lambda x: x),
    "string": (str, lambda x: x),
    "bool": (lambda x: x > 0, lambda x: int(x > 0)),
}


def _map_entries(bundle: CertificateBundle, f) -> CertificateBundle:
    if bundle.vector is not None:
        return CertificateBundle(vector=tuple(map(f, bundle.vector)))
    return CertificateBundle(matrix=tuple(tuple(map(f, row)) for row in bundle.matrix))


@pytest.mark.parametrize("form", sorted(_ENTRY_FORMS))
@pytest.mark.parametrize("name", ["9_22", "9_36", "12n_225"])
def test_entries_of_other_types_get_the_verdict_of_their_int_form(corpus, name, form):
    """Fraction, numeric-string and bool entries are read as the integers
    they stand for: the shipped bundle and a tamper of it verify or fail
    exactly as their int forms do."""
    entry = corpus[name]
    typed, as_int = _ENTRY_FORMS[form]
    for bundle in (entry.certificate, next(_single_entry_tampers(entry.certificate, 1))):
        assert _outcome(entry.knot, _map_entries(bundle, typed)) == _outcome(
            entry.knot, _map_entries(bundle, as_int)
        )


def _rotated_rows(p: PolygonalKnot) -> tuple:
    """Rows of each odd system E_j rotated by its published rotation r,
    ``row[r:] + row[:r]``, built afresh."""
    return tuple(
        tuple(row[r:] + row[:r] for row in rows)
        for j, rows in enumerate(_signed_systems(integer_edges(p)), start=1)
        for r in [published_column_for_system(p.n, j)[1]]
    )


@pytest.mark.parametrize("name", ["9_22", "9_36"])
def test_signed_systems_follow_the_vertices_of_every_copy(corpus, name):
    """Once a polygon is verified, a pickle round trip, a deepcopy and a
    ``dataclasses.replace`` of it give the verdicts, signed systems and
    rotated rows of a freshly built polygon on the same vertices. ``other``
    has the parity of ``name``."""
    entry, other = corpus[name], corpus["9_3" if name == "9_36" else "11n_77"]
    p = entry.knot
    verify_bundle(p, entry.certificate)
    copies = [
        pickle.loads(pickle.dumps(p)),
        copy.deepcopy(p),
        dataclasses.replace(p),
        dataclasses.replace(p, vertices=other.knot.vertices),
    ]
    for q in copies:
        fresh = PolygonalKnot(q.name, q.vertices)
        assert _polygon_systems(q) == _signed_systems(integer_edges(fresh))
        if q.n % 2:
            assert _published_rows(q) == _rotated_rows(fresh)
        for bundle in (entry.certificate, other.certificate):
            assert _outcome(q, bundle) == _outcome(fresh, bundle)
    assert _outcome(copies[3], other.certificate)[0] == "verified"
    assert _outcome(copies[3], entry.certificate)[0] == "rejected"


def test_rotated_rows_are_built_by_the_first_bundle_check(corpus):
    """Certificate search reads the kept systems alone; the rotated rows
    are kept beside them when a bundle is first checked."""
    entry = corpus["9_36"]
    p = PolygonalKnot(entry.knot.name, entry.knot.vertices)
    find_certificate(p)
    systems = p.__dict__["_signed_systems"]
    assert systems == _signed_systems(integer_edges(p))
    assert "_published_rows" not in p.__dict__
    verify_bundle(p, entry.certificate)
    assert p.__dict__["_signed_systems"] is systems
    assert p.__dict__["_published_rows"] == _rotated_rows(p)


def _reference_verify_odd_bundle(p: PolygonalKnot, bundle: CertificateBundle) -> VerifiedBound:
    """Reference for ``verify_odd_bundle``: each candidate is checked
    against the system's columns by its own loops (a negative entry, then
    all zeros, then a nonzero residual), with no check code shared with the
    verifier."""
    n = p.n
    if n % 2 != 1:
        raise EvenEdgeCount(f"{p.name}: edge count {n} is even")
    if bundle.matrix is None:
        raise InvalidCertificate("dimension", f"{p.name}: odd edge count needs a matrix bundle")
    if bundle.size != n:
        raise InvalidCertificate(
            "dimension", f"{p.name}: bundle is {bundle.size}x{bundle.size}, edges {n}"
        )
    systems = [tuple(zip(*rows)) for rows in _signed_systems(integer_edges(p))]
    columns = [primitive_vector(col) for col in zip(*bundle.matrix)]

    def failure(j: int, c: int, r: int):
        col = columns[c]
        u = col[n - r :] + col[: n - r]
        if any(x < 0 for x in u):
            return "negative_entry"
        if all(x == 0 for x in u):
            return "zero_vector"
        residual = [0, 0, 0]
        for x, column in zip(u, systems[j - 1]):
            for i in range(3):
                residual[i] += x * column[i]
        if any(residual):
            return "nonzero_residual"
        return None

    assignment = []
    uncovered = []
    for j in range(1, n + 1):
        for c, r in ((j - 1, 0), published_column_for_system(n, j)):
            if failure(j, c, r) is None:
                assignment.append((j, c, r))
                break
        else:
            uncovered.append(j)
    if uncovered:
        j = uncovered[0]
        c, r = published_column_for_system(n, j)
        raise InvalidCertificate(
            "uncovered_system",
            f"{p.name}: no valid null vector for shifted system(s) {uncovered}; "
            f"published-layout column {c} fails check '{failure(j, c, r)}' for system {j}",
            systems=tuple(uncovered),
        )
    return VerifiedBound(knot=p.name, n=n, assignment=tuple(assignment))


#: A 5-gon whose edges, signed as in E_1, sum to zero: the all-ones vector
#: is a null vector of E_1 in every rotation, so with it in column 0 both
#: candidates of system 1 verify.
_ONES_5_GON = ((0, 0, 0), (-2, 0, 0), (-6, -4, 0), (-2, -10, 0), (2, -6, 0))


def _with_ones_column(p: PolygonalKnot) -> CertificateBundle:
    matrix = find_certificate(p).bundle.matrix
    return CertificateBundle(matrix=tuple((1, *row[1:]) for row in matrix))


@functools.lru_cache(maxsize=None)
def _odd_bases() -> tuple:
    """(polygon, bundle) pairs: the shipped odd bundles (published layout),
    ``find_certificate`` bundles of odd sampler polygons (direct layout) and
    the ones 5-gon's bundle with both candidates of system 1 valid."""
    bases = [
        (e.knot, e.certificate)
        for e in corpus_entries()
        if e.certificate is not None and e.certificate.matrix is not None
    ]
    for n, k in ((7, 3), (9, 0), (11, 1), (13, 0), (15, 0)):
        p = random_equilateral_polygon(n, 3, random.Random(f"odd:{n}:{k}"))
        bases.append((p, find_certificate(p).bundle))
    ones = PolygonalKnot.from_coordinates("ones", _ONES_5_GON)
    bases.append((ones, _with_ones_column(ones)))
    return tuple(bases)


def test_direct_candidate_is_tried_before_the_published_one():
    p = PolygonalKnot.from_coordinates("ones", _ONES_5_GON)
    signed = [[shift_sign(5, 1, i) * x for x in e] for i, e in enumerate(edge_vectors(p).edges)]
    assert [sum(row) for row in zip(*signed)] == [0, 0, 0]
    vb = verify_odd_bundle(p, _with_ones_column(p))
    assert vb.assignment == tuple((j, j - 1, 0) for j in range(1, 6))


@st.composite
def _odd_bundle_cases(draw):
    """A base bundle re-laid out per pair of systems, half the time
    tampered, with some columns in another entry form (a bool column is
    read as 0/1 entries, the others keep their values).

    System j's direct column j - 1 is the published column of system
    j' = 2 - j (mod n), so each pair {j, j'} takes one layout together."""
    p, base = draw(st.sampled_from(_odd_bases()))
    n = p.n
    vectors = {}
    for j, c, r in _reference_verify_odd_bundle(p, base).assignment:
        col = base.column(c)
        vectors[j] = col[n - r :] + col[: n - r]
    columns = [list(base.column(c)) for c in range(n)]
    for j in range(1, n + 1):
        pair = {j, (1 - j) % n + 1}
        if min(pair) != j:
            continue
        direct = draw(st.booleans())
        for i in pair:
            c, r = (i - 1, 0) if direct else published_column_for_system(n, i)
            columns[c] = list(vectors[i][r:] + vectors[i][:r])
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        if draw(st.booleans()):
            columns = draw(st.permutations(columns))
        for r, c, delta in draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=3)):
            columns[c][r] += delta
        for c in draw(st.lists(index, max_size=2)):
            columns[c] = [-x for x in columns[c]]
        for c in draw(st.lists(index, max_size=1)):
            columns[c] = [0] * n
    form = _ENTRY_FORMS[draw(st.sampled_from(sorted(_ENTRY_FORMS)))][0]
    for c in draw(st.lists(index, max_size=3)):
        columns[c] = [form(x) for x in columns[c]]
    return p, CertificateBundle(matrix=tuple(zip(*columns)))


@given(case=_odd_bundle_cases())
@settings(max_examples=300, deadline=None)
def test_odd_bundle_verdicts_match_the_reference_verifier(case):
    """Every verdict, assignment and diagnostic of ``verify_odd_bundle`` is
    the reference's, on re-laid-out, permuted and tampered bundles."""
    p, bundle = case
    assert _outcome(p, bundle) == _outcome(p, bundle, _reference_verify_odd_bundle)


#: edit -> (one matrix entry x -> its replacement in a positive-int bundle,
#: the verdicts and failed checks it gives on the shipped bundles and tampers)
_ENTRY_EDITS = {
    "none": (lambda x: x, {"verified", "nonzero_residual"}),
    "zero": (lambda x: 0, {"nonzero_residual"}),
    "negative": (lambda x: -x, {"negative_entry", "nonzero_residual"}),
    "fraction": (Fraction, {"verified", "nonzero_residual"}),
    "string": (str, {"verified", "nonzero_residual"}),
}


@pytest.mark.parametrize("edit", sorted(_ENTRY_EDITS))
def test_positive_int_bundles_get_the_reference_verdict(corpus, edit):
    """The shipped odd bundles hold positive ints only, so ``verify_odd_bundle``
    neither rescales nor sign-checks their columns. Each of them and a +1
    tamper of each, with one entry left, set to 0, negated, or given as a
    Fraction or a str, gets the reference verifier's verdict."""
    change, want = _ENTRY_EDITS[edit]
    seen = set()
    for name, entry in sorted(corpus.items()):
        bundle = entry.certificate
        if bundle is None or bundle.matrix is None:
            continue
        assert min(map(min, bundle.matrix)) > 0, name
        n = bundle.size
        for base in (bundle, next(_single_entry_tampers(bundle, 1))):
            for r, c in ((0, 0), (n - 1, n // 2)):
                matrix = [list(row) for row in base.matrix]
                matrix[r][c] = change(matrix[r][c])
                edited = CertificateBundle(matrix=tuple(map(tuple, matrix)))
                got = _outcome(entry.knot, edited)
                assert got == _outcome(entry.knot, edited, _reference_verify_odd_bundle), name
                # a rejection names the failed check last: "... fails check '<check>' for ..."
                seen.add(got[0] if got[0] == "verified" else got[2].rsplit("'", 2)[1])
    assert seen == want


def test_plain_int_bundles_skip_rescaling_and_positive_ones_skip_sign_checks(corpus, monkeypatch):
    """Columns of plain ints go unscaled; a bool or Fraction entry sends every
    column through ``primitive_vector``. All-positive ints skip the sign
    checks; a 0 anywhere brings back one per column."""
    calls = {"primitive_vector": 0, "_sign_failure": 0}
    for fn in calls:
        def counted(*args, _fn=getattr(certificates, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(certificates, fn, counted)
    entry = corpus["12n_225"]
    n = entry.knot.n
    for change, want in ((int, (0, 0)), (bool, (n, n)), (Fraction, (n, n)), (lambda x: 0, (0, n))):
        matrix = [list(row) for row in entry.certificate.matrix]
        matrix[0][0] = change(matrix[0][0])
        calls.update(primitive_vector=0, _sign_failure=0)
        _outcome(entry.knot, CertificateBundle(matrix=tuple(map(tuple, matrix))))
        assert (calls["primitive_vector"], calls["_sign_failure"]) == want, change
