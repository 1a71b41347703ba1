from fractions import Fraction

import pytest

from superbridge import (
    CertificateBundle,
    InvalidCertificate,
    PolygonalKnot,
    build_even_system,
    build_odd_systems,
    edge_vectors,
    find_certificate,
    verify_bundle,
    verify_even_certificate,
    verify_odd_bundle,
)
from superbridge.certificates import (
    EvenEdgeCount,
    OddEdgeCount,
    published_column_for_system,
    shift_sign,
)


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

    def test_wrong_shape_rejected(self, corpus):
        entry = corpus["9_36"]
        with pytest.raises(InvalidCertificate) as exc:
            verify_odd_bundle(entry.knot, CertificateBundle(matrix=((1, 2), (3, 4))))
        assert exc.value.check == "dimension"

    def test_even_knot_rejected(self, corpus):
        entry = corpus["9_36"]
        with pytest.raises(EvenEdgeCount):
            verify_odd_bundle(corpus["9_22"].knot, entry.certificate)


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

    def test_odd_bundle_round_trip(self, corpus):
        p = corpus["9_25"].knot
        found = find_certificate(p)
        assert found.bundle is not None
        vb = verify_odd_bundle(p, found.bundle)
        assert vb.bound == 4


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
