"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its measured numbers (run pytest
with -s to see them); tolerances are exact integer equality unless stated
otherwise.
"""

import random
import time
from fractions import Fraction

import numpy as np

from superbridge import (
    CertificateBundle,
    GordanMatrix,
    InvalidCertificate,
    NullCombination,
    build_odd_systems,
    descent_count,
    Direction,
    edge_vectors,
    gordan_decide,
    load_metadata_csv,
    random_equilateral_polygon,
    render_table,
    sampled_lower_bound,
    superbridge_number,
    verify_bundle,
    verify_null_combination,
)
from superbridge.certificates import published_column_for_system
from superbridge.corpus import data_root

EVEN_CERTIFIED = {"9_22", "11n_77", "12n_60", "12n_219"}
ODD_CERTIFIED = {
    "9_3", "9_4", "9_6", "9_9", "9_11", "9_13", "9_17", "9_18",
    "9_23", "9_25", "9_27", "9_30", "9_31", "9_36", "12n_66", "12n_225",
}
EXPECTED_SB = {
    **{k: 4 for k in (
        "9_3", "9_4", "9_6", "9_9", "9_11", "9_13", "9_17", "9_18", "9_22",
        "9_23", "9_25", "9_27", "9_30", "9_31", "9_36",
    )},
    **{k: 5 for k in (
        "11n_72", "11n_77", "12n_60", "12n_66", "12n_219", "12n_225", "12n_553",
    )},
}


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}]")


def test_criterion_1_certificate_regression(corpus):
    t0 = time.perf_counter()
    seen_even, seen_odd = set(), set()
    for name, entry in corpus.items():
        if entry.certificate is None:
            continue
        vb = verify_bundle(entry.knot, entry.certificate)
        assert vb.bound == entry.claimed_sb
        if entry.certificate.vector is not None:
            seen_even.add(name)
        else:
            seen_odd.add(name)
    elapsed = time.perf_counter() - t0
    assert seen_even == EVEN_CERTIFIED
    assert seen_odd == ODD_CERTIFIED
    assert elapsed < 1.0, f"certificate regression took {elapsed:.3f}s"
    _report(1, "certificate regression", f"4 even + 16 odd exact, {elapsed * 1000:.0f} ms")


def test_criterion_2_exact_superbridge_values(corpus):
    worst = 0.0
    for name, expected in EXPECTED_SB.items():
        t0 = time.perf_counter()
        result = superbridge_number(corpus[name].knot)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert result.value == expected, (name, result.value, expected)
        assert dt < 1.0, f"{name} took {dt:.3f}s"
        # the witness direction must actually achieve the value
        e = edge_vectors(corpus[name].knot)
        assert descent_count(e, result.witness_direction) == expected
    _report(2, "exact values on realizations", f"22 knots, worst {worst * 1000:.0f} ms")


def test_criterion_3_tamper_detection(corpus):
    t0 = time.perf_counter()
    mutations = 0
    detected = 0
    survivors: list[tuple] = []
    wrong_diag: list[tuple] = []
    for name, entry in corpus.items():
        if entry.certificate is None:
            continue
        knot = entry.knot
        n = knot.n
        if entry.certificate.vector is not None:
            base = list(entry.certificate.vector)
            for i in range(n):
                tampered = base.copy()
                tampered[i] += 1
                mutations += 1
                try:
                    verify_bundle(knot, CertificateBundle(vector=tuple(tampered)))
                    survivors.append((name, i))
                except InvalidCertificate as exc:
                    detected += 1
                    if exc.check != "nonzero_residual":
                        wrong_diag.append((name, i, exc.check))
        else:
            base = [list(row) for row in entry.certificate.matrix]
            col_to_system = {
                published_column_for_system(n, j)[0]: j for j in range(1, n + 1)
            }
            for r in range(n):
                for c in range(n):
                    tampered = [row.copy() for row in base]
                    tampered[r][c] += 1
                    mutations += 1
                    bundle = CertificateBundle(matrix=tuple(tuple(row) for row in tampered))
                    try:
                        verify_bundle(knot, bundle)
                        survivors.append((name, r, c))
                    except InvalidCertificate as exc:
                        detected += 1
                        ok = (
                            exc.check == "uncovered_system"
                            and col_to_system[c] in exc.systems
                        )
                        if not ok:
                            wrong_diag.append((name, r, c, exc.check, exc.systems))
    elapsed = time.perf_counter() - t0
    assert not wrong_diag, f"misdiagnosed mutations: {wrong_diag[:5]}"
    rate = detected / mutations
    assert rate >= 0.99, f"detection rate {rate:.4f}"
    # report accidental still-valid certificates (expected none)
    assert survivors == [], f"mutations that stayed valid: {survivors}"
    _report(
        3,
        "tamper detection",
        f"{detected}/{mutations} detected with correct diagnostic, "
        f"{len(survivors)} survivors, {elapsed:.1f} s",
    )


def _direction_grid() -> np.ndarray:
    pts = [
        (x, y, z)
        for x in range(-10, 11)
        for y in range(-10, 11)
        for z in range(-10, 11)
        if (x, y, z) != (0, 0, 0)
    ]
    rng = np.random.Generator(np.random.PCG64(99))
    extra = rng.integers(-50, 51, size=(10_000 - len(pts), 3))
    extra = extra[(extra != 0).any(axis=1)]
    while len(pts) + len(extra) < 10_000:
        more = rng.integers(-50, 51, size=(64, 3))
        extra = np.vstack([extra, more[(more != 0).any(axis=1)]])
    grid = np.vstack([np.array(pts, dtype=np.int64), extra[: 10_000 - len(pts)]])
    assert grid.shape == (10_000, 3)
    return grid


def _int_columns(m: GordanMatrix) -> np.ndarray:
    cols = []
    for col in m.columns:
        lcm = 1
        for c in col:
            d = c.denominator
            g = np.gcd(lcm, d)
            lcm = lcm * d // g
        cols.append([int(c * lcm) for c in col])
    return np.array(cols, dtype=np.int64).T


def test_criterion_4_gordan_exclusivity():
    t0 = time.perf_counter()
    rng = random.Random(20250809)
    grid = _direction_grid()
    null_count = 0
    sep_count = 0
    for _ in range(1000):
        ell = rng.randint(2, 13)
        cols = []
        for _ in range(ell):
            col = []
            for _ in range(3):
                den = rng.randint(1, 10)
                col.append(Fraction(rng.randint(-10 * den, 10 * den), den))
            cols.append(tuple(col))
        m = GordanMatrix(columns=tuple(cols))
        cert = gordan_decide(m)
        if isinstance(cert, NullCombination):
            null_count += 1
            assert verify_null_combination(m, cert.u)
            dots = grid @ _int_columns(m)
            assert not (dots > 0).all(axis=1).any(), "grid found a separating direction"
        else:
            sep_count += 1
            from superbridge import verify_separating

            assert verify_separating(m, cert.v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"exclusivity suite took {elapsed:.1f}s"
    _report(
        4,
        "alternative exclusivity",
        f"1000 matrices ({null_count} null / {sep_count} separating), "
        f"10^4-direction grid, {elapsed:.1f} s",
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for n in (6, 8):
        for i in range(100):
            rng = random.Random(f"oracle:{n}:{i}")
            p = random_equilateral_polygon(n, Fraction(3, 2), rng, name=f"o{n}-{i}")
            exact = superbridge_number(p).value
            sampled = sampled_lower_bound(p, 100_000, seed=n * 1_000_000 + i)
            assert sampled == exact, (n, i, sampled, exact)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(
        5,
        "oracle equivalence",
        f"{checked} polygons, 10^5 samples each, {elapsed:.1f} s",
    )


def test_criterion_6_jin_bound_invariant():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(6))
    py_rng = random.Random(6)
    total = 0
    for n in range(4, 14):
        batch = 10_000
        verts = rng.integers(-100, 101, size=(batch, n, 3))
        edges = np.roll(verts, -1, axis=1) - verts
        # redraw polygons with a zero edge (repeated consecutive vertices)
        for _ in range(32):
            bad = (edges == 0).all(axis=2).any(axis=1)
            if not bad.any():
                break
            verts[bad] = rng.integers(-100, 101, size=(int(bad.sum()), n, 3))
            edges = np.roll(verts, -1, axis=1) - verts
        dirs = rng.integers(-1000, 1001, size=(batch, 100, 3))
        dots = np.einsum("bkd,bnd->bkn", dirs, edges)
        generic = (dots != 0).all(axis=2)
        pos = dots > 0
        desc = (pos & ~np.roll(pos, -1, axis=2)).sum(axis=2)
        assert (desc[generic] <= n // 2).all()
        total += int(generic.sum())
        # tie the vectorized count to the exact definition on a spot sample
        for _ in range(3):
            b = py_rng.randrange(batch)
            k = py_rng.randrange(100)
            if not generic[b, k]:
                continue
            p_edges = _edges_from_int_vertices(verts[b])
            v = Direction(tuple(Fraction(int(x)) for x in dirs[b, k]))
            assert descent_count(p_edges, v) == int(desc[b, k])
    elapsed = time.perf_counter() - t0
    assert total >= 9_000_000
    _report(
        6,
        "edge-count bound invariant",
        f"{total} generic (polygon, direction) pairs, {elapsed:.1f} s",
    )


def _edges_from_int_vertices(verts):
    from superbridge.geometry import EdgeVectors

    n = len(verts)
    edges = tuple(
        tuple(Fraction(int(verts[(i + 1) % n][d] - verts[i][d])) for d in range(3))
        for i in range(n)
    )
    return EdgeVectors(edges=edges)


def test_criterion_7_table_reproduction():
    root = data_root()
    rolfsen = load_metadata_csv(root / "metadata" / "rolfsen.csv")
    exact = load_metadata_csv(root / "metadata" / "exact_values.csv")
    table_a = render_table(rolfsen, fmt="text")
    table_b = render_table(exact, fmt="text", exact_only=True)
    golden_a = (root / "golden" / "rolfsen_intervals.txt").read_text(encoding="utf-8")
    golden_b = (root / "golden" / "known_exact.txt").read_text(encoding="utf-8")
    assert table_a == golden_a
    assert table_b == golden_b
    rows_a = dict(line.split(" ", 1) for line in table_a.strip().splitlines())
    rows_b = dict(line.split(" ", 1) for line in table_b.strip().splitlines())
    assert len(rows_a) == 250 and len(rows_b) == 106
    assert rows_a["5_2"] == "[3,4]"
    assert rows_a["9_3"] == "4"
    assert rows_a["10_124"] == "5"
    assert rows_b["12n_553"] == "5"
    _report(7, "table reproduction", "both golden tables byte-identical, 250 + 106 rows")


def test_criterion_8_odd_mask_pinning(corpus):
    entry = corpus["9_36"]
    knot = entry.knot
    n = knot.n
    systems = build_odd_systems(edge_vectors(knot)).systems
    for j in range(1, n + 1):
        c, r = published_column_for_system(n, j)
        col = entry.certificate.column(c)
        u = tuple(col[(p - r) % n] for p in range(n))
        assert verify_null_combination(systems[j - 1], u), (j, c, r)
    vb = verify_bundle(knot, entry.certificate)
    assert {(j, c, r) for j, c, r in vb.assignment} == {
        (j, *published_column_for_system(n, j)) for j in range(1, n + 1)
    }
    _report(8, "odd mask pinning", "all 11 shifts verified under the documented layout")
