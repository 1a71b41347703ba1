import hashlib
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from superbridge import (
    SearchConfig,
    jin_upper_bound,
    random_equilateral_polygon,
    search,
    superbridge_number,
    verify_bundle,
)
from superbridge.linalg import SuperbridgeError, format_rational
from superbridge.search import RetryExhausted
import importlib

search_mod = importlib.import_module("superbridge.search")


def _lengths(knot):
    out = []
    n = knot.n
    for i in range(n):
        a, b = knot.vertices[i], knot.vertices[(i + 1) % n]
        out.append(math.sqrt(sum((float(b[d]) - float(a[d])) ** 2 for d in range(3))))
    return out


class TestSampler:
    def test_deterministic(self):
        p1 = random_equilateral_polygon(6, "3/2", random.Random(42))
        p2 = random_equilateral_polygon(6, "3/2", random.Random(42))
        assert p1.vertices == p2.vertices

    @pytest.mark.parametrize("n", [7.5, "7", None])
    def test_edge_count_must_be_an_integer(self, n):
        rng = random.Random(0)
        state = rng.getstate()
        message = f"n must be an integer, got {n!r}"
        with pytest.raises(SuperbridgeError, match=f"^{re.escape(message)}$"):
            random_equilateral_polygon(n, 3, rng)
        assert rng.getstate() == state

    def test_triangle_is_equilateral(self):
        p = random_equilateral_polygon(3, 2, random.Random(0))
        lens = _lengths(p)
        assert max(lens) - min(lens) < 1e-5

    def test_near_unit_edges(self):
        p = random_equilateral_polygon(10, "3/2", random.Random(1))
        for length in _lengths(p):
            assert abs(length - 1.0) < 1e-3

    def test_closure_is_exact_and_confined(self):
        radius = Fraction(3, 2)
        for seed in range(30):
            p = random_equilateral_polygon(10, radius, random.Random(seed))
            # closure: last implied edge returns to the first vertex exactly
            total = tuple(
                sum(p.vertices[(i + 1) % p.n][d] - p.vertices[i][d] for i in range(p.n))
                for d in range(3)
            )
            assert total == (0, 0, 0)
            centroid = tuple(sum(v[d] for v in p.vertices) / p.n for d in range(3))
            for v in p.vertices:
                dist_sq = sum((v[d] - centroid[d]) ** 2 for d in range(3))
                assert dist_sq <= radius * radius

    def test_draws_pinned(self, monkeypatch):
        """Vertices and rng states of 1,040 draws, some redrawn, as recorded
        with the all-Fraction sampler: the float sweeps and the integer
        snapping may not move a bit."""
        draws = []
        isotropic = search_mod._isotropic_edges

        def counted(n, rng):
            draws.append(n)
            return isotropic(n, rng)

        monkeypatch.setattr(search_mod, "_isotropic_edges", counted)
        h = hashlib.sha256()
        polygons = 0
        for radius, top in (("1", 8), ("3/2", 16), ("5/2", 32), ("3", 32)):
            for n in range(3, top + 1):
                rng = random.Random(f"pin:{radius}:{n}")
                for _ in range(13):
                    p = random_equilateral_polygon(n, radius, rng)
                    h.update(" ".join(format_rational(c) for v in p.vertices for c in v).encode())
                    h.update(repr(rng.getstate()).encode())
                    polygons += 1
        assert (polygons, len(draws)) == (1040, 1740)
        assert h.hexdigest() == "b0a13f818a657b8fe54279b9116b1550a6885657ee14a39f08e53256389835c0"

    def test_large_draws_pinned(self, monkeypatch):
        """As test_draws_pinned, for n = 33..64, as recorded when numpy swept
        these sizes."""
        draws = []
        isotropic = search_mod._isotropic_edges

        def counted(n, rng):
            draws.append(n)
            return isotropic(n, rng)

        monkeypatch.setattr(search_mod, "_isotropic_edges", counted)
        h = hashlib.sha256()
        for radius in ("5/2", "3"):
            for n in range(33, 65):
                rng = random.Random(f"pin:{radius}:{n}")
                p = random_equilateral_polygon(n, radius, rng)
                h.update(" ".join(format_rational(c) for v in p.vertices for c in v).encode())
                h.update(repr(rng.getstate()).encode())
        assert len(draws) == 2857
        assert h.hexdigest() == "ec0b6c2043c4496db8275a6c919b2d608f10d25363c2f6b6f1cdbff449c46500"

    def test_retry_exhausted(self, monkeypatch):
        # 1/2 passes the radius check, but ten near-unit edges do not fit
        monkeypatch.setattr(search_mod, "_MAX_TRIES", 25)
        with pytest.raises(RetryExhausted):
            random_equilateral_polygon(10, "1/2", random.Random(0))

    @pytest.mark.parametrize("radius", ["1/100", "49/100", Fraction(1, 3)])
    def test_radius_below_half_fails_before_sampling(self, monkeypatch, radius):
        def no_draws(*args):
            raise AssertionError("sampled a polygon")

        monkeypatch.setattr(search_mod, "_isotropic_edges", no_draws)
        with pytest.raises(SuperbridgeError, match="1/2"):
            random_equilateral_polygon(10, radius, random.Random(0))
        with pytest.raises(SuperbridgeError, match="1/2"):
            SearchConfig(n=10, target=3, samples=1, seed=0, confinement_radius=radius)

    @pytest.mark.parametrize("n", [2, 0, -1])
    def test_too_few_edges_fail_before_sampling(self, monkeypatch, n):
        """A typed error at once, not a million redraws or an IndexError."""

        def no_draws(*args):
            raise AssertionError("sampled a polygon")

        monkeypatch.setattr(search_mod, "_isotropic_edges", no_draws)
        start = time.process_time()
        with pytest.raises(SuperbridgeError, match="need at least 3 edges"):
            random_equilateral_polygon(n, 3, random.Random(0))
        assert time.process_time() - start < 1


def _reference_isotropic(n, rng):
    """The numpy draw of n unit edges that the plain rows replace: n x 3."""
    draws = [rng.gauss(0.0, 1.0) for _ in range(3 * n)]
    while True:
        a = np.array(draws).reshape(-1, 3)
        sq = a * a
        norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
        keep = norm > 1e-9
        missing = n - int(keep.sum())
        if not missing:
            return a[keep] / norm[keep, None]
        draws += [rng.gauss(0.0, 1.0) for _ in range(3 * missing)]


def _reference_snap(edges):
    """The numpy closing sweeps and grid snap that the plain rows replace."""
    edges, n = np.array(edges, dtype=float), len(edges)
    with np.errstate(all="ignore"):  # an edge closing to 0 becomes NaNs
        for _ in range(200):
            edges -= edges.cumsum(axis=0)[-1] / n
            sq = edges * edges
            norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
            edges /= norm[:, None]
            if abs(norm - 1.0).max() < 1e-12:
                break
        return [tuple(e) for e in np.rint(edges * (1 << 24)).astype(np.int64).tolist()]


def _draw_stream(monkeypatch, reference, n, radius):
    """Snapped edges, polygon (None if rejected) and rng state of 50 draws,
    each one call of random_equilateral_polygon with one try, on the
    sampler's plain rows or on the numpy reference."""
    monkeypatch.setattr(search_mod, "_MAX_TRIES", 1)
    snap = _reference_snap if reference else search_mod._snap
    if reference:
        monkeypatch.setattr(search_mod, "_isotropic_edges", _reference_isotropic)
    snapped = []

    def record(edges):
        snapped.append(snap(edges))
        return snapped[-1]

    monkeypatch.setattr(search_mod, "_snap", record)
    rng = random.Random(f"paths:{radius}:{n}")
    out = []
    for _ in range(50):
        try:
            vertices = random_equilateral_polygon(n, radius, rng).vertices
        except RetryExhausted:
            vertices = None
        out.append((vertices, rng.getstate()))
    monkeypatch.undo()
    return snapped, out


class _ZeroTriples(random.Random):
    """Normal draws in which every fifth triple is 0 and every seventh tiny."""

    calls = 0

    def gauss(self, mu=0.0, sigma=1.0):
        value, triple = super().gauss(mu, sigma), self.calls // 3
        self.calls += 1
        if triple % 5 == 2:
            return 0.0
        return value * 1e-10 if triple % 7 == 4 else value


class TestSamplerAgainstNumpy:
    """The plain-float rows draw the polygons of the numpy sweeps they replace."""

    @pytest.mark.parametrize("radius", ["1", "3/2", "5/2"])
    def test_same_draws(self, monkeypatch, radius):
        for n in range(3, 65):
            plain = _draw_stream(monkeypatch, False, n, radius)
            reference = _draw_stream(monkeypatch, True, n, radius)
            assert len(plain[0]) == 50
            assert plain == reference, n

    @pytest.mark.parametrize("n", [3, 10, 31, 32, 64])
    def test_tiny_triples_are_redrawn_alike(self, n):
        plain_rng, reference_rng = _ZeroTriples(n), _ZeroTriples(n)
        rows = search_mod._isotropic_edges(n, plain_rng)
        edges = _reference_isotropic(n, reference_rng)
        assert plain_rng.calls == reference_rng.calls > 3 * n
        assert plain_rng.getstate() == reference_rng.getstate()
        assert rows == [tuple(e) for e in edges.tolist()]
        assert search_mod._snap(rows) == _reference_snap(edges)

    def test_parallel_edges_are_redrawn(self, monkeypatch):
        """A draw whose snapped edges all lie on one line fails the polygon's
        all-parallel check and is drawn again."""
        rows = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)] * 3
        assert len({(abs(x), y, z) for x, y, z in search_mod._snap(rows)}) == 1
        expected = random_equilateral_polygon(6, "3/2", random.Random(5))
        isotropic, calls = search_mod._isotropic_edges, []

        def first_is_a_line(n, rng):
            calls.append(n)
            return rows if len(calls) == 1 else isotropic(n, rng)

        monkeypatch.setattr(search_mod, "_isotropic_edges", first_is_a_line)
        assert random_equilateral_polygon(6, "3/2", random.Random(5)) == expected
        assert len(calls) > 1

    def test_edge_closing_to_zero_is_redrawn(self, monkeypatch):
        """numpy turned such an edge into NaNs, and so into equal vertices."""
        rows = [(1.0, 0.0, 0.0)] * 6
        assert search_mod._snap(rows) is None
        assert len(set(_reference_snap(rows))) == 1
        expected = random_equilateral_polygon(6, "3/2", random.Random(5))
        isotropic, calls = search_mod._isotropic_edges, []

        def first_closes_to_zero(n, rng):
            calls.append(n)
            return rows if len(calls) == 1 else isotropic(n, rng)

        monkeypatch.setattr(search_mod, "_isotropic_edges", first_closes_to_zero)
        assert random_equilateral_polygon(6, "3/2", random.Random(5)) == expected
        assert len(calls) > 1


class TestConfig:
    def test_target_capped_by_edge_count(self):
        with pytest.raises(SuperbridgeError):
            SearchConfig(n=6, target=4, samples=1, seed=0)

    def test_minimum_edges(self):
        with pytest.raises(SuperbridgeError):
            SearchConfig(n=2, target=1, samples=1, seed=0)

    def test_negative_sample_count_names_itself(self):
        with pytest.raises(SuperbridgeError, match=r"^sample count must be >= 0, got -1$"):
            SearchConfig(n=6, target=2, samples=-1, seed=0)

    @pytest.mark.parametrize(
        "screen, message",
        [
            (0, r"^screen sample count must be >= 1, got 0$"),
            (-3, r"^screen sample count must be >= 1, got -3$"),
            (2**24 // 6 + 1, r"^bad sample counts \(screen x n must be <= 16777216\)$"),
        ],
    )
    def test_screen_sample_count_bounds_name_themselves(self, screen, message):
        with pytest.raises(SuperbridgeError, match=message):
            SearchConfig(n=6, target=2, samples=1, seed=0, screen_samples=screen)
        SearchConfig(n=6, target=2, samples=1, seed=0, screen_samples=2**24 // 6)

    @pytest.mark.parametrize(
        "name, value",
        [("n", 7.5), ("target", "2"), ("samples", 1.5), ("seed", 1.5), ("screen_samples", 2.0)],
    )
    def test_counts_must_be_integers(self, name, value):
        """Each count is rejected by name at construction, before any draw."""
        config = {"n": 7, "target": 2, "samples": 1, "seed": 0, name: value}
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(SuperbridgeError, match=f"^{re.escape(message)}$"):
            SearchConfig(**config)

    def test_negative_seed_is_kept(self):
        """``sb search --seed -3`` passes a negative seed, which stays valid."""
        assert [c.knot.vertices for c in search(SearchConfig(n=7, target=3, samples=2, seed=-3))]

    @pytest.mark.parametrize("radius", ["abc", "1/0", "0", "-3/2", 0, Fraction(-1)])
    def test_radius_must_be_positive_rational(self, radius):
        with pytest.raises(SuperbridgeError):
            SearchConfig(n=6, target=2, samples=1, seed=0, confinement_radius=radius)

    def test_radius_is_stored_as_given(self):
        cfg = SearchConfig(n=6, target=2, samples=1, seed=0, confinement_radius=" 5/2")
        assert cfg.confinement_radius == " 5/2"


class TestSearch:
    def test_jin_target_accepts_everything(self):
        cfg = SearchConfig(n=5, target=2, samples=8, seed=3, screen_samples=32)
        run = search(cfg)
        cands = list(run)
        assert len(cands) == 8
        assert run.stats.generated == 8
        assert run.stats.confirmed == 8
        assert run.stats.screened_out == 0

    def test_stats_are_set_by_the_run_alone(self):
        """``stats`` is not an argument: each iteration starts it afresh."""
        cfg = SearchConfig(n=5, target=2, samples=3, seed=3, screen_samples=32)
        with pytest.raises(TypeError):
            search_mod.SearchRun(config=cfg, stats=search_mod.SearchStats(generated=7))
        run = search(cfg)
        assert run.stats == search_mod.SearchStats()
        for _ in range(2):
            assert len(list(run)) == 3 and run.stats.generated == 3

    def test_candidates_recheck_and_certify(self):
        cfg = SearchConfig(n=6, target=2, samples=40, seed=9, screen_samples=64)
        run = search(cfg)
        cands = list(run)
        assert run.stats.generated == 40
        assert cands, "hexagon search at target 2 should find candidates"
        for cand in cands:
            assert cand.exact_sb <= 2
            assert superbridge_number(cand.knot).value == cand.exact_sb
            assert cand.exact_sb < jin_upper_bound(cand.knot)
            assert cand.certificate is not None
            vb = verify_bundle(cand.knot, cand.certificate)
            assert vb.bound >= cand.exact_sb

    def test_equilateral_quadrilaterals_attain_jin_bound(self):
        # closed equilateral 4-gons are folded rhombi; the planar rhombus
        # (the only shape with a single maximum) has measure zero, so a
        # target-1 search correctly confirms nothing while staying sound
        cfg = SearchConfig(n=4, target=1, samples=40, seed=9, screen_samples=64)
        run = search(cfg)
        assert list(run) == []
        assert run.stats.generated == 40

    def test_candidate_stream_pinned(self):
        """Names, coordinates and certificates as recorded with a separate
        screen seed: the screen's seed cannot move a candidate. Certificates
        as recorded once each system was decided with no scale."""
        cfg = SearchConfig(n=6, target=2, samples=40, seed=9, screen_samples=64)
        lines = []
        for c in search(cfg):
            coords = " ".join(format_rational(x) for v in c.knot.vertices for x in v)
            lines.append(f"{c.knot.name} {c.exact_sb} {coords} {c.certificate}\n")
        assert len(lines) == 13
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "43a247db6743e243444f7b8e6e90e1953426f043e939beada58b1f5aa3715711"

    @pytest.mark.parametrize(
        "n,target,samples,seed", [(6, 2, 40, 9), (8, 3, 30, 5), (7, 2, 30, 4)]
    )
    def test_screen_moves_no_candidate(self, monkeypatch, n, target, samples, seed):
        """Without the screen every sample reaches the exact stage, and the
        candidates are the same: the screen only splits the rejected samples
        between screened_out and rejected-after-exact."""
        cfg = SearchConfig(n=n, target=target, samples=samples, seed=seed, screen_samples=64)

        def stream():
            run = search(cfg)
            cands = [
                (c.knot.name, c.knot.vertices, c.exact_sb, c.certificate) for c in run
            ]
            return cands, run.stats

        screened, stats = stream()
        monkeypatch.setattr(search_mod, "sampled_lower_bound", lambda *args, **kwargs: 0)
        unscreened, bare = stream()
        assert screened == unscreened
        assert (bare.generated, bare.confirmed, bare.screened_out) == (
            stats.generated, stats.confirmed, 0
        )
        assert stats.screened_out <= stats.generated - stats.confirmed

    @pytest.mark.parametrize(
        "n,target,radius", [(22, 3, Fraction(5, 2)), (12, 4, Fraction(3, 2))]
    )
    def test_stopped_screen_keeps_every_decision(self, monkeypatch, n, target, radius):
        """The screen stopped at the first chunk above the target gives the
        candidates and counts of a screen that always takes the maximum."""
        cfg = SearchConfig(n=n, target=target, samples=30, seed=1, confinement_radius=radius)
        stopped = search_mod.sampled_lower_bound
        thresholds = []

        def full(p, samples, seed, stop_above=None):
            thresholds.append(stop_above)
            return stopped(p, samples, seed)

        def stream():
            run = search(cfg)
            cands = [(c.knot.name, c.knot.vertices, c.exact_sb, c.certificate) for c in run]
            return cands, (run.stats.generated, run.stats.screened_out, run.stats.confirmed)

        first = stream()
        monkeypatch.setattr(search_mod, "sampled_lower_bound", full)
        assert stream() == first
        assert thresholds == [target] * cfg.samples
        assert first[1][1] > 0

    def test_screen_is_skipped_at_the_edge_count_bound(self, monkeypatch):
        """No sample exceeds floor(n/2), so at that target the screen is not called."""
        cfg = SearchConfig(n=12, target=6, samples=4, seed=1)
        monkeypatch.setattr(search_mod, "sampled_lower_bound", None)
        run = search(cfg)
        assert len(list(run)) == 4 and run.stats.screened_out == 0

    def test_search_does_not_import_numpy_random(self, package_env):
        # numpy.random costs about 6 MB of resident memory on import
        code = (
            "import sys, numpy\n"
            "print('numpy' if 'numpy.random' in sys.modules else '', end='')\n"
            "from superbridge import SearchConfig, search\n"
            "cfg = SearchConfig(n=8, target=3, samples=6, seed=5, screen_samples=50)\n"
            "assert len(list(search(cfg))) > 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=package_env, capture_output=True, text=True,
            timeout=120,
        )
        if proc.stdout == "numpy":
            pytest.skip("this numpy imports numpy.random itself")
        assert proc.returncode == 0, proc.stderr

    def test_deterministic_stream(self):
        cfg = SearchConfig(n=6, target=2, samples=12, seed=21, screen_samples=50)
        first = [(c.knot.name, c.exact_sb) for c in search(cfg)]
        second = [(c.knot.name, c.exact_sb) for c in search(cfg)]
        assert first == second

    def test_screen_is_sound(self):
        # every screened-out polygon must really exceed the target
        cfg = SearchConfig(n=6, target=1, samples=25, seed=2, screen_samples=100)
        run = search(cfg)
        names = {c.knot.name for c in run}
        for i in range(cfg.samples):
            rng = random.Random(f"{cfg.seed}:{i}")
            p = random_equilateral_polygon(
                cfg.n, cfg.confinement_radius, rng, name=f"rand{cfg.n}-{cfg.seed}-{i}"
            )
            exact = superbridge_number(p).value
            if p.name not in names:
                assert exact > cfg.target
