"""Random-ensemble search for low-superbridge polygonal realizations.

Pipeline per sample: generate a random near-equilateral closed polygon in
confinement, screen it with the cheap sampled descent maximum, and only
run the exact cell enumeration on survivors. Screening is sound: the
sampled maximum never exceeds the exact value, so a polygon is rejected
only when its exact value provably exceeds the target.

The sampler is a baseline: edge directions are drawn isotropically,
alternately renormalized and closed in floating point, in a fixed operation
order so that each polygon is a pure function of the ``random.Random``
state, then snapped to a rational grid. The float phase runs on rows of
plain Python floats: a draw takes a few dozen sweeps over n edges, and at
the sampled sizes numpy's cost per call outweighs its arithmetic. The rows
do the numpy sweeps' float operations in the same order, so the polygons
are the same bit for bit; tests/test_search.py keeps those sweeps as the
reference.
From the snap on everything is integer arithmetic: the residual closure
defect is folded in exactly, and confinement is an exact integer test.
Fractions are built only for the returned polygon. The screen draws its
directions from ``random.Random`` bytes too; numpy.random is never
imported. Knot-type identification of candidates is out of scope;
candidates are written to files for external classification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Iterator, Optional

from .certificates import CertificateBundle, find_certificate
from .enumeration import SCREEN_ENTRIES_MAX, jin_upper_bound, sampled_lower_bound, superbridge_number
from .geometry import PolygonalKnot
from .linalg import NotRational, Rational, SuperbridgeError, _integer, rational


class RetryExhausted(SuperbridgeError):
    """Confinement rejection sampling gave up."""


_GRID = 1 << 24
_MAX_TRIES = 10**6


def _check_radius(value: Rational) -> Fraction:
    """``value`` as a Fraction; SuperbridgeError unless it is at least 1/2.

    Sampled edges have length 1 to within 1e-6 and both ends of each lie
    within the radius of the vertex centroid, so no polygon fits in less.
    """
    try:
        radius = rational(value)
    except NotRational:
        radius = None
    if radius is None or radius < Fraction(1, 2):
        raise SuperbridgeError(f"confinement radius must be a rational >= 1/2, got {value!r}")
    return radius


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run; fully determines the candidate stream."""

    n: int
    target: int
    samples: int
    seed: int
    confinement_radius: Rational = Fraction(3, 2)
    screen_samples: int = 200

    def __post_init__(self):
        for name in ("n", "target", "samples", "seed", "screen_samples"):
            _integer(name, getattr(self, name))
        if self.n < 3:
            raise SuperbridgeError("need at least 3 edges")
        if not 1 <= self.target <= self.n // 2:
            raise SuperbridgeError("target must be in [1, floor(n/2)]")
        if self.samples < 0:
            raise SuperbridgeError(f"sample count must be >= 0, got {self.samples}")
        if self.screen_samples < 1:
            raise SuperbridgeError(f"screen sample count must be >= 1, got {self.screen_samples}")
        if self.screen_samples * self.n > SCREEN_ENTRIES_MAX:
            raise SuperbridgeError(f"bad sample counts (screen x n must be <= {SCREEN_ENTRIES_MAX})")
        # Validated only: the stored value is kept as given, so manifests
        # record the radius exactly as the user wrote it.
        _check_radius(self.confinement_radius)


@dataclass(frozen=True)
class Candidate:
    knot: PolygonalKnot
    exact_sb: int
    certificate: Optional[CertificateBundle] = None


@dataclass
class SearchStats:
    generated: int = 0
    screened_out: int = 0
    confirmed: int = 0


def _isotropic_edges(n: int, rng: random.Random) -> list[tuple[float, float, float]]:
    """n unit edges, each a normalized triple of normal draws.

    A triple of norm at most 1e-9 is dropped and the next three draws take
    its place, so the draws are those of a loop that redraws each such edge.
    """
    gauss, rows = rng.gauss, []
    while len(rows) < n:
        draws = [gauss(0.0, 1.0) for _ in range(3 * (n - len(rows)))]
        for x, y, z in zip(*[iter(draws)] * 3):
            norm = sqrt(x * x + y * y + z * z)
            if norm > 1e-9:
                rows.append((x / norm, y / norm, z / norm))
    return rows


def _snap(rows: list[tuple[float, float, float]]) -> Optional[list[tuple[int, int, int]]]:
    """Integer edges on the 1/2^24 grid after closing and equalizing edges,
    or None if an edge closes to exactly 0.

    Alternates defect fold-in and renormalization until nearly equilateral,
    in a fixed float operation order, so every polygon is reproducible bit
    for bit: the defect is the left-fold sum of the edges from the first,
    divided by n once; each squared norm is x*x + y*y + z*z; max |r - 1| is
    read off the largest and the least r; ``round`` rounds half to even.
    An edge of norm 0 ends the draw, so the caller draws again: numpy
    sweeps, the reference for these rows, turn it into NaNs and so into a
    polygon with all vertices equal, which is rejected too.
    """
    n = len(rows)
    try:
        for _ in range(200):
            sx, sy, sz = rows[0]
            for x, y, z in rows[1:]:
                sx += x
                sy += y
                sz += z
            sx, sy, sz = sx / n, sy / n, sz / n
            out, lo, hi = [], 1.0, 1.0
            for x, y, z in rows:
                x, y, z = x - sx, y - sy, z - sz
                r = sqrt(x * x + y * y + z * z)
                if r > hi:
                    hi = r
                elif r < lo:
                    lo = r
                out.append((x / r, y / r, z / r))
            rows = out
            if hi - 1.0 < 1e-12 and 1.0 - lo < 1e-12:
                break
    except ZeroDivisionError:
        return None
    return [(round(x * _GRID), round(y * _GRID), round(z * _GRID)) for x, y, z in rows]


def random_equilateral_polygon(
    n: int,
    confinement_radius: Rational,
    rng: random.Random,
    name: str = "random",
) -> PolygonalKnot:
    """Closed rational polygon, near-unit edges, vertices in confinement.

    The float edges are snapped to the 1/2^24 grid, and from there on all
    arithmetic is on integers over the common denominator n 2^24: the
    remaining closure defect is divided equally over all edges, so closure
    is exact, and every vertex must lie within ``confinement_radius`` of
    the vertex centroid (exact squared-distance comparison). Polygons
    outside confinement are rejected and redrawn, deterministically in
    ``rng``. Fewer than 3 edges or a radius below 1/2 raises
    SuperbridgeError before any draw, as does an n that is not an integer.
    """
    _integer("n", n)
    if n < 3:
        raise SuperbridgeError("need at least 3 edges")
    radius = _check_radius(confinement_radius)
    den = n * _GRID
    # v - centroid = (n V - sum of V) / (n den) for the integer numerators V
    # of the vertices over den, so |v - centroid| <= radius in integers is:
    far_max, far_scale = (radius.numerator * n * den) ** 2, radius.denominator**2
    for _ in range(_MAX_TRIES):
        snapped = _snap(_isotropic_edges(n, rng))
        if snapped is None:
            continue
        tx, ty, tz = (sum(col) for col in zip(*snapped))
        verts = [(0, 0, 0)]
        for sx, sy, sz in snapped[:-1]:
            x, y, z = verts[-1]
            verts.append((x + n * sx - tx, y + n * sy - ty, z + n * sz - tz))
        cx, cy, cz = (sum(col) for col in zip(*verts))
        far = max((n * x - cx) ** 2 + (n * y - cy) ** 2 + (n * z - cz) ** 2 for x, y, z in verts)
        if far * far_scale > far_max:
            continue
        try:
            return PolygonalKnot(
                name=name,
                vertices=tuple(tuple(Fraction(c, den) for c in v) for v in verts),
            )
        except SuperbridgeError:
            continue
    raise RetryExhausted(
        f"no polygon with n={n} inside radius {radius} after {_MAX_TRIES} tries"
    )


@dataclass
class SearchRun:
    """Lazy candidate stream; ``stats`` is complete once iteration ends.

    Candidates are a pure function of the config: sample i draws its
    polygon, then its screen seed, from ``random.Random(f"{seed}:{i}")``.
    The screen never exceeds the exact value, so that seed can move a sample
    between ``screened_out`` and rejected-after-exact, but never a candidate.
    """

    config: SearchConfig
    stats: SearchStats = field(default_factory=SearchStats)

    def __iter__(self) -> Iterator[Candidate]:
        cfg = self.config
        self.stats = SearchStats()
        for i in range(cfg.samples):
            rng = random.Random(f"{cfg.seed}:{i}")
            p = random_equilateral_polygon(
                cfg.n, cfg.confinement_radius, rng, name=f"rand{cfg.n}-{cfg.seed}-{i}"
            )
            self.stats.generated += 1
            screen = sampled_lower_bound(p, cfg.screen_samples, seed=rng.getrandbits(64))
            if screen > cfg.target:
                self.stats.screened_out += 1
                continue
            exact = superbridge_number(p).value
            if exact > cfg.target:
                continue
            bundle = None
            if exact < jin_upper_bound(p):
                bundle = find_certificate(p).bundle
                if bundle is None:
                    raise SuperbridgeError("internal: bound below edge count needs a bundle")
            self.stats.confirmed += 1
            yield Candidate(knot=p, exact_sb=exact, certificate=bundle)


def search(cfg: SearchConfig) -> SearchRun:
    """Candidate stream for the config; iterate to drive the search."""
    return SearchRun(config=cfg)
