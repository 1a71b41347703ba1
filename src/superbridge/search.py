"""Random-ensemble search for low-superbridge polygonal realizations.

Pipeline per sample: generate a random near-equilateral closed polygon in
confinement, screen it with the cheap sampled descent maximum, and only
run the exact cell enumeration on survivors. Screening is sound: the
sampled maximum never exceeds the exact value, so a polygon is rejected
only when its exact value provably exceeds the target.

The sampler is a baseline: edge directions are drawn isotropically,
alternately renormalized and closed in floating point, then snapped to a
rational grid with the residual closure defect folded in exactly. It is
deliberately simple and lives behind ``EdgeSampler`` so a different
ensemble can be plugged in. Knot-type identification of candidates is out
of scope; candidates are written to files for external classification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .certificates import CertificateBundle, find_certificate
from .enumeration import jin_upper_bound, sampled_lower_bound, superbridge_number
from .geometry import PolygonalKnot
from .linalg import Rational, SuperbridgeError, rational, vec3


class RetryExhausted(SuperbridgeError):
    """Confinement rejection sampling gave up."""


#: Draws n float edge directions; replaceable ensemble hook.
EdgeSampler = Callable[[int, random.Random], list[list[float]]]

_GRID = 1 << 24
_MAX_TRIES = 10**6


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
        if self.n < 3:
            raise SuperbridgeError("need at least 3 edges")
        if not 1 <= self.target <= self.n // 2:
            raise SuperbridgeError("target must be in [1, floor(n/2)]")
        if self.samples < 0 or self.screen_samples < 1:
            raise SuperbridgeError("bad sample counts")


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


def _isotropic_edges(n: int, rng: random.Random) -> list[list[float]]:
    out = []
    for _ in range(n):
        while True:
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            if norm > 1e-9:
                out.append([x / norm for x in v])
                break
    return out


def _close_and_equalize(edges: list[list[float]]) -> None:
    """Alternate defect fold-in and renormalization until nearly equilateral."""
    n = len(edges)
    for _ in range(200):
        defect = [sum(e[d] for e in edges) / n for d in range(3)]
        spread = 0.0
        for e in edges:
            for d in range(3):
                e[d] -= defect[d]
            norm = math.sqrt(sum(x * x for x in e))
            spread = max(spread, abs(norm - 1.0))
            for d in range(3):
                e[d] /= norm
        if spread < 1e-12:
            break


def random_equilateral_polygon(
    n: int,
    confinement_radius: Rational,
    rng: random.Random,
    edge_sampler: EdgeSampler = _isotropic_edges,
    name: str = "random",
) -> PolygonalKnot:
    """Closed rational polygon, near-unit edges, vertices in confinement.

    Closure is exact: after snapping the float edges to the 1/2^24 grid
    the remaining defect is divided equally over all edges in rational
    arithmetic. Every vertex lies within ``confinement_radius`` of the
    vertex centroid (exact squared-distance comparison); polygons outside
    confinement are rejected and redrawn, deterministically in ``rng``.
    """
    radius = rational(confinement_radius)
    radius_sq = radius * radius
    for _ in range(_MAX_TRIES):
        edges = edge_sampler(n, rng)
        _close_and_equalize(edges)
        exact = [
            vec3(*(Fraction(round(x * _GRID), _GRID) for x in e)) for e in edges
        ]
        defect = [sum(e[d] for e in exact) for d in range(3)]
        share = [d / n for d in defect]
        exact = [
            (e[0] - share[0], e[1] - share[1], e[2] - share[2]) for e in exact
        ]
        verts = [(Fraction(0), Fraction(0), Fraction(0))]
        for e in exact[:-1]:
            v = verts[-1]
            verts.append((v[0] + e[0], v[1] + e[1], v[2] + e[2]))
        centroid = tuple(sum(v[d] for v in verts) / n for d in range(3))
        confined = all(
            sum((v[d] - centroid[d]) ** 2 for d in range(3)) <= radius_sq
            for v in verts
        )
        if not confined:
            continue
        try:
            return PolygonalKnot(name=name, vertices=tuple(verts))
        except SuperbridgeError:
            continue
    raise RetryExhausted(
        f"no polygon with n={n} inside radius {radius} after {_MAX_TRIES} tries"
    )


def _child_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


@dataclass
class SearchRun:
    """Lazy candidate stream; ``stats`` is complete once iteration ends.

    Candidates are a pure function of the config: sample i uses the child
    seed derived from (seed, i) only, so the stream is reproducible and
    independent of any batching or parallel screening arrangement.
    """

    config: SearchConfig
    stats: SearchStats = field(default_factory=SearchStats)

    def __iter__(self) -> Iterator[Candidate]:
        cfg = self.config
        self.stats = SearchStats()
        for i in range(cfg.samples):
            child = _child_seed(cfg.seed, i)
            rng = random.Random(f"{cfg.seed}:{i}")
            p = random_equilateral_polygon(
                cfg.n, cfg.confinement_radius, rng, name=f"rand{cfg.n}-{cfg.seed}-{i}"
            )
            self.stats.generated += 1
            screen = sampled_lower_bound(p, cfg.screen_samples, seed=child)
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
