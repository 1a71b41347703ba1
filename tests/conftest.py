import math
import os
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import superbridge
from superbridge import PolygonalKnot, corpus_entries, quantize


@pytest.fixture(scope="session")
def corpus():
    """name -> CorpusEntry for the shipped realizations."""
    return {e.knot.name: e for e in corpus_entries()}


@pytest.fixture(scope="session")
def package_env():
    """Environment in which a subprocess imports the package under test."""
    src = str(Path(superbridge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def planar_11_gon():
    """Rational approximation of the regular 11-gon (convex, planar)."""
    coords = []
    for k in range(11):
        a = 2 * math.pi * k / 11
        coords.append(
            (Fraction(str(round(math.cos(a), 6))), Fraction(str(round(math.sin(a), 6))), 0)
        )
    p = PolygonalKnot.from_coordinates("11gon", coords)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return quantize(p, digits=6)


@pytest.fixture
def square():
    return PolygonalKnot.from_coordinates(
        "square", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    )


@pytest.fixture
def skew_quad():
    return knot_from_edges("skew", [(1, 0, 1), (0, 1, -1), (-1, 0, 1), (0, -1, -1)])


@pytest.fixture
def triangle():
    return PolygonalKnot.from_coordinates("triangle", [(0, 0, 0), (2, 0, 0), (1, 1, 0)])


def knot_from_edges(name, edges):
    """Closed polygon from its edge list (must sum to zero)."""
    verts = [(Fraction(0), Fraction(0), Fraction(0))]
    for e in edges[:-1]:
        v = verts[-1]
        verts.append((v[0] + e[0], v[1] + e[1], v[2] + e[2]))
    total = tuple(sum(Fraction(e[d]) for e in edges) for d in range(3))
    assert total == (0, 0, 0), "edge list must close"
    return PolygonalKnot.from_coordinates(name, verts)
