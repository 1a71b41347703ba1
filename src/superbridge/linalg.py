"""Exact rational 3-vector arithmetic used throughout the package.

Vectors are plain tuples of ``fractions.Fraction``; everything here is a
pure function. Floating point never enters the certificate pipeline.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]

Rational = int | Fraction | str


class SuperbridgeError(Exception):
    """Base class for all errors raised by this package."""


def rational(x: Rational) -> Fraction:
    """Coerce an int, Fraction, or string ("7", "-3/4", "0.25") to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x).strip())


def vec3(x: Rational, y: Rational, z: Rational) -> Vec3:
    return (rational(x), rational(y), rational(z))


def add3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def neg3(a: Vec3) -> Vec3:
    return (-a[0], -a[1], -a[2])


def scale3(c: Fraction | int, a: Vec3) -> Vec3:
    return (c * a[0], c * a[1], c * a[2])


def dot3(a: Sequence, b: Sequence) -> Fraction | int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: Sequence, b: Sequence) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_zero3(a: Sequence) -> bool:
    return a[0] == 0 and a[1] == 0 and a[2] == 0


def primitive_vector(v: Iterable[Rational]) -> tuple[int, ...]:
    """Integer vector positively proportional to ``v``, entries coprime.

    This is the package's one denominator-clearing step. Every entry is
    multiplied by the same positive rational, so signs, zeros and every
    homogeneous linear equation in the entries are preserved. The zero
    vector maps to itself.
    """
    fracs = [rational(x) for x in v]
    scale = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (scale // f.denominator) for f in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def canonical_line(v: Sequence) -> tuple[int, ...]:
    """Primitive integer representative of the line spanned by ``v``.

    The first nonzero entry is made positive, so ``v`` and ``-v`` map to
    the same key. Used to deduplicate great circles with parallel normals.
    """
    p = primitive_vector(v)
    for x in p:
        if x != 0:
            if x < 0:
                p = tuple(-y for y in p)
            break
    return p


def format_rational(x: Fraction | int) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
