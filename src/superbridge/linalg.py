"""Exact rational 3-vector arithmetic used throughout the package.

Vectors are plain tuples of ``fractions.Fraction``; everything here is a
pure function. Floating point never enters the certificate pipeline. The
package's error base classes live here too, with the one UTF-8 decoding
step every input file goes through.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]

Rational = int | Fraction | str


class SuperbridgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SuperbridgeError):
    """Malformed input file; the message reads ``<path>:<line>: <problem>``."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _integer(name: str, value) -> None:
    """SuperbridgeError naming the parameter unless ``value`` is an integer."""
    if not isinstance(value, Integral):
        raise SuperbridgeError(f"{name} must be an integer, got {value!r}")


def read_utf8(path) -> str:
    """Text of a UTF-8 file; undecodable bytes raise ParseError at their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line_no, f"not UTF-8: {exc.reason}") from None


class NotRational(SuperbridgeError, ValueError):
    """A value that does not read as an exact rational number."""


def rational(x: Rational) -> Fraction:
    """Coerce an int, Fraction, or string ("7", "-3/4", "0.25") to Fraction.

    Anything else reads as its ``str``; what does not parse, such as "x",
    None, nan or inf, raises NotRational with ``Fraction``'s text, and a
    zero denominator ("1/0") with "zero denominator in '1/0'".
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    text = str(x).strip()
    try:
        return Fraction(text)
    except ValueError as exc:
        raise NotRational(str(exc)) from None
    except ZeroDivisionError:
        raise NotRational(f"zero denominator in {text!r}") from None


def vec3(x: Rational, y: Rational, z: Rational) -> Vec3:
    return (rational(x), rational(y), rational(z))


def sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def neg3(a: Vec3) -> Vec3:
    return (-a[0], -a[1], -a[2])


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

    This is the package's one denominator-clearing step: ``_cleared``
    scales rationals to integers, ``_reduced`` divides out their gcd, and
    the simplex, ``_primitive_rows`` and ``_scaled_edges`` call the halves
    directly. Every entry is multiplied by the same positive rational, so
    signs, zeros and every homogeneous linear equation in the entries are
    preserved. The zero vector maps to itself. All-``int`` entries skip the
    clearing; anything else, bools too, goes via ``rational``.
    """
    ints = tuple(v)
    if set(map(type, ints)) != {int}:
        ints = _cleared([rational(x) for x in ints])[0]
    return _reduced(ints)


def _cleared(fracs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The entries times the lcm L of their denominators, and L."""
    scale = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (scale // f.denominator) for f in fracs), scale


def _reduced(ints: Sequence[int]) -> Sequence[int]:
    """The entries over their gcd, as a tuple, if it exceeds 1; else ints."""
    g = gcd(*ints)
    return tuple([x // g for x in ints]) if g > 1 else ints


def int_text(x: int) -> str:
    """Decimal text of x; SuperbridgeError past Python's digit limit.

    The limit (``sys.get_int_max_str_digits``) also caps the size of
    input numbers, so it is left in place.
    """
    try:
        return str(x)
    except ValueError:
        raise SuperbridgeError(
            f"an output integer exceeds Python's {sys.get_int_max_str_digits()}-digit "
            "limit on integer-to-string conversion"
        ) from None


def format_rational(x: Fraction | int) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return int_text(f.numerator)
    return f"{int_text(f.numerator)}/{int_text(f.denominator)}"
