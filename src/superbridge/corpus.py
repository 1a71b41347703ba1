"""File formats and the shipped corpus of certified realizations.

This module is the one reader and writer of each text format; the CLI
prints vertices and bundles through ``vertex_line`` and ``bundle_lines``.

Coordinate files: UTF-8 text, one vertex per line as three whitespace
separated integers or rationals ``p/q``; ``#`` starts a comment; vertex
order defines the cycle.

Certificate files: a self-contained document with the knot name, vertex
list, parity, and either a single line ``u: <integers>`` (even edge
count) or ``U:`` followed by n rows of n integers (odd edge count). The
``knot:`` line must name the knot, and the ``vertices:`` and ``U:`` lines
carry nothing after the colon. The document ends at its bundle: any
content line after it is a ParseError.

The shipped corpus contains 22 integer-coordinate realizations: twenty
carry a published null-vector certificate, and two (11n_72 and 12n_553,
11 sticks each) are certified by edge count and bridge index alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .certificates import CertificateBundle, verify_bundle
from .enumeration import superbridge_number
from .geometry import DegeneratePolygon, PolygonalKnot
from .linalg import ParseError, SuperbridgeError, format_rational, int_text, rational, read_utf8


def _content_lines(path):
    for i, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _vertex_row(path, line_no: int, line: str) -> tuple:
    """Three rational coordinates from one vertex line; an ASCII ``[+-]?[0-9]+``
    token is read by ``int``, with the value or error ``rational`` gives it."""
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(path, line_no, f"expected 3 coordinates, got {len(parts)}")
    try:
        return tuple(
            rational(int(t) if t.isascii() and t[t[0] in "+-" :].isdigit() else t) for t in parts
        )
    except ValueError as exc:
        raise ParseError(path, line_no, f"bad coordinate: {exc}") from exc


def _int_row(path, line_no: int, text: str, n: int, what: str) -> tuple[int, ...]:
    """The n integers of a ``u:`` line or a ``U:`` row."""
    parts = text.split()
    if len(parts) != n:
        raise ParseError(path, line_no, f"{what} has {len(parts)} entries, expected {n}")
    try:
        return tuple(int(tok) for tok in parts)
    except ValueError as exc:
        raise ParseError(path, line_no, f"bad integer: {exc}") from exc


def load_realization(path) -> PolygonalKnot:
    """Parse a coordinate file; the knot name is the file stem."""
    rows = [_vertex_row(path, line_no, line) for line_no, line in _content_lines(path)]
    if not rows:
        raise ParseError(path, 1, "no vertices found")
    return PolygonalKnot.from_coordinates(Path(path).stem, rows)


def vertex_line(v) -> str:
    """One vertex as a line of a coordinate or certificate file."""
    return " ".join(map(format_rational, v))


def bundle_lines(bundle: CertificateBundle) -> list[str]:
    """The bundle section of a certificate document: the ``u:`` line, or
    ``U:`` and its n rows."""
    if bundle.vector is not None:
        return ["u: " + " ".join(map(int_text, bundle.vector))]
    return ["U:", *(" ".join(map(int_text, row)) for row in bundle.matrix)]


def save_realization(knot: PolygonalKnot, path) -> None:
    """Write knot as a coordinate file: a name comment, then one vertex a line."""
    lines = [f"# {knot.name}: {knot.n}-vertex closed polygon", *map(vertex_line, knot.vertices)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CertificateDocument:
    """A knot together with its certificate, as stored in one file."""

    knot: PolygonalKnot
    bundle: CertificateBundle


def load_certificate_document(path) -> CertificateDocument:
    """Parse a certificate file: ``knot:``, ``parity:``, ``vertices:`` and its
    rows, then the bundle (``u:`` for even, ``U:`` and n rows for odd).
    A malformed file raises ParseError naming the line."""
    lines = list(_content_lines(path))
    pos = 0

    def expect_field(key: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(path, lines[-1][0] if lines else 1, f"missing '{key}:' field")
        line_no, line = lines[pos]
        if not line.startswith(key + ":"):
            raise ParseError(path, line_no, f"expected '{key}:', got {line!r}")
        pos += 1
        return line[len(key) + 1 :].strip()

    name = expect_field("knot")
    if not name:
        raise ParseError(path, lines[pos - 1][0], "empty knot name")
    parity = expect_field("parity")
    if parity not in ("even", "odd"):
        raise ParseError(path, lines[pos - 1][0], f"parity must be even/odd, got {parity!r}")
    extra = expect_field("vertices")
    vertices_line = lines[pos - 1][0]
    if extra:
        raise ParseError(path, vertices_line, f"unexpected text after 'vertices:': {extra!r}")
    rows = []
    while pos < len(lines):
        line_no, line = lines[pos]
        if line.startswith(("u:", "U:")):
            break
        rows.append(_vertex_row(path, line_no, line))
        pos += 1
    try:
        knot = PolygonalKnot.from_coordinates(name, rows)
    except DegeneratePolygon as exc:
        raise ParseError(path, vertices_line, str(exc)) from None
    n = knot.n
    if pos >= len(lines):
        raise ParseError(path, lines[-1][0], "missing 'u:' or 'U:' section")
    line_no, line = lines[pos]
    pos += 1
    if parity == "even":
        if not line.startswith("u:"):
            raise ParseError(path, line_no, "even parity requires a 'u:' line")
        bundle = CertificateBundle(vector=_int_row(path, line_no, line[2:], n, "u"))
    else:
        if not line.startswith("U:"):
            raise ParseError(path, line_no, "odd parity requires a 'U:' section")
        if line[2:].strip():
            raise ParseError(path, line_no, f"unexpected text after 'U:': {line[2:].strip()!r}")
        matrix = tuple(_int_row(path, no, row, n, "matrix row") for no, row in lines[pos : pos + n])
        if len(matrix) != n:
            raise ParseError(path, lines[-1][0], f"matrix has {len(matrix)} rows, expected {n}")
        bundle = CertificateBundle(matrix=matrix)
        pos += n
    if pos < len(lines):
        raise ParseError(path, lines[pos][0], "unexpected content after the bundle")
    return CertificateDocument(knot=knot, bundle=bundle)


def load_certificate(path) -> CertificateBundle:
    """Certificate bundle from a certificate document file."""
    return load_certificate_document(path).bundle


def save_certificate_document(doc: CertificateDocument, path) -> None:
    knot = doc.knot
    parity = "even" if knot.n % 2 == 0 else "odd"
    lines = [f"knot: {knot.name}", f"parity: {parity}", "vertices:", *map(vertex_line, knot.vertices)]
    Path(path).write_text("\n".join(lines + bundle_lines(doc.bundle)) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CorpusEntry:
    """A shipped realization, its certificate if published, the claimed
    superbridge number and where the paper gives it."""

    knot: PolygonalKnot
    certificate: Optional[CertificateBundle]
    claimed_sb: int
    source: str


@dataclass(frozen=True)
class EntryReport:
    """Outcome of checking one corpus entry against its claim."""

    name: str
    claimed_sb: int
    verified: bool
    method: str
    bound: Optional[int] = None
    exact_value: Optional[int] = None


def data_root():
    """Traversable root of the packaged data directory."""
    return resources.files("superbridge") / "data"


def corpus_entries() -> tuple[CorpusEntry, ...]:
    """All shipped realizations, certificates attached where published."""
    root = data_root()
    manifest = json.loads((root / "corpus.json").read_text(encoding="utf-8"))
    out = []
    for item in manifest["entries"]:
        knot = load_realization(root / item["realization"])
        cert = None
        if item.get("certificate"):
            doc = load_certificate_document(root / item["certificate"])
            if doc.knot.vertices != knot.vertices:
                raise SuperbridgeError(f"{knot.name}: certificate vertices disagree")
            cert = doc.bundle
        out.append(
            CorpusEntry(
                knot=knot,
                certificate=cert,
                claimed_sb=item["claimed_sb"],
                source=item["source"],
            )
        )
    return tuple(out)


def corpus_entry(name: str) -> CorpusEntry:
    """The shipped entry whose knot is named ``name``."""
    for entry in corpus_entries():
        if entry.knot.name == name:
            return entry
    raise SuperbridgeError(f"no corpus entry named {name!r}")


def verify_entry(entry: CorpusEntry) -> EntryReport:
    """Check an entry's claim: certificate bound, or exact enumeration.

    With a certificate, the certified bound must equal the claimed value
    and the enumerated superbridge number must reach it. Without one, the
    claim is checked purely by enumeration (for the two 11-stick entries
    the value equals the edge-count bound, so no certificate can exist).
    """
    result = superbridge_number(entry.knot)
    ok, bound = result.value == entry.claimed_sb, None
    if entry.certificate is not None:
        bound = verify_bundle(entry.knot, entry.certificate).bound
        ok = ok and bound == entry.claimed_sb
    return EntryReport(
        name=entry.knot.name,
        claimed_sb=entry.claimed_sb,
        verified=ok,
        method="enumeration" if entry.certificate is None else "certificate-cross-check",
        bound=bound,
        exact_value=result.value,
    )
