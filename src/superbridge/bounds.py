"""Superbridge intervals from ingested knot invariants.

Combines three sources of bounds per knot type:

* lower: bridge index + 1 (strict bridge bound), the universal value 4 for
  every nontrivial knot outside the eleven possible 3-superbridge types,
  and 3 for any nontrivial knot;
* upper: half the best known stick number, any certified realization
  bound, and any known exact value.

Bridge indices and stick numbers are ingested as CSV metadata, never
computed here; citation strings are carried as opaque tags.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import ParseError, SuperbridgeError, read_utf8

#: Version of every ``--json`` document and search manifest.
JSON_SCHEMA = 1

#: The only knot types that may have superbridge index 3.
THREE_SUPERBRIDGE_CANDIDATES = frozenset(
    {"3_1", "4_1", "5_2", "6_1", "6_2", "6_3", "7_2", "7_3", "7_4", "8_4", "8_9"}
)

METADATA_COLUMNS = (
    "name",
    "bridge_index",
    "stick_upper",
    "trivial_flag",
    "jeon_jin_flag",
    "certified_upper",
    "known_exact",
    "citation",
)


class NoUpperBoundAvailable(SuperbridgeError):
    pass


class InconsistentRecord(SuperbridgeError):
    pass


@dataclass(frozen=True)
class KnotRecord:
    """Per-knot invariant metadata, as ingested."""

    name: str
    bridge_index: Optional[int] = None
    stick_upper: Optional[int] = None
    is_trivial: bool = False
    jeon_jin_exception: bool = False
    certified_upper: Optional[int] = None
    known_exact: Optional[int] = None
    citation: str = ""

    def __post_init__(self):
        if self.bridge_index is not None and self.bridge_index < 1:
            raise SuperbridgeError(f"{self.name}: bridge index must be >= 1")
        if self.stick_upper is not None and self.stick_upper < 3:
            raise SuperbridgeError(f"{self.name}: stick number must be >= 3")


@dataclass(frozen=True)
class BoundInterval:
    """Bounds lo <= sb <= hi on a superbridge index, 1 <= lo <= hi; printed
    as the value when exact, else as ``[lo,hi]``."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise SuperbridgeError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.exact else f"[{self.lo},{self.hi}]"


def lower_bound(r: KnotRecord) -> int:
    """Best lower bound on the superbridge index of the knot type.

    Trivial knot: 1. Otherwise the max of 3 (any nontrivial knot), bridge
    index + 1 (bridge defaulting to 2 when unknown), 4 for knots outside
    the 3-superbridge candidate list, and a known exact value if present
    (a known value is a bound in both directions).
    """
    if r.is_trivial:
        return 1
    bridge = r.bridge_index if r.bridge_index is not None else 2
    candidates = [3, bridge + 1]
    if not r.jeon_jin_exception:
        candidates.append(4)
    if r.known_exact is not None:
        candidates.append(r.known_exact)
    return max(candidates)


def upper_bound(r: KnotRecord) -> int:
    """Min over half the stick bound, certified bound, and known value."""
    candidates = []
    if r.stick_upper is not None:
        candidates.append(r.stick_upper // 2)
    if r.certified_upper is not None:
        candidates.append(r.certified_upper)
    if r.known_exact is not None:
        candidates.append(r.known_exact)
    if not candidates:
        raise NoUpperBoundAvailable(f"{r.name}: no upper bound source present")
    return min(candidates)


def interval(r: KnotRecord) -> BoundInterval:
    """[lower_bound(r), upper_bound(r)]; InconsistentRecord if they cross."""
    lo = lower_bound(r)
    hi = upper_bound(r)
    if lo > hi:
        raise InconsistentRecord(
            f"{r.name}: lower bound {lo} exceeds upper bound {hi}"
        )
    return BoundInterval(lo=lo, hi=hi)


_NAME_RE = re.compile(r"^(\d+)([a-z]?)_(\d+)$")


def knot_sort_key(name: str) -> tuple[int, str, int]:
    """Crossing number, alternating/non-alternating tag, table index."""
    m = _NAME_RE.match(name)
    if not m:
        raise SuperbridgeError(f"unrecognized knot name {name!r}")
    return (int(m.group(1)), m.group(2), int(m.group(3)))


def render_table(
    records: Sequence[KnotRecord],
    fmt: str = "text",
    exact_only: bool = False,
) -> str:
    """Deterministic interval table; exact values print bare.

    ``text``: one "name value" line per knot. ``csv``: header name,lo,hi.
    ``json``: versioned schema with one row object per knot.
    """
    rows = []
    for r in sorted(records, key=lambda r: knot_sort_key(r.name)):
        iv = interval(r)
        if exact_only and not iv.exact:
            continue
        rows.append((r.name, iv))
    if fmt == "text":
        return "".join(f"{name} {iv}\n" for name, iv in rows)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "lo", "hi"])
        for name, iv in rows:
            w.writerow([name, iv.lo, iv.hi])
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "schema": JSON_SCHEMA,
            "rows": [
                {"name": name, "lo": iv.lo, "hi": iv.hi, "value": str(iv)}
                for name, iv in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise SuperbridgeError(f"unknown table format {fmt!r}")


def _flag(s: str) -> bool:
    return s.strip().lower() in {"1", "true", "yes"}


def load_metadata_csv(source) -> list[KnotRecord]:
    """Parse the metadata CSV (header row required, UTF-8).

    ``source`` is a path or an open text handle. The 3-superbridge flag is
    cross-checked against the built-in candidate list. Malformed rows and
    undecodable bytes raise ParseError naming the CSV line.
    """
    if hasattr(source, "read"):
        return _parse_metadata(source, getattr(source, "name", "<metadata>"))
    return _parse_metadata(io.StringIO(read_utf8(source), newline=""), source)


def _parse_metadata(fh, path) -> list[KnotRecord]:
    reader = csv.DictReader(fh)
    missing = set(METADATA_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise SuperbridgeError(f"metadata missing columns: {sorted(missing)}")

    def opt_int(row: dict, column: str) -> Optional[int]:
        s = row[column].strip()
        try:
            return int(s) if s else None
        except ValueError:
            raise ParseError(
                path, reader.line_num, f"column {column}: expected an integer, got {s!r}"
            ) from None

    out = []
    for row in reader:
        if None in row.values():
            raise ParseError(path, reader.line_num, "row has too few fields")
        name = row["name"].strip()
        flag = _flag(row["jeon_jin_flag"])
        if flag != (name in THREE_SUPERBRIDGE_CANDIDATES):
            raise SuperbridgeError(
                f"{name}: jeon_jin_flag={flag} disagrees with the candidate list"
            )
        out.append(
            KnotRecord(
                name=name,
                bridge_index=opt_int(row, "bridge_index"),
                stick_upper=opt_int(row, "stick_upper"),
                is_trivial=_flag(row["trivial_flag"]),
                jeon_jin_exception=flag,
                certified_upper=opt_int(row, "certified_upper"),
                known_exact=opt_int(row, "known_exact"),
                citation=row["citation"].strip(),
            )
        )
    return out

