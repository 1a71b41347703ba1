#!/usr/bin/env python3
"""Re-verify every shipped realization and print a summary table.

Each entry is checked two ways where possible: the stored certificate is
validated in exact arithmetic, and the superbridge number is recomputed
from scratch by cell enumeration. The metadata rows whose citation names
``this-work``, the paper's own results, are then checked against the
corpus that proves them (``this_work_failures``).
"""

import time

from superbridge import SuperbridgeError, corpus_entries, load_metadata_csv, verify_bundle, verify_entry
from superbridge.corpus import data_root

METADATA_FILES = ("rolfsen.csv", "exact_values.csv")


def metadata_tables(root) -> dict:
    """File name -> records of each metadata CSV under the data directory ``root``."""
    return {name: load_metadata_csv(root / "metadata" / name) for name in METADATA_FILES}


def is_this_work(record) -> bool:
    return "this-work" in map(str.strip, record.citation.split(";"))


def this_work_failures(entries, tables: dict) -> list[str]:
    """One line, naming file and row, per ``this-work`` row the corpus does
    not prove, and per corpus knot that a file lists without such a row.

    A row's ``certified_upper`` must equal the bound that its knot's shipped
    certificate verifies to, and its ``stick_upper``, if set, must be at
    least the edge count of its knot's realization, which bounds the stick
    number from above.
    """
    by_name = {e.knot.name: e for e in entries}
    bounds = {}
    failures = []
    for file, records in tables.items():
        ours = {r.name: r for r in records if is_this_work(r)}
        for name in sorted({r.name for r in records} & by_name.keys() - ours.keys()):
            failures.append(f"{file}: {name}: corpus knot without a this-work row")
        for name, row in ours.items():
            entry = by_name.get(name)
            if entry is None:
                failures.append(f"{file}: {name}: this-work row without a corpus entry")
                continue
            if name not in bounds:
                bounds[name] = "none shipped"
                if entry.certificate is not None:
                    try:
                        bounds[name] = verify_bundle(entry.knot, entry.certificate).bound
                    except SuperbridgeError as exc:
                        bounds[name] = f"invalid ({exc})"
            if row.certified_upper is not None and row.certified_upper != bounds[name]:
                failures.append(
                    f"{file}: {name}: certified_upper {row.certified_upper}, certificate: {bounds[name]}"
                )
            if row.stick_upper is not None and row.stick_upper < entry.knot.n:
                failures.append(
                    f"{file}: {name}: stick_upper {row.stick_upper} below the realization's {entry.knot.n} edges"
                )
    return failures


def main() -> int:
    entries = corpus_entries()
    print(f"{'knot':>8} {'n':>3} {'claimed':>8} {'exact':>6} {'method':>24} {'ms':>6}")
    failures = 0
    for entry in entries:
        t0 = time.perf_counter()
        try:
            report = verify_entry(entry)
            exact, method, ok = report.exact_value, report.method, report.verified
        except SuperbridgeError as exc:
            # a certificate that fails its check is a failed row, not a crash
            exact, method, ok = "-", f"invalid ({getattr(exc, 'check', type(exc).__name__)})", False
        ms = (time.perf_counter() - t0) * 1000
        print(
            f"{entry.knot.name:>8} {entry.knot.n:>3} {entry.claimed_sb:>8} "
            f"{exact:>6} {method:>24} {ms:>6.0f} {'ok' if ok else 'FAIL'}"
        )
        failures += not ok
    print(f"\n{len(entries)} entries, {failures} failures")
    tables = metadata_tables(data_root())
    rows = sum(map(is_this_work, (r for records in tables.values() for r in records)))
    table_failures = this_work_failures(entries, tables)
    print(f"{rows} this-work table rows, {len(table_failures)} not proved by the corpus")
    for line in table_failures:
        print(f"  {line}")
    return 1 if failures or table_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
