"""Compare the CLI output of two source checkouts on the shipped data.

    python3 scripts/compare_outputs.py PARENT CHANGE

Both checkouts run the same invocations on the data files of CHANGE:
``sb exact`` and ``sb find`` (text and ``--json``) on every realization of
the corpus manifest, ``sb verify`` (text and ``--json``) on each shipped
certificate and on all of them at once, and ``sb table`` on each metadata
file in every ``--format``, with and without ``--exact-only``. Each
checkout's package is imported afresh into this process, as the benchmark
does, and every invocation's exit status, stdout and stderr are recorded.
Every invocation whose record differs is printed; the exit status is 1 if
any differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path


def invocations(data: Path) -> list[list[str]]:
    """The ``sb`` argument lists to compare, on the data directory ``data``."""
    manifest = json.loads((data / "corpus.json").read_text(encoding="utf-8"))["entries"]
    runs = []
    for item in manifest:
        path = str(data / item["realization"])
        runs += [[cmd, path, *flag] for cmd in ("exact", "find") for flag in ([], ["--json"])]
    certs = [str(data / item["certificate"]) for item in manifest if item.get("certificate")]
    for paths in [[c] for c in certs] + [certs]:
        runs += [["verify", *paths, *flag] for flag in ([], ["--json"])]
    for meta in sorted((data / "metadata").glob("*.csv")):
        for fmt in ("text", "csv", "json"):
            for flag in ([], ["--exact-only"]):
                runs.append(["table", "--metadata", str(meta), "--format", fmt, *flag])
    return runs


def outputs(checkout: Path, runs: list[list[str]]) -> list[tuple[object, str, str]]:
    """(exit status, stdout, stderr) of each run, with the package of ``checkout``."""
    for name in [m for m in sys.modules if m == "superbridge" or m.startswith("superbridge.")]:
        del sys.modules[name]
    src = str(checkout / "src")
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("superbridge.cli")
        if not cli.__file__.startswith(src):
            raise SystemExit(f"error: superbridge was not imported from {src}")
        records = []
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            records.append((code, out.getvalue(), err.getvalue()))
        return records
    finally:
        sys.path.remove(src)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    data = change / "src" / "superbridge" / "data"
    runs = invocations(data)
    before, after = outputs(parent, runs), outputs(change, runs)
    differ = 0
    for argv, old, new in zip(runs, before, after):
        if old != new:
            differ += 1
            parts = [part for part, a, b in zip(("exit status", "stdout", "stderr"), old, new) if a != b]
            shown = [str(Path(a).relative_to(data)) if a.startswith(str(data)) else a for a in argv]
            print(f"differs ({', '.join(parts)}): sb {' '.join(shown)}")
    print(f"{len(runs)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
