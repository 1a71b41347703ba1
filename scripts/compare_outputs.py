"""Compare the CLI output of two source checkouts on the shipped data.

    python3 scripts/compare_outputs.py PARENT CHANGE

Both checkouts run the same invocations on the data files of CHANGE:
``sb exact`` and ``sb find`` (text and ``--json``) and ``sb normalize``
(``--pose``, ``--digits 3`` and both) on every realization of the corpus
manifest, ``sb normalize`` with neither flag on the first, ``sb verify`` (text and ``--json``) on each shipped
certificate, on all of them at once and on a +1-tampered copy of each
(written once, to a temporary directory both checkouts read, so rejection
diagnostics are compared too), ``sb table`` on each metadata
file in every ``--format``, with and without ``--exact-only``, a few
fixed ``sb search`` runs (n = 6 to 33, radii 1, 3/2, 5/2 and 3, candidates
with certificates, and one run whose samples the screen all rejects),
each into a fresh
temporary directory, and ``sb exact`` (text and ``--json``) on a few raw
sampler polygons, written once by the package of CHANGE beside the
tampered copies. Each checkout's package is imported afresh into this
process, as the benchmark does, and every invocation's exit status, stdout
and stderr are recorded, with every file a search writes (its manifest,
``.txt`` and ``.cert`` files). Every invocation whose record differs is
printed; the exit status is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

#: The ``sb normalize`` flags run on every realization.
NORMALIZE = [["--pose"], ["--digits", "3"], ["--pose", "--digits", "3"]]
#: Stands for the fresh output directory of each ``sb search`` run.
OUT = "OUT"
SEARCHES = [
    "--edges 6 --target 2 --samples 40 --seed 9 --screen-samples 64",
    "--edges 8 --target 3 --samples 20 --seed 4 --radius 1",
    "--edges 12 --target 4 --samples 20 --seed 2 --radius 5/2",
    "--edges 31 --target 12 --samples 4 --seed 5 --radius 5/2",
    "--edges 32 --target 12 --samples 4 --seed 6 --radius 3",
    "--edges 33 --target 16 --samples 3 --seed 7 --radius 5/2",
    "--edges 22 --target 3 --samples 40 --seed 1 --radius 5/2",
]

#: (edges, seed) of the raw sampler polygons given to ``sb exact``, radius
#: 5/2. The corpus takes the arrangement kernel's one-product int64 path;
#: these take its two-limb int64 path (n = 12 to 48) and its Python-int
#: path (n = 80), whose primitive edge entries reach 31 bits.
SAMPLED = [(12, 1), (22, 2), (32, 3), (48, 4), (80, 5)]


def tamper(cert: Path, out: Path) -> str:
    """Path of a copy of ``cert`` in ``out`` with one bundle entry raised by 1.

    The entry is the first of the ``u:`` line of an even bundle, or the
    first of the first ``U:`` row of an odd one: row 0 of column 0, the
    published-layout column of system E_1.
    """
    lines = cert.read_text(encoding="utf-8").splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(("u:", "U:")))
    if lines[i] == "U:":
        i += 1
    tokens = lines[i].split()
    k = tokens[0] == "u:"
    tokens[k] = str(int(tokens[k]) + 1)
    lines[i] = " ".join(tokens)
    path = out / cert.name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def sampled(change: Path, out: Path) -> list[str]:
    """Paths of the SAMPLED polygons, drawn by the package of ``change`` and
    written to ``out``."""
    with package(change) as sb:
        paths = []
        for n, seed in SAMPLED:
            path = out / f"sampled{n}.txt"
            sb.save_realization(
                sb.random_equilateral_polygon(n, "5/2", random.Random(seed), f"sampled{n}"), path
            )
            paths.append(str(path))
        return paths


def invocations(data: Path, tampered: Path, polygons: list[str]) -> list[list[str]]:
    """The ``sb`` argument lists to compare, on the data directory ``data``
    and the coordinate files ``polygons``; tampered certificate copies are
    written to ``tampered``."""
    manifest = json.loads((data / "corpus.json").read_text(encoding="utf-8"))["entries"]
    runs = []
    for item in manifest:
        path = str(data / item["realization"])
        runs += [[cmd, path, *flag] for cmd in ("exact", "find") for flag in ([], ["--json"])]
        runs += [["normalize", path, *flag] for flag in NORMALIZE]
    runs.append(["normalize", str(data / manifest[0]["realization"])])
    certs = [str(data / item["certificate"]) for item in manifest if item.get("certificate")]
    bad = [tamper(Path(c), tampered) for c in certs]
    for paths in [[c] for c in certs] + [certs] + [[c] for c in bad]:
        runs += [["verify", *paths, *flag] for flag in ([], ["--json"])]
    for meta in sorted((data / "metadata").glob("*.csv")):
        for fmt in ("text", "csv", "json"):
            for flag in ([], ["--exact-only"]):
                runs.append(["table", "--metadata", str(meta), "--format", fmt, *flag])
    runs += [["search", *config.split(), "--out", OUT] for config in SEARCHES]
    runs += [["exact", path, *flag] for path in polygons for flag in ([], ["--json"])]
    return runs


def run(cli, argv: list[str]) -> tuple[object, str, str, dict[str, bytes]]:
    """(exit status, stdout, stderr, files written) of one ``sb`` invocation."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([tmp if arg == OUT else arg for arg in argv])
            except SystemExit as exc:
                code = exc.code
        files = {
            path.relative_to(tmp).as_posix(): path.read_bytes()
            for path in sorted(Path(tmp).rglob("*")) if path.is_file()
        }
        return code, out.getvalue().replace(tmp, OUT), err.getvalue().replace(tmp, OUT), files


@contextlib.contextmanager
def package(checkout: Path):
    """``superbridge`` imported afresh from ``checkout``, for the block."""
    for name in [m for m in sys.modules if m == "superbridge" or m.startswith("superbridge.")]:
        del sys.modules[name]
    src = str(checkout / "src")
    sys.path.insert(0, src)
    try:
        sb = importlib.import_module("superbridge")
        if not sb.__file__.startswith(src):
            raise SystemExit(f"error: superbridge was not imported from {src}")
        yield sb
    finally:
        sys.path.remove(src)


def outputs(checkout: Path, runs: list[list[str]]) -> list[tuple]:
    """``run`` of each argument list, with the package of ``checkout``."""
    with package(checkout):
        cli = importlib.import_module("superbridge.cli")
        return [run(cli, argv) for argv in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    data = change / "src" / "superbridge" / "data"
    with tempfile.TemporaryDirectory() as tampered:
        runs = invocations(data, Path(tampered), sampled(change, Path(tampered)))
        before, after = outputs(parent, runs), outputs(change, runs)
    differ = 0
    for argv, old, new in zip(runs, before, after):
        if old != new:
            differ += 1
            parts = [
                part for part, a, b in zip(("exit status", "stdout", "stderr", "files"), old, new)
                if a != b
            ]
            shown = [str(Path(a).relative_to(data)) if a.startswith(str(data)) else a for a in argv]
            print(f"differs ({', '.join(parts)}): sb {' '.join(shown)}")
    print(f"{len(runs)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
