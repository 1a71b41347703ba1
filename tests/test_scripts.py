"""The scripts in ``scripts/`` and the benchmark's self-check run to completion.

``rebuild_goldens.py`` is left out: it rewrites the package's golden files.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    """The module ``scripts/<name>.py``."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / "scripts"))


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/verify_corpus.py"],
        ["scripts/ensemble_stats.py", "--edges", "6", "--samples", "5"],
        ["perfbench/run.py", "--negative-control"],
    ],
)
def test_script_exits_0(argv, package_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / argv[0]), *argv[1:]],
        env=package_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if "--negative-control" in argv:
        # each of the four workloads catches the wrong answer planted in it
        assert proc.stdout.count("planted error caught") == 4, proc.stdout


@pytest.mark.parametrize(
    "args,code,message",
    [
        (["--samples", "0"], 2, "ensemble_stats.py: error: --samples must be at least 1, got 0"),
        (["--edges", "2"], 1, "error: need at least 3 edges"),
        (["--radius", "1/4"], 1, "error: confinement radius must be a rational >= 1/2, got '1/4'"),
    ],
)
def test_ensemble_stats_bad_input(args, code, message, package_env):
    """Bad input ends in a usage error or one ``error:`` line, no traceback."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ensemble_stats.py"), *args],
        env=package_env, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    assert proc.stderr.splitlines()[-1] == message, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def paired_bench_lines(package_env):
    """The result lines of one 2-seed ``paired_bench.py`` run of this
    checkout against itself, shared by the tests below."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_bench.py"), str(ROOT), str(ROOT),
         "--seconds", "1", "--seeds", "1", "2", "--workloads", "ensemble"],
        env=package_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]


def test_paired_bench_against_itself(paired_bench_lines):
    """A line per end-to-end metric, each with its win count and its
    relative difference beside that metric's ``BENCHMARK.json`` bound,
    marked ``OVER`` past it, then the parent's spread, marked
    ``UNRESOLVED`` past the bound unless every change run is better."""
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = [m["name"] for m in end_to_end]
    assert [ln.split()[:2] for ln in paired_bench_lines] == [["ensemble", m] for m in metrics], paired_bench_lines
    assert all("won " in ln for ln in paired_bench_lines)
    for ln, metric in zip(paired_bench_lines, end_to_end):
        fields = ln.partition(" passes ")[0].split()
        worse, bound = fields.index("worse"), fields.index("bound")
        assert bound == worse + 2 and float(fields[bound + 1]) == metric["bound"], ln
        assert ("OVER" in fields) == (float(fields[worse + 1]) > metric["bound"]), ln
        median, iqr = (float(fields[fields.index(k) + 1]) for k in ("parent", "parent-iqr"))
        spread = fields.index("spread")
        assert spread == bound + 2 + ("OVER" in fields), ln
        value = float(fields[spread + 1])
        assert value == pytest.approx(iqr / median, rel=1e-3, abs=1e-4), ln
        won, pairs = map(int, fields[fields.index("won") + 1].split("/"))
        if "UNRESOLVED" in fields:
            assert fields.index("UNRESOLVED") == spread + 2 and value > metric["bound"], ln
        else:
            assert value <= metric["bound"] or won == pairs, ln
    paired_bench = _script("paired_bench")
    assert paired_bench.separated([3, 4], [1, 2], lower=True)
    assert not paired_bench.separated([3, 4], [1, 3], lower=True)
    assert paired_bench.separated([1, 2], [3, 4], lower=False)
    assert not paired_bench.separated([1, 2], [2, 4], lower=False)


def test_paired_bench_gives_pass_counts_beside_peak_rss(paired_bench_lines):
    """Pass counts beside ``peak_rss_mb`` only."""
    for ln in paired_bench_lines:
        counts = ln.partition(" passes ")[2].split()
        if ln.split()[1] == "peak_rss_mb":
            assert counts[0::2] == ["parent", "change"] and all(float(c) >= 1 for c in counts[1::2]), ln
        else:
            assert not counts, ln


def test_compare_outputs_against_itself(package_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(ROOT), str(ROOT)],
        env=package_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # 22 realizations x (exact/find x text/json + 3 normalize runs), 1 normalize
    # run without flags, 20 + 1 verify runs x 2, 20 tampered verify runs x 2,
    # the direct and the mixed layouts x verify text/json, 12 tables,
    # 7 searches, 5 raw sampler polygons x exact text/json
    assert proc.stdout.splitlines() == ["270 invocations, 0 differ"], proc.stdout


def test_compare_outputs_names_the_files_that_differ():
    """Written files that differ, or that one side alone wrote, are named up
    to NAMED_FILES of them, and counted by suffix past that."""
    differences = _script("compare_outputs").differences
    files = {"manifest.json": b"{}", "a.txt": b"1", "a.cert": b"u: 1"}
    old = (0, "3 candidates\n", "", files)
    assert differences(old, (1, "", "", files)) == "exit status, stdout"
    assert differences(old, (0, "3 candidates\n", "", {**files, "a.txt": b"2"})) == "files: a.txt"
    new = {**files, "a.cert": b"u: 2", "b.txt": b"1"}
    assert differences(old, (0, "", "x", new)) == "stdout, stderr, files: a.cert, b.txt"
    many = {f"{c}.{s}": b"2" for c in "abc" for s in ("txt", "cert")}
    assert differences(old, (0, "3 candidates\n", "", many)) == "files: 3 .cert, 1 .json, 3 .txt"


def test_compare_outputs_prints_one_summary_line_per_difference(monkeypatch, capsys):
    """Each differing invocation is one ``differs (...)`` line, which the CI
    job summary's pattern picks up, as it does the count line."""
    compare_outputs = _script("compare_outputs")
    runs = [["search", "--edges", "6"], ["table"]]
    records = {
        "parent": [(0, "", "", {"manifest.json": b"{}", "r.txt": b"1"}), (0, "t", "", {})],
        "change": [(0, "", "", {"manifest.json": b"{}", "r.txt": b"2"}), (0, "t", "", {})],
    }
    monkeypatch.setattr(compare_outputs, "sampled", lambda change, out: [])
    monkeypatch.setattr(compare_outputs, "layouts", lambda change, data, out: ([], []))
    monkeypatch.setattr(compare_outputs, "invocations", lambda *args: runs)
    monkeypatch.setattr(compare_outputs, "outputs", lambda checkout, argv: records[checkout.name])
    assert compare_outputs.main(["parent", "change"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["differs (files: r.txt): sb search --edges 6", "2 invocations, 1 differ"]
    summary = re.compile(r"^(differs \(|[0-9]+ invocations, [0-9]+ differ$)")
    assert all(map(summary.match, lines))


def test_compare_outputs_tampers_one_bundle_entry_of_each_certificate(tmp_path):
    """Each tampered copy differs from its certificate in one bundle entry,
    raised by 1, and fails verification."""
    compare_outputs = _script("compare_outputs")
    from superbridge import InvalidCertificate, load_certificate_document, verify_bundle

    certs = sorted((ROOT / "src" / "superbridge" / "data" / "certificates").glob("*.cert"))
    assert len(certs) == 20
    for cert in certs:
        copy = Path(compare_outputs.tamper(cert, tmp_path))
        old = load_certificate_document(cert).bundle
        new = load_certificate_document(copy).bundle
        before = old.vector or [x for row in old.matrix for x in row]
        after = new.vector or [x for row in new.matrix for x in row]
        assert [b - a for a, b in zip(before, after) if a != b] == [1], cert.name
        with pytest.raises(InvalidCertificate):
            verify_bundle(load_certificate_document(copy).knot, new)


def test_verify_corpus_reports_a_bad_certificate(monkeypatch, capsys):
    """With one entry of 9_22's vector raised by 1, the script prints a FAIL
    row naming the failed check, goes on to the other entries and to the
    this-work report, and exits 1."""
    import dataclasses

    from superbridge import CertificateBundle, corpus_entries

    verify_corpus = _script("verify_corpus")
    entries = list(corpus_entries())
    (k,) = [i for i, e in enumerate(entries) if e.knot.name == "9_22"]
    vector = list(entries[k].certificate.vector)
    vector[3] += 1
    entries[k] = dataclasses.replace(entries[k], certificate=CertificateBundle(vector=tuple(vector)))
    monkeypatch.setattr(verify_corpus, "corpus_entries", lambda: tuple(entries))
    assert verify_corpus.main() == 1
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split() for ln in lines[1:23]]
    assert [r[0] for r in rows] == [e.knot.name for e in entries]
    (bad,) = [r for r in rows if r[-1] != "ok"]
    assert bad[:6] + bad[7:] == ["9_22", "10", "4", "-", "invalid", "(nonzero_residual)", "FAIL"]
    assert "22 entries, 1 failures" in lines
    assert any(ln.startswith("  rolfsen.csv: 9_22: certified_upper 4, certificate: invalid (") for ln in lines), lines


def test_this_work_rows_are_proved_by_the_corpus():
    """The 15 + 22 metadata rows citing ``this-work`` are the paper's own
    results; each certified or stick bound is one the shipped corpus proves."""
    from superbridge import corpus, corpus_entries

    verify_corpus = _script("verify_corpus")
    tables = verify_corpus.metadata_tables(corpus.data_root())
    counts = [sum(map(verify_corpus.is_this_work, records)) for records in tables.values()]
    assert counts == [15, 22]
    assert verify_corpus.this_work_failures(corpus_entries(), tables) == []


@pytest.mark.parametrize(
    "file, old, new, expected",
    [
        ("metadata/rolfsen.csv", "9_22,,,0,0,4,", "9_22,,,0,0,5,",
         ["rolfsen.csv: 9_22: certified_upper 5, certificate: 4"]),
        ("metadata/exact_values.csv", "11n_72,4,11,", "11n_72,4,10,",
         ["exact_values.csv: 11n_72: stick_upper 10 below the realization's 11 edges"]),
        ("metadata/rolfsen.csv", "9_3,,,0,0,4,,this-work", "9_3,,,0,0,4,,knotinfo",
         ["rolfsen.csv: 9_3: corpus knot without a this-work row"]),
        ("corpus.json", '"certificate": "certificates/9_36.cert"', '"certificate": null',
         [f"{file}: 9_36: certified_upper 4, certificate: none shipped"
          for file in ("rolfsen.csv", "exact_values.csv")]),
    ],
)
def test_this_work_check_names_the_row_it_fails(tmp_path, monkeypatch, file, old, new, expected):
    """On a copy of the data with one row raised or lowered, one row's
    citation changed, or one certificate dropped from the manifest, the
    check names that row."""
    from superbridge import corpus, corpus_entries

    data = tmp_path / "data"
    shutil.copytree(corpus.data_root(), data)
    text = (data / file).read_text(encoding="utf-8")
    assert text.count(old) == 1
    (data / file).write_text(text.replace(old, new), encoding="utf-8")
    monkeypatch.setattr(corpus, "data_root", lambda: data)
    verify_corpus = _script("verify_corpus")
    assert verify_corpus.this_work_failures(corpus_entries(), verify_corpus.metadata_tables(data)) == expected
