import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from superbridge import CertificateBundle, find_certificate, load_certificate_document
from superbridge.cli import build_parser, main
from superbridge.corpus import CertificateDocument, data_root, save_certificate_document


def _data(rel):
    return str(data_root() / rel)


class TestVerify:
    def test_valid_certificate(self, capsys):
        assert main(["verify", _data("certificates/9_22.cert")]) == 0
        out = capsys.readouterr().out
        assert "9_22: certified sb <= 4" in out

    def test_batch_keeps_order(self, capsys):
        paths = [_data(f"certificates/{k}.cert") for k in ("9_3", "9_4", "12n_66")]
        assert main(["verify", *paths]) == 0
        out = capsys.readouterr().out
        assert out.index("9_3:") < out.index("9_4:") < out.index("12n_66:")

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        text = (data_root() / "certificates" / "9_36.cert").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        # bump one entry of the first matrix row
        row = lines[15].split()
        row[3] = str(int(row[3]) + 1)
        lines[15] = " ".join(row)
        bad = tmp_path / "9_36.cert"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_json_schema(self, capsys):
        assert main(["verify", _data("certificates/12n_225.cert"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["results"][0]["knot"] == "12n_225"
        assert payload["results"][0]["verified"] is True

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/file.cert"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExact:
    def test_text_output(self, capsys):
        assert main(["exact", _data("realizations/11n_72.txt")]) == 0
        out = capsys.readouterr().out
        assert "superbridge: 5" in out
        assert "n: 11" in out

    def test_json_output(self, capsys):
        assert main(["exact", _data("realizations/9_22.txt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 4
        assert payload["n"] == 10
        assert payload["patterns"] == 92
        assert sum(payload["descent_histogram"].values()) == 92

    def test_agrees_with_superbridge_number(self, capsys, corpus):
        from superbridge import superbridge_number
        from superbridge.linalg import format_rational

        for name in ("9_22", "11n_72", "12n_553"):
            assert main(["exact", _data(f"realizations/{name}.txt"), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            result = superbridge_number(corpus[name].knot)
            assert payload["value"] == result.value
            assert payload["patterns"] == result.pattern_count
            assert payload["witness"] == [format_rational(c) for c in result.witness_direction.v]


class TestFind:
    def test_certificate_found(self, capsys):
        assert main(["find", _data("realizations/9_22.txt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert len(payload["u"]) == 10

    def test_no_certificate_evidence(self, capsys, tmp_path):
        f = tmp_path / "skew.txt"
        f.write_text("0 0 0\n1 0 1\n1 1 0\n0 1 1\n")
        assert main(["find", str(f), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is False
        assert payload["evidence"]

    @pytest.mark.parametrize("name", ["9_22", "12n_225"])
    def test_text_bundle_is_the_document_section(self, name, capsys, tmp_path, corpus):
        """After its first line, ``sb find`` prints the bundle section of the
        certificate document that would be saved for the same bundle."""
        knot = corpus[name].knot
        assert main(["find", _data(f"realizations/{name}.txt")]) == 0
        first, *rest = capsys.readouterr().out.splitlines()
        assert first == f"{name}: certificate for sb <= {knot.n // 2 - 1}"
        path = tmp_path / f"{name}.cert"
        bundle = find_certificate(knot).bundle
        save_certificate_document(CertificateDocument(knot=knot, bundle=bundle), path)
        assert rest == path.read_text(encoding="utf-8").splitlines()[3 + knot.n :]
        assert len(rest) == (1 if knot.n % 2 == 0 else 1 + knot.n)

    def test_text_pinned_on_every_realization(self, capsys, corpus):
        h = hashlib.sha256()
        for name in sorted(corpus):
            assert main(["find", _data(f"realizations/{name}.txt")]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == FIND_TEXT_DIGEST


# sha256 of the stdout of ``sb find`` (text) on each realization, in name order,
# recorded once odd shifts reused the previous shift's null vector.
FIND_TEXT_DIGEST = "9dd57b7de26db236aa78b6cdaed32ae0bb273f546de53dfbb12929e21f9bccc6"


class TestTable:
    def test_rolfsen_interval_table_bytes(self, capsys):
        assert main(["table", "--metadata", _data("metadata/rolfsen.csv")]) == 0
        out = capsys.readouterr().out
        golden = (data_root() / "golden" / "rolfsen_intervals.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_exact_value_table_bytes(self, capsys):
        assert (
            main(
                [
                    "table",
                    "--metadata",
                    _data("metadata/exact_values.csv"),
                    "--exact-only",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        golden = (data_root() / "golden" / "known_exact.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_json_format(self, capsys):
        assert (
            main(
                ["table", "--metadata", _data("metadata/rolfsen.csv"), "--format", "json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        rows = {r["name"]: r["value"] for r in payload["rows"]}
        assert rows["5_2"] == "[3,4]"
        assert rows["9_3"] == "4"
        assert rows["10_124"] == "5"


class TestNormalize:
    def test_pose_and_digits_recover_integers(self, capsys, tmp_path, corpus):
        import math
        from superbridge import save_realization, PolygonalKnot

        p = corpus["9_22"].knot
        c, s = math.cos(0.8), math.sin(0.8)
        moved = PolygonalKnot.from_coordinates(
            p.name,
            [
                (c * float(v[0]) - s * float(v[1]) + 11.0, s * float(v[0]) + c * float(v[1]) - 4.0, float(v[2]) + 2.5)
                for v in p.vertices
            ],
        )
        f = tmp_path / "moved.txt"
        save_realization(moved, f)
        # largest coordinate is 1029, so four significant digits keep the
        # original integer scale
        assert main(["normalize", str(f), "--pose", "--digits", "4"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        got = [tuple(int(x) for x in line.split()) for line in out_lines]
        want = [tuple(int(c) for c in v) for v in p.vertices]
        assert got == want

    def test_requires_an_action(self, capsys, tmp_path):
        f = tmp_path / "sq.txt"
        f.write_text("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")
        assert main(["normalize", str(f)]) == 2

    @pytest.mark.parametrize("text", [None, "0 0 0\nx 0 0\n0 1 0\n"], ids=["missing", "malformed"])
    def test_without_an_action_no_file_is_read(self, capsys, tmp_path, text):
        """With neither flag, a missing or malformed file is the same usage
        error as a good one: the flags are checked before the file is read."""
        f = tmp_path / "bad.txt"
        if text is not None:
            f.write_text(text)
        assert main(["normalize", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["normalize: nothing to do (pass --pose and/or --digits)"]

    def test_quantize_only(self, capsys, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("0 0 0\n0.99963 0 0\n0.5 0.5 0\n")
        assert main(["normalize", str(f), "--digits", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1].split() == ["1000", "0", "0"]


class TestSearchCommand:
    def test_writes_candidates_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        argv = [
            "search",
            "--edges", "6",
            "--target", "2",
            "--samples", "12",
            "--seed", "9",
            "--screen-samples", "64",
            "--out", str(out_dir),
        ]
        assert main(argv) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["stats"]["generated"] == 12
        for cand in manifest["candidates"]:
            assert (out_dir / cand["coordinates"]).exists()
            if "certificate" in cand:
                assert (out_dir / cand["certificate"]).exists()

    def test_deterministic_manifest(self, tmp_path):
        argvs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            argv = [
                "search", "--edges", "6", "--target", "2", "--samples", "8",
                "--seed", "4", "--screen-samples", "50", "--out", str(out_dir),
            ]
            assert main(argv) == 0
            argvs.append(json.loads((out_dir / "manifest.json").read_text()))
        assert argvs[0]["candidates"] == argvs[1]["candidates"]
        assert argvs[0]["stats"] == argvs[1]["stats"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_shared_parser_keeps_no_state_between_calls(capsys):
    """One process's ``main`` calls share a parser; no parsed value may leak
    from one call into the next (a sticky ``--json``, say), in any order.
    Each call must print what it prints on a freshly built parser."""
    knot = _data("realizations/9_22.txt")
    sequence = [
        ["exact", knot, "--json"],
        ["exact", knot],
        ["exact", "--json"],
        ["find", knot, "--json"],
        ["table", "--metadata", _data("metadata/rolfsen.csv"), "--format", "csv"],
        ["verify", _data("certificates/9_22.cert")],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    fresh = {}
    for argv in sequence:
        build_parser.cache_clear()
        fresh[tuple(argv)] = run(argv)
    assert [fresh[tuple(argv)][0] for argv in sequence] == [0, 0, 2, 0, 0, 0]
    for order in (sequence, sequence, sequence[::-1]):
        for argv in order:
            assert run(argv) == fresh[tuple(argv)], argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "x.cert", "--jobs", "3"],
        ["search", "--edges", "6", "--target", "2", "--samples", "1", "--out", "x", "--jobs", "3"],
        ["normalize", "x.txt", "--pose", "--tolerance", "1e-6"],
    ],
)
def test_jobs_flag_is_a_usage_error(argv):
    """Removed flags (--jobs, normalize --tolerance) are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_CERT = "knot: sq\nparity: even\nvertices:\n0 0 0\n{} 0 0\n1 1 0\n0 1 0\nu: 1 0 1 0\n"
_HEADER = "name,bridge_index,stick_upper,trivial_flag,jeon_jin_flag,certified_upper,known_exact,citation\n"
_SEARCH = ["search", "--edges", "6", "--target", "2", "--samples", "1"]
# A valid 5-gon with 4000-digit coordinates; its witness and its realizability
# directions have more digits than Python converts to text.
_B = 10**3999 + 7
_HUGE = "".join(
    f"{x} {y} {z}\n"
    for x, y, z in [(0, 0, 0), (_B, 2, 2 * _B), (_B, 2, 3), (2, _B + 1, _B), (_B, _B + 1, 0)]
).encode()

# A float of 10^400 overflows; the squared norms of 10^170 do.
_POSE_1E400 = f"0 0 0\n{10**400} 0 0\n0 1 0\n".encode()
_POSE_1E170 = f"0 0 0\n{10**170} 0 0\n0 {10**170} 0\n0 0 {10**170}\n".encode()


def _verify_with_line(cert: str, extra: str) -> tuple:
    """``sb verify`` on a shipped certificate with one line appended, which
    the error must name."""
    lines = (data_root() / "certificates" / cert).read_text(encoding="utf-8").splitlines()
    return "\n".join([*lines, extra]).encode() + b"\n", ["verify"], f":{len(lines) + 1}: "


def _verify_with_header(cert: str, header: str, text: str) -> tuple:
    """``sb verify`` on a shipped certificate whose bare ``header`` line
    carries ``text``, which the error must name."""
    lines = (data_root() / "certificates" / cert).read_text(encoding="utf-8").splitlines()
    i = lines.index(header)
    lines[i] = f"{header} {text}"
    return "\n".join(lines).encode() + b"\n", ["verify"], f":{i + 1}: "


#: file name -> (file content or None, argv before the path, expected "<path>:<line>: " suffix)
_BAD_INPUTS = {
    "after_u.cert": _verify_with_line("9_22.cert", "garbage here"),
    "after_rows.cert": _verify_with_line("12n_225.cert", "x y z"),
    "text_after_U.cert": _verify_with_header("12n_225.cert", "U:", "5 5 garbage"),
    "text_after_vertices.cert": _verify_with_header("9_22.cert", "vertices:", "7 x"),
    "bare_knot.cert": (_CERT.replace("knot: sq", "knot:").format("1").encode(), ["verify"], ":1: "),
    "zero.cert": (_CERT.format("1/0").encode(), ["verify"], ":5: "),
    "word.cert": (_CERT.format("abc").encode(), ["verify"], ":5: "),
    "repeated.cert": (_CERT.format("0").encode(), ["verify"], ":3: "),
    "latin1.txt": (b"0 0 0\n1 0 0\n0 1 0 # caf\xe9\n", ["exact"], ":3: "),
    "int.csv": ((_HEADER + "3_1,2,six,0,1,,,x\n").encode(), ["table", "--metadata"], ":2: "),
    "latin1.csv": (_HEADER.encode() + b"3_1,2,6,0,1,,,caf\xe9\n", ["table", "--metadata"], ":2: "),
    "huge_exact.txt": (_HUGE, ["exact"], ""),
    "huge_exact_json.txt": (_HUGE, ["exact", "--json"], ""),
    "huge_find.txt": (_HUGE, ["find"], ""),
    "huge_find_json.txt": (_HUGE, ["find", "--json"], ""),
    "pose_1e400.txt": (_POSE_1E400, ["normalize", "--pose"], ""),
    "pose_1e170.txt": (_POSE_1E170, ["normalize", "--pose"], ""),
    "huge_digits.txt": (b"0 0 0\n1/3 0 0\n0 1/3 0\n0 0 1/3\n", ["normalize", "--digits", "5000"], ""),
    "radius_word": (None, [*_SEARCH, "--radius", "abc", "--out"], ""),
    "radius_zero": (None, [*_SEARCH, "--radius", "0", "--out"], ""),
    "radius_small": (None, [*_SEARCH, "--radius", "1/100", "--out"], ""),
    "screen_huge": (
        None,
        ["search", "--edges", "10", "--target", "3", "--samples", "1",
         "--screen-samples", "1000000000", "--out"],
        "",
    ),
}


@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_bad_input_is_a_typed_error(tmp_path, name, package_env):
    """Exit code 1, nothing on stdout and one error line, never a traceback."""
    content, argv, where = _BAD_INPUTS[name]
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "superbridge.cli", *argv, str(path)],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if where:
        assert lines[0].startswith(f"error: {path}{where}")


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (b"0 0 0\n1/0 0 0\n0 1 0\n", ["find"], "{path}:2: bad coordinate: zero denominator in '1/0'"),
        (None, [*_SEARCH, "--screen-samples", "0", "--out"], "screen sample count must be >= 1, got 0"),
    ],
)
def test_bad_input_message_names_the_problem(tmp_path, package_env, content, argv, message):
    """Exit code 1 and exactly one error line that names the bad value."""
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "superbridge.cli", *argv, str(path)],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", _data("realizations/9_22.txt")],
        ["table", "--metadata", _data("metadata/rolfsen.csv")],
    ],
)
def test_closed_stdout_exits_1_silently(argv, package_env):
    """``sb ... | head`` after head has exited: exit 1, nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superbridge.cli", *argv],
            env=package_env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_pose_on_large_coordinates_is_not_called_collinear(tmp_path, capsys):
    """The right-angled 10^170 polygon fails on size, not as collinear."""
    path = tmp_path / "pose.txt"
    path.write_bytes(_POSE_1E170)
    assert main(["normalize", "--pose", str(path)]) == 1
    err = capsys.readouterr().err
    assert "collinear" not in err
    assert err == "error: pose: coordinates too large for the floating-point pose\n"


def test_json_records_are_verified_exactly_when_they_claim(tmp_path, capsys):
    """Every ``--json`` record of ``sb verify``, ``exact`` and ``find`` starts
    with knot, n, claim, verified, and ``verified`` is ``claim is not None``:
    on every shipped realization and certificate, a tampered certificate and
    a polygon whose search yields evidence."""
    tampered = tmp_path / "9_22.cert"
    tampered.write_text(
        (data_root() / "certificates" / "9_22.cert").read_text(encoding="utf-8").replace("u: 1", "u: 2", 1)
    )
    skew = tmp_path / "skew.txt"
    skew.write_text("0 0 0\n1 0 1\n1 1 0\n0 1 1\n")
    certs = sorted(map(str, (data_root() / "certificates").glob("*.cert")))
    coords = [*sorted(map(str, (data_root() / "realizations").glob("*.txt"))), str(skew)]
    records = {"verify": [], "exact": [], "find": []}
    for path in [*certs, str(tampered)]:
        main(["verify", path, "--json"])
        records["verify"] += json.loads(capsys.readouterr().out)["results"]
    for command in ("exact", "find"):
        for path in coords:
            assert main([command, path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("schema") == 1
            records[command].append(payload)
    assert [len(r) for r in records.values()] == [21, 23, 23]
    for command, recs in records.items():
        for rec in recs:
            assert list(rec)[:4] == ["knot", "n", "claim", "verified"], (command, rec)
            assert rec["verified"] == (rec["claim"] is not None), (command, rec)
    assert [r["verified"] for r in records["verify"]] == [True] * 20 + [False]
    assert not records["find"][-1]["verified"] and records["find"][-1]["evidence"]


@pytest.mark.parametrize(
    "name, check", [("9_22", "nonzero_residual"), ("9_36", "uncovered_system")]
)
def test_tampered_thousand_digit_certificate_fails_in_known_time(tmp_path, package_env, name, check):
    """A shipped certificate with every entry scaled to 1,000+ digits and one
    entry then bumped by 1: ``sb verify`` under ``python -O`` exits 1 with
    the failing check within 10 s (0.16 s wall with process start on a
    2-core Xeon, Python 3.11.7)."""
    doc = load_certificate_document(data_root() / "certificates" / f"{name}.cert")
    scale = 10**999 + 7
    if doc.bundle.vector is not None:
        vector = [x * scale for x in doc.bundle.vector]
        vector[3] += 1
        bundle = CertificateBundle(vector=tuple(vector))
    else:
        matrix = [[x * scale for x in row] for row in doc.bundle.matrix]
        matrix[1][7] += 1
        bundle = CertificateBundle(matrix=tuple(map(tuple, matrix)))
    path = tmp_path / f"{name}.cert"
    save_certificate_document(CertificateDocument(knot=doc.knot, bundle=bundle), path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "superbridge.cli", "verify", str(path)],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith(f"{name}: INVALID ({check}: "), proc.stdout


def test_witness_of_four_thousand_digit_coordinates_in_known_time(tmp_path, package_env):
    """``sb exact`` on the 5-gon (0,0,0), (B,1,0), (1,B,2), (0,3,B), (2,0,1)
    with B = 10^3999 + 7 needs a witness K = 2^t of about 13,000 bits. Each
    trial is n shift-adds, so the run takes under 2 s of CPU (0.8 s on a
    2-core Xeon, Python 3.11.7). It exits 1 because the witness has more
    digits than Python converts to text."""
    b = str(10**3999 + 7)
    path = tmp_path / "huge5.txt"
    path.write_text(f"0 0 0\n{b} 1 0\n1 {b} 2\n0 3 {b}\n2 0 1\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "superbridge.cli", "exact", str(path)],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == (
        "error: an output integer exceeds Python's 4300-digit limit on integer-to-string conversion\n"
    )
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2


def test_exact_on_thousand_digit_rationals_in_known_time(tmp_path, package_env):
    """``sb exact`` on a seeded 8-gon whose 24 coordinates have random
    1,000-digit numerators and denominators: the kernel's Python-int
    products, the witness trials and the gcds of the primitive rows take
    under 10 s of CPU together (2.0 s on a 2-core Xeon, Python 3.11.7), and
    the run exits 1 because the witness has more digits than Python
    converts to text."""
    rng = random.Random(8)
    big = [rng.randint(10**999, 10**1000 - 1) for _ in range(48)]
    coords = [f"{rng.choice(['', '-'])}{a}/{b}" for a, b in zip(big[0::2], big[1::2])]
    path = tmp_path / "huge8.txt"
    path.write_text("".join(" ".join(coords[i : i + 3]) + "\n" for i in range(0, 24, 3)))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "superbridge.cli", "exact", str(path)],
        env=package_env, capture_output=True, text=True, timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == (
        "error: an output integer exceeds Python's 4300-digit limit on integer-to-string conversion\n"
    )
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 10


def test_normalize_to_sixty_thousand_digits_in_known_time(tmp_path, package_env):
    """``sb normalize --digits 60000`` finds its power-of-ten scale in a step
    or two, not one step per digit, so it exits 1 on the output digit limit
    within 2 s of CPU (0.3 s wall with process start on a 2-core Xeon,
    Python 3.11.7)."""
    path = tmp_path / "third.txt"
    path.write_text("0 0 0\n1 0 0\n0 1 1/3\n0 0 1\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "superbridge.cli", "normalize", str(path), "--digits", "60000"],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == (
        "error: an output integer exceeds Python's 4300-digit limit on integer-to-string conversion\n"
    )
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2


@pytest.mark.parametrize("command", ["find", "exact"])
def test_exponent_token_past_the_digit_limit_fails_in_known_time(tmp_path, package_env, command):
    """``1e200000`` stands for a 200,001-digit integer, which Python's
    4300-digit limit would refuse as a plain digit string, so the 5-gon
    with it as a coordinate is a bad coordinate within 2 s of CPU instead
    of a computation on that integer."""
    path = tmp_path / "exp5.txt"
    path.write_text("0 0 0\n1e200000 1 0\n1 2 3\n0 3 1\n2 0 1\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "superbridge.cli", command, str(path)],
        env=package_env, capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == (
        f"error: {path}:2: bad coordinate: '1e200000' expands past the 4300-digit input limit\n"
    )
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2


def test_radius_below_half_fails_within_a_second(tmp_path, capsys):
    start = time.perf_counter()
    assert main([*_SEARCH, "--radius", "49/100", "--out", str(tmp_path)]) == 1
    assert time.perf_counter() - start < 1
    assert "1/2" in capsys.readouterr().err


# Runs ``sb`` with the arguments after ``-c`` (none: only imports the
# package), then reports on stderr whether numpy was ever imported.
_REPORT_NUMPY = (
    "import sys\n"
    "import superbridge\n"
    "from superbridge.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "sys.stdout.flush()\n"
    "print('numpy:', 'numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _run_reporting_numpy(argv, package_env) -> tuple[str, bool]:
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_NUMPY, *argv],
        env=package_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = proc.stderr.splitlines()[-1]
    assert report in ("numpy: False", "numpy: True"), proc.stderr
    return proc.stdout, report == "numpy: True"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify", *sorted(str(p) for p in (data_root() / "certificates").iterdir())],
        ["find", _data("realizations/9_22.txt")],
        ["find", _data("realizations/12n_225.txt")],
        ["table", "--metadata", _data("metadata/rolfsen.csv")],
        ["normalize", _data("realizations/9_22.txt"), "--pose", "--digits", "3"],
    ],
    ids=["import", "verify", "find_even", "find_odd", "table", "normalize"],
)
def test_certificate_commands_leave_numpy_unloaded(argv, package_env):
    """Importing the package and checking or finding certificates never
    import numpy: only the arrangement kernel and the screen need it."""
    out, numpy_loaded = _run_reporting_numpy(argv, package_env)
    assert not numpy_loaded
    if argv[:1] == ["verify"]:
        assert out.count(": certified sb <= ") == 20


@pytest.mark.parametrize(
    "name, digest",
    [
        ("9_22", "9d0ed1983e7b2e972914c3c70e2a3de9ef5e024aca42b5c264dff3c3c634317e"),
        ("12n_225", "d0fef8f0f41230d85033013e6f8305a0003ee4cc7793fea345e08a0fa8ad8c1d"),
    ],
)
def test_exact_loads_numpy_on_demand_with_unchanged_output(name, digest, package_env):
    """``sb exact`` imports the kernel, and numpy with it, on its first call;
    its output is pinned by sha256."""
    out, numpy_loaded = _run_reporting_numpy(["exact", _data(f"realizations/{name}.txt")], package_env)
    assert numpy_loaded
    assert hashlib.sha256(out.encode()).hexdigest() == digest
