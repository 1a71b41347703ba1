import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbridge import (
    DegeneratePolygon,
    InvalidCertificate,
    PolygonalKnot,
    load_certificate,
    load_certificate_document,
    load_realization,
    save_realization,
    verify_bundle,
    verify_entry,
)
from superbridge import corpus as corpus_mod
from superbridge.corpus import (
    ParseError,
    SuperbridgeError,
    _vertex_row,
    corpus_entries,
    corpus_entry,
    data_root,
    save_certificate_document,
)
from superbridge.linalg import rational


def _data(rel):
    return data_root() / rel


class TestRealizationFiles:
    def test_nine_25_shape(self):
        knot = load_realization(_data("realizations/9_25.txt"))
        assert knot.n == 11
        assert knot.vertices[1] == (1000, 0, 0)

    def test_comments_and_rationals(self, tmp_path):
        f = tmp_path / "toy.txt"
        f.write_text("# comment line\n0 0 0\n1/2 0 0  # inline\n1/2 1/3 0\n")
        knot = load_realization(f)
        assert knot.name == "toy"
        assert knot.n == 3

    def test_duplicate_vertex_rejected(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("0 0 0\n1 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(DegeneratePolygon):
            load_realization(f)

    def test_bad_arity_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 0 0\n1 0\n")
        with pytest.raises(ParseError) as exc:
            load_realization(f)
        assert exc.value.line_no == 2

    def test_bad_token_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 0 0\n1 0 zero\n1 1 0\n")
        with pytest.raises(ParseError) as exc:
            load_realization(f)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "tok",
        ["1_000", "١٢", "1e3", "+7", "-0", "07", "+-5", "-3/4", "9" * 4301, "-" + "0" * 4400, "1e200000"],
    )
    def test_vertex_tokens_read_as_rational_reads_them(self, tok):
        """Integer tokens take a faster path through ``int``; every token,
        on this Python, still gets the value or the error ``rational`` gives."""
        try:
            want = (rational(tok), Fraction(0), Fraction(0))
        except ValueError as exc:
            with pytest.raises(ParseError) as err:
                _vertex_row("v.txt", 3, f"{tok} 0 0")
            assert str(err.value) == f"v.txt:3: bad coordinate: {exc}"
        else:
            assert _vertex_row("v.txt", 3, f"{tok} 0 0") == want

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n")
        with pytest.raises(ParseError):
            load_realization(f)

    def test_round_trip_identity(self, corpus, tmp_path):
        for name, entry in corpus.items():
            path = tmp_path / f"{name}.txt"
            save_realization(entry.knot, path)
            again = load_realization(path)
            assert again.vertices == entry.knot.vertices


_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


@given(coords=st.lists(st.tuples(_rationals, _rationals, _rationals), min_size=3, max_size=9))
@settings(max_examples=60, deadline=None)
def test_round_trip_arbitrary_rationals(coords, tmp_path_factory):
    try:
        knot = PolygonalKnot.from_coordinates("fuzz", coords)
    except DegeneratePolygon:
        return
    path = tmp_path_factory.mktemp("rt") / "fuzz.txt"
    save_realization(knot, path)
    assert load_realization(path).vertices == knot.vertices


_SQUARE = "knot: sq\nparity: even\nvertices:\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
_TRIANGLE = "knot: t\nparity: odd\nvertices:\n0 0 0\n2 0 0\n1 1 0\n"


class TestCertificateFiles:
    def test_nine_36_matrix_entry(self):
        bundle = load_certificate(_data("certificates/9_36.cert"))
        assert bundle.matrix is not None
        assert bundle.matrix[1][7] == 12523027847

    def test_12n60_vector(self):
        bundle = load_certificate(_data("certificates/12n_60.cert"))
        assert bundle.vector == (
            1, 1, 1, 251677634, 1, 1, 221757579, 5, 29397800, 2012040, 102253303, 35434657,
        )

    def test_truncated_matrix_rejected(self, tmp_path, corpus):
        text = _data("certificates/9_36.cert").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        f = tmp_path / "trunc.cert"
        f.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError):
            load_certificate_document(f)

    def test_wrong_vector_length_rejected(self, tmp_path):
        f = tmp_path / "short.cert"
        f.write_text(
            "knot: sq\nparity: even\nvertices:\n0 0 0\n1 0 0\n1 1 0\n0 1 0\nu: 1 0 1\n"
        )
        with pytest.raises(ParseError):
            load_certificate_document(f)

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            (_SQUARE + "u: 1 0 1", 8, "u has 3 entries, expected 4"),
            (_SQUARE + "u: 1 0 1 x", 8, "bad integer: invalid literal for int() with base 10: 'x'"),
            (_SQUARE + "U:\n1 0 1 0", 8, "even parity requires a 'u:' line"),
            (_TRIANGLE + "u: 1 1 1", 7, "odd parity requires a 'U:' section"),
            (_TRIANGLE + "U:\n1 1 1\n1 1", 9, "matrix row has 2 entries, expected 3"),
            (_TRIANGLE + "U:\n1 1 1\n1 1 1/2\n1 1 1", 9, "bad integer: invalid literal for int() with base 10: '1/2'"),
            (_TRIANGLE + "U:\n1 1 1\n1 1 1", 9, "matrix has 2 rows, expected 3"),
        ],
    )
    def test_bundle_errors_name_their_line(self, tmp_path, text, line_no, message):
        f = tmp_path / "bad.cert"
        f.write_text(text + "\n")
        with pytest.raises(ParseError) as exc:
            load_certificate_document(f)
        assert str(exc.value) == f"{f}:{line_no}: {message}"

    @pytest.mark.parametrize("extra", ["garbage here", "u: 1 2 3", "{last}", "U:"])
    def test_document_ends_at_its_bundle(self, tmp_path, extra):
        """Blank and comment lines may follow the bundle; a content line may not."""
        for cert in sorted(_data("certificates").iterdir(), key=lambda p: p.name):
            lines = cert.read_text(encoding="utf-8").splitlines()
            path = tmp_path / cert.name
            path.write_text("\n".join([*lines, "", "# a closing comment"]) + "\n")
            assert load_certificate_document(path).bundle == load_certificate(cert)
            path.write_text("\n".join([*lines, extra.format(last=lines[-1])]) + "\n")
            with pytest.raises(ParseError, match="unexpected content after the bundle") as exc:
                load_certificate_document(path)
            assert exc.value.line_no == len(lines) + 1, cert.name

    def test_document_round_trip(self, corpus, tmp_path):
        for name, entry in corpus.items():
            if entry.certificate is None:
                continue
            from superbridge.corpus import CertificateDocument

            path = tmp_path / f"{name}.cert"
            save_certificate_document(
                CertificateDocument(knot=entry.knot, bundle=entry.certificate), path
            )
            doc = load_certificate_document(path)
            assert doc.knot.vertices == entry.knot.vertices
            assert doc.bundle == entry.certificate


class TestShippedCorpus:
    def test_count_and_split(self, corpus):
        assert len(corpus) == 22
        with_cert = {n for n, e in corpus.items() if e.certificate is not None}
        assert with_cert == set(corpus) - {"11n_72", "12n_553"}

    def test_claims(self, corpus):
        for name, entry in corpus.items():
            assert entry.claimed_sb == (4 if name.startswith("9_") else 5)

    def test_sources_present(self, corpus):
        assert corpus["9_22"].source == "Fig. 3"
        assert corpus["9_36"].source == "Fig. 4"
        assert corpus["11n_72"].source == "Cor. 2.4"
        assert all(e.source for e in corpus.values())

    def test_entry_by_name(self, corpus):
        assert corpus_entry("9_36") == corpus["9_36"]
        with pytest.raises(SuperbridgeError, match="no corpus entry named '9_99'"):
            corpus_entry("9_99")

    def test_every_entry_verifies(self, corpus):
        for entry in corpus.values():
            report = verify_entry(entry)
            assert report.verified, report
            assert report.exact_value == entry.claimed_sb
            expected = "enumeration" if entry.certificate is None else "certificate-cross-check"
            assert report.method == expected


_TOKENS = ("0", "-1", "1/0", "1e400", "nan", "x", "", str(10**30), "u:", "U:", "odd", "even")


def _mutant(rng, source):
    """One line deleted, duplicated, truncated or garbled, or one token
    changed; redrawn until the result differs from ``source``."""
    while True:
        lines = list(source)
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        elif op == 3 and lines[i]:
            k = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:k] + rng.choice("x-/.09:# ") + lines[i][k + 1 :]
        else:
            tokens = lines[i].split(" ")
            k = rng.randrange(len(tokens))
            tokens[k] = rng.choice(_TOKENS + ("-" + tokens[k], tokens[k] + "7"))
            lines[i] = " ".join(tokens)
        if lines != source:
            return lines


def test_certificate_mutants_end_in_a_typed_outcome(tmp_path, package_env):
    """Each mutant of a shipped certificate is accepted or raises ParseError or
    InvalidCertificate; ``sb verify`` exits 0 or 1 on them, never with a traceback."""
    rng = random.Random(2022)
    docs = [
        p.read_text(encoding="utf-8").splitlines()
        for p in sorted(data_root().joinpath("certificates").iterdir(), key=lambda p: p.name)
    ]
    by_outcome: dict[str, list] = {"accepted": [], "ParseError": [], "InvalidCertificate": []}
    for k in range(600):
        path = tmp_path / f"m{k}.cert"
        source = rng.choice(docs)
        mutant = _mutant(rng, source)
        assert mutant != source
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        try:
            doc = load_certificate_document(path)
            verify_bundle(doc.knot, doc.bundle)
            by_outcome["accepted"].append(path)
        except (ParseError, InvalidCertificate) as exc:
            by_outcome[type(exc).__name__].append(path)
    for outcome, paths in by_outcome.items():
        assert paths, outcome
        for path in paths[:2]:
            proc = subprocess.run(
                [sys.executable, "-m", "superbridge.cli", "verify", str(path)],
                env=package_env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == (0 if outcome == "accepted" else 1), proc.stderr
            assert "Traceback" not in proc.stderr


def test_corpus_rejects_a_certificate_whose_vertices_disagree(tmp_path, monkeypatch):
    """A certificate document must carry its realization's vertices."""
    root = tmp_path / "data"
    shutil.copytree(str(data_root()), root)
    cert = root / "certificates" / "9_3.cert"
    text = cert.read_text(encoding="utf-8")
    assert "\n1285 958 0\n" in text
    cert.write_text(text.replace("\n1285 958 0\n", "\n1285 958 1\n"), encoding="utf-8")
    monkeypatch.setattr(corpus_mod, "data_root", lambda: root)
    with pytest.raises(SuperbridgeError, match=r"^9_3: certificate vertices disagree$"):
        corpus_entries()
