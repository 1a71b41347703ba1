import json

import pytest

from superbridge.cli import main
from superbridge.corpus import data_root


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "x.cert"],
        ["search", "--edges", "6", "--target", "2", "--samples", "1", "--out", "x"],
    ],
)
def test_jobs_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "3"])
    assert exc.value.code == 2
