import csv
import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbridge import (
    KnotRecord,
    THREE_SUPERBRIDGE_CANDIDATES,
    interval,
    load_metadata_csv,
    lower_bound,
    render_table,
    upper_bound,
)
from superbridge.bounds import (
    METADATA_COLUMNS,
    BoundInterval,
    InconsistentRecord,
    NoUpperBoundAvailable,
    knot_sort_key,
)
from superbridge.corpus import data_root
from superbridge.linalg import ParseError, SuperbridgeError


def _meta(name):
    return data_root() / "metadata" / name


def dump_metadata_csv(records) -> str:
    """The metadata CSV that ``load_metadata_csv`` reads back as ``records``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(METADATA_COLUMNS)
    for r in records:
        w.writerow(
            [
                r.name,
                "" if r.bridge_index is None else r.bridge_index,
                "" if r.stick_upper is None else r.stick_upper,
                "1" if r.is_trivial else "0",
                "1" if r.jeon_jin_exception else "0",
                "" if r.certified_upper is None else r.certified_upper,
                "" if r.known_exact is None else r.known_exact,
                r.citation,
            ]
        )
    return buf.getvalue()


class TestLowerBound:
    def test_unknot(self):
        assert lower_bound(KnotRecord(name="0_1", is_trivial=True, known_exact=1)) == 1

    def test_exception_knot_with_two_bridges(self):
        r = KnotRecord(name="5_2", bridge_index=2, stick_upper=8)
        assert lower_bound(r) == 3

    def test_four_bridge_knot(self):
        r = KnotRecord(name="11n_72", bridge_index=4, stick_upper=11)
        assert lower_bound(r) == 5

    def test_unknown_bridge_defaults_low(self):
        r = KnotRecord(name="9_2", stick_upper=10)
        assert lower_bound(r) == 4
        r = KnotRecord(name="5_2", stick_upper=8)
        assert lower_bound(r) == 3

    def test_known_exact_lifts_lower(self):
        r = KnotRecord(name="10_124", known_exact=5)
        assert lower_bound(r) == 5


class TestUpperBound:
    def test_stick_only(self):
        assert upper_bound(KnotRecord(name="x_1", stick_upper=11)) == 5
        assert upper_bound(KnotRecord(name="x_1", stick_upper=8)) == 4

    def test_certificate_beats_stick(self):
        r = KnotRecord(name="9_22", stick_upper=10, certified_upper=4)
        assert upper_bound(r) == 4

    def test_nothing_available(self):
        with pytest.raises(NoUpperBoundAvailable):
            upper_bound(KnotRecord(name="x_1", bridge_index=2))


class TestInterval:
    def test_five_two(self):
        r = KnotRecord(name="5_2", stick_upper=8)
        assert str(interval(r)) == "[3,4]"

    def test_certified_exact(self):
        r = KnotRecord(name="9_3", certified_upper=4)
        iv = interval(r)
        assert (iv.lo, iv.hi) == (4, 4)
        assert str(iv) == "4"

    def test_known_exact(self):
        iv = interval(KnotRecord(name="10_124", known_exact=5))
        assert (iv.lo, iv.hi) == (5, 5)

    def test_inconsistent(self):
        with pytest.raises(InconsistentRecord):
            interval(KnotRecord(name="bad_1", bridge_index=9, certified_upper=4))

    def test_candidates_derive_the_exception(self):
        """Candidate-list membership is derived from the name, never set."""
        assert [f.name for f in dataclasses.fields(KnotRecord)] == [
            "name", "bridge_index", "stick_upper", "is_trivial", "certified_upper", "known_exact",
            "citation",
        ]
        for name in sorted(THREE_SUPERBRIDGE_CANDIDATES):
            r = KnotRecord(name=name, bridge_index=2, stick_upper=6)
            assert r.jeon_jin_exception and str(interval(r)) == "3", name
        r = KnotRecord(name="9_3", bridge_index=2, stick_upper=10)
        assert not r.jeon_jin_exception and lower_bound(r) == 4
        with pytest.raises(AttributeError):
            r.jeon_jin_exception = True
        with pytest.raises(TypeError):
            KnotRecord(name="9_3", jeon_jin_exception=True)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: KnotRecord(name="3_1", bridge_index=0), "bridge index must be >= 1"),
        (lambda: KnotRecord(name="3_1", stick_upper=2), "stick number must be >= 3"),
        (lambda: BoundInterval(0, 3), r"bad interval \[0, 3\]"),
        (lambda: BoundInterval(5, 4), r"bad interval \[5, 4\]"),
    ],
)
def test_record_and_interval_validation(make, message):
    with pytest.raises(SuperbridgeError, match=message):
        make()


@given(
    bridge=st.one_of(st.none(), st.integers(1, 6)),
    stick=st.one_of(st.none(), st.integers(6, 16)),
    certified=st.one_of(st.none(), st.integers(3, 8)),
)
@settings(max_examples=80, deadline=None)
def test_bound_monotonicity(bridge, stick, certified):
    base = KnotRecord(name="9_99", bridge_index=bridge, stick_upper=stick or 12)
    with_cert = KnotRecord(
        name="9_99", bridge_index=bridge, stick_upper=stick or 12, certified_upper=certified
    )
    assert upper_bound(with_cert) <= upper_bound(base)
    no_bridge = KnotRecord(name="9_99", stick_upper=stick or 12)
    assert lower_bound(base) >= lower_bound(no_bridge) or bridge is None


def test_jeon_jin_consistency_over_shipped_metadata():
    for path in (_meta("rolfsen.csv"), _meta("exact_values.csv")):
        for r in load_metadata_csv(path):
            if not r.is_trivial and not r.jeon_jin_exception:
                assert lower_bound(r) >= 4, r.name


class TestSortKey:
    def test_ordering(self):
        names = ["10_124", "9_3", "11a_367", "11n_71", "0_1", "13n_1177", "13n_835"]
        ordered = sorted(names, key=knot_sort_key)
        assert ordered == ["0_1", "9_3", "10_124", "11a_367", "11n_71", "13n_835", "13n_1177"]

    def test_bad_name(self):
        with pytest.raises(SuperbridgeError):
            knot_sort_key("trefoil")


class TestRenderTable:
    def test_empty(self):
        assert render_table([], fmt="text") == ""

    def test_text_rows(self):
        recs = [
            KnotRecord(name="5_2", stick_upper=8),
            KnotRecord(name="3_1", known_exact=3),
        ]
        assert render_table(recs, fmt="text") == "3_1 3\n5_2 [3,4]\n"

    def test_exact_only_filter(self):
        recs = [
            KnotRecord(name="5_2", stick_upper=8),
            KnotRecord(name="3_1", known_exact=3),
        ]
        assert render_table(recs, fmt="text", exact_only=True) == "3_1 3\n"

    def test_csv_and_json(self):
        import csv as csv_mod
        import json as json_mod

        recs = [KnotRecord(name="3_1", known_exact=3)]
        rows = list(csv_mod.reader(io.StringIO(render_table(recs, fmt="csv"))))
        assert rows == [["name", "lo", "hi"], ["3_1", "3", "3"]]
        payload = json_mod.loads(render_table(recs, fmt="json"))
        assert payload["schema"] == 1
        assert payload["rows"][0] == {"name": "3_1", "lo": 3, "hi": 3, "value": "3"}

    def test_unknown_format(self):
        with pytest.raises(SuperbridgeError):
            render_table([], fmt="yaml")


class TestMetadataCsv:
    def test_shipped_rolfsen_shape(self):
        records = load_metadata_csv(_meta("rolfsen.csv"))
        assert len(records) == 250
        names = {r.name for r in records}
        assert THREE_SUPERBRIDGE_CANDIDATES <= names
        assert sum(1 for r in records if r.is_trivial) == 1

    def test_round_trip(self):
        records = load_metadata_csv(_meta("exact_values.csv"))
        again = load_metadata_csv(io.StringIO(dump_metadata_csv(records)))
        assert records == again

    def test_flag_cross_check(self):
        text = (
            "name,bridge_index,stick_upper,trivial_flag,jeon_jin_flag,"
            "certified_upper,known_exact,citation\n"
            "9_3,,8,0,1,,,x\n"
        )
        with pytest.raises(SuperbridgeError):
            load_metadata_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "column", ["bridge_index", "stick_upper", "certified_upper", "known_exact"]
    )
    def test_non_integer_field_names_line_and_column(self, column):
        row = dict(zip(METADATA_COLUMNS, ["3_1", "2", "6", "0", "1", "", "", "x"]))
        row[column] = "2.5"
        text = ",".join(METADATA_COLUMNS) + "\n4_1,2,7,0,1,,,x\n" + ",".join(row.values()) + "\n"
        with pytest.raises(ParseError) as exc:
            load_metadata_csv(io.StringIO(text))
        assert exc.value.line_no == 3
        assert column in str(exc.value)

    def test_short_row_rejected(self):
        """A row with too few or too many fields names its line."""
        for row in ("3_1,2", "9_3,3,10,0,0,4,,this-work, extra"):
            text = ",".join(METADATA_COLUMNS) + "\n" + row + "\n"
            with pytest.raises(ParseError) as exc:
                load_metadata_csv(io.StringIO(text))
            assert exc.value.line_no == 2, row

    def test_missing_column(self):
        with pytest.raises(SuperbridgeError):
            load_metadata_csv(io.StringIO("name,citation\n3_1,x\n"))
