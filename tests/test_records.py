import pytest

from hspstats.errors import ValidationError
from hspstats.records import OutputRecord, SCHEMA_VERSION, parse, render


def sample():
    return OutputRecord(
        schema_version=SCHEMA_VERSION,
        command="pmf",
        inputs={"mu": 0.0123456789012345678, "stat": "poisson", "n": 3,
                "flag": True, "empty": None},
        rows=[
            {"n": 0, "p": 0.1, "label": "a,b", "err": None},
            {"n": 1, "p": -0.0, "label": "plain", "err": "no-herald"},
        ],
    )


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_equivalent_after_round_trip(self, fmt):
        rec = sample()
        back = parse(render(rec, fmt))
        assert back == rec

    def test_floats_survive_at_full_precision(self):
        value = 0.1 + 0.2  # not 0.3: the 17-digit form must preserve it
        rec = OutputRecord(SCHEMA_VERSION, "x", {}, [{"v": value}])
        for fmt in ("csv", "json"):
            assert parse(render(rec, fmt)).rows[0]["v"] == value

    def test_csv_quotes_embedded_commas(self):
        text = render(sample(), "csv")
        assert '"a,b"' in text

    def test_formats_encode_identical_values(self):
        rec = sample()
        assert parse(render(rec, "csv")).rows == parse(render(rec, "json")).rows

    def test_rows_empty(self):
        rec = OutputRecord(SCHEMA_VERSION, "verify", {"matrix": "tiny"}, [])
        for fmt in ("csv", "json"):
            assert parse(render(rec, fmt)) == rec


class TestParsing:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValidationError):
            render(sample(), "xml")

    def test_rejects_csv_without_metadata(self):
        with pytest.raises(ValidationError):
            parse("a,b\n1,2\n")

    def test_rejects_json_missing_field(self):
        with pytest.raises(ValidationError):
            parse('{"schema_version": "1", "command": "pmf", "inputs": {}}')

    def test_rejects_malformed_metadata_line(self):
        with pytest.raises(ValidationError, match="malformed metadata line: '# command'"):
            parse("# schema_version=1\n# command\nn\n0\n")

    def test_booleans_round_trip_through_csv(self):
        rec = OutputRecord(SCHEMA_VERSION, "x", {"on": True, "off": False}, [{"b": False}])
        back = parse(render(rec, "csv"))
        assert back == rec and back.inputs["off"] is False and back.rows[0]["b"] is False

    def test_integer_vs_float_distinction(self):
        rec = OutputRecord(SCHEMA_VERSION, "x", {}, [{"count": 7, "rate": 7.0}])
        back = parse(render(rec, "csv"))
        assert back.rows[0]["count"] == 7 and isinstance(back.rows[0]["count"], int)
        assert isinstance(back.rows[0]["rate"], float)
