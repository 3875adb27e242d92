"""Tests for repro.text.quantity."""

import pytest
from hypothesis import given, strategies as st

from repro.text.quantity import (
    QuantityParseError,
    format_quantity,
    parse_quantity,
    try_parse_quantity,
)


class TestParseQuantity:
    @pytest.mark.parametrize("text,value", [
        ("3", 3.0),
        ("2.5", 2.5),
        ("1/2", 0.5),
        ("1/8", 0.125),
        ("3 / 4", 0.75),
        ("2 1/2", 2.5),
        ("1-1/2", 1.5),
        ("2-4", 3.0),          # paper: "'2-4' was averaged to 3"
        ("2 to 4", 3.0),
        ("2 or 3", 2.5),
        ("½", 0.5),
        ("2½", 2.5),
        ("one", 1.0),
        ("a", 1.0),
        ("a dozen", 12.0),
        ("2 dozen", 24.0),
        ("half", 0.5),
    ])
    def test_values(self, text, value):
        assert parse_quantity(text) == pytest.approx(value)

    @pytest.mark.parametrize("bad", ["", "   ", "abc", "1/0", "to", "-"])
    def test_unparseable_raises(self, bad):
        with pytest.raises(QuantityParseError):
            parse_quantity(bad)

    def test_range_with_spaces(self):
        assert parse_quantity("2 - 4") == 3.0

    def test_range_of_fractions(self):
        assert parse_quantity("1/2 to 3/4") == pytest.approx(0.625)

    @pytest.mark.parametrize("text", [
        "9" * 400,                       # float("9" * 400) is inf
        "9" * 400 + "/1",                # int / int overflows
        "1 " + "9" * 400 + "/1",         # mixed number overflows
        "9" * 400 + " dozen",
        "9" * 400 + "-" + "9" * 400,     # range of infinities
        "9" * 5000 + "/1",               # past int()'s digit limit
        "9" * 400 + ".5",
    ])
    def test_out_of_range_raises(self, text):
        with pytest.raises(QuantityParseError, match="out of range"):
            parse_quantity(text)

    def test_large_finite_range_still_parses(self):
        assert parse_quantity("9" * 300 + "-" + "9" * 300) == float("1e300")


class TestTryParse:
    def test_success(self):
        assert try_parse_quantity("1/4") == 0.25

    def test_failure_returns_none(self):
        assert try_parse_quantity("xyz") is None

    @pytest.mark.parametrize("text", ["9" * 400, "9" * 400 + "/1"])
    def test_overflow_returns_none(self, text):
        assert try_parse_quantity(text) is None


class TestFormatQuantity:
    @pytest.mark.parametrize("value,text", [
        (0.5, "1/2"),
        (2.5, "2 1/2"),
        (0.25, "1/4"),
        (3.0, "3"),
        (1 / 3, "1/3"),
        (0.125, "1/8"),
    ])
    def test_common_fractions(self, value, text):
        assert format_quantity(value) == text

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_quantity(-1.0)

    @given(st.integers(min_value=0, max_value=20),
           st.sampled_from([0.0, 0.125, 0.25, 1 / 3, 0.5, 2 / 3, 0.75]))
    def test_round_trip(self, whole, frac):
        value = whole + frac
        if value == 0:
            return
        assert parse_quantity(format_quantity(value)) == pytest.approx(value)

    @given(st.floats(min_value=0.01, max_value=500, allow_nan=False))
    def test_format_always_parseable(self, value):
        assert parse_quantity(format_quantity(value)) == pytest.approx(
            value, rel=1e-6)
