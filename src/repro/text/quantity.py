"""Quantity normalization (paper §II-C).

The paper preprocesses quantities "to match a specific numerical value:
'2-4' was averaged to 3, '2 1/2' was converted to 2.5 and so on".  This
module parses every quantity shape observed in RecipeDB-style phrases:

* plain integers and decimals — ``"3"``, ``"2.5"``
* fractions — ``"1/2"``, ``"3 / 4"``
* mixed numbers — ``"2 1/2"``, ``"1-1/2"``, ``"2½"`` (after unicode
  normalization by :mod:`repro.text.tokenize`)
* ranges, averaged — ``"2-4"`` -> 3, ``"2 to 4"`` -> 3, ``"2 or 3"`` -> 2.5
* number words — ``"one"``, ``"a dozen"``

Every parsed value is finite: a digit run too long for a float
(``"9" * 400``) is unparseable, not infinite.
"""

from __future__ import annotations

import math
import re

from repro.text.tokenize import normalize_unicode


class QuantityParseError(ValueError):
    """Raised when a quantity string cannot be interpreted as a number."""


NUMBER_WORDS: dict[str, float] = {
    "a": 1.0,
    "an": 1.0,
    "one": 1.0,
    "two": 2.0,
    "three": 3.0,
    "four": 4.0,
    "five": 5.0,
    "six": 6.0,
    "seven": 7.0,
    "eight": 8.0,
    "nine": 9.0,
    "ten": 10.0,
    "eleven": 11.0,
    "twelve": 12.0,
    "dozen": 12.0,
    "half": 0.5,
    "quarter": 0.25,
    "couple": 2.0,
    "few": 3.0,
    "several": 3.0,
}

_FRACTION_RE = re.compile(r"^(\d+)\s*/\s*(\d+)$")
_MIXED_RE = re.compile(r"^(\d+)[\s-]+(\d+)\s*/\s*(\d+)$")
_RANGE_RE = re.compile(
    r"^(?P<lo>[\d./\s]+?)\s*(?:-|–|—|\bto\b|\bor\b)\s*(?P<hi>[\d./\s]+?)$"
)
_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$")


def _parse_simple(text: str) -> float:
    """Parse an integer, decimal, fraction or mixed number."""
    text = text.strip()
    m = _MIXED_RE.match(text)
    if m:
        whole, num, den = (int(g) for g in m.groups())
        if den == 0:
            raise QuantityParseError(f"zero denominator in {text!r}")
        return whole + num / den
    m = _FRACTION_RE.match(text)
    if m:
        num, den = (int(g) for g in m.groups())
        if den == 0:
            raise QuantityParseError(f"zero denominator in {text!r}")
        return num / den
    if _NUMBER_RE.match(text):
        return float(text)
    word = text.lower()
    if word in NUMBER_WORDS:
        return NUMBER_WORDS[word]
    raise QuantityParseError(f"unparseable quantity: {text!r}")


def parse_quantity(text: str) -> float:
    """Parse a quantity string to a single float (ranges are averaged).

    >>> parse_quantity("2 1/2")
    2.5
    >>> parse_quantity("2-4")
    3.0
    >>> parse_quantity("1/8")
    0.125

    Raises
    ------
    QuantityParseError
        If no numeric interpretation exists, or the value is not a
        finite float (overflowing digit runs, huge fractions).
    """
    if not text or not text.strip():
        raise QuantityParseError("empty quantity string")
    try:
        value = _parse_normalized(normalize_unicode(text).strip().lower())
    except QuantityParseError:
        raise
    except (OverflowError, ValueError) as exc:
        # int / int past float range, or a digit run past int()'s limit.
        raise QuantityParseError(f"quantity out of range: {text!r}") from exc
    if not math.isfinite(value):
        raise QuantityParseError(f"quantity out of range: {text!r}")
    return value


def _parse_normalized(text: str) -> float:
    """:func:`parse_quantity` on normalized, lower-cased text."""
    # "a dozen" / "one dozen" multiplies.
    parts = text.split()
    if len(parts) == 2 and parts[1] == "dozen":
        return _parse_simple(parts[0]) * 12.0

    # Mixed numbers look like ranges to the range regex ("2 1/2" has a
    # space, "1-1/2" has a dash), so try simple parsing first.
    try:
        return _parse_simple(text)
    except QuantityParseError:
        pass

    m = _RANGE_RE.match(text)
    if m:
        lo = _parse_simple(m.group("lo"))
        hi = _parse_simple(m.group("hi"))
        return (lo + hi) / 2.0

    raise QuantityParseError(f"unparseable quantity: {text!r}")


def try_parse_quantity(text: str) -> float | None:
    """Like :func:`parse_quantity` but returns ``None`` on failure."""
    try:
        return parse_quantity(text)
    except QuantityParseError:
        return None


def format_quantity(value: float) -> str:
    """Render a float quantity the way recipes print it (1/2, 2 1/2, 3).

    Inverse-ish of :func:`parse_quantity` for common cooking fractions;
    used by the synthetic corpus generator.
    """
    if value < 0:
        raise ValueError(f"negative quantity: {value}")
    whole = int(value)
    frac = value - whole
    common = {
        0.125: "1/8",
        0.25: "1/4",
        1 / 3: "1/3",
        0.375: "3/8",
        0.5: "1/2",
        0.625: "5/8",
        2 / 3: "2/3",
        0.75: "3/4",
        0.875: "7/8",
    }
    for target, text in common.items():
        if abs(frac - target) < 1e-6:
            return f"{whole} {text}" if whole else text
    if frac < 1e-6:
        return str(whole)
    return f"{value:.10g}"
