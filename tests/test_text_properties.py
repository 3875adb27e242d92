"""Hypothesis properties at the text boundaries.

Quantity parsing and tokenizing see every ingredient line verbatim,
service payloads included, so they must hold for hostile text too:

* :func:`try_parse_quantity` never raises and returns ``None`` or a
  finite float ``>= 0`` (a non-finite quantity renders as the invalid
  JSON token ``Infinity`` in a response body);
* :func:`tokenize_fast` equals :func:`tokenize` — the columnar
  pipeline's parity with the per-line path rests on it;
* tokenizing loses nothing but whitespace.

The strategies draw the shapes recipe quantities take — long digit
runs, decimals, unicode vulgar fractions and fraction slashes, ranges,
mixed numbers, zero denominators — because uniform short text from a
small alphabet almost never builds a digit run long enough to
overflow a float.
"""

from __future__ import annotations

import math
import re

from hypothesis import given, settings, strategies as st

from repro.text.quantity import try_parse_quantity
from repro.text.tokenize import (
    UNICODE_FRACTIONS,
    normalize_unicode,
    tokenize,
    tokenize_fast,
)

_WHITESPACE = re.compile(r"\s")

digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.text("0123456789", min_size=300, max_size=450),
    st.integers(min_value=1, max_value=450).map(lambda n: "9" * n),
)
vulgar = st.sampled_from(sorted(UNICODE_FRACTIONS))
number = st.one_of(
    digits,
    st.tuples(digits, digits).map(".".join),
    st.tuples(
        digits,
        st.sampled_from(["/", " / ", "⁄", "∕"]),
        st.one_of(digits, st.just("0")),
    ).map("".join),
    st.tuples(digits, st.sampled_from(["", " "]), vulgar).map("".join),
    vulgar,
    st.sampled_from(["a", "one", "half", "dozen", "few"]),
)
quantity = st.one_of(
    number,
    st.tuples(
        number,
        st.sampled_from(
            ["-", " - ", " to ", " or ", "–", " ", "-", " dozen"]
        ),
        number,
    ).map("".join),
    st.tuples(number, st.just(" dozen")).map("".join),
    st.text("0123456789/.- ½¼⁄to", max_size=30),
)
phrase = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.one_of(
            quantity,
            st.sampled_from(
                ["cups", "tbsp", "flour", "hard-cooked", "'s", ",", "(",
                 ")", '"', "é", "٣", "\t", "\n", "  "]
            ),
        ),
        max_size=8,
    ).map(" ".join),
)


@settings(max_examples=400, deadline=None)
@given(quantity)
def test_try_parse_quantity_is_total_and_finite(text):
    value = try_parse_quantity(text)
    assert value is None or (
        isinstance(value, float) and math.isfinite(value) and value >= 0
    )


@settings(max_examples=400, deadline=None)
@given(phrase)
def test_try_parse_quantity_never_raises_on_phrases(text):
    value = try_parse_quantity(text)
    assert value is None or (math.isfinite(value) and value >= 0)


@settings(max_examples=400, deadline=None)
@given(phrase)
def test_tokenize_fast_equals_tokenize(text):
    assert tokenize_fast(text) == tokenize(text)


@settings(max_examples=400, deadline=None)
@given(phrase)
def test_tokens_keep_every_non_space_character(text):
    tokens = tokenize(text)
    assert all(tokens)
    assert _WHITESPACE.sub("", "".join(tokens)) == _WHITESPACE.sub(
        "", normalize_unicode(text)
    )
