"""Tokenization for ingredient phrases and food descriptions.

Recipe text is noisy: unicode vulgar fractions ("½"), mixed numbers
("2 1/2"), hyphenated states ("hard-cooked"), inch marks inside unit
descriptions ('pat (1" sq, 1/3" high)'), and stray punctuation from web
scraping (" , finely chopped"). The tokenizer below normalizes unicode
fractions to ASCII and splits text into word, number and punctuation
tokens while keeping fractions ("1/2") and decimals ("2.5") intact.
"""

from __future__ import annotations

import re

# Unicode vulgar fractions normalized to ASCII "n/d" so downstream
# quantity parsing sees a single representation.
UNICODE_FRACTIONS: dict[str, str] = {
    "¼": "1/4",
    "½": "1/2",
    "¾": "3/4",
    "⅐": "1/7",
    "⅑": "1/9",
    "⅒": "1/10",
    "⅓": "1/3",
    "⅔": "2/3",
    "⅕": "1/5",
    "⅖": "2/5",
    "⅗": "3/5",
    "⅘": "4/5",
    "⅙": "1/6",
    "⅚": "5/6",
    "⅛": "1/8",
    "⅜": "3/8",
    "⅝": "5/8",
    "⅞": "7/8",
}

_FRACTION_SLASHES = ("⁄", "∕")  # fraction slash, division slash

# A token is (in priority order): a fraction, a decimal/integer, a word
# (letters with internal hyphens/apostrophes, e.g. "hard-cooked"), a
# percent sign glued to digits is split by the number rule, or any single
# non-space character (punctuation).
_TOKEN_RE = re.compile(
    r"""
    \d+\s*/\s*\d+            # fractions: 1/2, 1 / 2
    | \d+\.\d+               # decimals: 2.5
    | \d+                    # integers
    | [A-Za-z]+(?:[-'][A-Za-z]+)*   # words incl. hyphenated/apostrophe
    | [^\sA-Za-z0-9]         # any punctuation mark
    """,
    re.VERBOSE,
)


def normalize_unicode(text: str) -> str:
    """Replace unicode vulgar fractions and fraction slashes with ASCII.

    A digit immediately followed by a vulgar fraction ("2½") is treated
    as a mixed number and a space is inserted ("2 1/2").
    """
    for slash in _FRACTION_SLASHES:
        text = text.replace(slash, "/")
    out: list[str] = []
    for ch in text:
        frac = UNICODE_FRACTIONS.get(ch)
        if frac is None:
            out.append(ch)
            continue
        if out and out[-1].isdigit():
            out.append(" ")
        out.append(frac)
    return "".join(out)


def tokenize(text: str) -> list[str]:
    """Split *text* into word, number, fraction and punctuation tokens.

    >>> tokenize("1 small onion , finely chopped")
    ['1', 'small', 'onion', ',', 'finely', 'chopped']
    >>> tokenize("2½ cups all-purpose flour")
    ['2', '1/2', 'cups', 'all-purpose', 'flour']
    """
    text = normalize_unicode(text)
    return [m.group(0).replace(" ", "") for m in _TOKEN_RE.finditer(text)]


def tokenize_fast(text: str) -> list[str]:
    """:func:`tokenize` with the normalization pass skipped for ASCII.

    :func:`normalize_unicode` only rewrites non-ASCII characters
    (vulgar fractions and fraction slashes), so it is the identity on
    any ``str.isascii()`` input — the overwhelmingly common case for
    recipe lines — and can be skipped outright.  Non-ASCII input takes
    the full :func:`tokenize` path.  Output is identical to
    :func:`tokenize` for every input; used by the columnar batch
    pipeline (:mod:`repro.core.columnar`), :func:`word_tokens` and the
    unit scan (:func:`repro.units.fallback.scan_for_unit`).
    """
    if text.isascii():
        return [m.group(0).replace(" ", "") for m in _TOKEN_RE.finditer(text)]
    return tokenize(text)


def word_tokens(text: str) -> list[str]:
    """Tokenize and keep only alphabetic tokens, lower-cased.

    Hyphenated words are split into their parts so that "low-fat"
    contributes both "low" and "fat" to a word set.

    >>> word_tokens("1/2 cup low-fat sour cream")
    ['cup', 'low', 'fat', 'sour', 'cream']
    """
    words: list[str] = []
    for token in tokenize_fast(text):
        if not any(c.isalpha() for c in token):
            continue
        for part in re.split(r"[-']", token):
            if part and any(c.isalpha() for c in part):
                words.append(part.lower())
    return words
