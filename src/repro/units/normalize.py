"""Unit-string cleaning (paper §II-C).

"we applied WordNet Lemmatization ... on all the units present in our
recipes and USDA-SR database then took the first word and applied
Regular Expression (regex) to obtain a cleaner version containing only
alphabets (this helps us to ignore noise and keep relevant part like
taking pat out of 'pat (1" sq, 1/3" high)')."

The cleaning order matters and is reproduced exactly:

1. lower-case, split off parentheticals,
2. take the first word,
3. strip non-alphabetic characters,
4. lemmatize,
5. map through the alias table to the canonical unit.

A special case: "fl oz" must survive as a two-word unit, so "fl" is
joined with a following "oz" before the first-word rule applies.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.text.lemmatizer import default_lemmatizer
from repro.units.aliases import canonicalize_unit

_ALPHA_RE = re.compile(r"[^a-z]+")

# Words that precede the real unit and should be skipped, e.g.
# "heaping tablespoon", "level tsp", "scant cup".
_QUALIFIERS: frozenset[str] = frozenset(
    {"heaping", "heaped", "level", "scant", "rounded", "generous", "big",
     "good"}
)


def clean_unit_token(raw: str) -> str | None:
    """Steps 1–4: produce the cleaned, lemmatized first word of *raw*.

    Returns ``None`` when nothing alphabetic survives ("1/2", "").
    """
    if not raw:
        return None
    text = raw.lower()
    # Cut everything from the first parenthetical: the paper's example
    # 'pat (1" sq, 1/3" high)' keeps only 'pat'.
    text = text.split("(", 1)[0]
    words = text.replace(",", " ").split()
    for word in words:
        stripped = _ALPHA_RE.sub("", word)
        if not stripped or stripped in _QUALIFIERS:
            continue
        if stripped == "fl" or stripped == "fluid":
            # Re-join the split "fl oz" so the alias table sees "floz".
            rest = words[words.index(word) + 1 :] if word in words else []
            for nxt in rest:
                nxt_stripped = _ALPHA_RE.sub("", nxt)
                if nxt_stripped in ("oz", "ounce", "ounces"):
                    return "floz"
            return "fluid"  # bare "fluid"; canonicalization will fail it
        if stripped == "extra":
            # "extra large" / "extra-large" is one size unit.
            rest = words[words.index(word) + 1 :] if word in words else []
            for nxt in rest:
                if _ALPHA_RE.sub("", nxt).startswith("large"):
                    return "extralarge"
            return "extra"
        return default_lemmatizer().lemmatize(stripped)
    return None


@lru_cache(maxsize=8192)
def normalize_unit(raw: str) -> str | None:
    """Full pipeline: raw unit text -> canonical unit name (or ``None``).

    Memoized: the unit strings of a corpus and of the food portions
    are a vocabulary of a few hundred, looked up once per line.

    >>> normalize_unit('pat (1" sq, 1/3" high)')
    'pat'
    >>> normalize_unit("Tbsps")
    'tablespoon'
    >>> normalize_unit("cups, sliced")
    'cup'
    >>> normalize_unit("fl oz")
    'fluid ounce'
    """
    cleaned = clean_unit_token(raw)
    if cleaned is None:
        return None
    canonical = canonicalize_unit(cleaned)
    if canonical is not None:
        return canonical
    # The lemma may differ from the alias table key only by an "s" the
    # lemmatizer kept (e.g. unknown plural); try a bare s-strip.
    if cleaned.endswith("s"):
        return canonicalize_unit(cleaned[:-1])
    return None
