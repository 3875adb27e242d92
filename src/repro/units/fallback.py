"""Unit fallback heuristics (paper §II-C, last two paragraphs).

Three recovery mechanisms for phrases where NER produced no unit or a
garbled one:

* :func:`scan_for_unit` — "In certain cases NER did not detect units,
  in that scenario we searched the ingredient phrase for known units".
* :func:`plausible` — "'500 g or 1 cup' which the NER
  wrongly detected as '500 cups'.  This was dealt ... by putting a
  threshold on the quantity per unit."
* :meth:`UnitFallback.most_frequent_unit` — "wherever a unit was still
  not present, the most frequent unit for that particular ingredient
  was used ... for garlic ... it would most probably be clove."
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from functools import lru_cache

from repro.text.tokenize import tokenize_fast
from repro.units.aliases import canonicalize_unit
from repro.units.normalize import normalize_unit

#: Above this many grams, a (quantity, unit) pair for a single
#: ingredient line is implausible and treated as a mis-detection.  The
#: biggest legitimate single-ingredient amounts in recipes (a gallon of
#: water ~3.8 kg, 5 lb of flour ~2.3 kg) stay under it.
DEFAULT_MAX_GRAMS: float = 5000.0


@lru_cache(maxsize=8192)
def _scan_token_unit(token: str) -> str | None:
    """Canonical unit for one alphabetic token, for the phrase scan.

    A token counts only if its raw lower-cased spelling is itself a
    known unit alias (precision guard: "cup" scans, a lemmatizable
    near-miss does not) *and* the full normalization pipeline maps it
    to a canonical unit.  The cheap dict-membership guard runs first —
    it rejects most tokens without paying ``normalize_unit``'s
    regex + lemmatizer walk — and the result is memoized per token:
    corpus vocabulary is small and Zipf-distributed, so the scan's per
    -token work collapses to one cache hit for all repeat tokens.
    """
    if canonicalize_unit(token.lower()) is None:
        return None
    return normalize_unit(token)


def scan_for_unit(phrase: str) -> str | None:
    """Find the first known unit token inside a raw ingredient phrase.

    >>> scan_for_unit("500 g flour or 1 cup")
    'gram'
    """
    for token in tokenize_fast(phrase):
        if not token.isalpha():
            continue
        unit = _scan_token_unit(token)
        if unit is not None:
            return unit
    return None


def plausible(quantity: float, grams_per_unit: float, max_grams: float) -> bool:
    """Sanity threshold on total grams for one ingredient line."""
    return 0 < quantity * grams_per_unit <= max_grams


class UnitFallback:
    """Corpus-level unit statistics per ingredient name.

    Feed every successfully resolved (ingredient name, unit) pair with
    :meth:`observe`; query :meth:`most_frequent_unit` when a later
    phrase for the same ingredient lacks a unit.  "This works well to
    maintain consistency in the data since we have a lot of units
    corresponding to each ingredient, but only a few of them are
    dominant."
    """

    def __init__(self, max_grams: float = DEFAULT_MAX_GRAMS):
        if max_grams <= 0:
            raise ValueError(f"non-positive max_grams: {max_grams}")
        self._max_grams = max_grams
        self._counts: dict[str, Counter[str]] = defaultdict(Counter)

    @property
    def max_grams(self) -> float:
        """The plausibility threshold (grams per ingredient line)."""
        return self._max_grams

    def observe(self, ingredient: str, unit: str, count: int = 1) -> None:
        """Record *count* resolved usages of *unit* for *ingredient*.

        The weighted form exists for the corpus protocol: a distinct
        ingredient line that occurs N times contributes N observations
        in one call, which yields exactly the same counts (and the
        same key insertion order, hence the same ``most_common``
        tie-breaks) as N sequential calls.
        """
        if count <= 0:
            raise ValueError(f"non-positive observation count: {count}")
        self._counts[ingredient.lower()][unit] += count

    def most_frequent_unit(self, ingredient: str) -> str | None:
        """Dominant unit for *ingredient*, or ``None`` if never seen."""
        counts = self._counts.get(ingredient.lower())
        if not counts:
            return None
        return counts.most_common(1)[0][0]

    # ------------------------------------------------------------------
    # mergeable corpus statistics (sharded estimation protocol)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Picklable copy of the observation table.

        Both levels preserve insertion order (first-observation order),
        which :meth:`merge` relies on to reproduce single-process
        ``most_common`` tie-breaking exactly.
        """
        return {
            ingredient: dict(units)
            for ingredient, units in self._counts.items()
        }

    def merge(self, snapshot: dict[str, dict[str, int]]) -> None:
        """Add a :meth:`snapshot` (e.g. from a worker shard) into this table.

        Merging per-shard snapshots *in shard order* over contiguous
        corpus shards reproduces the exact table a single process
        builds scanning the corpus front to back: counts add, and keys
        are inserted in first-shard-that-saw-them order, which equals
        first-occurrence order.  ``Counter.most_common`` breaks count
        ties by insertion order, so the dominant-unit answers are
        identical too.
        """
        for ingredient, units in snapshot.items():
            counts = self._counts[ingredient]
            for unit, count in units.items():
                counts[unit] += count

    def observed_ingredients(self) -> list[str]:
        """All ingredient names with at least one observation."""
        return sorted(self._counts)

    def unit_distribution(self, ingredient: str) -> dict[str, int]:
        """Unit -> count for *ingredient* (empty dict if unseen)."""
        return dict(self._counts.get(ingredient.lower(), {}))


def snapshot_digest(snapshot: dict[str, dict[str, int]]) -> str:
    """Content identity of a frozen observation table.

    Serialized *without* key sorting: insertion order decides
    ``most_common`` tie-breaks, so two tables with equal counts but
    different key order can answer ``most_frequent_unit`` differently
    and must digest differently.  Estimates are a pure function of
    (line text, frozen table, database artifact), so equal digests
    under the same artifact mean equal estimates; the sharded engine
    records one per run (``RunReport.stats_digest``) so parity checks
    can compare its frozen table with the in-process path's.
    """
    payload = json.dumps(snapshot, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
