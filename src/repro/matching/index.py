"""Inverted-index candidate generation for the description matcher.

The seed matcher scored every USDA description against every query —
an O(|DB|) scan per ingredient line, with a fresh set intersection per
description.  At RecipeDB scale (millions of lines, §III) that scan is
the pipeline's hot loop.  :class:`DescriptionIndex` replaces it with a
classic inverted index built once per matcher:

    word -> posting list of description indices containing that word

plus per-description word counts (``len(B)``, the vanilla-Jaccard
denominator piece) and ``has_raw`` flags, so scoring a query only
touches descriptions that share at least one query word.

Exactness argument
------------------
Both similarity metrics the matcher uses are zero when ``A ∩ B`` is
empty, and the matcher additionally discards candidates whose overlap
misses the ingredient NAME words entirely.  Any description that can
score therefore shares at least one (name) word with the query — and
every such description appears in the posting list of that shared
word.  Walking the posting lists of the query words thus enumerates a
superset of all scoring candidates, and for each one accumulates the
exact intersection ``A ∩ B``: the integer counts feeding the Jaccard
ratios and the term-priority sums are identical to the linear scan's,
so scores, tie-breaks and winners are bit-identical (property-tested
in ``tests/test_matching_index.py``).

The index has one counting kernel per consumer: the dict walk of
:meth:`DescriptionIndex.candidate_counts` serves every single-winner
query (``match()`` and ``match_chunk``, which maps ``match()`` over a
chunk), and :meth:`DescriptionIndex.candidate_matches` serves the
ranked ``top_matches()`` view.

:func:`linear_candidate_matches` keeps the O(|DB|) reference
enumeration alive for verification and benchmarking.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.matching.preprocess import PreprocessedDescription


class DescriptionIndex:
    """Inverted index over preprocessed food descriptions."""

    def __init__(self, descriptions: Sequence[PreprocessedDescription]):
        postings: dict[str, list[int]] = {}
        for index, desc in enumerate(descriptions):
            for word in desc.words:
                postings.setdefault(word, []).append(index)
        # Posting lists are ascending by construction (descriptions are
        # enumerated in SR index order); tuples keep them immutable.
        self._postings: dict[str, tuple[int, ...]] = {
            word: tuple(indices) for word, indices in postings.items()
        }
        self._word_counts: tuple[int, ...] = tuple(
            len(d.words) for d in descriptions
        )
        self._has_raw: tuple[bool, ...] = tuple(
            d.has_raw for d in descriptions
        )

    @classmethod
    def from_parts(
        cls,
        postings: dict[str, Sequence[int]],
        word_counts: Sequence[int],
        has_raw: Sequence[bool],
    ) -> "DescriptionIndex":
        """Reconstruct an index from :meth:`to_parts` output.

        Used by :mod:`repro.artifacts` to restore a snapshot without
        re-walking the descriptions.  The parts are trusted as-is (the
        artifact layer checksums them); a round trip through
        ``from_parts(*index.to_parts())`` is equal to the original.
        """
        index = cls.__new__(cls)
        index._postings = {
            word: tuple(indices) for word, indices in postings.items()
        }
        index._word_counts = tuple(word_counts)
        index._has_raw = tuple(bool(flag) for flag in has_raw)
        return index

    def to_parts(
        self,
    ) -> tuple[dict[str, tuple[int, ...]], tuple[int, ...], tuple[bool, ...]]:
        """The index's full state: (postings, word counts, raw flags)."""
        return dict(self._postings), self._word_counts, self._has_raw

    def __len__(self) -> int:
        """Number of indexed descriptions."""
        return len(self._word_counts)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct indexed words."""
        return len(self._postings)

    def postings(self, word: str) -> tuple[int, ...]:
        """Description indices containing *word* (ascending; () if none)."""
        return self._postings.get(word, ())

    def word_count(self, index: int) -> int:
        """``len(B)`` for description *index* (vanilla-Jaccard term)."""
        return self._word_counts[index]

    def has_raw(self, index: int) -> bool:
        """Whether description *index* contains the literal word "raw"."""
        return self._has_raw[index]

    def candidate_counts(
        self,
        query: frozenset[str],
        required: frozenset[str] | None = None,
    ) -> dict[int, int]:
        """``|A ∩ B|`` per description worth scoring (fast-path variant).

        Same candidate set as :meth:`candidate_matches` but accumulates
        only overlap *counts* — all either similarity metric needs —
        so the single-best ``match()`` path defers materializing the
        matched-word sets to the handful of score-tied leaders.
        """
        postings = self._postings
        counts: dict[int, int] = {}
        get = counts.get
        if required is not None:
            seeds = required if required <= query else required & query
            if not seeds:
                return counts
            for word in seeds:
                for index in postings.get(word, ()):
                    counts[index] = get(index, 0) + 1
            for word in query:
                if word in seeds:
                    continue
                for index in postings.get(word, ()):
                    count = get(index)
                    if count is not None:
                        counts[index] = count + 1
        else:
            for word in query:
                for index in postings.get(word, ()):
                    counts[index] = get(index, 0) + 1
        return counts

    def candidate_matches(
        self,
        query: frozenset[str],
        required: frozenset[str] | None = None,
    ) -> dict[int, list[str]]:
        """``A ∩ B`` word lists for every description worth scoring.

        With *required* (the preprocessed NAME words), only
        descriptions sharing at least one required word are returned —
        the matcher's "state words alone never constitute a match"
        rule — and the posting walk is seeded from the (usually much
        rarer) required words before the remaining query words top up
        the overlap lists of the surviving candidates only.
        """
        postings = self._postings
        matched: dict[int, list[str]] = {}
        if required is not None:
            # Only required words *in the query* can appear in A ∩ B.
            seeds = required if required <= query else required & query
            if not seeds:
                return matched
            for word in seeds:
                for index in postings.get(word, ()):
                    matched.setdefault(index, []).append(word)
            for word in query:
                if word in seeds:
                    continue
                for index in postings.get(word, ()):
                    overlap = matched.get(index)
                    if overlap is not None:
                        overlap.append(word)
        else:
            for word in query:
                for index in postings.get(word, ()):
                    matched.setdefault(index, []).append(word)
        return matched


def linear_candidate_matches(
    descriptions: Sequence[PreprocessedDescription],
    query: frozenset[str],
    required: frozenset[str] | None = None,
) -> dict[int, list[str]]:
    """The seed O(|DB|) candidate enumeration, kept as a reference.

    Semantically equivalent to
    :meth:`DescriptionIndex.candidate_matches`; used by the
    equivalence property tests and by ``bench_throughput.py`` to
    measure the index's speedup against the original scan.
    """
    matched: dict[int, list[str]] = {}
    for index, desc in enumerate(descriptions):
        overlap = query & desc.words
        if not overlap:
            continue
        if required is not None and not (overlap & required):
            continue
        matched[index] = list(overlap)
    return matched
