"""Inverted-index candidate generation: unit tests + exact-parity
property tests against a reference linear scan.

The reference implementation below replicates the seed matcher's
O(|DB|) loop independently (its own query construction, scoring and
tie-breaking), so any divergence introduced by the index or by the
shared candidate/scoring refactor is caught as a field-level mismatch
in the returned :class:`MatchResult`.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.matching.index import linear_candidate_matches
from repro.matching.jaccard import modified_jaccard, vanilla_jaccard
from repro.matching.matcher import DescriptionMatcher, MatcherConfig
from repro.matching.preprocess import (
    canonical_word,
    preprocess_description,
    preprocess_words,
)
from repro.matching.types import MatchResult
from repro.recipedb.ingredients import INGREDIENTS
from repro.text.lemmatizer import WordNetStyleLemmatizer
from repro.text.stopwords import STOP_WORDS
from repro.text.tokenize import word_tokens


# ----------------------------------------------------------------------
# reference implementation (seed semantics, kept independent on purpose)

class ReferenceLinearMatcher:
    """The seed per-query linear scan, reimplemented for verification."""

    def __init__(self, db, config: MatcherConfig):
        self.config = config
        self.lemmatizer = WordNetStyleLemmatizer(db.vocabulary())
        self.foods = list(db)
        self.descriptions = [
            preprocess_description(f.description, self.lemmatizer)
            for f in db
        ]

    def _preprocess(self, text: str) -> list[str]:
        if not self.config.rewrite_negations:
            return [
                canonical_word(w, self.lemmatizer)
                for w in word_tokens(text)
                if w not in STOP_WORDS
            ]
        return preprocess_words(text, self.lemmatizer)

    def _better(self, a: MatchResult, b: MatchResult) -> bool:
        if a.score != b.score:
            return a.score > b.score
        if self.config.priority_tiebreak and a.priority != b.priority:
            return a.priority < b.priority
        if a.raw_added != b.raw_added:
            return a.raw_added
        return a.db_index < b.db_index

    def candidates(
        self, name: str, state: str = "", temperature: str = "",
        dry_fresh: str = "",
    ) -> list[MatchResult]:
        parts = " ".join(p for p in (name, state, temperature, dry_fresh) if p)
        query = frozenset(self._preprocess(parts))
        if not query:
            return []
        raw_pref = self.config.raw_bonus and not state.strip()
        name_words = frozenset(self._preprocess(name))
        out: list[MatchResult] = []
        for index, (food, desc) in enumerate(
            zip(self.foods, self.descriptions)
        ):
            matched = query & desc.words
            if not matched:
                continue
            if name_words and not (matched & name_words):
                continue
            if self.config.use_modified_jaccard:
                score = modified_jaccard(query, desc.words)
            else:
                score = vanilla_jaccard(query, desc.words)
            if score < self.config.min_score:
                continue
            out.append(MatchResult(
                food=food,
                score=score,
                priority=sum(desc.term_priority[w] for w in matched)
                / len(matched),
                db_index=index,
                query_words=query,
                matched_words=frozenset(matched),
                raw_added=raw_pref and desc.has_raw,
            ))
        return out

    def match(self, name, state="", temperature="", dry_fresh=""):
        best = None
        for cand in self.candidates(name, state, temperature, dry_fresh):
            if best is None or self._better(cand, best):
                best = cand
        return best

    def top_matches(self, name, state="", temperature="", dry_fresh="",
                    k=5):
        cands = self.candidates(name, state, temperature, dry_fresh)
        if self.config.priority_tiebreak:
            def key(r):
                return (-r.score, r.priority, not r.raw_added, r.db_index)
        else:
            def key(r):
                return (-r.score, not r.raw_added, r.db_index)
        cands.sort(key=key)
        return cands[:k]


#: All 16 combinations of the four MatcherConfig heuristic switches.
ALL_CONFIGS = [
    MatcherConfig(
        use_modified_jaccard=mj,
        rewrite_negations=neg,
        raw_bonus=raw,
        priority_tiebreak=prio,
    )
    for mj, neg, raw, prio in itertools.product((True, False), repeat=4)
]

_NAMES = sorted({name for spec in INGREDIENTS for name in spec.names}) + [
    "unsalted butter", "fat free yogurt", "skim milk", "raw", "not",
    "egg whites", "white sugar free", "apple banana cherry", "",
    "the of and",
]
_STATES = ["", "chopped", "ground", "diced", "fresh", "free",
           "rinsed and drained", "patted dry and quartered"]
_TEMPS = ["", "cold", "warm"]
_DF = ["", "dried", "fresh"]


@pytest.fixture(scope="module")
def pairs(db):
    """(indexed matcher, reference linear matcher) per configuration."""
    return [
        (DescriptionMatcher(db, config), ReferenceLinearMatcher(db, config))
        for config in ALL_CONFIGS
    ]


class TestIndexUnit:
    def test_sizes(self, matcher, db):
        index = matcher.index
        assert len(index) == len(db)
        assert index.vocabulary_size > 100

    def test_postings_sorted_and_complete(self, matcher):
        index = matcher.index
        for i, desc in enumerate(matcher.descriptions):
            for word in desc.words:
                assert i in index.postings(word)
        salt = index.postings("salt")
        assert list(salt) == sorted(salt)

    def test_unknown_word_empty_postings(self, matcher):
        assert matcher.index.postings("xyzzy") == ()

    def test_word_count_and_raw_flags(self, matcher):
        index = matcher.index
        for i, desc in enumerate(matcher.descriptions):
            assert index.word_count(i) == len(desc.words)
            assert index.has_raw(i) == desc.has_raw

    def test_candidate_matches_equals_linear(self, matcher):
        descs = matcher.descriptions
        index = matcher.index
        for query, required in [
            (frozenset({"butter", "salt"}), None),
            (frozenset({"butter", "salt"}), frozenset({"butter"})),
            (frozenset({"apple", "raw", "skin"}), frozenset({"apple"})),
            (frozenset({"diced"}), frozenset({"bacon"})),
            (frozenset(), None),
            (frozenset({"xyzzy"}), None),
        ]:
            fast = index.candidate_matches(query, required=required)
            slow = linear_candidate_matches(descs, query, required=required)
            assert {i: sorted(ws) for i, ws in fast.items()} == \
                   {i: sorted(ws) for i, ws in slow.items()}

    def test_required_word_outside_query_filters(self, matcher):
        # A required word that is not in the query can never be matched,
        # so no candidate survives (mirrors the seed name-word rule).
        out = matcher.index.candidate_matches(
            frozenset({"diced"}), required=frozenset({"bacon"})
        )
        assert out == {}


class TestExactParityWithLinearScan:
    """The acceptance property: bit-identical MatchResults."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(_NAMES), state=st.sampled_from(_STATES),
           temperature=st.sampled_from(_TEMPS), dry_fresh=st.sampled_from(_DF))
    def test_match_identical_across_all_configs(
        self, pairs, name, state, temperature, dry_fresh
    ):
        for indexed, reference in pairs:
            got = indexed.match(name, state, temperature, dry_fresh)
            want = reference.match(name, state, temperature, dry_fresh)
            if want is None:
                assert got is None, (indexed.config, name, state)
            else:
                # Frozen-dataclass equality covers every field: food,
                # score, priority, db_index, query/matched words, raw.
                assert got == want, (indexed.config, name, state)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(_NAMES), state=st.sampled_from(_STATES),
           k=st.integers(min_value=1, max_value=8))
    def test_top_matches_identical_across_all_configs(
        self, pairs, name, state, k
    ):
        for indexed, reference in pairs:
            got = indexed.top_matches(name, state, k=k)
            want = reference.top_matches(name, state, k=k)
            assert got == want, (indexed.config, name, state, k)

    def test_paper_examples_survive_indexing(self, matcher):
        # Spot anchors on top of the property: the §II-B worked
        # examples must keep their winners under the indexed path.
        for name, expected in [
            ("unsalted butter", "Butter, without salt"),
            ("apple", "Apples, raw, with skin"),
            ("egg whites", "Egg, white, raw, fresh"),
        ]:
            assert matcher.match(name).description == expected


class TestBatchMatch:
    def test_match_chunk_mixed_query_shapes(self, matcher):
        results = matcher.match_chunk([
            "red lentils",
            ("coriander", "ground"),
            ("chicken with giblets", "patted dry and quartered"),
            "garam masala",
            ("butter", "", "", ""),
        ])
        assert [r.description if r else None for r in results] == [
            "Lentils, pink or red, raw",
            "Coriander (cilantro) leaves, raw",
            "Chicken, broilers or fryers, meat and skin and giblets "
            "and neck, raw",
            None,
            "Butter, salted",
        ]

    def test_match_chunk_agrees_with_match(self, matcher):
        queries = [("egg", ""), ("skim milk", ""), ("apple", "diced")]
        assert matcher.match_chunk(queries) == [
            matcher.match(n, s) for n, s in queries
        ]

    def test_clear_cache_preserves_results(self, db):
        fresh = DescriptionMatcher(db)
        first = fresh.match("butter")
        fresh.clear_cache()
        second = fresh.match("butter")
        assert first == second and first is not second
