"""The closest-description matcher implementing heuristics (a)–(i).

Selection order for the best description (paper §II-B):

1. highest similarity score — modified Jaccard J* = |A∩B| / |A| by
   default, vanilla J = |A∩B| / |A∪B| for the ablation/Table III
   comparison (heuristics (c), (e));
2. among score ties, lowest mean comma-term priority of the matched
   words (heuristic (h): "apple" prefers "Apples, raw, with skin" where
   the match sits in term 1 over "Babyfood, apples, dices, toddler"
   where it sits in term 2);
3. among remaining ties, lowest SR index (heuristic (i): "simply take
   the first match", relying on SR's indexing to put the canonical
   variant first).

Query construction implements heuristics (b), (d), (f), (g): the word
set A is built from the ingredient NAME plus STATE/TEMP/DRY-FRESH
entities, lemmatized and negation-rewritten; when no STATE is given,
the synthetic word "raw" joins A so uncooked descriptions gain exactly
one extra matching word.

Candidate generation is sub-linear: a :class:`DescriptionIndex` built
at construction restricts scoring to descriptions sharing at least one
NAME word with the query (see ``index.py`` for the exactness
argument).  Scores, tie-breaks and winners are bit-identical to the
original full scan.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.matching.index import DescriptionIndex
from repro.matching.preprocess import (
    PreprocessedDescription,
    canonical_word,
    preprocess_description,
)
from repro.matching.types import MatchResult
from repro.text.lemmatizer import WordNetStyleLemmatizer
from repro.text.negation import rewrite_negations
from repro.text.stopwords import STOP_WORDS
from repro.text.tokenize import word_tokens
from repro.usda.database import NutrientDatabase
from repro.utils import DEFAULT_CACHE_CAP, BoundedCache

#: Sentinel distinguishing "not cached" from a cached ``None`` miss.
_UNCACHED = object()


@dataclass(frozen=True, slots=True)
class MatcherConfig:
    """Ablation switches for the matching heuristics.

    The defaults reproduce the paper's full protocol; benchmarks flip
    individual switches to quantify each heuristic's contribution.
    """

    use_modified_jaccard: bool = True   # heuristic (e) vs vanilla (c)
    rewrite_negations: bool = True      # heuristic (f)
    raw_bonus: bool = True              # heuristic (g)
    priority_tiebreak: bool = True      # heuristic (h)
    min_score: float = 1e-9             # below this, no match at all


class DescriptionMatcher:
    """Match ingredient names to food descriptions in a database."""

    def __init__(
        self,
        database: NutrientDatabase,
        config: MatcherConfig | None = None,
        cache_cap: int = DEFAULT_CACHE_CAP,
    ):
        self._db = database
        self._config = config or MatcherConfig()
        # The lemmatizer validates rule output against the database
        # vocabulary (paper (b): WordNet lemmatization; our lexicon is
        # the matching vocabulary itself).
        self._lemmatizer = WordNetStyleLemmatizer(database.vocabulary())
        # word -> lemma memo, shared by description preprocessing and
        # every query: each distinct token is lemmatized exactly once
        # per matcher lifetime.  All three memos are size-capped
        # (``cache_cap`` entries, FIFO) so an unbounded query stream
        # cannot grow matcher memory without limit.
        self._canon_cache: dict[str, str] = BoundedCache(cache_cap)
        # text -> word tokens memo: ingredient names recur across
        # states ("butter" softened/melted/...), so each distinct
        # entity string is tokenized once per matcher lifetime.
        self._token_cache: dict[str, tuple[str, ...]] = BoundedCache(cache_cap)
        self._descriptions: list[PreprocessedDescription] = [
            preprocess_description(
                food.description, self._lemmatizer, cache=self._canon_cache
            )
            for food in database
        ]
        self._foods = list(database)
        self._index = DescriptionIndex(self._descriptions)
        self._cache: dict[tuple[str, str, str, str], MatchResult | None] = (
            BoundedCache(cache_cap)
        )

    @classmethod
    def from_precomputed(
        cls,
        database: NutrientDatabase,
        descriptions: Sequence[PreprocessedDescription],
        index: DescriptionIndex,
        config: MatcherConfig | None = None,
        cache_cap: int = DEFAULT_CACHE_CAP,
    ) -> "DescriptionMatcher":
        """Construct a matcher from already-preprocessed state.

        The artifact loader (:mod:`repro.artifacts`) restores the
        description word sets and the inverted index from a snapshot
        and skips the per-description lemmatization pass entirely —
        the matcher's dominant construction cost.  *descriptions* and
        *index* must describe *database* in SR index order; queries
        against the result are bit-identical to a freshly built
        matcher because per-query scoring reads only this state (the
        heuristic switches in *config* are applied at query time and
        are independent of it).
        """
        matcher = cls.__new__(cls)
        matcher._db = database
        matcher._config = config or MatcherConfig()
        matcher._lemmatizer = WordNetStyleLemmatizer(database.vocabulary())
        matcher._canon_cache = BoundedCache(cache_cap)
        matcher._token_cache = BoundedCache(cache_cap)
        matcher._descriptions = list(descriptions)
        matcher._foods = list(database)
        matcher._index = index
        matcher._cache = BoundedCache(cache_cap)
        if len(matcher._descriptions) != len(matcher._foods):
            raise ValueError(
                f"{len(matcher._descriptions)} precomputed descriptions "
                f"for {len(matcher._foods)} foods"
            )
        return matcher

    @property
    def database(self) -> NutrientDatabase:
        return self._db

    @property
    def config(self) -> MatcherConfig:
        return self._config

    @property
    def index(self) -> DescriptionIndex:
        """The inverted index backing candidate generation."""
        return self._index

    @property
    def descriptions(self) -> Sequence[PreprocessedDescription]:
        """Preprocessed descriptions, in SR index order (read-only)."""
        return tuple(self._descriptions)

    def clear_cache(self) -> None:
        """Drop memoized match results (benchmarking/profiling hook)."""
        self._cache.clear()

    def cache_stats(self) -> dict[str, int | float]:
        """Result-memo effectiveness (``/metrics`` ``caches.matcher``)."""
        return self._cache.stats()

    def build_query(
        self,
        name: str,
        state: str = "",
        temperature: str = "",
        dry_fresh: str = "",
    ) -> tuple[frozenset[str], bool]:
        """Construct the word set A; returns (words, raw_preference).

        Heuristic (d): STATE, TEMP and DRY/FRESH entities join the
        name because "comma-separated terms in later portions of the
        food description are more likely to match with the State,
        Temperature and Freshness of the ingredient".

        Heuristic (g): when no STATE was identified, descriptions
        containing the word "raw" get a preference — implemented as a
        tie-break (``raw_preference=True``) rather than a query word so
        the bonus can never outvote real word overlap ("white sugar"
        must not drift to "Egg, white, raw, fresh" on the strength of
        the synthetic "raw").
        """
        words, _, raw_preference = self._query_parts(
            name, state, temperature, dry_fresh
        )
        return words, raw_preference

    def _query_parts(
        self, name: str, state: str, temperature: str, dry_fresh: str
    ) -> tuple[frozenset[str], frozenset[str], bool]:
        """(query words A, NAME-only words, raw preference) in one pass.

        The NAME tokens are preprocessed once and reused as the full
        query when no STATE/TEMP/DRY-FRESH entities are present (the
        common case); with entities present, the memoized per-entity
        tokens are concatenated and only the cheap tail of the
        pipeline (negation rewrite, stop words, memoized lemmas) runs
        over the combined sequence — token concatenation equals
        tokenizing the joined phrase because alphabetic tokens never
        span whitespace.
        """
        name_tokens = self._tokens(name)
        name_words = frozenset(self._finish(name_tokens))
        if state or temperature or dry_fresh:
            combined = list(name_tokens)
            for part in (state, temperature, dry_fresh):
                if part:
                    combined.extend(self._tokens(part))
            words = frozenset(self._finish(combined))
        else:
            words = name_words
        raw_preference = self._config.raw_bonus and not state.strip()
        return words, name_words, raw_preference

    def _tokens(self, text: str) -> tuple[str, ...]:
        tokens = self._token_cache.get(text)
        if tokens is None:
            tokens = tuple(word_tokens(text))
            self._token_cache[text] = tokens
        return tokens

    def _finish(self, tokens: Sequence[str]) -> list[str]:
        """Pipeline tail after tokenization: negations, stops, lemmas.

        With ``rewrite_negations`` off (ablation) the rewrite step is
        skipped but stop words and lemmatization still apply.
        """
        if self._config.rewrite_negations:
            tokens = rewrite_negations(list(tokens))
        lemmatizer = self._lemmatizer
        cache = self._canon_cache
        return [
            canonical_word(word, lemmatizer, cache)
            for word in tokens
            if word not in STOP_WORDS
        ]

    def match(
        self,
        name: str,
        state: str = "",
        temperature: str = "",
        dry_fresh: str = "",
    ) -> MatchResult | None:
        """Best description for an ingredient, or ``None`` if nothing scores.

        Results are cached per (name, state, temperature, dry_fresh).
        """
        key = (name.lower(), state.lower(), temperature.lower(), dry_fresh.lower())
        cached = self._cache.get(key, _UNCACHED)
        if cached is not _UNCACHED:
            return cached
        result = self._match_uncached(name, state, temperature, dry_fresh)
        self._cache[key] = result
        return result

    def match_chunk(
        self,
        queries: Iterable[str | Sequence[str]],
    ) -> list[MatchResult | None]:
        """:meth:`match` over many queries, in order.

        Each query is a name string or a ``(name[, state[, temperature
        [, dry_fresh]]])`` sequence.  All queries share the
        per-instance result cache, so a corpus where the same
        ingredient+state pair recurs pays the scoring cost once.
        """
        return [
            self.match(query) if isinstance(query, str) else self.match(*query)
            for query in queries
        ]

    def _match_uncached(
        self, name: str, state: str, temperature: str, dry_fresh: str
    ) -> MatchResult | None:
        query, name_words, raw_pref = self._query_parts(
            name, state, temperature, dry_fresh
        )
        if not query:
            return None
        return self._best_match(query, name_words, raw_pref)

    def _best_match(
        self,
        query: frozenset[str],
        name_words: frozenset[str],
        raw_pref: bool,
    ) -> MatchResult | None:
        """Single-winner fast path: overlap counts first, then full
        scoring (priority, raw flag) only for the score-tied leaders.

        Selects exactly the candidate :meth:`_selection_key` ranks
        first — the score comparison is monotone in the overlap count
        for modified Jaccard and uses the identical float division for
        vanilla, and the leaders' tie-break keys replicate the
        remaining ordering.
        """
        index = self._index
        counts = index.candidate_counts(
            query, required=name_words or None
        )
        if not counts:
            return None
        config = self._config
        n_query = len(query)
        if config.use_modified_jaccard:
            best_overlap = max(counts.values())
            best_score = best_overlap / n_query
            if best_score < config.min_score:
                return None
            tied = [i for i, c in counts.items() if c == best_overlap]
        else:
            word_count = index.word_count
            best_score = -1.0
            tied = []
            for i, count in counts.items():
                score = count / (n_query + word_count(i) - count)
                if score > best_score:
                    best_score = score
                    tied = [i]
                elif score == best_score:
                    tied.append(i)
            if best_score < config.min_score:
                return None

        # Resolve the score-tied leaders.  The tie-break key ends in the
        # description index — a strict total order — so the order of
        # *tied* never affects the winner.
        descriptions = self._descriptions
        if len(tied) == 1:
            win = tied[0]
            desc = descriptions[win]
            matched = query & desc.words
            priority = (
                sum(desc.term_priority[w] for w in matched) / len(matched)
            )
            win_raw = raw_pref and desc.has_raw
        else:
            priority_on = config.priority_tiebreak
            best_key: tuple | None = None
            win, matched, priority, win_raw = -1, frozenset(), 0.0, False
            for i in tied:
                desc = descriptions[i]
                overlap = query & desc.words
                mean_priority = (
                    sum(desc.term_priority[w] for w in overlap)
                    / len(overlap)
                )
                raw = raw_pref and desc.has_raw
                key = (
                    (mean_priority, not raw, i)
                    if priority_on
                    else (not raw, i)
                )
                if best_key is None or key < best_key:
                    best_key = key
                    win, matched, priority, win_raw = (
                        i, overlap, mean_priority, raw,
                    )
        return MatchResult(
            food=self._foods[win],
            score=best_score,
            priority=priority,
            db_index=win,
            query_words=query,
            matched_words=frozenset(matched),
            raw_added=win_raw,
        )

    def _candidates(
        self,
        query: frozenset[str],
        name_words: frozenset[str],
        raw_pref: bool,
    ) -> list[MatchResult]:
        """Score every index candidate — shared by match/top_matches.

        A candidate must share at least one word with the NAME itself:
        state/temperature words alone ("diced" matching "Babyfood,
        apples, dices, toddler" for "bacon, diced") never constitute a
        match — hence ``required=name_words`` seeding the posting walk.
        """
        config = self._config
        use_modified = config.use_modified_jaccard
        min_score = config.min_score
        n_query = len(query)
        index = self._index
        results: list[MatchResult] = []
        for db_index, overlap in index.candidate_matches(
            query, required=name_words or None
        ).items():
            n_overlap = len(overlap)
            if use_modified:
                # modified_jaccard(query, B) with |A∩B| = n_overlap
                score = n_overlap / n_query
            else:
                # vanilla_jaccard via |A∪B| = |A| + |B| - |A∩B|
                score = n_overlap / (
                    n_query + index.word_count(db_index) - n_overlap
                )
            if score < min_score:
                continue
            desc = self._descriptions[db_index]
            term_priority = desc.term_priority
            priority = (
                sum(term_priority[w] for w in overlap) / n_overlap
            )
            results.append(
                MatchResult(
                    food=self._foods[db_index],
                    score=score,
                    priority=priority,
                    db_index=db_index,
                    query_words=query,
                    matched_words=frozenset(overlap),
                    raw_added=raw_pref and desc.has_raw,
                )
            )
        return results

    def _selection_key(self) -> Callable[[MatchResult], tuple]:
        """Sort key for selection order: score, priority, raw, index.

        The heuristic-(g) raw preference sits between priority and
        index: at equal word overlap *and* equal term priority, an
        uncooked ingredient prefers the description that says "raw"
        ("fava beans" picks "Broadbeans (fava beans), mature seeds,
        raw" over the canned variant; "whole eggs" picks "Egg, whole,
        raw, fresh" over the hard-boiled entry).  Term priority stays
        ahead of it so "white sugar" resolves to term-1 "Sugars,
        granulated" rather than raw-but-term-2 "Egg, white, raw,
        fresh" (heuristic (h) before (g)).  The key is a strict total
        order (db_index breaks all remaining ties), so iteration order
        never affects the winner; :meth:`_best_match`'s tie-break loop
        replicates the same ordering.
        """
        if self._config.priority_tiebreak:
            return lambda r: (-r.score, r.priority, not r.raw_added, r.db_index)
        return lambda r: (-r.score, not r.raw_added, r.db_index)

    def top_matches(
        self,
        name: str,
        state: str = "",
        temperature: str = "",
        dry_fresh: str = "",
        k: int = 5,
    ) -> list[MatchResult]:
        """The *k* best-scoring candidates, in selection order.

        Useful for audits (the paper's manual validation of the 5,000
        most frequent ingredient+state pairs) and for debugging
        collisions.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query, name_words, raw_pref = self._query_parts(
            name, state, temperature, dry_fresh
        )
        if not query:
            return []
        candidates = self._candidates(query, name_words, raw_pref)
        candidates.sort(key=self._selection_key())
        return candidates[:k]
