"""Capture and restore of ready-to-serve estimator state.

``save_artifact`` walks a live :class:`NutritionEstimator` and writes
everything expensive to construct into one checksummed file (layout:
:mod:`repro.artifacts.format`):

* the nutrient database rows and its matching vocabulary,
* the matcher's preprocessed description word sets and inverted index,
* per-food unit → gram-weight tables,
* the NER tagger — the rule tagger by kind, a trained perceptron as
  its interned feature ids plus ``(n_features, K)`` weight matrix.

``load_artifact`` validates and returns an :class:`ArtifactSnapshot`
whose :meth:`~ArtifactSnapshot.build_estimator` reconstructs a warm
estimator **without touching the build path** — no USDA data-module
import, no description lemmatization, no portion normalization, no
training.  Restored state is exactly what the builder captured, so a
loaded estimator's output is bit-identical to a freshly built one
(``tests/test_artifact_parity.py``).

Runtime memo caches and corpus fallback observations are deliberately
*not* captured: they are per-process performance state, rebuilt from
traffic, and the two-phase corpus protocol recomputes unit statistics
per corpus anyway.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections.abc import Iterable
from pathlib import Path

from repro import __version__
from repro.artifacts.errors import (
    ArtifactCorruptError,
    ArtifactError,
)
from repro.artifacts.format import (
    FORMAT_VERSION,
    read_artifact_bytes,
    write_artifact_bytes,
)
from repro.core.estimator import NutritionEstimator
from repro.matching.index import DescriptionIndex
from repro.matching.matcher import DescriptionMatcher, MatcherConfig
from repro.matching.preprocess import PreprocessedDescription
from repro.ner.rule_tagger import RuleBasedTagger
from repro.units.fallback import DEFAULT_MAX_GRAMS
from repro.units.gram_weights import UnitResolver
from repro.usda.database import NutrientDatabase
from repro.usda.schema import FoodItem, Portion
from repro.utils import DEFAULT_CACHE_CAP


def _food_rows(foods: Iterable[FoodItem]) -> list:
    """Plain-builtins projection of food records, in database order."""
    return [
        [
            food.ndb_no,
            food.description,
            food.food_group,
            dict(food.nutrients),
            [[p.seq, p.amount, p.unit, p.grams] for p in food.portions],
        ]
        for food in foods
    ]


def database_fingerprint(foods: Iterable[FoodItem]) -> str:
    """Stable SHA-256 hex digest identifying a food database's content.

    Computed over a canonical JSON serialization of the rows (sorted
    keys, ``repr``-exact floats), so the digest depends only on the
    records and their order — not on pickle details or Python version.
    """
    canonical = json.dumps(
        _food_rows(foods), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _capture_tagger(tagger) -> dict:
    if isinstance(tagger, RuleBasedTagger):
        return {"kind": "rule"}
    # Imported lazily so rule-tagger artifacts never pull numpy here.
    from repro.ner.perceptron import AveragedPerceptronTagger

    if isinstance(tagger, AveragedPerceptronTagger):
        return {"kind": "perceptron", "state": tagger.snapshot()}
    raise ArtifactError(
        f"cannot capture tagger of type {type(tagger).__name__}: only "
        "the rule tagger and trained AveragedPerceptronTagger are "
        "artifact-serializable"
    )


def capture_payload(estimator: NutritionEstimator) -> dict:
    """The full artifact payload tree for one estimator (builtins only)."""
    db = estimator.database
    foods = list(db)
    descriptions = estimator.matcher.descriptions
    postings, word_counts, has_raw = estimator.matcher.index.to_parts()
    payload = {
        "meta": {
            "format": FORMAT_VERSION,
            "repro_version": __version__,
            "foods": len(foods),
            "vocabulary_words": len(db.vocabulary()),
            "tagger": None,  # filled below
        },
        "database": {
            "fingerprint": database_fingerprint(foods),
            "rows": _food_rows(foods),
            "vocabulary": sorted(db.vocabulary()),
        },
        "matcher": {
            "descriptions": [
                [sorted(d.words), dict(d.term_priority), bool(d.has_raw)]
                for d in descriptions
            ],
            # Key order canonicalized: a live index's postings dict is
            # keyed in word-set iteration order, which varies with str
            # hash randomization across processes.  Postings are only
            # ever read by key, so sorting costs nothing semantically
            # and makes artifact bytes process-independent.
            "postings": {
                word: list(ids) for word, ids in sorted(postings.items())
            },
            "word_counts": list(word_counts),
            "has_raw": [bool(flag) for flag in has_raw],
        },
        "units": {
            food.ndb_no: UnitResolver(food).known_units() for food in foods
        },
        "tagger": _capture_tagger(estimator.tagger),
    }
    payload["meta"]["tagger"] = payload["tagger"]["kind"]
    return payload


def save_artifact(path: str | Path, estimator: NutritionEstimator) -> int:
    """Capture *estimator* into an artifact file; returns bytes written."""
    return write_artifact_bytes(path, capture_payload(estimator))


class ArtifactSnapshot:
    """A validated, loaded artifact, ready to hand out components."""

    def __init__(self, path: str | Path, payload: dict):
        self._path = str(path)
        self._payload = payload

    @property
    def path(self) -> str:
        return self._path

    @property
    def meta(self) -> dict:
        """Build-time metadata (repro version, counts, tagger kind)."""
        return dict(self._payload["meta"])

    @property
    def fingerprint(self) -> str:
        """The captured database's :func:`database_fingerprint`."""
        return self._payload["database"]["fingerprint"]

    @property
    def tagger_kind(self) -> str:
        return self._payload["tagger"]["kind"]

    def database(self) -> NutrientDatabase:
        """A fresh :class:`NutrientDatabase` from the captured rows.

        Skips the ``repro.usda.data`` module import entirely; the
        vocabulary is installed precomputed, so no description scan
        runs either.
        """
        try:
            db = NutrientDatabase(
                FoodItem(
                    ndb_no=ndb,
                    description=description,
                    food_group=group,
                    nutrients=dict(nutrients),
                    portions=tuple(
                        Portion(seq, amount, unit, grams)
                        for seq, amount, unit, grams in portions
                    ),
                )
                for ndb, description, group, nutrients, portions in (
                    self._payload["database"]["rows"]
                )
            )
            db.install_vocabulary(self._payload["database"]["vocabulary"])
        except ArtifactError:
            raise
        except Exception as exc:
            raise ArtifactCorruptError(
                f"{self._path}: database section does not restore: {exc}"
            ) from None
        return db

    def build_tagger(self):
        """The captured NER tagger (rule tagger or trained perceptron)."""
        section = self._payload["tagger"]
        kind = section.get("kind")
        if kind == "rule":
            return RuleBasedTagger()
        if kind == "perceptron":
            from repro.ner.perceptron import AveragedPerceptronTagger

            try:
                return AveragedPerceptronTagger.from_snapshot(
                    section["state"]
                )
            except Exception as exc:
                raise ArtifactCorruptError(
                    f"{self._path}: perceptron state does not restore: "
                    f"{exc}"
                ) from None
        raise ArtifactCorruptError(
            f"{self._path}: unknown tagger kind {kind!r}"
        )

    def build_estimator(
        self,
        matcher_config: MatcherConfig | None = None,
        tagger=None,
        max_grams: float = DEFAULT_MAX_GRAMS,
        cache_cap: int = DEFAULT_CACHE_CAP,
    ) -> NutritionEstimator:
        """A ready estimator assembled purely from captured state.

        *matcher_config*, *max_grams* and *cache_cap* are runtime
        configuration, not captured state — the description word sets
        and index are config-independent, so any :class:`MatcherConfig`
        can be applied to the same snapshot.  *tagger* overrides the
        captured tagger when given (an explicit choice, never silent).
        """
        db = self.database()
        section = self._payload["matcher"]
        try:
            descriptions = [
                PreprocessedDescription(
                    words=frozenset(words),
                    term_priority=dict(priority),
                    has_raw=bool(raw),
                )
                for words, priority, raw in section["descriptions"]
            ]
            index = DescriptionIndex.from_parts(
                section["postings"],
                section["word_counts"],
                section["has_raw"],
            )
            resolvers = {
                ndb: UnitResolver.from_parts(db.get(ndb), grams)
                for ndb, grams in self._payload["units"].items()
            }
        except ArtifactError:
            raise
        except Exception as exc:
            raise ArtifactCorruptError(
                f"{self._path}: matcher/unit sections do not restore: "
                f"{exc}"
            ) from None
        matcher = DescriptionMatcher.from_precomputed(
            db,
            descriptions,
            index,
            config=matcher_config,
            cache_cap=cache_cap,
        )
        return NutritionEstimator(
            database=db,
            tagger=tagger if tagger is not None else self.build_tagger(),
            max_grams=max_grams,
            cache_cap=cache_cap,
            matcher=matcher,
            resolvers=resolvers,
        )


def _validate_schema(path: str | Path, payload: dict) -> None:
    """Cheap structural check so load failures surface at load time."""
    required = {"meta", "database", "matcher", "units", "tagger"}
    missing = required - payload.keys()
    if missing:
        raise ArtifactCorruptError(
            f"{path}: payload is missing sections {sorted(missing)}"
        )
    for section in required:
        if not isinstance(payload[section], dict):
            raise ArtifactCorruptError(
                f"{path}: section {section!r} must be a dict, got "
                f"{type(payload[section]).__name__}"
            )
    db = payload["database"]
    matcher = payload["matcher"]
    if not isinstance(db.get("rows"), list) or not isinstance(
        db.get("fingerprint"), str
    ):
        raise ArtifactCorruptError(
            f"{path}: database section is malformed"
        )
    descriptions = matcher.get("descriptions")
    if not isinstance(descriptions, list):
        raise ArtifactCorruptError(
            f"{path}: matcher section is malformed"
        )
    if len(descriptions) != len(db["rows"]):
        raise ArtifactCorruptError(
            f"{path}: {len(descriptions)} preprocessed descriptions for "
            f"{len(db['rows'])} foods"
        )


def load_artifact(path: str | Path, cache: bool = True) -> ArtifactSnapshot:
    """Load and validate an artifact file.

    With ``cache=True`` (default) repeated loads of an unchanged file
    — e.g. ``EstimatorSpec.database()`` followed by ``build()``, or
    many service threads — reuse one parsed payload, keyed on
    ``(path, mtime, size)`` so an overwritten artifact is re-read.
    The cached payloads stay resident for the process lifetime, which
    is a deliberate trade: payloads are a few hundred KB of builtins
    (~2 MB worst case at ``maxsize=8``), cheap next to the estimators
    built from them, and a warm entry keeps repeated ``build()`` calls
    at memory-speed.  Pass ``cache=False`` for one-shot tooling that
    must not pin the payload.
    """
    resolved = Path(path).resolve()
    if not cache:
        return _load_uncached(str(resolved))
    stat = os.stat(resolved)
    return _load_cached(str(resolved), stat.st_mtime_ns, stat.st_size)


def _load_uncached(path: str) -> ArtifactSnapshot:
    payload = read_artifact_bytes(path)
    _validate_schema(path, payload)
    return ArtifactSnapshot(path, payload)


@functools.lru_cache(maxsize=8)
def _load_cached(path: str, mtime_ns: int, size: int) -> ArtifactSnapshot:
    return _load_uncached(path)
