"""Picklable estimator configuration.

A live :class:`NutritionEstimator` holds an inverted index, memo
caches and (for learned taggers) weight matrices; an
:class:`EstimatorSpec` is the small recipe it is built from.  Under the
``fork`` start method pool workers inherit the estimator the
coordinator built from the spec; under other start methods each worker
receives the pickled spec and builds its own.

With :attr:`EstimatorSpec.artifact_path` set, "build" means *load*:
the estimator is reconstructed from the build-once artifact snapshot
(:mod:`repro.artifacts`) instead of re-running description
preprocessing — the same spec therefore parameterizes instant cold
starts for the sharded engine and the HTTP service alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.estimator import NutritionEstimator, Tagger
from repro.matching.matcher import MatcherConfig
from repro.units.fallback import DEFAULT_MAX_GRAMS
from repro.usda.database import NutrientDatabase, load_default_database
from repro.usda.schema import FoodItem
from repro.utils import DEFAULT_CACHE_CAP


@dataclass(frozen=True)
class EstimatorSpec:
    """Everything needed to rebuild an equivalent estimator.

    Attributes
    ----------
    foods:
        Food records for a custom database in insertion (SR-index)
        order, or ``None`` for the embedded default database (which
        each process loads once — the cheap, common case).
    matcher_config:
        Heuristic switches for the description matcher.
    tagger:
        A picklable NER tagger (rule-based tagger or a trained
        perceptron/CRF), or ``None`` for the default rule tagger.
    max_grams:
        The §II-C plausibility threshold for the unit fallback.
    cache_cap:
        Size cap for the per-instance memo caches.
    artifact_path:
        Path to a build-once artifact file (``repro build-artifact``).
        When set, :meth:`build` loads the snapshot instead of running
        the build path, and :meth:`database` returns the captured
        database.  ``foods`` may stay ``None`` (the artifact supplies
        the database) or name the database the artifact is *expected*
        to contain — a fingerprint mismatch raises
        :class:`~repro.artifacts.errors.ArtifactMismatchError` rather
        than silently serving numbers from the wrong database.  A
        ``tagger`` given alongside an artifact explicitly overrides
        the captured one.
    expected_fingerprint:
        Database fingerprint the artifact must carry (see
        :func:`repro.artifacts.database_fingerprint`), enforced on
        every load.  The cheap pinning channel: a coordinator that
        already validated the artifact pins this one string onto the
        spec it builds from and ships, instead of the whole food list,
        and a load of a swapped file fails with
        :class:`~repro.artifacts.errors.ArtifactMismatchError`.
    """

    foods: tuple[FoodItem, ...] | None = None
    matcher_config: MatcherConfig | None = None
    tagger: Tagger | None = None
    max_grams: float = DEFAULT_MAX_GRAMS
    cache_cap: int = DEFAULT_CACHE_CAP
    artifact_path: str | None = None
    expected_fingerprint: str | None = None

    @classmethod
    def for_database(
        cls, database: NutrientDatabase, **kwargs
    ) -> "EstimatorSpec":
        """Spec for a custom database (snapshots its insertion order)."""
        return cls(foods=tuple(database), **kwargs)

    def _snapshot(self):
        """The validated artifact snapshot this spec points at."""
        from repro.artifacts import load_artifact
        from repro.artifacts.errors import ArtifactMismatchError
        from repro.artifacts.store import database_fingerprint

        snapshot = load_artifact(self.artifact_path)
        expected = self.expected_fingerprint
        if expected is None and self.foods is not None:
            expected = database_fingerprint(self.foods)
        if expected is not None and expected != snapshot.fingerprint:
            raise ArtifactMismatchError(
                f"{self.artifact_path}: artifact was built against a "
                f"different database (fingerprint "
                f"{snapshot.fingerprint[:12]}…, spec expects "
                f"{expected[:12]}…); rebuild the artifact for this "
                f"database"
            )
        return snapshot

    def database(self) -> NutrientDatabase:
        """The database this spec describes (built fresh if custom)."""
        if self.artifact_path is not None:
            return self._snapshot().database()
        if self.foods is None:
            return load_default_database()
        return NutrientDatabase(self.foods)

    def build(self) -> NutritionEstimator:
        """Construct the estimator this spec describes.

        Loads from the artifact when :attr:`artifact_path` is set —
        bit-identical to the built-from-scratch estimator — and runs
        the full build path otherwise.
        """
        if self.artifact_path is not None:
            return self._snapshot().build_estimator(
                matcher_config=self.matcher_config,
                tagger=self.tagger,
                max_grams=self.max_grams,
                cache_cap=self.cache_cap,
            )
        return NutritionEstimator(
            database=self.database(),
            tagger=self.tagger,
            matcher_config=self.matcher_config,
            max_grams=self.max_grams,
            cache_cap=self.cache_cap,
        )
