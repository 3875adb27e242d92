"""Recipe and ingredient records with generation-time ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ner.corpus import TaggedPhrase


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """What the generator actually put into an ingredient phrase.

    Attributes
    ----------
    spec_key:
        Ingredient-spec identifier (stable across the corpus).
    ndb_no:
        True USDA food, or ``None`` for deliberately unmappable
        region-specific ingredients ("garam masala").
    grams:
        True edible grams contributed to the recipe.
    kcal:
        True energy contribution (grams × energy density), including
        for unmappable ingredients (their hidden density is known to
        the generator only — the pipeline never sees it).
    """

    spec_key: str
    ndb_no: str | None
    grams: float
    kcal: float


@dataclass(frozen=True, slots=True)
class Ingredient:
    """One ingredient line of a recipe."""

    text: str
    tagged: TaggedPhrase
    truth: GroundTruth

    @property
    def tokens(self) -> tuple[str, ...]:
        return self.tagged.tokens


def check_servings(servings) -> None:
    """Raise ``ValueError`` unless *servings* is positive and finite.

    The one servings check shared by :class:`Recipe` and
    :class:`~repro.core.estimator.NutritionEstimator`.
    """
    if servings <= 0:
        raise ValueError(f"servings must be positive: {servings}")
    # json.loads accepts NaN and Infinity; neither divides a total
    # into portions (NaN also slips past the comparison above).
    if not servings < math.inf:
        raise ValueError(f"servings must be finite: {servings}")


@dataclass(frozen=True, slots=True)
class Recipe:
    """One recipe with ground-truth nutrition.

    ``gold_calories_per_serving`` plays the role of the AllRecipes
    third-party calorie label the paper evaluates against: the true
    per-serving energy plus a small physical-variation noise term.
    """

    recipe_id: str
    title: str
    cuisine: str
    source: str
    servings: int
    ingredients: tuple[Ingredient, ...] = field(default_factory=tuple)
    gold_calories_per_serving: float = 0.0

    def __post_init__(self) -> None:
        check_servings(self.servings)

    @property
    def true_total_kcal(self) -> float:
        """Exact total energy from ground truth (noise-free)."""
        return sum(i.truth.kcal for i in self.ingredients)

    @property
    def true_kcal_per_serving(self) -> float:
        """Exact per-serving energy from ground truth (noise-free)."""
        return self.true_total_kcal / self.servings

    @property
    def ingredient_texts(self) -> list[str]:
        """The raw phrase per ingredient — the pipeline's actual input."""
        return [i.text for i in self.ingredients]
