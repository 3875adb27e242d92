"""repro — Nutritional Profile Estimation in Cooking Recipes.

A from-scratch reproduction of Kalra, Batra, Diwan & Bagler,
"Nutritional Profile Estimation in Cooking Recipes" (ICDE 2020),
including every substrate the paper depends on: a USDA-SR nutrient
database, an NER subsystem (CRF + averaged perceptron), the modified-
Jaccard description matcher, the unit-matching machinery, and a
RecipeDB-style corpus generator with exact ground truth.

On top of the paper's pipeline sit three production layers:
:mod:`repro.pipeline` (the sharded multiprocess corpus engine with an
exact-parity guarantee), :mod:`repro.service` (a dependency-free HTTP
JSON API over a warm shared estimator — ``python -m repro serve``)
and :mod:`repro.artifacts` (a versioned build-once snapshot store —
``repro build-artifact`` / ``repro serve --artifact`` — that
cold-starts every one of those processes in milliseconds with
bit-identical outputs).

Quickstart::

    from repro import NutritionEstimator

    estimator = NutritionEstimator()
    recipe = estimator.estimate_recipe(
        ["2 cups all-purpose flour", "1 teaspoon salt",
         "3/4 cup butter , softened"],
        servings=6,
    )
    print(round(recipe.per_serving.calories), "kcal per serving")

See ``README.md`` for the full tour, ``docs/architecture.md`` for the
module map and data flow, and ``docs/api.md`` for the HTTP and Python
APIs.
"""

# Before the subpackage imports: submodules (e.g. the pipeline
# engine's run manifests) read it during their own import.
__version__ = "1.1.0"

from repro._lazy import lazy_exports
from repro.core.estimator import (
    IngredientEstimate,
    NutritionEstimator,
    ParsedIngredient,
    RecipeEstimate,
)
from repro.core.profile import NutritionalProfile
from repro.matching.matcher import DescriptionMatcher, MatcherConfig
from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator
from repro.usda.database import NutrientDatabase, load_default_database

# The corpus generator is for building test corpora, not for estimating.
__getattr__, __dir__ = lazy_exports(globals(), {
    "GeneratorConfig": "repro.recipedb.generator",
    "RecipeGenerator": "repro.recipedb.generator",
})

__all__ = [
    "IngredientEstimate",
    "NutritionEstimator",
    "ParsedIngredient",
    "RecipeEstimate",
    "NutritionalProfile",
    "DescriptionMatcher",
    "MatcherConfig",
    "EstimatorSpec",
    "ShardedCorpusEstimator",
    "GeneratorConfig",
    "RecipeGenerator",
    "NutrientDatabase",
    "load_default_database",
    "__version__",
]
