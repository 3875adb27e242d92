"""RecipeDB substrate: a synthetic recipe corpus with ground truth.

The paper consumes RecipeDB — 118,071 recipes scraped from AllRecipes
and FOOD.com.  Offline, this subpackage generates a deterministic
corpus with the same observable properties (noisy free-text ingredient
phrases across 26 regional cuisines, alias units, ranges, packaging
parentheticals, "or" alternatives, trailing instructions) *plus* exact
ground truth per phrase: the true NER tags, the true USDA food and the
true gram weight.  Ground truth is what lets every §III number be
scored without the paper's manual audits.

Estimation reads recipes but never generates them, so the generator
and its catalogues (ingredients, cuisines, the Piroszhki phrases) load
on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports
from repro.recipedb.corpus import load_recipes_jsonl, save_recipes_jsonl
from repro.recipedb.model import GroundTruth, Ingredient, Recipe

__getattr__, __dir__ = lazy_exports(globals(), {
    "GeneratorConfig": "repro.recipedb.generator",
    "RecipeGenerator": "repro.recipedb.generator",
    "INGREDIENTS": "repro.recipedb.ingredients",
    "IngredientSpec": "repro.recipedb.ingredients",
    "spec_by_key": "repro.recipedb.ingredients",
    "CUISINES": "repro.recipedb.cuisines",
    "PIROSZHKI_PHRASES": "repro.recipedb.phrases",
    "PIROSZHKI_TABLE_I": "repro.recipedb.phrases",
})

__all__ = [
    "load_recipes_jsonl",
    "save_recipes_jsonl",
    "GeneratorConfig",
    "RecipeGenerator",
    "INGREDIENTS",
    "IngredientSpec",
    "spec_by_key",
    "CUISINES",
    "GroundTruth",
    "Ingredient",
    "Recipe",
    "PIROSZHKI_PHRASES",
    "PIROSZHKI_TABLE_I",
]
