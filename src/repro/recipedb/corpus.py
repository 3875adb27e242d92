"""JSONL persistence for generated recipe corpora."""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

from repro import faults
from repro.deadletter import (
    REASON_INVALID_RECIPE,
    REASON_MALFORMED_JSON,
    DeadLetterLog,
)
from repro.ner.corpus import TaggedPhrase
from repro.recipedb.model import GroundTruth, Ingredient, Recipe


def _ingredient_to_dict(ingredient: Ingredient) -> dict:
    return {
        "text": ingredient.text,
        "tokens": list(ingredient.tagged.tokens),
        "tags": list(ingredient.tagged.tags),
        "truth": {
            "spec_key": ingredient.truth.spec_key,
            "ndb_no": ingredient.truth.ndb_no,
            "grams": ingredient.truth.grams,
            "kcal": ingredient.truth.kcal,
        },
    }


def _ingredient_from_dict(data: dict) -> Ingredient:
    truth = data["truth"]
    return Ingredient(
        text=data["text"],
        tagged=TaggedPhrase(tuple(data["tokens"]), tuple(data["tags"])),
        truth=GroundTruth(
            spec_key=truth["spec_key"],
            ndb_no=truth["ndb_no"],
            grams=truth["grams"],
            kcal=truth["kcal"],
        ),
    )


def save_recipes_jsonl(recipes: list[Recipe], path: str | Path) -> None:
    """Write one JSON object per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for recipe in recipes:
            fh.write(
                json.dumps(
                    {
                        "recipe_id": recipe.recipe_id,
                        "title": recipe.title,
                        "cuisine": recipe.cuisine,
                        "source": recipe.source,
                        "servings": recipe.servings,
                        "gold_calories_per_serving": recipe.gold_calories_per_serving,
                        "ingredients": [
                            _ingredient_to_dict(i) for i in recipe.ingredients
                        ],
                    }
                )
                + "\n"
            )


def _recipe_from_line(line: str) -> Recipe:
    data = json.loads(line)
    return Recipe(
        recipe_id=data["recipe_id"],
        title=data["title"],
        cuisine=data["cuisine"],
        source=data["source"],
        servings=data["servings"],
        ingredients=tuple(
            _ingredient_from_dict(i) for i in data["ingredients"]
        ),
        gold_calories_per_serving=data["gold_calories_per_serving"],
    )


def iter_recipes_jsonl(
    path: str | Path,
    *,
    on_error: str = "raise",
    dead_letters: DeadLetterLog | None = None,
) -> Iterator[Recipe]:
    """Stream recipes from a JSONL corpus one at a time.

    Memory stays bounded by a single recipe regardless of corpus
    length — the sharded estimation engine reads a corpus through this
    iterator once per run, keeping only its distinct-line table and a
    compact per-occurrence layout for assembly, so corpora much larger
    than RAM work.

    ``on_error`` controls what a malformed line does:

    * ``"raise"`` (default) — propagate, aborting the stream mid-way:
      strict mode, bit-compatible with the seed behaviour.
    * ``"skip"`` — quarantine the line and continue.  Each skipped
      line is recorded in *dead_letters* (when given) with its 1-based
      file line number and a reason code: ``malformed-json`` for
      undecodable JSON, ``invalid-recipe`` for valid JSON missing the
      recipe schema.  ``repro batch`` reads the file a second time
      for recipe titles and passes no log there, so a bad line is
      reported once.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip': {on_error!r}")
    plan = faults.active_plan()
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if plan is not None:
                line = plan.corrupt_line(line_no, line)
            # Parse outside the yield so a consumer exception thrown
            # into the generator can never be mistaken for a bad line.
            try:
                recipe = _recipe_from_line(line)
            except json.JSONDecodeError as exc:
                if on_error == "raise":
                    raise
                if dead_letters is not None:
                    dead_letters.add(
                        "ingest", line_no, line.strip(),
                        REASON_MALFORMED_JSON, str(exc),
                    )
                continue
            except (KeyError, TypeError, ValueError) as exc:
                if on_error == "raise":
                    raise
                if dead_letters is not None:
                    dead_letters.add(
                        "ingest", line_no, line.strip(),
                        REASON_INVALID_RECIPE, repr(exc),
                    )
                continue
            yield recipe


def load_recipes_jsonl(path: str | Path) -> list[Recipe]:
    """Inverse of :func:`save_recipes_jsonl`."""
    return list(iter_recipes_jsonl(path))
