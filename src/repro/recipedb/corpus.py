"""JSONL persistence for generated recipe corpora."""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import TypeVar

from repro import faults
from repro.deadletter import (
    REASON_INVALID_RECIPE,
    REASON_MALFORMED_JSON,
    DeadLetterLog,
)
from repro.ner.corpus import TAGS, TaggedPhrase
from repro.recipedb.model import GroundTruth, Ingredient, Recipe

T = TypeVar("T")


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


def _recipe_from_dict(data: dict) -> Recipe:
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


def _recipe_from_line(line: str) -> Recipe:
    return _recipe_from_dict(json.loads(line))


#: The keys :func:`_recipe_from_dict` reads at each level of a line.
_RECIPE_KEYS = frozenset({
    "recipe_id", "title", "cuisine", "source", "servings", "ingredients",
    "gold_calories_per_serving",
})
_INGREDIENT_KEYS = frozenset({"text", "tokens", "tags", "truth"})
_TRUTH_KEYS = frozenset({"spec_key", "ndb_no", "grams", "kcal"})
_TAGS = frozenset(TAGS)


def _lean_fields(data) -> tuple[str, list[str], object] | None:
    """``(title, texts, servings)`` of a decoded line of the common
    shape, or ``None`` for any other line.

    Every check here implies the matching check of
    :func:`_recipe_from_dict` (dicts with all keys at every level,
    token and tag lists of one length, known tags, finite positive
    numeric servings), so a non-``None`` result is exactly what the
    full parse would have produced.
    """
    if type(data) is not dict or not data.keys() >= _RECIPE_KEYS:
        return None
    servings = data["servings"]
    if type(servings) not in (int, float) or not 0 < servings < math.inf:
        return None
    ingredients = data["ingredients"]
    if type(ingredients) is not list:
        return None
    texts = []
    for ingredient in ingredients:
        if (
            type(ingredient) is not dict
            or not ingredient.keys() >= _INGREDIENT_KEYS
        ):
            return None
        truth = ingredient["truth"]
        tokens = ingredient["tokens"]
        tags = ingredient["tags"]
        if (
            type(truth) is not dict
            or not truth.keys() >= _TRUTH_KEYS
            or type(tokens) is not list
            or type(tags) is not list
            or len(tokens) != len(tags)
        ):
            return None
        try:
            known = _TAGS.issuperset(tags)
        except TypeError:  # an unhashable tag
            return None
        if not known:
            return None
        texts.append(ingredient["text"])
    return data["title"], texts, servings


def recipe_fields_from_line(line: str) -> tuple[str, list[str], object]:
    """``(title, ingredient texts, servings)`` of one corpus line.

    The lean parse for estimation: equal to projecting the
    :class:`Recipe` that :func:`_recipe_from_line` builds, without
    building it (or its ingredients, tagged phrases and ground truth).
    A line the fast checks cannot vouch for goes through the full
    parse, so a bad line raises the very exception it always raised.
    """
    data = json.loads(line)
    fields = _lean_fields(data)
    if fields is None:
        recipe = _recipe_from_dict(data)
        fields = recipe.title, recipe.ingredient_texts, recipe.servings
    return fields


def iter_recipes_jsonl(
    path: str | Path,
    *,
    on_error: str = "raise",
    dead_letters: DeadLetterLog | None = None,
    parse: Callable[[str], T] = _recipe_from_line,
) -> Iterator[T]:
    """Stream the records of a JSONL corpus one line at a time.

    Each non-blank line goes through *parse*: by default the full
    :class:`Recipe` (tokens, tags, ground truth), or
    :func:`recipe_fields_from_line` for the estimation paths, which
    need only ``(title, texts, servings)`` — the sharded engine's one
    corpus traversal and ``repro batch``'s title stream.  Both parses
    accept and reject the same lines with the same exceptions, so
    quarantine, fault injection and line numbering below are shared
    and two streams over one file skip the same lines.

    Memory stays bounded by a single line regardless of corpus
    length, so corpora much larger than RAM stream.

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
                record = parse(line)
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
            yield record


def load_recipes_jsonl(path: str | Path) -> list[Recipe]:
    """Inverse of :func:`save_recipes_jsonl`."""
    return list(iter_recipes_jsonl(path))
