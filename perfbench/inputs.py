"""Seeded inputs for each workload, with why it exists and its shape.

The program only ever sees what these functions produce: a JSONL
corpus file for ``batch-cold`` and pre-rendered HTTP request bytes for
``serve-estimate``.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field

WHY = {
    "batch-cold": (
        "bulk labelling of a whole scraped corpus on a fresh "
        "`repro batch --workers 2`: cold memos, natural line reuse, "
        "pool wire/IPC on the path"
    ),
    "serve-estimate": (
        "recommender lookups: open-loop /v1/estimate at a fixed rate, "
        "Zipf over a catalogue larger than the response cache, so hits "
        "and full estimations mix"
    ),
}

#: batch-cold: recipes in the corpus, generated with the generator's
#: natural reuse (``line_reuse=0``): ~48k lines, distinct ratio ~0.43.
BATCH_RECIPES = 6000

#: serve-estimate: catalogue size (about three times the service's
#: 4096-entry response cache) and Zipf exponent, chosen so that
#: roughly half the requests of a warm server hit the cache.  The
#: catalogue is one fixed corpus; the run's seed picks which recipes
#: are popular and the request stream.  A seeded catalogue moved
#: capacity by ~15% from seed to seed (the server is still warming its
#: line memos over a 32k-line vocabulary while it is measured).
CATALOGUE_RECIPES = 12000
CATALOGUE_SEED = 7
ZIPF_EXPONENT = 0.6

def render_post(path: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _generator(seed: int):
    from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

    return RecipeGenerator(config=GeneratorConfig(seed=seed))


def _line_shape(recipes) -> dict:
    lines = [text for recipe in recipes for text in recipe.ingredient_texts]
    return {
        "lines": len(lines),
        "distinct_lines": len(set(lines)),
        "distinct_ratio": round(len(set(lines)) / len(lines), 4),
    }


@dataclass
class BatchCorpus:
    recipes: list
    shape: dict


def batch_corpus(seed: int) -> BatchCorpus:
    recipes = _generator(seed).generate(BATCH_RECIPES)
    return BatchCorpus(
        recipes, {"recipes": len(recipes), **_line_shape(recipes)}
    )


@dataclass
class Catalogue:
    """serve-estimate inputs: one request per catalogue recipe."""

    recipes: list
    requests: list[bytes]
    payloads: list[dict]
    lines: list[int]
    seed: int
    shape: dict = field(default_factory=dict)

    def draws(self, stream: int):
        """Endless Zipf-distributed catalogue indices (seeded per stream).

        Rank r has weight 1/(r+1)^s over a seeded shuffle of the
        catalogue, so popularity is independent of generation order.
        """
        order = list(range(len(self.recipes)))
        random.Random(self.seed).shuffle(order)
        cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(order))
        ))
        total = cumulative[-1]
        rng = random.Random(self.seed * 1000 + stream)
        while True:
            yield order[bisect.bisect(cumulative, rng.random() * total)]


def catalogue(seed: int) -> Catalogue:
    recipes = _generator(CATALOGUE_SEED).generate(CATALOGUE_RECIPES)
    payloads = [
        {"ingredients": r.ingredient_texts, "servings": r.servings}
        for r in recipes
    ]
    requests = [render_post("/v1/estimate", p) for p in payloads]
    cat = Catalogue(
        recipes, requests, payloads,
        [len(r.ingredients) for r in recipes], seed,
    )
    cat.shape = {
        "catalogue_recipes": len(recipes),
        "zipf_exponent": ZIPF_EXPONENT,
        "mean_request_bytes": round(
            sum(map(len, requests)) / len(requests), 1
        ),
        **_line_shape(recipes),
    }
    return cat
