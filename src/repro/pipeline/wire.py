"""Compact wire serialization for per-line estimates.

Shipping :class:`IngredientEstimate` lists between processes with
plain pickle is dominated by one payload item: every estimate drags
its matched :class:`FoodItem` (nutrients dict + portions, ~1 KB).
Worker and coordinator build their databases from the same
:class:`EstimatorSpec`, so the food rows are identical on both sides —
a food only needs to travel as its database index.

The codec is therefore stock (C-speed) pickle with a
``dispatch_table`` entry that reduces ``FoodItem`` to
``_restore_food(index)``; on load the index resolves against the
receiving side's database.

The estimate records themselves (:class:`IngredientEstimate` and the
:class:`ParsedIngredient`, :class:`MatchResult`,
:class:`UnitResolution` and :class:`NutritionalProfile` it holds) get
field-tuple reducers in the same table: each pickles as ``(cls,
field_tuple)`` with the field names read once from
:func:`dataclasses.fields`, so decode is one constructor call per
record.  The stock reduce of a slotted dataclass instead stores a
state list built by, and restored through, the dataclass-generated
``__getstate__``/``__setstate__``, which call ``dataclasses.fields``
once per object; on a corpus run that per-object walk was most of the
coordinator's decode time.  Those methods stay on the classes, so
blobs written with the stock reduce (older run journals) still load.
Everything below the records — parsed tokens, match word sets, the
profile's nutrient dict — round-trips through pickle unchanged, so
``loads_estimates(dumps_estimates(x, db), db) == x`` field-for-field
with zero hand-maintained field lists.  That includes provenance: the
``reason`` / ``trace`` fields added by the resolution strategy chain
travel bit-identically without codec changes, which is what lets
sharded workers ship per-line diagnostics to the coordinator for
corpus-level reason breakdowns.

The run journal (:mod:`repro.runs.journal`) is a second consumer of
this codec: durable runs persist each chunk's wire blob verbatim and
decode it at resume time with :func:`loads_estimates` against the
resuming coordinator's database.  The manifest's database-fingerprint
binding is what makes that sound — a resume only gets this far when
the index space is provably the one the blob was encoded against.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle
from collections.abc import Sequence
from operator import attrgetter

from repro.core.estimator import IngredientEstimate, ParsedIngredient
from repro.core.profile import NutritionalProfile
from repro.matching.types import MatchResult
from repro.units.gram_weights import UnitResolution
from repro.usda.database import NutrientDatabase
from repro.usda.schema import FoodItem

#: Foods of the database the *current* loads_estimates call resolves
#: against.  Module-global because pickle's reduce callbacks receive
#: only their stored arguments; set/cleared around each load (the
#: engine coordinator is single-threaded).
_LOAD_FOODS: Sequence[FoodItem] | None = None


def _restore_food(index: int) -> FoodItem:
    if _LOAD_FOODS is None:
        raise RuntimeError(
            "estimate wire records can only be unpickled via "
            "loads_estimates (no database bound)"
        )
    return _LOAD_FOODS[index]


def _field_reducer(cls):
    """Reduce a *cls* instance to ``(cls, field_tuple)``."""
    names = [f.name for f in dataclasses.fields(cls)]
    if len(names) == 1:
        get_one = attrgetter(names[0])
        return lambda obj: (cls, (get_one(obj),))
    get_all = attrgetter(*names)
    return lambda obj: (cls, get_all(obj))


#: A field-tuple reducer per record class an estimate is built from.
_RECORD_REDUCERS = {
    cls: _field_reducer(cls)
    for cls in (
        IngredientEstimate,
        ParsedIngredient,
        MatchResult,
        UnitResolution,
        NutritionalProfile,
    )
}


class _EstimatePickler(pickle.Pickler):
    """Pickler that writes foods as database indices and estimate
    records as field tuples."""

    def __init__(self, buffer: io.BytesIO, database: NutrientDatabase):
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        index_of = database.index_of
        table = {**copyreg.dispatch_table, **_RECORD_REDUCERS}
        table[FoodItem] = lambda food: (
            _restore_food, (index_of(food.ndb_no),)
        )
        self.dispatch_table = table


def dumps_estimates(
    estimates: Sequence[IngredientEstimate], database: NutrientDatabase
) -> bytes:
    """Serialize estimates, replacing foods with database indices."""
    buffer = io.BytesIO()
    _EstimatePickler(buffer, database).dump(list(estimates))
    return buffer.getvalue()


def loads_estimates(
    blob: bytes, database: NutrientDatabase | Sequence[FoodItem]
) -> list[IngredientEstimate]:
    """Deserialize estimates, resolving food indices in *database*."""
    global _LOAD_FOODS
    _LOAD_FOODS = (
        list(database)
        if isinstance(database, NutrientDatabase)
        else database
    )
    try:
        return pickle.loads(blob)
    finally:
        _LOAD_FOODS = None
