"""The §II-C unit-resolution strategy chain, with reason codes.

The paper's Figure 2 diagnostic — the gap between name-level and full
mapping, "the main problem lies in matching the units" — is only
actionable if one can ask *which* §II-C mechanism resolved or killed
each line.  This module makes the fallback chain explicit: an ordered
sequence of named strategies, each emitting a machine-readable reason
code, run by the one driver :func:`run_unit_chain`.

Strategies, in application order (order is behaviour — changing it
changes estimates):

1. ``ner-unit`` — the NER-detected UNIT entity resolves against the
   matched food's portions.  **If a NER unit is present but fails to
   resolve, ``phrase-scan`` and ``bare-count`` never run** (the unit
   text names a measure we do not know for this food; re-scanning the
   phrase would just re-find it, and a bare count would contradict the
   explicit measure).  ``size-as-unit`` still runs.
2. ``phrase-scan`` — no NER unit: scan the raw phrase for a known
   unit token ("In certain cases NER did not detect units ...").
3. ``size-as-unit`` — the SIZE entity doubles as a unit
   ("1 small onion").
4. ``bare-count`` — no unit text at all: a bare quantity of the food
   ("2 eggs").
5. ``plausibility-rescue`` — a resolved candidate above the
   grams-per-line threshold ("500 cups") is re-resolved from the
   phrase scan; an implausible candidate without a plausible rescue
   dies here.
6. ``corpus-frequent-unit`` — the corpus-level most-frequent-unit
   statistic for the ingredient name (the paper's garlic → clove
   example), itself subject to the plausibility threshold.

Every run produces a :class:`ChainResult` carrying the final
``reason`` (the strategy that resolved the unit, or the last one that
failed) and a compact ``trace`` of ``"stage:outcome"`` events for the
stages that actually ran.  Event strings are interned in a module
table so the hot path allocates no new strings.  The verbose
per-stage report behind ``repro explain`` / ``/v1/explain`` comes from
the same driver through its optional ``recorder`` argument, so the two
surfaces cannot drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.units.fallback import UnitFallback, plausible, scan_for_unit
from repro.units.gram_weights import UnitResolution, UnitResolver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core.estimator)
    from repro.core.estimator import ParsedIngredient

# ---------------------------------------------------------------------
# reason codes (machine-readable; the docs table mirrors these)

#: Unit resolved from the NER-detected UNIT entity.
REASON_NER_UNIT = "ner-unit"
#: Unit recovered by scanning the raw phrase for a known unit token.
REASON_PHRASE_SCAN = "phrase-scan"
#: The SIZE entity resolved as the unit ("1 small onion").
REASON_SIZE_AS_UNIT = "size-as-unit"
#: Bare quantity of the food ("2 eggs") via its first countable portion.
REASON_BARE_COUNT = "bare-count"
#: Initial candidate was implausible; the phrase-scanned unit rescued it.
REASON_PLAUSIBILITY_RESCUE = "plausibility-rescue"
#: Corpus-level most-frequent-unit statistic resolved the line.
REASON_CORPUS_UNIT = "corpus-frequent-unit"
#: Parse produced no NAME entity; the line never reached matching.
REASON_NO_NAME = "no-name"
#: No USDA-SR description shares a word with the parsed name.
REASON_NO_MATCH = "no-description-match"
#: Estimating the line raised; it was quarantined to a dead-letter
#: record (see :mod:`repro.deadletter`) instead of aborting the run.
#: Not part of the strategy chain — it marks a line the chain never
#: got to finish.
REASON_ESTIMATOR_ERROR = "estimator-error"

#: Reasons that mean "unit resolved" (status ``matched``), in chain order.
RESOLUTION_REASONS: tuple[str, ...] = (
    REASON_NER_UNIT,
    REASON_PHRASE_SCAN,
    REASON_SIZE_AS_UNIT,
    REASON_BARE_COUNT,
    REASON_PLAUSIBILITY_RESCUE,
    REASON_CORPUS_UNIT,
)

#: Reasons that kill a line before unit resolution (status ``unmatched``).
MATCH_FAILURE_REASONS: tuple[str, ...] = (REASON_NO_NAME, REASON_NO_MATCH)

# ---------------------------------------------------------------------
# stage outcomes

OUTCOME_RESOLVED = "resolved"
#: The strategy ran but produced no unit text to resolve.
OUTCOME_NO_UNIT = "no-unit"
#: The strategy produced a unit, but the food has no gram weight for it.
OUTCOME_UNRESOLVABLE = "unresolvable"
#: The resolved (quantity, unit) pair exceeds the plausibility threshold.
OUTCOME_IMPLAUSIBLE = "implausible"
#: The food has no countable portion for a bare quantity.
OUTCOME_NO_PORTION = "no-countable-portion"
#: The corpus statistics have never seen this ingredient name.
OUTCOME_NEVER_OBSERVED = "never-observed"
#: Recorder-only outcome for stages the chain never ran.
OUTCOME_SKIPPED = "skipped"

#: Interned ``"stage:outcome"`` event strings — the hot path emits a
#: bounded vocabulary, so every event is built exactly once.
_EVENTS: dict[tuple[str, str], str] = {}
#: Interned one-event trace tuples for the same vocabulary.  The
#: common lines (one strategy, one outcome) take their whole trace
#: from this table, so provenance costs zero allocations there.
_EVENT_TUPLES: dict[tuple[str, str], tuple[str, ...]] = {}


def trace_event(stage: str, outcome: str) -> str:
    """The interned compact event string for (*stage*, *outcome*)."""
    key = (stage, outcome)
    event = _EVENTS.get(key)
    if event is None:
        event = _EVENTS[key] = f"{stage}:{outcome}"
        _EVENT_TUPLES[key] = (event,)
    return event


def _event1(stage: str, outcome: str) -> tuple[str, ...]:
    """The interned single-event trace tuple for (*stage*, *outcome*)."""
    key = (stage, outcome)
    single = _EVENT_TUPLES.get(key)
    if single is None:
        trace_event(stage, outcome)
        single = _EVENT_TUPLES[key]
    return single


class ChainRecorder(Protocol):
    """Verbose per-stage observer for the explain surface.

    The driver calls :meth:`record` for **every** stage — including
    skipped ones, which the compact trace omits — with a human-readable
    detail string.  Recording must not affect the chain's outcome.
    """

    def record(
        self,
        stage: str,
        outcome: str,
        detail: str = "",
        resolution: UnitResolution | None = None,
    ) -> None:
        ...


class ChainResult:
    """Outcome of one :func:`run_unit_chain` run."""

    __slots__ = ("resolution", "reason", "trace", "used_corpus_unit")

    def __init__(
        self,
        resolution: UnitResolution | None,
        reason: str,
        trace: tuple[str, ...],
        used_corpus_unit: bool,
    ):
        self.resolution = resolution
        self.reason = reason
        self.trace = trace
        self.used_corpus_unit = used_corpus_unit




# Precomputed trace atoms: one interned tuple per (stage, outcome) the
# chain can emit.
_T_NER_UNRESOLVABLE = _event1(REASON_NER_UNIT, OUTCOME_UNRESOLVABLE)
_T_SCAN_NO_UNIT = _event1(REASON_PHRASE_SCAN, OUTCOME_NO_UNIT)
_T_SCAN_UNRESOLVABLE = _event1(REASON_PHRASE_SCAN, OUTCOME_UNRESOLVABLE)
_T_SIZE_UNRESOLVABLE = _event1(REASON_SIZE_AS_UNIT, OUTCOME_UNRESOLVABLE)
_T_BARE_NO_PORTION = _event1(REASON_BARE_COUNT, OUTCOME_NO_PORTION)
_T_RESCUE_UNRESOLVABLE = _event1(
    REASON_PLAUSIBILITY_RESCUE, OUTCOME_UNRESOLVABLE
)
_T_CORPUS_NEVER = _event1(REASON_CORPUS_UNIT, OUTCOME_NEVER_OBSERVED)
_T_CORPUS_UNRESOLVABLE = _event1(REASON_CORPUS_UNIT, OUTCOME_UNRESOLVABLE)
_T_CORPUS_IMPLAUSIBLE = _event1(REASON_CORPUS_UNIT, OUTCOME_IMPLAUSIBLE)
_T_CORPUS_RESOLVED = _event1(REASON_CORPUS_UNIT, OUTCOME_RESOLVED)
_T_RESOLVED: dict[str, tuple[str, ...]] = {
    reason: _event1(reason, OUTCOME_RESOLVED)
    for reason in RESOLUTION_REASONS
}
_T_IMPLAUSIBLE: dict[str, tuple[str, ...]] = {
    reason: _event1(reason, OUTCOME_IMPLAUSIBLE)
    for reason in RESOLUTION_REASONS
}

#: The candidate-producing stages, in application order.  Once one
#: resolves, the recorder gets a skip row for each stage after it.
_CANDIDATE_STAGES: tuple[str, ...] = (
    REASON_NER_UNIT,
    REASON_PHRASE_SCAN,
    REASON_SIZE_AS_UNIT,
    REASON_BARE_COUNT,
)


def run_unit_chain(
    parsed: "ParsedIngredient",
    resolver: UnitResolver,
    quantity: float,
    max_grams: float,
    stats: UnitFallback | None = None,
    recorder: ChainRecorder | None = None,
) -> ChainResult:
    """Run the full §II-C strategy chain for one parsed line.

    Pure given its arguments: the outcome depends only on *parsed*,
    the resolver's food, *quantity*, the plausibility threshold
    *max_grams* (grams per line) and the frozen corpus statistics
    *stats* — the order-independence the two-phase corpus protocol
    builds on.  With ``stats=None`` the ``corpus-frequent-unit``
    strategy never runs (the collect pass uses this so each line's
    outcome is independent of corpus order).  The chain only reads
    *stats*.

    *recorder*, when given, receives a verbose row for every stage,
    including skipped ones, in chain order (a stage's ``resolved``
    row follows the plausibility gate, so it comes after the skip
    rows of the stages behind it).  Every ``recorder.record`` call is
    guarded and only observes, so the result is the same with or
    without one.  The body is straight-line code because estimation
    runs it for every ingredient line; its trace atoms are the
    interned tuples above.
    """
    unit = parsed.unit or None
    scanned: str | None = None
    scan_done = False
    trace: tuple[str, ...] = ()

    # 1. ner-unit (failure skips phrase-scan and bare-count) /
    # 2. phrase-scan (only when NER produced no unit).
    if unit is not None:
        resolution = resolver.resolve(unit)
        reason = REASON_NER_UNIT
        if resolution is None:
            trace = _T_NER_UNRESOLVABLE
            if recorder is not None:
                recorder.record(
                    REASON_NER_UNIT,
                    OUTCOME_UNRESOLVABLE,
                    f"no gram weight for NER unit {unit!r} "
                    f"(phrase-scan and bare-count are skipped: the phrase "
                    f"names an explicit measure)",
                )
                recorder.record(
                    REASON_PHRASE_SCAN,
                    OUTCOME_SKIPPED,
                    "NER already detected a unit",
                )
    else:
        if recorder is not None:
            recorder.record(
                REASON_NER_UNIT, OUTCOME_SKIPPED, "NER detected no UNIT entity"
            )
        scanned = scan_for_unit(parsed.text)
        scan_done = True
        reason = REASON_PHRASE_SCAN
        if scanned is None:
            resolution = None
            trace = _T_SCAN_NO_UNIT
            if recorder is not None:
                recorder.record(
                    REASON_PHRASE_SCAN,
                    OUTCOME_NO_UNIT,
                    "no known unit token in the phrase",
                )
        else:
            resolution = resolver.resolve(scanned)
            if resolution is None:
                trace = _T_SCAN_UNRESOLVABLE
                if recorder is not None:
                    recorder.record(
                        REASON_PHRASE_SCAN,
                        OUTCOME_UNRESOLVABLE,
                        f"scanned unit {scanned!r} has no gram weight for "
                        f"this food",
                    )

    # 3. size-as-unit.
    if resolution is None:
        if parsed.size:
            resolution = resolver.resolve(parsed.size)
            reason = REASON_SIZE_AS_UNIT
            if resolution is None:
                trace = trace + _T_SIZE_UNRESOLVABLE
                if recorder is not None:
                    recorder.record(
                        REASON_SIZE_AS_UNIT,
                        OUTCOME_UNRESOLVABLE,
                        f"SIZE {parsed.size!r} has no gram weight for this "
                        f"food",
                    )
        elif recorder is not None:
            recorder.record(
                REASON_SIZE_AS_UNIT,
                OUTCOME_SKIPPED,
                "no SIZE entity in the phrase",
            )

    # 4. bare-count (only when NER produced no unit).
    if resolution is None:
        if unit is None:
            resolution = resolver.resolve(None)
            reason = REASON_BARE_COUNT
            if resolution is None:
                trace = trace + _T_BARE_NO_PORTION
                if recorder is not None:
                    recorder.record(
                        REASON_BARE_COUNT,
                        OUTCOME_NO_PORTION,
                        "food has no countable portion",
                    )
        elif recorder is not None:
            recorder.record(
                REASON_BARE_COUNT,
                OUTCOME_SKIPPED,
                "NER already detected a unit",
            )
    elif recorder is not None:
        later = _CANDIDATE_STAGES.index(reason) + 1
        for stage in _CANDIDATE_STAGES[later:]:
            recorder.record(
                stage, OUTCOME_SKIPPED, f"{reason} already produced a candidate"
            )

    # 5. plausibility gate + rescue.
    if resolution is not None and not plausible(
        quantity, resolution.grams_per_unit, max_grams
    ):
        event = _T_IMPLAUSIBLE[reason]
        trace = event if not trace else trace + event
        if recorder is not None:
            recorder.record(
                reason,
                OUTCOME_IMPLAUSIBLE,
                f"{quantity:g} x {resolution.grams_per_unit:g} g/unit "
                f"exceeds the {max_grams:g} g threshold",
                resolution,
            )
        if not scan_done:
            scanned = scan_for_unit(parsed.text)
            scan_done = True
        rescued = resolver.resolve(scanned) if scanned else None
        reason = REASON_PLAUSIBILITY_RESCUE
        if rescued is not None and plausible(
            quantity, rescued.grams_per_unit, max_grams
        ):
            resolution = rescued
        else:
            resolution = None
            trace = trace + _T_RESCUE_UNRESOLVABLE
            if recorder is not None:
                recorder.record(
                    REASON_PLAUSIBILITY_RESCUE,
                    OUTCOME_UNRESOLVABLE,
                    "no plausible phrase-scanned unit to rescue with",
                )

    if resolution is not None:
        event = _T_RESOLVED[reason]
        if recorder is not None:
            recorder.record(
                reason, OUTCOME_RESOLVED, "unit resolved", resolution
            )
        return ChainResult(
            resolution, reason, event if not trace else trace + event, False
        )
    if stats is None:
        if recorder is not None:
            recorder.record(
                REASON_CORPUS_UNIT,
                OUTCOME_SKIPPED,
                "corpus statistics not consulted (collect pass)",
            )
        return ChainResult(None, reason, trace, False)

    # 6. corpus-frequent-unit.
    name = parsed.name
    frequent = stats.most_frequent_unit(name)
    if frequent is None:
        if recorder is not None:
            recorder.record(
                REASON_CORPUS_UNIT,
                OUTCOME_NEVER_OBSERVED,
                f"no unit ever observed for {name!r}",
            )
        return ChainResult(
            None, REASON_CORPUS_UNIT, trace + _T_CORPUS_NEVER, False
        )
    rescued = resolver.resolve(frequent)
    if rescued is not None and plausible(
        quantity, rescued.grams_per_unit, max_grams
    ):
        if recorder is not None:
            recorder.record(
                REASON_CORPUS_UNIT,
                OUTCOME_RESOLVED,
                f"most frequent unit for {name!r} is {frequent!r}",
                rescued,
            )
        return ChainResult(
            rescued, REASON_CORPUS_UNIT, trace + _T_CORPUS_RESOLVED, True
        )
    if rescued is None:
        trace = trace + _T_CORPUS_UNRESOLVABLE
        if recorder is not None:
            recorder.record(
                REASON_CORPUS_UNIT,
                OUTCOME_UNRESOLVABLE,
                f"frequent unit {frequent!r} has no gram weight for this food",
            )
    else:
        trace = trace + _T_CORPUS_IMPLAUSIBLE
        if recorder is not None:
            recorder.record(
                REASON_CORPUS_UNIT,
                OUTCOME_IMPLAUSIBLE,
                f"frequent unit {frequent!r} resolves but "
                f"{quantity:g} x {rescued.grams_per_unit:g} g/unit exceeds "
                f"the {max_grams:g} g threshold",
                rescued,
            )
    return ChainResult(None, REASON_CORPUS_UNIT, trace, False)
