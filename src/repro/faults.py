"""Deterministic fault injection for the estimation pipeline.

Fault tolerance that cannot be exercised is decoration: every
recovery path in :mod:`repro.pipeline` and :mod:`repro.service` —
worker respawn, chunk retry, poison-line quarantine, request
deadlines — is driven in tests and CI through this module, which
turns an environment variable into reproducible failures at named
injection *sites*.

The plan is read from ``REPRO_FAULTS`` (so it crosses process
boundaries to forked pool workers for free) as a semicolon-separated
rule list::

    REPRO_FAULTS="crash@collect-chunk:1;corrupt@ingest-line:7"

Each rule is ``action@site:selector[:arg]``:

``crash@collect-chunk:1``
    The worker handling collect chunk 1 hard-exits (``os._exit``) —
    a segfault stand-in.  Fires on the **first attempt only**, so the
    supervisor's retry lands on a healthy worker; append ``:always``
    to crash every attempt (exhausting the retry budget).
``sleep@collect-chunk:0:30``
    The worker handling collect chunk 0 sleeps 30 s before working —
    a hung worker, detected via the chunk deadline.  First attempt
    only.
``raise@estimate-line:caviar``
    Estimating any ingredient line whose text contains ``caviar``
    raises :class:`InjectedFault`.  Fires on **every** attempt: it
    models poison *data*, which stays poisonous on retry — exactly
    what quarantine (not retry) must absorb.
``corrupt@ingest-line:7``
    The 7th line (1-based) of any JSONL corpus read through
    :func:`repro.recipedb.corpus.iter_recipes_jsonl` is replaced with
    bytes that are not JSON.  Every read, both engine passes.
``sleep@service-estimate:*:0.5``
    Every service estimation call sleeps 0.5 s — drives the
    request-deadline and load-shedding tests.
``crash@journal-append:2``
    The batch **driver** hard-exits immediately before appending
    frame 2 of a durable run's chunk journal — a SIGKILL/OOM-kill
    stand-in at a chunk boundary.  ``batch --resume`` must replay the
    journaled prefix and re-execute the rest bit-identically.
``corrupt@journal-append:2``
    The driver writes only **half** of frame 2 (fsync'd, so the torn
    bytes really reach the file) and then hard-exits — the torn-tail
    case a power cut produces.  Resume must truncate the torn frame
    and re-execute its chunk.

Sites wired in: ``collect-chunk`` / ``fallback-chunk`` (pool worker,
selector = chunk task id), ``worker-boot`` (pool worker start, fired
right after the fork, before the worker takes a task, selector =
worker id — ``crash@worker-boot:0`` kills worker 0 during its boot;
the respawned replacement gets a fresh id and boots clean),
``estimate-line`` (per-line estimation, selector = substring of the
line), ``ingest-line`` (JSONL read, selector = 1-based line number),
``service-estimate`` (the HTTP service's estimation path, selector
``*``), ``journal-append`` (the durable-run chunk journal, selector =
0-based frame index — this one kills the coordinating driver process
itself, not a worker).

The parsed plan is cached per environment value, so the per-line hot
path costs one ``os.environ.get`` when no plan is set.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

ENV_VAR = "REPRO_FAULTS"

#: Exit status used by injected crashes (distinctive in ``waitpid``).
CRASH_EXIT_CODE = 70

_ACTIONS = frozenset({"crash", "sleep", "raise", "corrupt"})


class InjectedFault(RuntimeError):
    """Raised by ``raise@...`` rules; quarantine treats it like any
    estimator failure."""


class FaultSpecError(ValueError):
    """The ``REPRO_FAULTS`` value does not parse."""


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One parsed ``action@site:selector[:arg]`` rule."""

    action: str
    site: str
    selector: str
    arg: str = ""

    @property
    def every_attempt(self) -> bool:
        return self.action == "raise" or self.arg == "always"

    def matches_index(self, index: int) -> bool:
        return self.selector == "*" or self.selector == str(index)


class FaultPlan:
    """A parsed set of fault rules, queried at injection sites."""

    def __init__(self, rules: tuple[FaultRule, ...]):
        self.rules = rules

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        rules = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            action, sep, rest = raw.partition("@")
            parts = rest.split(":")
            if not sep or action not in _ACTIONS or len(parts) < 2:
                raise FaultSpecError(
                    f"bad fault rule {raw!r} (want action@site:selector"
                    f"[:arg] with action in {sorted(_ACTIONS)})"
                )
            site, selector = parts[0], parts[1]
            arg = ":".join(parts[2:])
            if action == "sleep":
                try:
                    float(arg)
                except ValueError:
                    raise FaultSpecError(
                        f"sleep rule {raw!r} needs numeric seconds as arg"
                    ) from None
            rules.append(FaultRule(action, site, selector, arg))
        return cls(tuple(rules))

    # ------------------------------------------------------------------
    # injection sites

    def fire(self, site: str, index: int, attempt: int = 0) -> None:
        """Crash or stall at a (site, index) occurrence.

        ``crash`` and ``sleep`` rules fire on the first attempt only
        (unless ``:always``): the failure they model is a flaky
        *process*, and the point of the retry machinery is that a
        second attempt on a respawned worker succeeds.
        """
        for rule in self.rules:
            if rule.site != site or not rule.matches_index(index):
                continue
            if attempt > 0 and not rule.every_attempt:
                continue
            if rule.action == "crash":
                os._exit(CRASH_EXIT_CODE)
            elif rule.action == "sleep":
                time.sleep(float(rule.arg))
            elif rule.action == "raise":
                raise InjectedFault(
                    f"injected fault at {site}:{index} (attempt {attempt})"
                )

    def poison(self, text: str) -> None:
        """Raise if an ``estimate-line`` rule's selector is in *text*."""
        for rule in self.rules:
            if (
                rule.action == "raise"
                and rule.site == "estimate-line"
                and rule.selector in text
            ):
                raise InjectedFault(
                    f"injected poison line (selector {rule.selector!r})"
                )

    def wants_torn_write(self, site: str, index: int) -> bool:
        """Whether a ``corrupt@`` rule matches this (site, index).

        Used by the run journal: a matching rule makes the append
        write a *partial* frame and then hard-exit, producing a real
        torn tail on disk (the caller owns the partial write — only
        it knows the frame bytes — and then calls
        :func:`os._exit` with :data:`CRASH_EXIT_CODE`).
        """
        return any(
            rule.action == "corrupt"
            and rule.site == site
            and rule.matches_index(index)
            for rule in self.rules
        )

    def corrupt_line(self, line_no: int, raw: str) -> str:
        """The raw JSONL line to actually parse (possibly corrupted)."""
        for rule in self.rules:
            if (
                rule.action == "corrupt"
                and rule.site == "ingest-line"
                and rule.matches_index(line_no)
            ):
                return '{"recipe_id": !corrupted-by-fault-injection!'
        return raw

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.rules)} rules)"


_CACHED: tuple[str, FaultPlan | None] = ("", None)


def active_plan() -> FaultPlan | None:
    """The plan in ``REPRO_FAULTS``, or ``None`` (the hot-path case).

    Re-reads the environment on every call (a test toggling the
    variable between runs must take effect immediately) but re-parses
    only when the value changes.
    """
    global _CACHED
    spec = os.environ.get(ENV_VAR, "")
    if spec != _CACHED[0]:
        _CACHED = (spec, FaultPlan.parse(spec) if spec else None)
    return _CACHED[1]
