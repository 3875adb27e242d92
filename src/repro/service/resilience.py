"""Request-level resilience primitives for the HTTP service.

Three small, independently testable mechanisms keep an overloaded or
partially failing service *predictable* instead of slow-then-dead:

* :class:`Deadline` — a cooperative per-request time budget.  The
  estimation path checks it at phase boundaries and raises
  :class:`~repro.service.errors.DeadlineExceededError` (HTTP 504)
  rather than holding a handler thread indefinitely.
* :class:`AdmissionController` — bounded concurrency with a bounded
  wait queue.  Work beyond ``max_concurrent`` waits; work beyond
  ``max_queue`` is **shed immediately** with
  :class:`~repro.service.errors.ServiceOverloadedError` (HTTP 503 +
  ``Retry-After``).  Shedding at the door is what keeps saturation
  from becoming unbounded memory growth and multi-minute latencies —
  the service degrades to "some requests get a fast 503" instead of
  "every request times out".  :meth:`~AdmissionController.reserve` is
  the entry that never blocks: the event loop queues a request with
  it the moment the request is read.
* :class:`CircuitBreaker` — classic closed/open/half-open gate around
  the sharded batch engine.  After ``threshold`` consecutive engine
  failures the breaker opens and batch requests degrade to the
  in-process estimator (bit-identical results, just slower) without
  paying the failing fan-out; after ``cooldown_s`` one probe request
  is allowed through to test recovery.

All three are plain ``threading`` constructions — no event loop, same
zero-dependency posture as the rest of the service.
"""

from __future__ import annotations

import threading
import time

from repro.service.errors import DeadlineExceededError, ServiceOverloadedError

#: Longest a request will wait in the admission queue when it carries
#: no deadline of its own.
MAX_QUEUE_WAIT_S = 5.0

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class Deadline:
    """A monotonic-clock time budget, checked cooperatively.

    Created once per request from ``ServiceConfig.request_timeout_s``
    and threaded through the estimation path, which calls
    :meth:`check` at phase boundaries (estimation is pure CPU work in
    one process — there is nothing to interrupt preemptively, so the
    granularity is the phase, not the instruction).
    """

    __slots__ = ("_expires_at", "budget_s")

    def __init__(self, budget_s: float):
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be positive: {budget_s}")
        self.budget_s = budget_s
        self._expires_at = time.monotonic() + budget_s

    def remaining_s(self) -> float:
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining_s() <= 0

    def check(self, phase: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is gone."""
        if self.expired():
            raise DeadlineExceededError(
                f"request exceeded its {self.budget_s:.1f}s deadline "
                f"(at: {phase})"
            )


class AdmissionController:
    """Bounded concurrency + bounded queue + immediate shedding.

    ``max_concurrent`` requests run; up to ``max_queue`` more wait on
    a condition variable (FIFO-ish under CPython's lock fairness);
    everything beyond that is shed *without waiting*.  Use as::

        with admission.admitted(deadline):
            ... do the work ...

    or, where the caller must not block, take a queue place now with
    :meth:`reserve` and run the returned admission later, with
    :meth:`Admission.try_start` or ``with``.

    :attr:`active` and :attr:`queued` feed ``/metrics`` and
    ``/readyz``; :attr:`shed_total` counts 503s issued.  The server's
    graceful shutdown polls :meth:`drained` so in-flight work finishes
    before the process exits.
    """

    def __init__(self, max_concurrent: int, max_queue: int):
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1: {max_concurrent}"
            )
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0: {max_queue}")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self._cond = threading.Condition()
        self._active = 0
        self._queued = 0
        self._shed = 0

    # -- introspection (all lock-guarded: plain int reads are atomic
    # in CPython, but reading under the lock keeps the triple coherent
    # for /metrics)

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued

    @property
    def shed_total(self) -> int:
        with self._cond:
            return self._shed

    def saturated(self) -> bool:
        """Would a request arriving now be queued or shed?"""
        with self._cond:
            return self._active >= self.max_concurrent

    def full(self) -> bool:
        """Would a request arriving now be shed?"""
        with self._cond:
            return self._full_locked()

    def _full_locked(self) -> bool:
        return (
            self._active + self._queued
            >= self.max_concurrent + self.max_queue
        )

    def drained(self) -> bool:
        with self._cond:
            return self._active == 0 and self._queued == 0

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "active": self._active,
                "queued": self._queued,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "shed_total": self._shed,
            }

    # -- admission

    def admitted(self, deadline: Deadline | None = None) -> "Admission":
        """Context manager: enter (or shed) on ``__enter__``."""
        return Admission(self, deadline)

    def reserve(self, deadline: Deadline | None = None) -> "Admission":
        """Count a request as queued now, or shed it; never waits.

        Sheds (:class:`ServiceOverloadedError`) when ``active +
        queued`` already fills ``max_concurrent + max_queue``.  The
        returned admission holds a queue place: ``try_start`` moves it
        to a free execution slot without waiting, ``with`` waits for
        one like any queued request, ``release`` gives the place back.
        """
        with self._cond:
            if self._full_locked():
                raise self._shed_locked(deadline)
            self._queued += 1
        return Admission(self, deadline, _QUEUED)

    def _shed_locked(self, deadline: Deadline | None) -> ServiceOverloadedError:
        self._shed += 1
        return ServiceOverloadedError(
            f"service at capacity ({self._active} active, "
            f"{self._queued} queued); request shed",
            retry_after_s=self._retry_after(deadline),
        )

    def _enter(self, deadline: Deadline | None, queued: bool) -> None:
        """Take an execution slot, waiting in the queue if need be;
        *queued* says the request already holds a queue place."""
        with self._cond:
            if not queued:
                if self._active < self.max_concurrent:
                    self._active += 1
                    return
                if self._queued >= self.max_queue:
                    raise self._shed_locked(deadline)
                self._queued += 1
            try:
                wait_until = time.monotonic() + (
                    min(deadline.remaining_s(), MAX_QUEUE_WAIT_S)
                    if deadline is not None
                    else MAX_QUEUE_WAIT_S
                )
                while self._active >= self.max_concurrent:
                    remaining = wait_until - time.monotonic()
                    if remaining <= 0:
                        self._shed += 1
                        raise ServiceOverloadedError(
                            "service at capacity; gave up waiting for an "
                            "execution slot",
                            retry_after_s=self._retry_after(deadline),
                        )
                    self._cond.wait(remaining)
                self._active += 1
            finally:
                self._queued -= 1

    def _try_start(self) -> bool:
        """Move one queued request to a free slot; ``False`` if none."""
        with self._cond:
            if self._active >= self.max_concurrent:
                return False
            self._queued -= 1
            self._active += 1
            return True

    def _withdraw(self) -> None:
        with self._cond:
            self._queued -= 1

    def _leave(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify()

    @staticmethod
    def _retry_after(deadline: Deadline | None) -> int:
        # A slot frees within one request's runtime; suggest roughly
        # that, floored at 1 s (Retry-After is integer seconds).
        if deadline is None:
            return 1
        return max(1, round(min(deadline.budget_s, 30.0)))


_QUEUED = "queued"
_ACTIVE = "active"


class Admission:
    """One request's place in an :class:`AdmissionController`.

    Holds nothing, a queue place (from :meth:`~AdmissionController.
    reserve`) or an execution slot, and carries the request's
    :attr:`deadline`.  ``with`` runs the request in a slot: entering
    takes one unless already held (waiting, or shedding, like any
    queued request), leaving releases whatever is held.
    """

    __slots__ = ("_controller", "deadline", "_held")

    def __init__(
        self,
        controller: AdmissionController,
        deadline: Deadline | None,
        held: str | None = None,
    ):
        self._controller = controller
        self.deadline = deadline
        self._held = held

    def try_start(self) -> bool:
        """Take a free execution slot for the queued request, now or
        never; ``True`` if the admission holds a slot."""
        if self._held == _QUEUED and self._controller._try_start():
            self._held = _ACTIVE
        return self._held == _ACTIVE

    def release(self) -> None:
        """Give back the slot or queue place held (idempotent)."""
        held, self._held = self._held, None
        if held == _ACTIVE:
            self._controller._leave()
        elif held == _QUEUED:
            self._controller._withdraw()

    def __enter__(self) -> "Admission":
        held, self._held = self._held, None
        if held != _ACTIVE:
            self._controller._enter(self.deadline, queued=held == _QUEUED)
        self._held = _ACTIVE
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class CircuitBreaker:
    """Closed / open / half-open gate around a failure-prone path.

    ``threshold`` **consecutive** failures open the breaker; while
    open, :meth:`allow` answers ``False`` (caller takes the degraded
    path) until ``cooldown_s`` has passed, then exactly one caller is
    admitted as a half-open probe.  The probe's outcome closes the
    breaker (success) or re-opens it for another cooldown (failure).
    """

    def __init__(self, threshold: int, cooldown_s: float):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive: {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._opens_total = 0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._refresh_locked()

    def allow(self) -> bool:
        """May the protected path be attempted right now?"""
        with self._lock:
            state = self._refresh_locked()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if (
                self._state == BREAKER_HALF_OPEN
                or self._consecutive_failures >= self.threshold
            ):
                if self._state != BREAKER_OPEN:
                    self._opens_total += 1
                self._state = BREAKER_OPEN
                self._opened_at = time.monotonic()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._refresh_locked(),
                "consecutive_failures": self._consecutive_failures,
                "opens_total": self._opens_total,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
            }

    def _refresh_locked(self) -> str:
        if (
            self._state == BREAKER_OPEN
            and time.monotonic() - self._opened_at >= self.cooldown_s
        ):
            self._state = BREAKER_HALF_OPEN
        return self._state
