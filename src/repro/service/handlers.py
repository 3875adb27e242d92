"""Endpoint routing and the request dispatch path.

One table (:data:`ENDPOINTS`) declares everything per endpoint —
method, validator, state method, cacheability, admission — and
:func:`dispatch` wraps it with everything common to every request:
method checking, payload validation, response caching, admission
control, per-request deadlines, metrics, and the typed-error contract
(any :class:`ServiceError` becomes its JSON envelope plus any headers
it carries, e.g. ``Retry-After`` on 503; anything else becomes a
generic 500 so tracebacks never leak to clients).

Cacheable endpoints (the five ``POST /v1/*`` ones — ``/v1/explain``
included, whose response is a pure function of its payload) are
looked up in / stored to the response cache as **serialized bodies**
(bytes, or for ``/v1/estimate`` a
:class:`~repro.service.codec.SplicedBody` whose fragments the line
memo shares): a hit skips validation-to-encoding entirely and the
server writes the joined bytes straight to the socket.  ``/healthz``,
``/readyz`` and ``/metrics`` are never cached.

The same five POST endpoints are the **admitted** ones: they do real
estimation work, so they pass through the
:class:`~repro.service.resilience.AdmissionController` (bounded
concurrency, bounded queue, 503 shed beyond that) and run under the
request :class:`~repro.service.resilience.Deadline`.  Introspection
endpoints bypass admission — health checks and metrics scrapes must
keep answering precisely when the service is saturated — and cache
hits bypass it too (a memcpy does not need a concurrency slot).

``/v1/estimate`` alone is marked ``on_loop``: the event-loop server
admits its cache misses with :func:`admit` as it reads them and runs
them through :func:`dispatch` on its own thread, while every other
miss runs through the same :func:`dispatch` on a pool thread.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.service import codec
from repro.service.errors import (
    DeadlineExceededError,
    InternalError,
    MethodNotAllowedError,
    NotFoundError,
    ServiceError,
)
from repro.service.resilience import Admission, Deadline
from repro.service.state import ServiceState

log = logging.getLogger("repro.service")


@dataclass(frozen=True, slots=True)
class Response:
    """What the HTTP layer writes back."""

    status: int
    body: bytes
    cache_hit: bool = False
    headers: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class Endpoint:
    """Declarative spec for one (method, path) route.

    ``validate`` turns the decoded JSON payload into a request object
    (``None`` for bodyless GET endpoints, whose ``invoke`` receives
    the raw payload); ``invoke`` calls the matching
    :class:`ServiceState` method with the request deadline.
    ``cacheable`` routes additionally get normalized-payload response
    caching and admission control in :func:`dispatch`.  ``on_loop``
    routes have cache misses short enough to estimate on the server's
    event-loop thread: validation bounds ``/v1/estimate`` at
    :data:`~repro.service.codec.MAX_INGREDIENTS_PER_RECIPE` lines of
    up to :data:`~repro.service.codec.MAX_PHRASE_CHARS` characters
    (about 50 ms cold at the bound, a few ms for a typical recipe).
    """

    validate: Callable | None
    invoke: Callable[
        [ServiceState, object, Deadline | None],
        dict | bytes | codec.SplicedBody,
    ]
    cacheable: bool = False
    on_loop: bool = False


#: The single routing table: (method, path) -> endpoint spec.
ENDPOINTS: dict[tuple[str, str], Endpoint] = {
    ("GET", "/healthz"): Endpoint(
        validate=None, invoke=lambda state, _payload, _dl: state.healthz()
    ),
    ("GET", "/readyz"): Endpoint(
        validate=None, invoke=lambda state, _payload, _dl: state.readyz()
    ),
    ("GET", "/metrics"): Endpoint(
        validate=None,
        invoke=lambda state, _payload, _dl: state.metrics_snapshot(),
    ),
    ("POST", "/v1/estimate"): Endpoint(
        validate=codec.validate_estimate,
        invoke=lambda state, request, dl: state.estimate(request, dl),
        cacheable=True,
        on_loop=True,
    ),
    ("POST", "/v1/estimate_batch"): Endpoint(
        validate=codec.validate_batch,
        invoke=lambda state, request, dl: state.estimate_batch(request, dl),
        cacheable=True,
    ),
    ("POST", "/v1/match"): Endpoint(
        validate=codec.validate_match,
        invoke=lambda state, request, _dl: state.match(request),
        cacheable=True,
    ),
    ("POST", "/v1/parse"): Endpoint(
        validate=codec.validate_parse,
        invoke=lambda state, request, _dl: state.parse(request),
        cacheable=True,
    ),
    ("POST", "/v1/explain"): Endpoint(
        validate=codec.validate_explain,
        invoke=lambda state, request, _dl: state.explain(request),
        cacheable=True,
    ),
}

_KNOWN_PATHS = frozenset(path for _, path in ENDPOINTS)


@dataclass(frozen=True, slots=True)
class Prepared:
    """A validated cacheable request whose cache miss is counted.

    :func:`dispatch_fast` hands this to :func:`dispatch` so the
    payload is validated, and the response-cache miss counted, once
    per request.
    """

    endpoint: Endpoint
    request: object
    key: str


def _route(method: str, path: str) -> Endpoint:
    endpoint = ENDPOINTS.get((method, path))
    if endpoint is not None:
        return endpoint
    if path in _KNOWN_PATHS:
        allowed = tuple(sorted(m for m, p in ENDPOINTS if p == path))
        raise MethodNotAllowedError(
            f"{path} does not support {method}", allowed=allowed
        )
    raise NotFoundError(f"no such endpoint: {path}")


def _error_response(
    state: ServiceState, metric_name: str, started: float, exc: ServiceError
) -> Response:
    """The typed envelope for *exc*, observed as an error."""
    state.metrics.observe(
        metric_name, time.perf_counter() - started, error=True
    )
    return Response(
        exc.status, codec.dumps_body(exc.to_body()), headers=exc.headers()
    )


def _request_deadline(state: ServiceState) -> Deadline | None:
    timeout_s = state.config.request_timeout_s
    return Deadline(timeout_s) if timeout_s is not None else None


def dispatch_fast(
    state: ServiceState, method: str, path: str, payload
) -> Response | Prepared:
    """Complete the request inline if it needs no estimation work.

    The event-loop server calls this on its loop thread.  Anything
    that finishes in microseconds is answered here — introspection
    endpoints, routing and validation errors, and response-cache hits
    — with metrics semantics identical to :func:`dispatch`.  A
    :class:`Prepared` return means real estimation work is required:
    the caller must pass it to :func:`dispatch` (off the loop thread
    unless the endpoint is ``on_loop``).  Its cache miss is counted,
    but **nothing** has been observed in the endpoint metrics yet.
    """
    metric_name = path if path in _KNOWN_PATHS else "(unknown)"
    started = time.perf_counter()
    try:
        endpoint = _route(method, path)
        if not endpoint.cacheable:
            body = codec.dumps_body(endpoint.invoke(state, payload, None))
            state.metrics.observe(metric_name, time.perf_counter() - started)
            return Response(200, body)
        request = endpoint.validate(payload)
        key = codec.cache_key(path, request)
        cached = state.cached_response(key)
        if cached is not None:
            state.metrics.observe(
                metric_name, time.perf_counter() - started, cache_hit=True
            )
            return Response(200, cached, cache_hit=True)
        return Prepared(endpoint, request, key)
    except ServiceError as exc:
        return _error_response(state, metric_name, started, exc)
    except Exception:
        log.exception("unhandled error in %s %s", method, path)
        state.metrics.observe(
            metric_name, time.perf_counter() - started, error=True
        )
        fallback = InternalError("internal server error")
        return Response(fallback.status, codec.dumps_body(fallback.to_body()))


def admit(state: ServiceState, path: str) -> Response | Admission:
    """Queue a prepared request for admission now, or shed it.

    Never waits: the event-loop server calls this on its loop thread
    as it reads an ``on_loop`` request, and passes the returned
    admission to :func:`dispatch`.  The request deadline starts here,
    so time spent queued counts against ``request_timeout_s``.  A shed
    request gets the same 503 ``overloaded`` response as one shed in
    :func:`dispatch`.
    """
    started = time.perf_counter()
    try:
        return state.admission.reserve(_request_deadline(state))
    except ServiceError as exc:
        return _error_response(state, path, started, exc)


def dispatch(
    state: ServiceState,
    method: str,
    path: str,
    payload,
    prepared: Prepared | None = None,
    admission: Admission | None = None,
) -> Response:
    """Handle one decoded request end to end.

    Never raises: every outcome — success, typed client error, shed,
    deadline, unexpected server fault — returns a :class:`Response`,
    and every outcome is recorded in the metrics registry under its
    endpoint path (unknown paths aggregate under ``(unknown)`` so a
    scanner cannot grow the registry without bound).  Without
    *prepared* the request first goes through :func:`dispatch_fast`,
    which answers everything that needs no estimation work.  A
    prepared request is taken as validated and its cache miss as
    counted; the cache is re-checked without counting, and *payload*
    is ignored.  An *admission* from :func:`admit` (queued, or already
    holding a slot) is run, or released, instead of a fresh one.
    """
    started = time.perf_counter()
    if prepared is None:
        outcome = dispatch_fast(state, method, path, payload)
        if isinstance(outcome, Response):
            return outcome
        prepared = outcome
    if admission is None:
        admission = state.admission.admitted(_request_deadline(state))
    try:
        cached = state.recheck_response(prepared.key)
        if cached is not None:
            state.metrics.observe(
                path, time.perf_counter() - started, cache_hit=True
            )
            return Response(200, cached, cache_hit=True)
        with admission:
            result = prepared.endpoint.invoke(
                state, prepared.request, admission.deadline
            )
        body = codec.dumps_body(result)
        # Spliced bodies stay in pieces that share fragment bytes with
        # the line memo.
        state.store_response(
            prepared.key,
            result if isinstance(result, codec.SplicedBody) else body,
        )
        state.metrics.observe(path, time.perf_counter() - started)
        return Response(200, body)
    except ServiceError as exc:
        if isinstance(exc, DeadlineExceededError):
            state.note_deadline_exceeded()
        return _error_response(state, path, started, exc)
    except Exception:
        log.exception("unhandled error in %s %s", method, path)
        state.metrics.observe(path, time.perf_counter() - started, error=True)
        fallback = InternalError("internal server error")
        return Response(fallback.status, codec.dumps_body(fallback.to_body()))
    finally:
        # A cache hit or an early error never entered the admission.
        admission.release()
