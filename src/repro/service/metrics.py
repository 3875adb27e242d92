"""Per-endpoint request metrics for ``/metrics``.

Counters plus a bounded latency reservoir per endpoint, guarded by one
lock (observations are a few dict/deque operations, far cheaper than
the requests they describe).  ``snapshot()`` renders the JSON document
``/metrics`` returns; the field layout is documented in
``docs/api.md`` and asserted by the service tests, so treat it as a
public schema.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from collections.abc import Iterable

#: Latency samples kept per endpoint.  Percentiles describe the recent
#: window, not service lifetime, so a long-running instance reflects
#: current behaviour; 1024 samples bound memory regardless of uptime.
RESERVOIR_SIZE = 1024


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1,
                      round(fraction * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


class _EndpointMetrics:
    """Counters and latency reservoir for one endpoint."""

    __slots__ = ("requests", "errors", "cache_hits", "latencies")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.cache_hits = 0
        self.latencies: deque[float] = deque(maxlen=RESERVOIR_SIZE)

    def snapshot(self) -> dict:
        samples = sorted(self.latencies)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (
                self.cache_hits / self.requests if self.requests else 0.0
            ),
            "latency_ms": {
                "count": len(samples),
                "p50": round(percentile(samples, 0.50), 3),
                "p95": round(percentile(samples, 0.95), 3),
                "p99": round(percentile(samples, 0.99), 3),
                "max": round(samples[-1], 3) if samples else 0.0,
            },
        }


class ConnectionStats:
    """Connection-level counters for the event-loop server.

    Incremented by the loop thread; bare ``int`` increments are atomic
    under the GIL, so reads from other threads (``metrics_snapshot``
    in tests) see consistent-enough values without a lock.  The
    protocol test suite asserts on these to prove adversarial clients
    (slowloris, mid-body disconnects, malformed requests) are closed
    and accounted for rather than leaking.
    """

    __slots__ = (
        "opened",
        "closed",
        "io_timeouts",
        "idle_closed",
        "protocol_errors",
        "aborted",
        "pipelined",
        "estimated_on_loop",
        "estimated_on_pool",
    )

    def __init__(self) -> None:
        self.opened = 0  # connections accepted
        self.closed = 0  # connections fully torn down
        self.io_timeouts = 0  # closed mid-request (slowloris et al.)
        self.idle_closed = 0  # keep-alive connections reaped idle
        self.protocol_errors = 0  # closed after a malformed request
        self.aborted = 0  # client vanished mid-request/mid-response
        self.pipelined = 0  # requests served beyond a batch's first
        self.estimated_on_loop = 0  # cache misses run on the loop thread
        self.estimated_on_pool = 0  # requests handed to a pool thread

    def snapshot(self) -> dict:
        return {
            "opened": self.opened,
            "active": self.opened - self.closed,
            "io_timeouts": self.io_timeouts,
            "idle_closed": self.idle_closed,
            "protocol_errors": self.protocol_errors,
            "aborted": self.aborted,
            "pipelined_requests": self.pipelined,
            "estimated_on_loop": self.estimated_on_loop,
            "estimated_on_pool": self.estimated_on_pool,
        }


class ServiceMetrics:
    """Thread-safe metrics registry for the whole service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._endpoints: dict[str, _EndpointMetrics] = {}
        # Per-reason-code line counters (resolution provenance).  The
        # vocabulary is the bounded reason-code set of
        # repro.core.resolution, so the registry cannot grow with
        # traffic.
        self._reasons: Counter[str] = Counter()
        self._reason_lines = 0

    def observe(
        self,
        endpoint: str,
        latency_s: float,
        *,
        error: bool = False,
        cache_hit: bool = False,
    ) -> None:
        """Record one handled request for *endpoint*."""
        with self._lock:
            metrics = self._endpoints.get(endpoint)
            if metrics is None:
                metrics = self._endpoints[endpoint] = _EndpointMetrics()
            metrics.requests += 1
            if error:
                metrics.errors += 1
            if cache_hit:
                metrics.cache_hits += 1
            metrics.latencies.append(latency_s * 1000.0)

    def observe_reasons(self, reasons: Iterable[str]) -> None:
        """Record the reason code of every estimated ingredient line.

        Called by the estimation endpoints with one reason per line of
        the request (cache hits skip the pipeline and therefore do not
        re-count).  ``/metrics`` exposes the tallies under ``reasons``.
        The iterable is tallied *before* taking the lock — a batch
        request can carry a million lines, and only the merge of the
        (bounded-vocabulary) local counter needs mutual exclusion.
        """
        tallied = Counter(reasons)
        if not tallied:
            return
        with self._lock:
            self._reasons.update(tallied)
            self._reason_lines += sum(tallied.values())

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def total_requests(self) -> int:
        with self._lock:
            return sum(m.requests for m in self._endpoints.values())

    def snapshot(self) -> dict:
        """The ``/metrics`` response body (see docs/api.md)."""
        with self._lock:
            endpoints = {
                name: metrics.snapshot()
                for name, metrics in sorted(self._endpoints.items())
            }
            reasons = {
                "lines_total": self._reason_lines,
                "by_reason": dict(sorted(self._reasons.items())),
            }
        return {
            "uptime_s": round(self.uptime_s, 3),
            "requests_total": sum(e["requests"] for e in endpoints.values()),
            "errors_total": sum(e["errors"] for e in endpoints.values()),
            "cache_hits_total": sum(
                e["cache_hits"] for e in endpoints.values()
            ),
            "endpoints": endpoints,
            "reasons": reasons,
        }
