"""Long-lived HTTP service over the estimation pipeline.

PRs 1–2 made estimation fast but batch-only: every invocation paid
full cold start (USDA load, index build, cache warm-up).  This
subpackage turns the pipeline into an always-on JSON API — the shape
downstream consumers (recipe recommenders, calorie-prediction
datasets) assume — with zero third-party dependencies.  The server is
a ``selectors`` **event loop**: one thread owns every socket
(non-blocking accept, incremental HTTP/1.1 parsing with keep-alive
and pipelining, single-send responses) while estimation runs on a
small worker pool, all fronted by a warm shared
:class:`~repro.core.estimator.NutritionEstimator`.  ``serve --procs
N`` pre-forks N such processes onto one port via ``SO_REUSEPORT``
with supervised respawn and coordinated graceful drain.  The wire
format (status lines, header order, error envelopes) is pinned by the
recorded golden responses in ``tests/golden/server_matrix.json``.

Endpoints (full schemas in ``docs/api.md``)::

    POST /v1/estimate        one recipe -> nutritional profile
    POST /v1/estimate_batch  many recipes as one corpus (sharded
                             engine fan-out with workers > 1)
    POST /v1/match           closest-description lookup
    POST /v1/parse           NER entity extraction
    GET  /healthz            liveness
    GET  /readyz             readiness (503 while draining/saturated)
    GET  /metrics            per-endpoint counters + latency percentiles
                             + resilience counters

Requests are governed by the resilience layer
(:mod:`repro.service.resilience`): per-request deadlines (504),
bounded admission with load shedding (503 + ``Retry-After``), and a
circuit breaker that degrades the sharded batch path to in-process
estimation (bit-identical results) when the pool misbehaves.

Modules:

* :mod:`repro.service.state`    — :class:`ServiceConfig`,
  :class:`ServiceState`: the warm estimator, response cache, locks
  and the endpoints' estimation logic,
* :mod:`repro.service.codec`    — request validation/normalization and
  response encoding,
* :mod:`repro.service.handlers` — route table + dispatch (caching,
  admission, deadlines, metrics, typed errors),
* :mod:`repro.service.resilience` — :class:`Deadline`,
  :class:`AdmissionController`, :class:`CircuitBreaker`,
* :mod:`repro.service.server`   — the event-loop
  :class:`NutritionService` and the blocking :func:`serve` entry
  point (graceful drain + shutdown),
* :mod:`repro.service.httpproto` — incremental HTTP/1.1 parsing and
  single-send response rendering,
* :mod:`repro.service.prefork`  — the ``--procs N`` supervisor
  (``SO_REUSEPORT`` workers, respawn, coordinated drain),
* :mod:`repro.service.metrics`  — the ``/metrics`` registry,
* :mod:`repro.service.errors`   — the typed error hierarchy.

Quickstart::

    from repro.service import NutritionService, ServiceConfig

    with NutritionService(ServiceConfig(port=0)) as service:
        ...  # POST JSON to service.url + "/v1/estimate"

or from the command line: ``python -m repro serve --port 8080``.
"""

from repro.service.errors import ServiceError, ValidationError
from repro.service.server import NutritionService, serve
from repro.service.state import ServiceConfig, ServiceState

__all__ = [
    "NutritionService",
    "ServiceConfig",
    "ServiceState",
    "ServiceError",
    "ValidationError",
    "serve",
]
