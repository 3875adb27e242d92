"""Resilience behaviour of the HTTP service (ISSUE 6).

Unit coverage for the primitives (deadline, admission controller,
circuit breaker) plus live-server tests: 504 on deadline, 503 +
``Retry-After`` under saturation, ``/readyz`` liveness/readiness
split, configurable 413, the resilience section of ``/metrics``,
breaker degrade to in-process estimation, and graceful shutdown that
drains in-flight requests (the SIGTERM path of ``repro serve``).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.service import NutritionService, ServiceConfig
from repro.service import state as service_state
from repro.service.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.service.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
)

SLOW = "sleep@service-estimate:*:0.4"


def call(conn, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body)
    response = conn.getresponse()
    return response, json.loads(response.read())


def post_estimate(service, phrase: str, timeout: float = 30.0):
    conn = http.client.HTTPConnection(
        service.host, service.port, timeout=timeout
    )
    try:
        return call(
            conn, "POST", "/v1/estimate", {"ingredients": [phrase]}
        )
    finally:
        conn.close()


class TestDeadline:
    def test_fresh_deadline_is_not_expired(self):
        deadline = Deadline(30.0)
        assert not deadline.expired()
        assert 29.0 < deadline.remaining_s() <= 30.0
        deadline.check("anywhere")  # no raise

    def test_expired_deadline_raises_with_phase(self):
        deadline = Deadline(0.001)
        time.sleep(0.005)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError, match="estimation"):
            deadline.check("estimation")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0)


class TestAdmissionController:
    def test_admits_within_capacity(self):
        admission = AdmissionController(2, 0)
        with admission.admitted():
            with admission.admitted():
                assert admission.active == 2
        assert admission.drained()

    def test_sheds_immediately_beyond_queue(self):
        admission = AdmissionController(1, 0)
        with admission.admitted():
            with pytest.raises(ServiceOverloadedError) as excinfo:
                with admission.admitted():
                    pass
        assert excinfo.value.retry_after_s >= 1
        assert admission.shed_total == 1
        assert admission.drained()

    def test_queued_request_proceeds_when_slot_frees(self):
        admission = AdmissionController(1, 1)
        results = []
        first_in = threading.Event()
        release = threading.Event()

        def hold():
            with admission.admitted():
                first_in.set()
                release.wait(timeout=5)

        def wait_then_run():
            first_in.wait(timeout=5)
            with admission.admitted(Deadline(5.0)):
                results.append("ran")

        t1 = threading.Thread(target=hold)
        t2 = threading.Thread(target=wait_then_run)
        t1.start()
        t2.start()
        # Let the second request reach the queue, then free the slot.
        deadline = time.monotonic() + 5
        while admission.queued < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert admission.queued == 1
        release.set()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert results == ["ran"]
        assert admission.shed_total == 0
        assert admission.drained()

    def test_snapshot_schema(self):
        snapshot = AdmissionController(3, 7).snapshot()
        assert snapshot == {
            "active": 0,
            "queued": 0,
            "max_concurrent": 3,
            "max_queue": 7,
            "shed_total": 0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 5)
        with pytest.raises(ValueError):
            AdmissionController(1, -1)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=60)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=60)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.state == "half-open"
        # Exactly one probe is admitted.
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.snapshot()["opens_total"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0, 1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(1, 0)


@pytest.fixture(scope="module")
def slow_service():
    """A service whose estimation path sleeps 0.4 s (fault-injected)
    with a 0.2 s request deadline and a 1-slot, 0-queue admission
    policy — every resilience behaviour is reachable quickly."""
    config = ServiceConfig(
        port=0,
        request_timeout_s=0.2,
        max_concurrent=1,
        max_queue=0,
        cache_cap=64,
    )
    with NutritionService(config) as svc:
        yield svc


class TestRequestDeadline:
    def test_slow_estimation_times_out_with_504(
        self, slow_service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        response, body = post_estimate(slow_service, "1 cup milk")
        assert response.status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert "deadline" in body["error"]["message"]

    def test_fast_request_is_unaffected(self, slow_service, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        response, body = post_estimate(slow_service, "2 cups flour")
        assert response.status == 200
        assert body["per_serving"]["energy_kcal"] > 0

    def test_deadline_exceeded_is_counted(self, slow_service, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        post_estimate(slow_service, "1 tbsp honey")
        monkeypatch.delenv("REPRO_FAULTS")
        conn = http.client.HTTPConnection(
            slow_service.host, slow_service.port, timeout=10
        )
        try:
            _, metrics = call(conn, "GET", "/metrics")
        finally:
            conn.close()
        assert metrics["resilience"]["deadline_exceeded_total"] >= 1


class TestLoadShedding:
    def test_saturated_service_sheds_with_503_and_retry_after(
        self, slow_service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        statuses = {}
        lock = threading.Lock()

        def fire(tag, phrase):
            conn = http.client.HTTPConnection(
                slow_service.host, slow_service.port, timeout=10
            )
            try:
                response, body = call(
                    conn, "POST", "/v1/estimate", {"ingredients": [phrase]}
                )
                with lock:
                    statuses[tag] = (
                        response.status,
                        response.getheader("Retry-After"),
                        body,
                    )
            finally:
                conn.close()

        threads = [
            threading.Thread(target=fire, args=(i, f"{i} cups sugar"))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        codes = sorted(status for status, _, _ in statuses.values())
        # One request holds the only slot (and then 504s on the sleep);
        # with a zero-length queue the others are shed instantly.
        assert codes.count(503) >= 1
        for status, retry_after, body in statuses.values():
            if status == 503:
                assert retry_after is not None
                assert int(retry_after) >= 1
                assert body["error"]["code"] == "overloaded"
                assert body["error"]["retry_after_s"] >= 1

    def test_shed_count_appears_in_metrics(self, slow_service, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        conn = http.client.HTTPConnection(
            slow_service.host, slow_service.port, timeout=10
        )
        try:
            _, metrics = call(conn, "GET", "/metrics")
        finally:
            conn.close()
        resilience = metrics["resilience"]
        assert resilience["admission"]["shed_total"] >= 1
        assert resilience["breaker"]["state"] == "closed"
        for key in ("retries", "respawns", "worker_crashes",
                    "hung_workers", "dead_lettered"):
            assert key in resilience["pipeline"]

    def test_introspection_bypasses_admission(
        self, slow_service, monkeypatch
    ):
        """/healthz and /metrics answer while estimation is saturated."""
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        done = threading.Event()

        def occupy():
            post_estimate(slow_service, "3 cups rice")
            done.set()

        thread = threading.Thread(target=occupy)
        thread.start()
        try:
            deadline = time.monotonic() + 5
            while (
                slow_service.state.admission.active < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            conn = http.client.HTTPConnection(
                slow_service.host, slow_service.port, timeout=10
            )
            try:
                response, body = call(conn, "GET", "/healthz")
                assert response.status == 200
                assert body["status"] == "ok"
            finally:
                conn.close()
        finally:
            done.wait(timeout=10)
            thread.join(timeout=10)


class TestReadyz:
    def test_ready_when_serving(self, slow_service, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        conn = http.client.HTTPConnection(
            slow_service.host, slow_service.port, timeout=10
        )
        try:
            response, body = call(conn, "GET", "/readyz")
        finally:
            conn.close()
        assert response.status == 200
        assert body["status"] == "ready"
        assert body["breaker"] in ("closed", "open", "half-open")
        assert "admission" in body

    def test_not_ready_while_draining(self, slow_service):
        slow_service.state.draining = True
        try:
            conn = http.client.HTTPConnection(
                slow_service.host, slow_service.port, timeout=10
            )
            try:
                response, body = call(conn, "GET", "/readyz")
            finally:
                conn.close()
            assert response.status == 503
            assert body["error"]["code"] == "not_ready"
            assert "draining" in body["error"]["message"]
        finally:
            slow_service.state.draining = False


class TestConfigurableBodyCap:
    def test_custom_cap_rejects_with_413_before_reading(self):
        config = ServiceConfig(port=0, max_body_bytes=64)
        with NutritionService(config) as service:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            try:
                payload = {"ingredients": ["flour"] * 100}
                response, body = call(
                    conn, "POST", "/v1/estimate", payload
                )
                assert response.status == 413
                assert body["error"]["code"] == "payload_too_large"
            finally:
                conn.close()

    def test_config_validates_resilience_knobs(self):
        with pytest.raises(ValueError, match="request_timeout_s"):
            ServiceConfig(request_timeout_s=0)
        with pytest.raises(ValueError, match="max_concurrent"):
            ServiceConfig(max_concurrent=0)
        with pytest.raises(ValueError, match="max_queue"):
            ServiceConfig(max_queue=-1)
        with pytest.raises(ValueError, match="breaker_threshold"):
            ServiceConfig(breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_cooldown_s"):
            ServiceConfig(breaker_cooldown_s=0)


class TestBreakerDegrade:
    def test_engine_failure_degrades_to_in_process_estimation(
        self, monkeypatch, small_corpus
    ):
        """A batch whose pool fan-out dies on every retry still
        answers 200 — the breaker records the failure and the request
        degrades to the (bit-identical) in-process path."""
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:0:always")
        monkeypatch.setattr(service_state, "ENGINE_MIN_DISTINCT_LINES", 4)
        config = ServiceConfig(
            port=0,
            workers=2,
            breaker_threshold=1,
            breaker_cooldown_s=60,
            request_timeout_s=None,
        )
        with NutritionService(config) as service:
            recipes = [
                {
                    "ingredients": list(recipe.ingredient_texts),
                    "servings": recipe.servings,
                }
                for recipe in small_corpus[:10]
            ]
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=120
            )
            try:
                response, body = call(
                    conn, "POST", "/v1/estimate_batch", {"recipes": recipes}
                )
                assert response.status == 200
                assert body["count"] == 10
                _, metrics = call(conn, "GET", "/metrics")
            finally:
                conn.close()
            resilience = metrics["resilience"]
            assert resilience["degraded_batches"] >= 1
            assert resilience["breaker"]["state"] == "open"
            # A second batch goes straight to the degraded path
            # (breaker open, no pool attempt) and still succeeds.
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=120
            )
            try:
                response, body = call(
                    conn,
                    "POST",
                    "/v1/estimate_batch",
                    {"recipes": recipes[:5]},
                )
            finally:
                conn.close()
            assert response.status == 200
            assert body["count"] == 5

    def test_engine_recovery_reports_supervision_counters(
        self, monkeypatch, small_corpus
    ):
        """A crash the supervisor absorbs (first attempt only) shows
        up in /metrics pipeline counters, and the response matches a
        clean single-process service bit-for-bit."""
        monkeypatch.setattr(service_state, "ENGINE_MIN_DISTINCT_LINES", 4)
        config = ServiceConfig(port=0, workers=2, request_timeout_s=None)
        payload = {
            "recipes": [
                {
                    "ingredients": list(recipe.ingredient_texts),
                    "servings": recipe.servings,
                }
                for recipe in small_corpus[:10]
            ]
        }
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with NutritionService(ServiceConfig(port=0)) as reference:
            conn = http.client.HTTPConnection(
                reference.host, reference.port, timeout=120
            )
            try:
                _, expected = call(
                    conn, "POST", "/v1/estimate_batch", payload
                )
            finally:
                conn.close()
        monkeypatch.setenv("REPRO_FAULTS", "crash@collect-chunk:0")
        with NutritionService(config) as service:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=120
            )
            try:
                response, body = call(
                    conn, "POST", "/v1/estimate_batch", payload
                )
                _, metrics = call(conn, "GET", "/metrics")
            finally:
                conn.close()
        assert response.status == 200
        assert body == expected
        pipeline = metrics["resilience"]["pipeline"]
        assert pipeline["worker_crashes"] >= 1
        assert pipeline["respawns"] >= 1
        assert pipeline["retries"] >= 1
        assert metrics["resilience"]["breaker"]["state"] == "closed"


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(self, monkeypatch):
        """The SIGTERM path: shutdown during an active estimation
        request must let it finish (admission drain), not kill it."""
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        config = ServiceConfig(
            port=0, request_timeout_s=None, max_concurrent=2, max_queue=2
        )
        service = NutritionService(config).start()
        outcome = {}

        def slow_request():
            try:
                outcome["result"] = post_estimate(
                    service, "1 cup oats", timeout=30
                )
            except Exception as exc:  # pragma: no cover - failure detail
                outcome["error"] = exc

        thread = threading.Thread(target=slow_request)
        thread.start()
        deadline = time.monotonic() + 5
        while (
            service.state.admission.active < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert service.state.admission.active == 1
        service.shutdown()
        thread.join(timeout=10)
        assert "error" not in outcome, outcome.get("error")
        response, body = outcome["result"]
        assert response.status == 200
        assert body["per_serving"]["energy_kcal"] >= 0
        # Drained before the socket closed.
        assert service.state.admission.drained()
        assert service.state.draining

    def test_shutdown_joins_background_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        service = NutritionService(ServiceConfig(port=0)).start()
        thread = service._thread
        assert thread is not None and thread.is_alive()
        service.shutdown()
        assert service._thread is None
        assert not thread.is_alive()

    def test_shutdown_is_idempotent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        service = NutritionService(ServiceConfig(port=0)).start()
        service.shutdown()
        service.shutdown()  # second call is a no-op, not an error
