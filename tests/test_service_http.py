"""Integration tests driving a live ``repro.service`` server.

The event-loop :class:`NutritionService` is bound to an OS-assigned
port and exercised over a socket with ``http.client`` — the same path
external consumers take.  The headline assertion is the service parity
guarantee: ``/v1/estimate`` answers with **byte-identical** profiles
to the in-process estimator's corpus protocol for the same recipe,
across a generated corpus.

:class:`TestServerMatrix` pins the wire contract: every endpoint and
every error-envelope case is replayed against the in-process
event-loop server and real ``repro serve`` subprocesses at
``--procs 1`` and ``--procs 2``, and each ``full`` response must equal
the recorded golden in ``golden/server_matrix.json`` byte for byte
(status line, headers minus ``Date``, body).  A deliberate wire change
edits that file by hand.
"""

from __future__ import annotations

import http.client
import json
import platform
from pathlib import Path

import pytest

from repro import NutritionEstimator, __version__
from repro.service import NutritionService, ServiceConfig
from service_harness import (
    MATRIX_CASES,
    ServeProcess,
    raw_request,
    split_response,
)


@pytest.fixture(scope="module")
def service():
    with NutritionService(ServiceConfig(port=0, cache_cap=256)) as svc:
        yield svc


@pytest.fixture()
def conn(service):
    connection = http.client.HTTPConnection(
        service.host, service.port, timeout=30
    )
    yield connection
    connection.close()


def call(conn, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body)
    response = conn.getresponse()
    raw = response.read()
    return response, json.loads(raw)


class TestResponseCacheAccounting:
    def test_each_miss_counted_and_validated_once(self, monkeypatch):
        """On the event-loop server a miss is probed and validated on
        the loop thread only; the pool thread reuses that work."""
        import dataclasses

        from repro.service import handlers

        route = ("POST", "/v1/estimate")
        endpoint = handlers.ENDPOINTS[route]
        validated = []

        def counting_validate(payload):
            validated.append(payload)
            return endpoint.validate(payload)

        monkeypatch.setitem(
            handlers.ENDPOINTS, route,
            dataclasses.replace(endpoint, validate=counting_validate),
        )
        payload = {"ingredients": ["2 cups flour", "1 tsp salt"]}
        with NutritionService(ServiceConfig(port=0)) as svc:
            connection = http.client.HTTPConnection(
                svc.host, svc.port, timeout=30
            )
            try:
                miss, _ = call(connection, "POST", "/v1/estimate", payload)
                hit, _ = call(connection, "POST", "/v1/estimate", payload)
                _, metrics = call(connection, "GET", "/metrics")
            finally:
                connection.close()
        assert miss.getheader("X-Cache") is None
        assert hit.getheader("X-Cache") == "hit"
        response = metrics["caches"]["response"]
        assert (response["hits"], response["misses"]) == (1, 1)
        assert response["hit_rate"] == 0.5
        assert len(validated) == 2  # one per request, never twice


class TestIntrospection:
    def test_healthz(self, conn):
        response, body = call(conn, "GET", "/healthz")
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/json"
        assert body["status"] == "ok"

    def test_metrics_schema(self, conn, service):
        call(conn, "POST", "/v1/parse", {"text": "1 tsp salt"})
        response, body = call(conn, "GET", "/metrics")
        assert response.status == 200
        for key in ("uptime_s", "requests_total", "errors_total",
                    "cache_hits_total", "endpoints", "caches"):
            assert key in body
        endpoint = body["endpoints"]["/v1/parse"]
        for key in ("requests", "errors", "cache_hits", "cache_hit_rate",
                    "latency_ms"):
            assert key in endpoint
        for key in ("count", "p50", "p95", "p99", "max"):
            assert key in endpoint["latency_ms"]


class TestEstimateParity:
    """The acceptance criterion: live server == in-process estimator."""

    def test_estimate_parity_over_generated_corpus(self, conn, small_corpus):
        reference = NutritionEstimator()
        for recipe in small_corpus[:20]:
            expected = reference.estimate_corpus([recipe])[0]
            response, body = call(conn, "POST", "/v1/estimate", {
                "ingredients": recipe.ingredient_texts,
                "servings": recipe.servings,
            })
            assert response.status == 200
            # Byte-identical floats: JSON round-trips via repr, so ==
            # on the decoded values is bitwise equality.
            assert body["per_serving"] == expected.per_serving.values
            assert body["total"] == expected.total.values
            assert body["fraction_fully_mapped"] == (
                expected.fraction_fully_mapped
            )
            for encoded, ingredient in zip(
                body["ingredients"], expected.ingredients
            ):
                assert encoded["status"] == ingredient.status
                assert encoded["grams"] == ingredient.grams
                assert encoded["profile"] == ingredient.profile.values
                # provenance rides along, identically to in-process
                assert encoded["reason"] == ingredient.reason
                assert encoded["trace"] == list(ingredient.trace)
                assert encoded["reason"]

    def test_batch_parity(self, conn, small_corpus):
        recipes = small_corpus[:12]
        expected = NutritionEstimator().estimate_corpus(list(recipes))
        response, body = call(conn, "POST", "/v1/estimate_batch", {
            "recipes": [
                {"ingredients": r.ingredient_texts, "servings": r.servings}
                for r in recipes
            ],
        })
        assert response.status == 200
        assert body["count"] == len(recipes)
        for encoded, reference in zip(body["recipes"], expected):
            assert encoded["per_serving"] == reference.per_serving.values
            for line, ingredient in zip(
                encoded["ingredients"], reference.ingredients
            ):
                assert line["reason"] == ingredient.reason
                assert line["trace"] == list(ingredient.trace)

    def test_cache_hit_is_flagged_and_identical(self, conn):
        payload = {"ingredients": ["2 cups white sugar"], "servings": 2}
        first_response, first = call(conn, "POST", "/v1/estimate", payload)
        second_response, second = call(conn, "POST", "/v1/estimate", payload)
        assert first_response.status == second_response.status == 200
        assert second_response.getheader("X-Cache") == "hit"
        assert first == second


class TestMatchAndParse:
    def test_match(self, conn):
        response, body = call(conn, "POST", "/v1/match", {
            "name": "red lentils", "top": 3,
        })
        assert response.status == 200
        assert body["match"]["description"] == "Lentils, pink or red, raw"
        assert body["match"]["ndb_no"]
        assert len(body["candidates"]) <= 3

    def test_match_unmatched(self, conn):
        response, body = call(conn, "POST", "/v1/match", {
            "name": "garam masala",
        })
        assert response.status == 200
        assert body["match"] is None

    def test_parse(self, conn):
        response, body = call(conn, "POST", "/v1/parse", {
            "text": "1 small onion , finely chopped",
        })
        assert response.status == 200
        assert body["name"] == "onion"
        assert body["tags"][0] == "QUANTITY"


class TestExplain:
    def test_explain_resolved_line(self, conn):
        response, body = call(conn, "POST", "/v1/explain", {
            "text": "2 cups all-purpose flour",
        })
        assert response.status == 200
        assert body["status"] == "matched"
        assert body["reason"] == "ner-unit"
        assert body["trace"] == ["ner-unit:resolved"]
        assert body["estimate"]["grams"] > 0
        assert body["candidates"]
        stages = {s["stage"]: s for s in body["stages"]}
        assert stages["ner-unit"]["outcome"] == "resolved"
        assert stages["ner-unit"]["unit"] == "cup"
        assert stages["phrase-scan"]["outcome"] == "skipped"

    def test_explain_matches_estimate_for_the_same_line(self, conn):
        """/v1/explain's estimate must be byte-identical (JSON float
        round-trip) to /v1/estimate's per-line outcome."""
        text = "1 (15 ounce) can black beans"
        _, explained = call(conn, "POST", "/v1/explain", {"text": text})
        _, estimated = call(conn, "POST", "/v1/estimate", {
            "ingredients": [text],
        })
        assert explained["estimate"] == estimated["ingredients"][0]

    def test_explain_context_rescues_via_corpus_unit(self, conn):
        response, body = call(conn, "POST", "/v1/explain", {
            "text": "1 head butter cup",
            "context": ["2 tablespoons butter", "1 tablespoon butter"],
        })
        assert response.status == 200
        assert body["status"] == "matched"
        assert body["reason"] == "corpus-frequent-unit"
        assert body["context_lines"] == 2

    def test_explain_unmatched(self, conn):
        response, body = call(conn, "POST", "/v1/explain", {
            "text": "2 teaspoons garam masala",
        })
        assert response.status == 200
        assert body["status"] == "unmatched"
        assert body["reason"] == "no-description-match"
        assert body["stages"] == []

    def test_explain_is_cached(self, conn):
        payload = {"text": "1 cup white sugar", "context": ["1 cup sugar"]}
        call(conn, "POST", "/v1/explain", payload)
        response, body = call(conn, "POST", "/v1/explain", payload)
        assert response.getheader("X-Cache") == "hit"
        assert body["reason"]

    def test_explain_validation(self, conn):
        response, body = call(conn, "POST", "/v1/explain", {
            "text": "x", "context": "not a list",
        })
        assert response.status == 400
        assert body["error"]["field"] == "context"


class TestReasonMetrics:
    def test_metrics_expose_per_reason_counters(self, service):
        # A fresh connection on the module service: observe the delta
        # produced by one uncached estimate.
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            _, before = call(connection, "GET", "/metrics")
            call(connection, "POST", "/v1/estimate", {
                "ingredients": [
                    "3 cups all-purpose flour",
                    "2 teaspoons garam masala",
                ],
            })
            _, after = call(connection, "GET", "/metrics")
        finally:
            connection.close()
        assert "reasons" in before and "reasons" in after
        delta = (
            after["reasons"]["lines_total"]
            - before["reasons"]["lines_total"]
        )
        assert delta == 2
        by_reason = after["reasons"]["by_reason"]
        prev = before["reasons"]["by_reason"]
        assert by_reason["ner-unit"] == prev.get("ner-unit", 0) + 1
        assert by_reason["no-description-match"] == (
            prev.get("no-description-match", 0) + 1
        )


class TestErrorContract:
    def test_invalid_json_400(self, conn):
        conn.request("POST", "/v1/estimate", "this is not json")
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "invalid_json"

    def test_validation_error_400_names_field(self, conn):
        response, body = call(conn, "POST", "/v1/estimate", {
            "ingredients": [], "servings": 2,
        })
        assert response.status == 400
        assert body["error"]["code"] == "invalid_request"
        assert body["error"]["field"] == "ingredients"

    def test_unknown_path_404(self, conn):
        response, body = call(conn, "GET", "/v1/unknown")
        assert response.status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_405(self, conn):
        response, body = call(conn, "GET", "/v1/estimate")
        assert response.status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert body["error"]["allowed"] == ["POST"]

    @pytest.mark.parametrize("bad_length", ["abc", "-1"])
    def test_malformed_content_length_400(self, service, bad_length):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/v1/parse")
            connection.putheader("Content-Length", bad_length)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "invalid_request"
            assert body["error"]["field"] == "Content-Length"
        finally:
            connection.close()

    def test_payload_too_large_413(self, service):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            connection.putrequest("POST", "/v1/estimate")
            connection.putheader(
                "Content-Length",
                str(service.config.max_body_bytes + 1),
            )
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 413
            assert body["error"]["code"] == "payload_too_large"
        finally:
            connection.close()


class TestLifecycle:
    def test_keep_alive_over_one_connection(self, conn):
        for _ in range(3):
            response, body = call(conn, "GET", "/healthz")
            assert response.status == 200

    def test_graceful_shutdown_and_port_reuse(self):
        service = NutritionService(ServiceConfig(port=0)).start()
        port = service.port
        connection = http.client.HTTPConnection(
            service.host, port, timeout=10
        )
        response, body = call(connection, "GET", "/healthz")
        assert body["status"] == "ok"
        connection.close()
        service.shutdown()
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(
                service.host, port, timeout=2
            )
            probe.request("GET", "/healthz")
            probe.getresponse()

    def test_workers_config_surfaces_in_healthz(self):
        with NutritionService(
            ServiceConfig(port=0, workers=2)
        ) as service:
            connection = http.client.HTTPConnection(
                service.host, service.port, timeout=30
            )
            response, body = call(connection, "GET", "/healthz")
            assert body["workers"] == 2
            connection.close()


# ----------------------------------------------------------------------
# the server matrix: recorded golden responses vs event loop and
# --procs subprocesses (cases: service_harness.MATRIX_CASES)

MATRIX_SERVERS = ("event-loop", "procs-1", "procs-2")

#: Case name -> {"status_line", "headers", "body"} for every ``full``
#: case, recorded from the original thread-per-connection server.
#: ``headers`` omits ``Date`` and ``Server``; the ``Server`` line names
#: the running interpreter, so :func:`golden_response` rebuilds it.
GOLDEN_PATH = Path(__file__).parent / "golden" / "server_matrix.json"
SERVER_LINE = (
    f"Server: repro-serve/{__version__} "
    f"Python/{platform.python_version()}"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="ascii"))


def golden_response(entry: dict) -> tuple[int, str, list[str], bytes]:
    """A golden entry in :func:`split_response` form."""
    status_line = entry["status_line"]
    return (
        int(status_line.split()[1]),
        status_line,
        [SERVER_LINE, *entry["headers"]],
        entry["body"].encode("ascii"),
    )


@pytest.fixture(scope="module")
def matrix_responses(tmp_path_factory):
    """Every case against every server, one fresh connection per case."""
    tmp = tmp_path_factory.mktemp("server-matrix")
    with NutritionService(ServiceConfig(port=0)) as loop, \
            ServeProcess(tmp, procs=1) as one, \
            ServeProcess(tmp, procs=2) as two:
        targets = {
            "event-loop": (loop.host, loop.port),
            "procs-1": (one.host, one.port),
            "procs-2": (two.host, two.port),
        }
        responses: dict[str, dict] = {name: {} for name in targets}
        for case_name, request, _mode in MATRIX_CASES:
            for server, (host, port) in targets.items():
                responses[server][case_name] = split_response(
                    raw_request(host, port, request)
                )
        yield responses


class TestServerMatrix:
    """Byte parity with the golden responses: event loop and multi-proc.

    The goldens were recorded from the original thread-per-connection
    server, so ``test_parity_with_seed_server`` keeps its name.
    """

    @pytest.mark.parametrize(
        "case_name,mode",
        [(name, mode) for name, _req, mode in MATRIX_CASES],
    )
    def test_parity_with_seed_server(
        self, matrix_responses, golden, case_name, mode
    ):
        for server in MATRIX_SERVERS:
            got = matrix_responses[server][case_name]
            if mode == "full":
                assert got == golden_response(golden[case_name]), (
                    f"{server} diverges from the golden on {case_name}"
                )
            else:
                assert got[0] == 200, (server, case_name)
                assert "Content-Type: application/json" in got[2], (
                    server, case_name,
                )

    def test_golden_has_one_entry_per_full_case(self, golden):
        full = [name for name, _req, mode in MATRIX_CASES if mode == "full"]
        assert sorted(golden) == sorted(full)
        assert len(full) == len(set(full))

    def test_matrix_covers_success_and_error_envelopes(self):
        statuses = set()
        for _name, _req, mode in MATRIX_CASES:
            if mode == "full":
                statuses.add(_name)
        # Error envelopes asserted byte-identical, not just successes.
        assert {"invalid_json", "validation_error", "not_found",
                "method_not_allowed", "bad_content_length",
                "payload_too_large"} <= statuses
