"""Adversarial-client tests for the event-loop server's protocol layer.

Every scenario here is a client misbehaving at the socket level —
slowloris drip-feeding, pipelined bursts, mid-body disconnects,
oversized or malformed requests — and the invariant under test is
always the same: the loop neither wedges nor leaks.  After each
attack the service still answers ``/healthz`` instantly, and the
``connections`` section of ``/metrics`` accounts for every closed
socket (``active`` returns to just the scrape connection itself).

Timeouts are configured aggressively small (``io_timeout_s``,
``idle_timeout_s``) so the suite runs in seconds; production defaults
are 10 s / 60 s.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.service import NutritionService, ServiceConfig
from service_harness import (
    ResponseStream,
    build_request,
    raw_request,
    recv_response,
)

#: Matches tests/test_service_resilience.py: every estimation sleeps
#: 0.4 s at the service-estimate checkpoint.
SLOW = "sleep@service-estimate:*:0.4"


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(
        port=0,
        cache_cap=64,
        io_timeout_s=0.5,
        idle_timeout_s=1.0,
        request_timeout_s=5.0,
    )
    with NutritionService(config) as svc:
        yield svc


def metrics(service) -> dict:
    raw = raw_request(
        service.host, service.port, build_request("GET", "/metrics")
    )
    return json.loads(raw.partition(b"\r\n\r\n")[2])


def wait_for(predicate, timeout_s: float = 5.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def assert_no_leaked_connections(service):
    """All attack connections torn down; only the scrape itself lives."""
    assert wait_for(
        lambda: metrics(service)["connections"]["active"] <= 1
    ), metrics(service)["connections"]


class TestSlowloris:
    def test_partial_request_is_reaped_by_io_timeout(self, service):
        before = metrics(service)["connections"]["io_timeouts"]
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        # A request that never finishes: drip a few header bytes and
        # stall.  The io timeout runs from the FIRST byte, so the
        # drip does not keep the connection alive.
        sock.sendall(b"POST /v1/estimate HTTP/1.1\r\n")
        time.sleep(0.2)
        sock.sendall(b"Content-Length: 100\r\n")
        # No terminator, no body: the server must close on us.
        sock.settimeout(5)
        assert sock.recv(1024) == b""
        sock.close()
        assert wait_for(
            lambda: metrics(service)["connections"]["io_timeouts"] > before
        )
        assert_no_leaked_connections(service)

    def test_many_slowloris_connections_do_not_block_service(self, service):
        socks = []
        for _ in range(20):
            sock = socket.create_connection(
                (service.host, service.port), timeout=10
            )
            sock.sendall(b"GET /healthz HTT")  # forever-partial
            socks.append(sock)
        # While 20 attackers hold partial requests, a well-behaved
        # client gets an immediate answer.
        raw = raw_request(
            service.host, service.port, build_request("GET", "/healthz")
        )
        assert raw.startswith(b"HTTP/1.1 200 ")
        for sock in socks:
            sock.settimeout(5)
            assert sock.recv(1024) == b""  # reaped, not served
            sock.close()
        assert_no_leaked_connections(service)


class TestPipelining:
    def test_pipelined_burst_answers_in_order(self, service):
        before = metrics(service)["connections"]["pipelined_requests"]
        texts = [f"{n} cups flour" for n in range(1, 9)]
        burst = b"".join(
            build_request("POST", "/v1/parse", {"text": text})
            for text in texts
        )
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(burst)
        stream = ResponseStream(sock)
        bodies = []
        for _ in texts:
            response = stream.next_response()
            assert response.startswith(b"HTTP/1.1 200 ")
            bodies.append(json.loads(response.partition(b"\r\n\r\n")[2]))
        sock.close()
        # Responses come back in request order, not completion order.
        assert [body["text"] for body in bodies] == texts
        assert metrics(service)["connections"]["pipelined_requests"] > before
        assert_no_leaked_connections(service)

    def test_pipelining_across_inline_and_pooled_requests(self, service):
        # healthz answers inline on the loop; estimate goes to the
        # worker pool; a burst mixing both must still answer strictly
        # in order.
        estimate = build_request("POST", "/v1/estimate", {
            "ingredients": ["1 cup milk"], "servings": 1,
        })
        burst = (
            build_request("GET", "/healthz")
            + estimate
            + build_request("GET", "/healthz")
        )
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(burst)
        stream = ResponseStream(sock)
        first = stream.next_response()
        second = stream.next_response()
        third = stream.next_response()
        sock.close()
        assert b'"status": "ok"' in first or b'"status":"ok"' in first
        assert b"per_serving" in second
        assert b'"status":"ok"' in third or b'"status": "ok"' in third
        assert_no_leaked_connections(service)


class TestDisconnects:
    def test_mid_body_disconnect_is_accounted_and_harmless(self, service):
        before = metrics(service)["connections"]["aborted"]
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(
            b"POST /v1/parse HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 500\r\n\r\n"
            b'{"text": "2 cu'  # 14 of 500 promised bytes
        )
        sock.close()
        assert wait_for(
            lambda: metrics(service)["connections"]["aborted"] > before
        )
        assert_no_leaked_connections(service)

    def test_disconnect_during_estimation_does_not_wedge_loop(
        self, service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(build_request("POST", "/v1/estimate", {
            "ingredients": ["1 cup quinoa"], "servings": 1,
        }))
        time.sleep(0.1)  # request reaches the worker pool
        sock.close()
        monkeypatch.delenv("REPRO_FAULTS")
        # The abandoned estimation completes in the background; the
        # loop keeps serving throughout and afterwards.
        raw = raw_request(
            service.host, service.port, build_request("GET", "/healthz")
        )
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert_no_leaked_connections(service)


class TestOversizedAndMalformed:
    def test_oversized_content_length_rejected_before_body_read(
        self, service
    ):
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        # Declare a huge body but send none: the 413 must arrive from
        # the headers alone.
        sock.sendall(
            b"POST /v1/estimate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 99999999\r\n\r\n"
        )
        response = recv_response(sock)
        assert response.startswith(b"HTTP/1.1 413 ")
        body = json.loads(response.partition(b"\r\n\r\n")[2])
        assert body["error"]["code"] == "payload_too_large"
        # And the connection closes so the unread body cannot
        # desynchronize it.
        sock.settimeout(5)
        assert sock.recv(1024) == b""
        sock.close()
        assert_no_leaked_connections(service)

    @pytest.mark.parametrize("head", [
        b"GARBAGE\r\n\r\n",
        b"GET  HTTP/1.1\r\n\r\n",
        b"GET /healthz SMTP/1.0\r\n\r\n",
        b"get /healthz HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"POST /v1/parse HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ])
    def test_malformed_request_gets_400_and_close(self, service, head):
        before = metrics(service)["connections"]["protocol_errors"]
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(head)
        response = recv_response(sock)
        assert response.startswith(b"HTTP/1.1 4"), response[:80]
        body = json.loads(response.partition(b"\r\n\r\n")[2])
        assert body["error"]["code"] == "invalid_request"
        sock.settimeout(5)
        assert sock.recv(1024) == b""  # server closed
        sock.close()
        assert metrics(service)["connections"]["protocol_errors"] > before
        assert_no_leaked_connections(service)

    @pytest.mark.parametrize("lengths,shown", [
        (["1_0"], "'1_0'"),
        (["+10"], "'+10'"),
        (["\N{SUPERSCRIPT TWO}"], "'\N{SUPERSCRIPT TWO}'"),
        (["10", "12"], "'10, 12'"),
    ])
    def test_content_length_must_be_one_unambiguous_digit_run(
        self, service, lengths, shown
    ):
        head = "POST /v1/parse HTTP/1.1\r\nHost: t\r\n" + "".join(
            f"Content-Length: {value}\r\n" for value in lengths
        )
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall((head + "\r\n").encode("latin-1"))
        response = recv_response(sock)
        assert response.startswith(b"HTTP/1.1 400 ")
        body = json.loads(response.partition(b"\r\n\r\n")[2])
        assert body["error"] == {
            "code": "invalid_request",
            "message": f"invalid Content-Length header: {shown}",
            "field": "Content-Length",
        }
        sock.settimeout(5)
        assert sock.recv(1024) == b""  # server closed
        sock.close()
        assert_no_leaked_connections(service)

    def test_repeated_equal_content_length_is_accepted(self, service):
        body = b'{"text": "1 tsp salt"}'
        head = (
            "POST /v1/parse HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        raw = raw_request(
            service.host, service.port, head.encode() + body
        )
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert json.loads(raw.partition(b"\r\n\r\n")[2])["name"] == "salt"
        assert_no_leaked_connections(service)

    def test_oversized_headers_get_431(self, service):
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(
            b"GET /healthz HTTP/1.1\r\nX-Junk: "
            + b"a" * (64 * 1024)
            + b"\r\n\r\n"
        )
        response = recv_response(sock)
        assert response.startswith(b"HTTP/1.1 431 ")
        body = json.loads(response.partition(b"\r\n\r\n")[2])
        assert body["error"]["code"] == "headers_too_large"
        sock.close()
        assert_no_leaked_connections(service)


class TestIdleReaping:
    def test_idle_keep_alive_connection_is_reaped(self, service):
        before = metrics(service)["connections"]["idle_closed"]
        sock = socket.create_connection(
            (service.host, service.port), timeout=10
        )
        sock.sendall(build_request("GET", "/healthz"))
        assert recv_response(sock).startswith(b"HTTP/1.1 200 ")
        # Now go idle past idle_timeout_s (1.0 here).
        sock.settimeout(5)
        assert sock.recv(1024) == b""
        sock.close()
        assert metrics(service)["connections"]["idle_closed"] > before
        assert_no_leaked_connections(service)


class TestShedPathOnEventLoop:
    """Regression: 503 + Retry-After must survive the server rewrite."""

    def test_shed_returns_503_with_retry_after(self, monkeypatch):
        import http.client
        import threading

        config = ServiceConfig(
            port=0,
            max_concurrent=1,
            max_queue=0,
            request_timeout_s=5.0,
        )
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        results = []

        def fire(host, port):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request(
                "POST", "/v1/estimate",
                json.dumps({"ingredients": ["1 cup rice"],
                            "servings": 1}),
            )
            response = conn.getresponse()
            results.append((
                response.status,
                response.getheader("Retry-After"),
                json.loads(response.read()),
            ))
            conn.close()

        with NutritionService(config) as svc:
            threads = [
                threading.Thread(target=fire, args=(svc.host, svc.port))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
            shed = [r for r in results if r[0] == 503]
            served = [r for r in results if r[0] == 200]
            assert shed, results
            assert served, results
            for status, retry_after, body in shed:
                assert retry_after is not None
                assert body["error"]["code"] == "overloaded"
                assert body["error"]["retry_after_s"] >= 1
