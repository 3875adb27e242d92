"""``/v1/estimate`` cache misses estimated on the event-loop thread.

The server admits a ``/v1/estimate`` miss the moment it reads it
(counted as queued, or shed with 503 at once), keeps it in a
loop-owned FIFO, and estimates the head on the loop thread, one per
loop turn, through the same ``handlers.dispatch`` the pool threads
run.  These tests pin what that must keep: byte-identical responses,
introspection that waits behind at most one estimation, shedding at
the door, the pool path while the estimator lock is held, a drain that
serves what already arrived, and deadlines that count FIFO wait.  The
last class checks, in fresh interpreters, that a served process has
frozen its heap.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.service import NutritionService, ServiceConfig
from repro.service.errors import ServiceOverloadedError
from repro.service.handlers import dispatch
from repro.service.resilience import AdmissionController, Deadline
from repro.service.state import ServiceState
from service_harness import (
    SRC_DIR,
    ResponseStream,
    build_request,
    raw_request,
    recv_response,
    split_response,
)

SLOW = "sleep@service-estimate:*:0.4"


def estimate_request(phrase: str) -> bytes:
    return build_request(
        "POST", "/v1/estimate", {"ingredients": [phrase], "servings": 1}
    )


def send(service, data: bytes) -> socket.socket:
    """Open a connection and send *data*; the caller reads the reply."""
    sock = socket.create_connection(
        (service.host, service.port), timeout=10
    )
    sock.sendall(data)
    return sock


def get(service, path: str) -> tuple[int, dict]:
    status, _, _, body = split_response(
        raw_request(service.host, service.port, build_request("GET", path))
    )
    return status, json.loads(body)


def wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def statuses(socks) -> list[int]:
    try:
        return [split_response(recv_response(s))[0] for s in socks]
    finally:
        for sock in socks:
            sock.close()


class TestAdmissionReserve:
    def test_reserve_counts_queued_and_sheds_at_capacity(self):
        admission = AdmissionController(1, 1)
        first = admission.reserve()
        second = admission.reserve()
        assert (admission.active, admission.queued) == (0, 2)
        assert admission.full()
        with pytest.raises(ServiceOverloadedError) as excinfo:
            admission.reserve()
        assert excinfo.value.retry_after_s >= 1
        assert admission.shed_total == 1
        assert first.try_start()
        assert not second.try_start()  # the only slot is taken
        assert (admission.active, admission.queued) == (1, 1)
        first.release()
        second.release()
        assert admission.drained()

    def test_queued_admission_runs_under_with(self):
        admission = AdmissionController(1, 0)
        reserved = admission.reserve()
        with reserved:
            assert (admission.active, admission.queued) == (1, 0)
        reserved.release()  # idempotent after the with
        assert admission.drained()

    def test_started_admission_is_not_entered_twice(self):
        admission = AdmissionController(1, 0)
        reserved = admission.reserve()
        assert reserved.try_start()
        with reserved:
            assert admission.active == 1
        assert admission.drained()

    def test_mixed_entries_keep_counts_coherent_under_contention(self):
        """Loop-style reservations and pool-style entries from more
        threads than cores: no slot is over-granted, none is lost."""
        admission = AdmissionController(2, 3)
        over_granted = []

        def worker(i: int) -> None:
            for n in range(200):
                try:
                    if (i + n) % 2:
                        ticket = admission.reserve(Deadline(5.0))
                        if n % 3 == 0:
                            ticket.release()
                            continue
                        ticket.try_start()
                    else:
                        ticket = admission.admitted(Deadline(5.0))
                    with ticket:
                        if admission.active > admission.max_concurrent:
                            over_granted.append(admission.snapshot())
                except ServiceOverloadedError:
                    pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not over_granted
        assert admission.drained()


class TestLoopResponses:
    def test_uncached_responses_match_in_process_dispatch(
        self, small_corpus, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        config = ServiceConfig(port=0, request_timeout_s=None)
        reference = ServiceState(config)
        payloads = [
            {"ingredients": list(r.ingredient_texts), "servings": r.servings}
            for r in small_corpus[:30]
        ]
        misses = 0
        with NutritionService(config) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=30
            ) as sock:
                stream = ResponseStream(sock)
                for payload in payloads:
                    sock.sendall(
                        build_request("POST", "/v1/estimate", payload)
                    )
                    status, _, headers, body = split_response(
                        stream.next_response(timeout=30)
                    )
                    expected = dispatch(
                        reference, "POST", "/v1/estimate", payload
                    )
                    assert status == expected.status == 200
                    assert body == expected.body
                    hit = "X-Cache: hit" in headers
                    assert hit == expected.cache_hit
                    misses += not hit
            connections = service.state.connections
            assert connections.estimated_on_loop == misses > 20
            assert connections.estimated_on_pool == 0
        reference.close()

    def test_metrics_report_where_estimations_ran(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with NutritionService(ServiceConfig(port=0)) as service:
            raw_request(
                service.host, service.port, estimate_request("1 cup milk")
            )
            raw_request(
                service.host, service.port,
                build_request("POST", "/v1/parse", {"text": "1 cup milk"}),
            )
            _, metrics = get(service, "/metrics")
        assert metrics["connections"]["estimated_on_loop"] == 1
        assert metrics["connections"]["estimated_on_pool"] == 1


class TestLoopTurns:
    def test_healthz_waits_for_at_most_one_estimation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        config = ServiceConfig(
            port=0, request_timeout_s=None, max_concurrent=1, max_queue=4
        )
        with NutritionService(config) as service:
            socks = [
                send(service, estimate_request(f"{n} cups barley"))
                for n in range(1, 4)
            ]
            try:
                wait_for(lambda: service.state.admission.active == 1)
                started = time.monotonic()
                status, body = get(service, "/healthz")
                elapsed = time.monotonic() - started
            finally:
                codes = statuses(socks)
            assert status == 200 and body["status"] == "ok"
            assert elapsed < 0.8, elapsed
            assert codes == [200, 200, 200]
            assert service.state.connections.estimated_on_loop == 3
            assert service.state.connections.estimated_on_pool == 0

    def test_fifo_over_capacity_sheds_and_flips_readyz(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        config = ServiceConfig(
            port=0, request_timeout_s=None, max_concurrent=1, max_queue=2
        )
        with NutritionService(config) as service:
            first = send(service, estimate_request("1 cup millet"))
            wait_for(lambda: service.state.admission.active == 1)
            # Four more arrive while the loop estimates; they are read
            # in one turn: three fill the queue, one is shed.
            socks = [
                send(service, estimate_request(f"{n} cups millet"))
                for n in range(2, 6)
            ]
            with selectors.DefaultSelector() as sel:
                for sock in socks:
                    sel.register(sock, selectors.EVENT_READ)
                ready = sel.select(timeout=10)
            assert ready, "no response within 10 s"
            shed = ready[0][0].fileobj
            try:
                status, _, headers, body = split_response(
                    recv_response(shed)
                )
                ready_status, ready_body = get(service, "/readyz")
            finally:
                shed.close()
                socks.remove(shed)
                codes = statuses([first] + socks)
            assert status == 503
            retry_after = [h for h in headers if h.startswith("Retry-After:")]
            assert retry_after and int(retry_after[0].split(":")[1]) >= 1
            error = json.loads(body)["error"]
            assert error["code"] == "overloaded"
            assert error["retry_after_s"] >= 1
            assert ready_status == 503
            assert ready_body["error"]["code"] == "not_ready"
            assert codes == [200, 200, 200, 200]
            assert service.state.admission.shed_total == 1

    def test_held_estimator_lock_sends_estimate_to_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with NutritionService(ServiceConfig(port=0)) as service:
            held = threading.Event()
            release = threading.Event()

            def hold_lock() -> None:
                with service.state.estimator_lock:
                    held.set()
                    release.wait(10)

            service._pool.submit(hold_lock)
            assert held.wait(5)
            sock = send(service, estimate_request("2 cups lentils"))
            try:
                wait_for(
                    lambda: service.state.connections.estimated_on_pool == 1
                )
                started = time.monotonic()
                status, _ = get(service, "/healthz")
                assert status == 200
                assert time.monotonic() - started < 0.5
            finally:
                release.set()
                codes = statuses([sock])
            assert codes == [200]
            assert service.state.connections.estimated_on_loop == 0

    @pytest.mark.parametrize("connected", ["before", "during"])
    def test_request_arriving_during_estimation_survives_shutdown(
        self, connected, monkeypatch
    ):
        """A request sent while the loop sleeps in an estimation is
        still unread when shutdown() starts; its connection is either
        already accepted and idle, or still in the listen backlog."""
        monkeypatch.setenv("REPRO_FAULTS", SLOW)
        config = ServiceConfig(
            port=0, request_timeout_s=None, max_concurrent=2, max_queue=2
        )
        service = NutritionService(config).start()
        if connected == "before":
            second = socket.create_connection(
                (service.host, service.port), timeout=10
            )
            wait_for(lambda: service.state.connections.opened == 1)
        first = send(service, estimate_request("1 cup oats"))
        wait_for(lambda: service.state.admission.active == 1)
        if connected == "before":
            second.sendall(estimate_request("2 cups oats"))
        else:
            second = send(service, estimate_request("2 cups oats"))
        time.sleep(0.05)
        service.shutdown()
        assert statuses([first, second]) == [200, 200]
        assert service.state.connections.estimated_on_loop == 2
        assert service.state.admission.drained()

    def test_fifo_wait_counts_toward_the_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sleep@service-estimate:*:0.3")
        config = ServiceConfig(
            port=0, request_timeout_s=0.45, max_concurrent=1, max_queue=4
        )
        with NutritionService(config) as service:
            first = send(service, estimate_request("1 cup rye"))
            wait_for(lambda: service.state.admission.active == 1)
            # Both are admitted in the same turn after the first one
            # finishes; the one estimated second has then waited 0.3 s
            # of its 0.45 s budget in the FIFO.
            socks = [
                send(service, estimate_request(f"{n} cups rye"))
                for n in (2, 3)
            ]
            codes = statuses([first] + socks)
            assert codes[0] == 200
            assert sorted(codes[1:]) == [200, 504]
            _, metrics = get(service, "/metrics")
            assert metrics["resilience"]["deadline_exceeded_total"] == 1


_FREEZE_PROBE = textwrap.dedent(
    """
    import gc, os, signal, sys, threading, time
    from repro.service.state import ServiceConfig

    before = gc.get_freeze_count()

    def report(count):
        print("freeze-count", before, count, flush=True)
        os.kill(os.getpid(), signal.SIGTERM)

    config = ServiceConfig(port=0)
    if sys.argv[1] == "serve":
        from repro.service.server import serve

        ready = sys.argv[2]

        def watch():
            while not os.path.exists(ready):
                time.sleep(0.01)
            report(gc.get_freeze_count())

        threading.Thread(target=watch, daemon=True).start()
        serve(config, ready_file=ready)
    else:
        from repro.service.prefork import _worker_main

        class ReadyQueue:
            def put(self, message):
                assert message[0] == "ready", message
                report(gc.get_freeze_count())

        try:
            _worker_main(config, ReadyQueue())
        except SystemExit as exc:
            assert exc.code == 0
    """
)


class TestFrozenHeap:
    @pytest.mark.parametrize("entry", ["serve", "prefork-worker"])
    def test_served_process_freezes_its_heap(self, entry, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("REPRO_FAULTS", None)
        result = subprocess.run(
            [sys.executable, "-c", _FREEZE_PROBE, entry,
             str(tmp_path / "ready.txt")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        line = next(
            line for line in result.stdout.splitlines()
            if line.startswith("freeze-count ")
        )
        before, frozen = map(int, line.split()[1:])
        assert before == 0
        assert frozen > 0
