"""Pre-fork multi-process serving: ``repro serve --procs N``.

One parent supervises ``N`` worker processes.  Each worker runs its
own event-loop :class:`~repro.service.server.NutritionService` bound
to the **same** port via ``SO_REUSEPORT`` — the kernel load-balances
incoming connections across the listening sockets, so there is no
userspace proxy hop and no shared accept lock.  Every worker restores
the same artifact (or builds the same spec), so responses are
byte-identical regardless of which worker answers; ``worker_id``/
``pid`` in ``/healthz`` and ``/metrics`` say which one did.

Port 0 needs coordination: the workers must agree on one kernel-chosen
port *before* any of them binds.  The parent resolves it by binding a
``SO_REUSEPORT`` placeholder socket that **never listens** — only
sockets in LISTEN state receive connections, so the placeholder just
reserves the number (and keeps it reserved across worker restarts).

Supervision: a worker that dies *before* becoming ready is a
deployment failure (bad artifact, port conflict) and tears the whole
service down; a ready worker that dies unexpectedly is respawned with
the same ``worker_id``.  Graceful shutdown forwards SIGTERM to every
worker, and each drains independently (readyz flips 503 → listener
closes → in-flight requests finish → exit); the parent joins them all
before exiting 0.
"""

from __future__ import annotations

import dataclasses
import gc
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time

from repro.service.state import ServiceConfig

log = logging.getLogger("repro.service")

#: How long the parent waits for all workers to report ready.
READY_TIMEOUT_S = 60.0
#: Drain budget per worker on SIGTERM, plus parent-side join margin.
WORKER_JOIN_TIMEOUT_S = 8.0
#: Supervision poll cadence.
POLL_INTERVAL_S = 0.2


def _reserve_port(config: ServiceConfig) -> tuple[socket.socket, int]:
    """Bind (never listen) a placeholder to pin down the port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((config.host, config.port))
    return sock, sock.getsockname()[1]


def _worker_main(config: ServiceConfig, ready_queue) -> None:
    """One worker process: serve until SIGTERM/SIGINT, then drain."""
    # Imported here so a spawn-context child pays it in the child.
    from repro.service.server import NutritionService

    stop = threading.Event()

    def _request_stop(signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        service = NutritionService(config)
        # As in serve(): the warm heap stays out of full collections.
        gc.freeze()
        service.start()
    except Exception as exc:
        log.exception("worker %d failed to start", config.worker_id)
        ready_queue.put(("failed", config.worker_id, os.getpid(), str(exc)))
        raise SystemExit(1)
    ready_queue.put(("ready", config.worker_id, os.getpid(), ""))
    stop.wait()
    service.shutdown()
    raise SystemExit(0)


class _Supervisor:
    """Parent-side worker bookkeeping."""

    def __init__(self, config: ServiceConfig, port: int):
        self.config = config
        self.port = port
        self.ctx = multiprocessing.get_context()
        self.ready_queue = self.ctx.SimpleQueue()
        self.workers: dict[int, multiprocessing.process.BaseProcess] = {}
        self.respawns = 0

    def worker_config(self, worker_id: int) -> ServiceConfig:
        return dataclasses.replace(
            self.config,
            port=self.port,
            reuse_port=True,
            worker_id=worker_id,
        )

    def spawn(self, worker_id: int) -> None:
        process = self.ctx.Process(
            target=_worker_main,
            args=(self.worker_config(worker_id), self.ready_queue),
            name=f"repro-serve-worker-{worker_id}",
        )
        process.start()
        self.workers[worker_id] = process

    def wait_all_ready(self) -> None:
        """Block until every worker reports ready (or raise)."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        ready: set[int] = set()
        while len(ready) < len(self.workers):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"workers not ready after {READY_TIMEOUT_S}s: "
                    f"missing {sorted(set(self.workers) - ready)}"
                )
            status, worker_id, pid, detail = self._poll_ready(remaining)
            if status == "ready":
                ready.add(worker_id)
                log.info("worker %d ready (pid %d)", worker_id, pid)
            else:
                raise RuntimeError(
                    f"worker {worker_id} (pid {pid}) failed to start: "
                    f"{detail}"
                )

    def _poll_ready(self, timeout_s: float):
        """One ready-queue message, polling for dead-before-ready."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not self.ready_queue.empty():
                return self.ready_queue.get()
            for worker_id, process in self.workers.items():
                if not process.is_alive() and self.ready_queue.empty():
                    return (
                        "failed",
                        worker_id,
                        process.pid or -1,
                        f"exited with code {process.exitcode} before ready",
                    )
            time.sleep(POLL_INTERVAL_S)
        raise RuntimeError("timed out waiting for worker readiness")

    def drain_ready_queue(self) -> None:
        while not self.ready_queue.empty():
            self.ready_queue.get()

    def supervise_once(self) -> None:
        """Respawn any ready worker that died unexpectedly."""
        for worker_id, process in list(self.workers.items()):
            if process.is_alive():
                continue
            log.warning(
                "worker %d (pid %s) exited unexpectedly with code %s; "
                "respawning",
                worker_id,
                process.pid,
                process.exitcode,
            )
            self.respawns += 1
            self.spawn(worker_id)
        # Respawned workers report ready on the shared queue; nothing
        # waits on those messages, so keep it from growing unbounded.
        self.drain_ready_queue()

    def terminate_all(self) -> None:
        for process in self.workers.values():
            if process.is_alive() and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover
                    pass

    def join_all(self) -> None:
        deadline = time.monotonic() + WORKER_JOIN_TIMEOUT_S
        for process in self.workers.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in self.workers.values():
            if process.is_alive():  # pragma: no cover - drain overrun
                log.warning(
                    "worker %s did not drain in time; killing", process.name
                )
                process.kill()
                process.join(timeout=2.0)


def serve_prefork(
    config: ServiceConfig, *, ready_file: str | None = None
) -> int:
    """Blocking entry point for ``--procs N`` serving (N >= 2)."""
    placeholder, port = _reserve_port(config)
    supervisor = _Supervisor(config, port)
    stop = threading.Event()

    def _request_stop(signum, _frame) -> None:
        log.info("received signal %d, shutting down workers", signum)
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        for worker_id in range(config.procs):
            supervisor.spawn(worker_id)
        supervisor.wait_all_ready()
        print(
            f"repro serve listening on http://{config.host}:{port} "
            f"(procs={config.procs}, workers={config.workers}, "
            f"cache_cap={config.cache_cap})",
            flush=True,
        )
        if ready_file is not None:
            from repro.service.server import _write_ready_file

            _write_ready_file(ready_file, config.host, port)
        while not stop.is_set():
            supervisor.supervise_once()
            stop.wait(POLL_INTERVAL_S)
    except RuntimeError as exc:
        log.error("pre-fork startup failed: %s", exc)
        print(f"repro serve failed: {exc}", flush=True)
        supervisor.terminate_all()
        supervisor.join_all()
        return 1
    finally:
        placeholder.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    supervisor.terminate_all()
    supervisor.join_all()
    print("repro serve stopped", flush=True)
    return 0
