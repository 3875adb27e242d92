"""The HTTP serving tier: a selectors event loop, zero dependencies.

:class:`NutritionService` serves every connection from **one loop
thread** over non-blocking sockets: non-blocking accept, incremental
HTTP/1.1 parsing (:mod:`repro.service.httpproto`) with keep-alive and
pipelining, and single-send buffered responses.  Requests that finish
in microseconds — introspection endpoints, validation errors, response
-cache hits — are answered inline on the loop
(:func:`~repro.service.handlers.dispatch_fast`).  Ten thousand idle
keep-alive connections cost ten thousand parser buffers, not ten
thousand OS threads, and a cache hit never waits behind a thread
scheduler.

A ``/v1/estimate`` cache miss is estimated on the loop thread too.
It is admitted the moment it is read
(:func:`~repro.service.handlers.admit`: counted as queued, or shed
with 503 at once) and joins a loop-owned FIFO.  Each loop turn, after
socket events and completions, the loop runs the FIFO head through
:func:`~repro.service.handlers.dispatch` if it can take an admission
slot and the estimator lock without waiting and admission is not
full; otherwise the head goes to the pool.  One estimation per turn
bounds what a cache hit or ``/healthz`` waits behind to one validated
recipe, and no thread handoff sits between reading such a request and
writing its answer.
Everything else that needs real work — ``/v1/estimate_batch``,
``/v1/explain``, ``/v1/match``, ``/v1/parse``, and bodies over
:data:`_INLINE_DECODE_MAX` — runs through the same ``dispatch`` on a
small pool of daemon worker threads, whose responses come back to the
loop over a wakeup socket.  ``/metrics`` ``connections`` counts both
(``estimated_on_loop``, ``estimated_on_pool``).

The wire contract is pinned by recorded golden responses
(``tests/golden/server_matrix.json``): every response — success and
error envelope alike, header order included — must match them byte
for byte (``Date`` aside), and the server matrix in
``tests/test_service_http.py`` replays them against this server
in-process and under ``--procs 1`` and ``--procs 2``.

Adversarial clients are bounded by two config knobs:
``io_timeout_s`` closes connections that start a request but stop
making progress (slowloris), ``idle_timeout_s`` reaps keep-alive
connections parked between requests.  Connection-level accounting
lands in ``/metrics`` under ``connections``.

Lifecycle: blocking :meth:`serve_forever`,
background :meth:`start`, context manager, and a graceful
:meth:`shutdown` (readyz flips 503 → accept stops → requests already
received are admitted → in-flight requests drain and their responses
flush → loop joins).  ``serve()`` is the CLI
entry point; with ``config.procs > 1`` it hands off to the pre-fork
supervisor (:mod:`repro.service.prefork`).
"""

from __future__ import annotations

import gc
import json
import logging
import queue
import selectors
import signal
import socket
import threading
import time
from collections import deque

from repro.service.errors import InvalidJSONError, ServiceError
from repro.service.handlers import (
    Prepared,
    Response,
    admit,
    dispatch,
    dispatch_fast,
)
from repro.service.httpproto import RequestParser, render_response
from repro.service.resilience import Admission
from repro.service.state import ServiceConfig, ServiceState

log = logging.getLogger("repro.service")

#: Bytes pulled per recv; large enough for any realistic request burst.
_RECV_SIZE = 64 * 1024
#: Accepts drained per listener wakeup before yielding to other fds.
_MAX_ACCEPTS_PER_WAKE = 64
#: Pipelined requests served per connection per wakeup — a bound so one
#: firehosing client cannot starve every other connection.
_MAX_REQUESTS_PER_PUMP = 32
#: While a connection waits on estimation, stop reading once this much
#: is buffered — TCP backpressure does the rest.
_READ_BUFFER_CAP = 256 * 1024
#: Bodies up to this size are JSON-decoded inline on the loop thread;
#: larger ones decode on the worker pool to keep the loop responsive.
_INLINE_DECODE_MAX = 64 * 1024
#: How often the loop sweeps connections for io/idle timeouts.
_SCAN_INTERVAL_S = 0.2


def _predispatch_body(exc: ServiceError) -> bytes:
    """Envelope bytes for errors raised *before* dispatch.

    These use default ``json.dumps`` separators (spaced) while
    dispatch-path errors use the compact codec.  Both formats are part
    of the wire contract in ``tests/golden/server_matrix.json`` (the
    ``invalid_json``, Content-Length and 413 cases), so the distinction
    is load-bearing.
    """
    return json.dumps(exc.to_body()).encode()


class _Connection:
    """Per-socket state owned by the loop thread."""

    __slots__ = (
        "sock",
        "parser",
        "out",
        "out_off",
        "events",
        "busy",
        "close_after_write",
        "peer_closed",
        "paused",
        "last_activity",
        "recv_started",
    )

    def __init__(self, sock: socket.socket, parser: RequestParser, now: float):
        self.sock = sock
        self.parser = parser
        self.out = bytearray()
        self.out_off = 0
        self.events = 0  # current selector interest mask
        self.busy = False  # a request is in the FIFO or on the pool
        self.close_after_write = False
        self.peer_closed = False  # EOF seen while a job was in flight
        self.paused = False  # reads stopped for backpressure
        self.last_activity = now
        self.recv_started = now  # first byte of the current request

    @property
    def out_pending(self) -> bool:
        return self.out_off < len(self.out)


class _WorkerPool:
    """Fixed pool of daemon threads for estimation work.

    Deliberately not ``ThreadPoolExecutor``: its threads are
    non-daemon, so one estimation stuck past the drain timeout would
    hold the whole process open at exit.  Daemon threads give
    abandon-after-drain-timeout semantics instead.  The pool is
    sized past admission capacity (``max_concurrent + max_queue``) so
    shedding stays *immediate*: every overload request must reach the
    admission controller concurrently to be told 503 now, rather than
    queueing behind a smaller pool.
    """

    def __init__(self, size: int):
        self._size = size
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        for i in range(size):
            threading.Thread(
                target=self._run,
                name=f"repro-serve-pool-{i}",
                daemon=True,
            ).start()

    def submit(self, job) -> None:
        self._queue.put(job)

    def stop(self) -> None:
        """Let idle threads exit (busy ones exit after their job)."""
        for _ in range(self._size):
            self._queue.put(None)

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                job()
            except Exception:  # pragma: no cover - job() never raises
                log.exception("worker pool job failed")


class NutritionService:
    """A ready-to-serve nutrition estimation service (event loop)."""

    #: How long shutdown waits for in-flight estimation requests.
    DRAIN_TIMEOUT_S = 5.0

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.state = ServiceState(self.config)

        self._listener = self._create_listener(self.config)
        self._sel = selectors.DefaultSelector()
        # Cross-thread wakeup: pool threads (and shutdown) poke the
        # loop out of select() by writing one byte here.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)

        self._pool = _WorkerPool(
            self.config.max_concurrent + self.config.max_queue + 4
        )
        self._conns: dict[int, _Connection] = {}
        self._completions: deque = deque()
        self._completions_lock = threading.Lock()
        self._runnable: deque[_Connection] = deque()
        # Admitted on_loop requests, oldest first: (conn, method, path,
        # prepared, admission).  Owned by the loop thread.
        self._fifo: deque = deque()
        self._draining = False

        self._thread: threading.Thread | None = None
        self._stop_requested = False
        self._finished = threading.Event()
        self._loop_started = False
        self._closed = False
        self._lifecycle_lock = threading.Lock()

    @staticmethod
    def _create_listener(config: ServiceConfig) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if config.reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((config.host, config.port))
        sock.listen(128)
        sock.setblocking(False)
        return sock

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # lifecycle

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._loop_started = True
        try:
            self._loop()
        finally:
            self._finished.set()

    def start(self) -> "NutritionService":
        """Serve on a daemon background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        # Marked before the thread runs so a shutdown() racing a slow
        # thread start waits on the loop instead of tearing down
        # sockets underneath it.
        self._loop_started = True
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop: drain in-flight requests, close the socket.

        Ordering matters and is the same across every worker of a
        pre-fork deployment: ``/readyz`` flips to 503 first (a load
        balancer stops routing here), the listener closes (no new
        connections), in-flight estimation requests run to completion
        and their responses are flushed, then the loop exits and is
        joined.  Requests still running after :attr:`DRAIN_TIMEOUT_S`
        are abandoned (their pool threads are daemons, so they cannot
        hold the process open).
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self.state.draining = True
            self._stop_requested = True
            self._wake()
            if self._loop_started:
                self._finished.wait(self.DRAIN_TIMEOUT_S + 2.0)
            else:
                # Constructed but never served: just release sockets.
                self._teardown()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None

    def __enter__(self) -> "NutritionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # pragma: no cover - loop already torn down
            pass

    def _teardown(self) -> None:
        for entry in self._fifo:
            entry[-1].release()
        self._fifo.clear()
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sel.close()
        self._pool.stop()
        # Release the batch engine's persistent worker pool with the
        # rest of the process's sockets — idempotent, covers both the loop exit
        # and the constructed-but-never-served path.
        self.state.close()

    # ------------------------------------------------------------------
    # the event loop

    def _loop(self) -> None:
        self._sel.register(self._listener, selectors.EVENT_READ, "listener")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        drain_deadline = 0.0
        last_scan = time.monotonic()
        while True:
            timeout = 0.0 if self._runnable or self._fifo else _SCAN_INTERVAL_S
            for key, mask in self._sel.select(timeout):
                if key.data == "listener":
                    self._accept()
                elif key.data == "wakeup":
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                else:
                    conn = key.data
                    if mask & selectors.EVENT_WRITE:
                        self._flush(conn)
                    if (
                        mask & selectors.EVENT_READ
                        and conn.sock.fileno() >= 0
                    ):
                        self._handle_read(conn)
            self._drain_completions()
            for _ in range(len(self._runnable)):
                conn = self._runnable.popleft()
                if conn.sock.fileno() >= 0 and not conn.busy:
                    self._pump(conn, pipelined=True)
            self._estimate_head()
            now = time.monotonic()
            if now - last_scan >= _SCAN_INTERVAL_S:
                last_scan = now
                self._scan_timeouts(now)
            if self._stop_requested and not self._draining:
                drain_deadline = now + self.DRAIN_TIMEOUT_S
                self._begin_drain()
            if self._draining:
                if not self._conns or now >= drain_deadline:
                    if self._conns:
                        log.warning(
                            "drain timeout: %d connection(s) abandoned at "
                            "shutdown",
                            len(self._conns),
                        )
                    break
        self._teardown()

    def _begin_drain(self) -> None:
        """Stop accepting, admit what already arrived, close the idle."""
        # A connection or request that arrived while the loop was
        # estimating is still unaccepted or unread: take the backlog
        # and read every connection once, so it is served rather than
        # reset or closed as idle.  Each such connection closes after
        # its response.
        self._accept()
        self._sel.unregister(self._listener)
        self._listener.close()
        for conn in list(self._conns.values()):
            if not conn.busy and conn.events & selectors.EVENT_READ:
                conn.close_after_write = True
                self._handle_read(conn)
        self._draining = True
        # Idle connections have nothing to wait for.
        for conn in list(self._conns.values()):
            if not conn.busy and not conn.out_pending:
                self._close_conn(conn)

    def _accept(self) -> None:
        for _ in range(_MAX_ACCEPTS_PER_WAKE):
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            conn = _Connection(
                sock,
                RequestParser(self.config.max_body_bytes),
                time.monotonic(),
            )
            self._set_events(conn, selectors.EVENT_READ)
            self._conns[sock.fileno()] = conn
            self.state.connections.opened += 1
            # The request usually comes with the connection: read it
            # now, not after this turn's estimation.
            self._handle_read(conn)

    def _set_events(self, conn: _Connection, mask: int) -> None:
        if mask == conn.events:
            return
        if conn.events == 0:
            self._sel.register(conn.sock, mask, conn)
        elif mask == 0:
            self._sel.unregister(conn.sock)
        else:
            self._sel.modify(conn.sock, mask, conn)
        conn.events = mask

    def _close_conn(self, conn: _Connection, *, aborted: bool = False) -> None:
        fd = conn.sock.fileno()
        if fd < 0:
            return
        if conn.events:
            try:
                self._sel.unregister(conn.sock)
            except KeyError:  # pragma: no cover
                pass
            conn.events = 0
        del self._conns[fd]
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        self.state.connections.closed += 1
        if aborted:
            self.state.connections.aborted += 1

    # ------------------------------------------------------------------
    # reading and request pumping

    def _handle_read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn, aborted=True)
            return
        now = time.monotonic()
        if not data:
            # EOF.  With a job in flight, keep the connection so the
            # response can still be attempted (half-close is legal);
            # otherwise a partial request or unflushed response means
            # the client vanished mid-exchange.
            if conn.busy:
                conn.peer_closed = True
                self._set_events(conn, 0)
                return
            aborted = conn.parser.receiving or conn.out_pending
            self._close_conn(conn, aborted=aborted)
            return
        if not conn.parser.receiving:
            conn.recv_started = now
        conn.last_activity = now
        conn.parser.feed(data)
        if conn.busy:
            if conn.parser.buffered_bytes() > _READ_BUFFER_CAP:
                conn.paused = True
                self._set_events(conn, 0)
            return
        self._pump(conn)

    def _pump(self, conn: _Connection, *, pipelined: bool = False) -> None:
        """Serve buffered complete requests, in order, up to the bound."""
        served = 0
        while served < _MAX_REQUESTS_PER_PUMP:
            if self._draining:
                return
            try:
                request = conn.parser.next_request()
            except ServiceError as exc:
                self.state.connections.protocol_errors += 1
                self._send_response(
                    conn,
                    Response(exc.status, _predispatch_body(exc),
                             headers=exc.headers()),
                    close=True,
                )
                return
            if request is None:
                break
            if served or pipelined:
                self.state.connections.pipelined += 1
            served += 1
            if request.close:
                conn.close_after_write = True
            if len(request.body) > _INLINE_DECODE_MAX:
                # Decode AND dispatch off-loop; a multi-MB json.loads
                # would stall every other connection.
                self._submit(conn, request.method, request.path,
                             raw_body=request.body)
                return
            payload = None
            if request.body:
                try:
                    payload = json.loads(request.body)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    # 400 envelope; the connection stays alive.
                    err = InvalidJSONError(
                        f"request body is not valid JSON: {exc}"
                    )
                    self._send_response(
                        conn,
                        Response(err.status, _predispatch_body(err)),
                    )
                    if conn.sock.fileno() < 0 or conn.close_after_write:
                        return
                    continue
            fast = dispatch_fast(
                self.state, request.method, request.path, payload
            )
            if isinstance(fast, Prepared) and fast.endpoint.on_loop:
                admission = admit(self.state, request.path)
                if not isinstance(admission, Response):
                    conn.busy = True
                    self._fifo.append(
                        (conn, request.method, request.path, fast, admission)
                    )
                    return
                fast = admission  # shed: 503 now
            if isinstance(fast, Response):
                self._send_response(conn, fast)
                if conn.sock.fileno() < 0 or conn.close_after_write:
                    return
                continue
            self._submit(conn, request.method, request.path, prepared=fast)
            return
        if served == _MAX_REQUESTS_PER_PUMP and not conn.busy:
            # More complete requests may be buffered; yield to other
            # connections first, come back next loop turn.
            self._runnable.append(conn)

    # ------------------------------------------------------------------
    # estimation: the loop's FIFO, then the worker pool

    def _estimate_head(self) -> None:
        """Estimate the oldest admitted request here, if nothing waits.

        The first request in the FIFO that can take an admission slot
        and the estimator lock *now* runs on this thread; those before
        it go to the pool, whose threads wait for both as for any
        request.  At most one estimation per turn, so socket events
        are served between any two.  While admission is
        full the head goes to the pool too: an estimation here would
        leave every arrival unread, so none could be shed at once.
        """
        admission_control = self.state.admission
        lock = self.state.estimator_lock
        while self._fifo:
            conn, method, path, prepared, admission = self._fifo.popleft()
            if conn.sock.fileno() < 0:
                admission.release()
                continue
            if not admission_control.full() and lock.acquire(blocking=False):
                if admission.try_start():
                    try:
                        response = dispatch(
                            self.state, method, path, None, prepared,
                            admission,
                        )
                    finally:
                        lock.release()
                    self.state.connections.estimated_on_loop += 1
                    self._deliver(conn, response)
                    return
                lock.release()
            self._submit(
                conn, method, path, prepared=prepared, admission=admission
            )

    def _submit(
        self,
        conn: _Connection,
        method: str,
        path: str,
        *,
        prepared: Prepared | None = None,
        admission: Admission | None = None,
        raw_body: bytes | None = None,
    ) -> None:
        """Run :func:`dispatch` on a pool thread for *raw_body* (decoded
        there) or for the *prepared* request :func:`dispatch_fast`
        already validated (and, from the FIFO, :func:`admit` queued)."""
        conn.busy = True
        self.state.connections.estimated_on_pool += 1
        state = self.state

        def job() -> None:
            if prepared is not None:
                response = dispatch(
                    state, method, path, None, prepared, admission
                )
            else:
                try:
                    decoded = json.loads(raw_body)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    err = InvalidJSONError(
                        f"request body is not valid JSON: {exc}"
                    )
                    self._complete(
                        conn, Response(err.status, _predispatch_body(err))
                    )
                    return
                response = dispatch(state, method, path, decoded)
            self._complete(conn, response)

        self._pool.submit(job)

    def _complete(self, conn: _Connection, response: Response) -> None:
        """Hand a finished response back to the loop (pool thread)."""
        with self._completions_lock:
            self._completions.append((conn, response))
        self._wake()

    def _drain_completions(self) -> None:
        while True:
            with self._completions_lock:
                if not self._completions:
                    return
                conn, response = self._completions.popleft()
            self._deliver(conn, response)

    def _deliver(self, conn: _Connection, response: Response) -> None:
        """Write a finished estimation's response; resume the conn."""
        conn.busy = False
        if conn.sock.fileno() < 0:
            return
        if conn.peer_closed:
            # EOF arrived while estimating: try to deliver anyway
            # (half-close), then close regardless.
            conn.close_after_write = True
        if self._stop_requested:
            conn.close_after_write = True
        self._send_response(conn, response)
        if conn.sock.fileno() < 0:
            return
        if conn.paused:
            conn.paused = False
            if not conn.peer_closed:
                self._set_events(conn, conn.events | selectors.EVENT_READ)
        if conn.parser.buffered_bytes() and not conn.close_after_write:
            self._runnable.append(conn)

    # ------------------------------------------------------------------
    # writing

    def _send_response(
        self, conn: _Connection, response: Response, *, close: bool = False
    ) -> None:
        if close:
            conn.close_after_write = True
        conn.out += render_response(
            response.status,
            response.body,
            cache_hit=response.cache_hit,
            extra_headers=response.headers,
        )
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            while conn.out_off < len(conn.out):
                sent = conn.sock.send(
                    memoryview(conn.out)[conn.out_off:]
                )
                conn.out_off += sent
        except BlockingIOError:
            conn.last_activity = time.monotonic()
            mask = selectors.EVENT_WRITE
            if not conn.paused and not conn.peer_closed:
                mask |= selectors.EVENT_READ
            self._set_events(conn, mask)
            return
        except OSError:
            self._close_conn(conn, aborted=True)
            return
        # Fully flushed.
        conn.out.clear()
        conn.out_off = 0
        conn.last_activity = time.monotonic()
        if conn.close_after_write:
            self._close_conn(conn)
        elif not conn.busy:
            mask = 0 if conn.paused or conn.peer_closed else selectors.EVENT_READ
            self._set_events(conn, mask)

    # ------------------------------------------------------------------
    # timeouts

    def _scan_timeouts(self, now: float) -> None:
        io_timeout = self.config.io_timeout_s
        idle_timeout = self.config.idle_timeout_s
        for conn in list(self._conns.values()):
            if conn.busy:
                continue
            if conn.out_pending:
                # Client not reading its response.
                if now - conn.last_activity > io_timeout:
                    self.state.connections.io_timeouts += 1
                    self._close_conn(conn, aborted=True)
            elif conn.parser.receiving:
                # Partial request dribbling in: the slowloris bound is
                # measured from the request's FIRST byte and is not
                # refreshed by later bytes.
                if now - conn.recv_started > io_timeout:
                    self.state.connections.io_timeouts += 1
                    self._close_conn(conn)
            elif now - conn.last_activity > idle_timeout:
                self.state.connections.idle_closed += 1
                self._close_conn(conn)


def _write_ready_file(path: str, host: str, port: int) -> None:
    """Publish the bound address for tests/harnesses (atomic write)."""
    from repro.utils import atomic_write_text

    atomic_write_text(path, f"{host} {port}\n")


def serve(
    config: ServiceConfig | None = None, *, ready_file: str | None = None
) -> int:
    """Blocking CLI entry point with graceful signal shutdown.

    With ``config.procs > 1`` delegates to the pre-fork supervisor.
    Otherwise runs the event loop on a background thread and parks the
    main thread on an event (Python delivers signals to the main
    thread).  ``ready_file``, when given, receives ``"host port"``
    once the server is accepting — how harnesses discover a ``port=0``
    bind.
    """
    config = config or ServiceConfig()
    if config.procs > 1:
        from repro.service.prefork import serve_prefork

        return serve_prefork(config, ready_file=ready_file)

    service = NutritionService(config)
    # Everything built so far — database, indexes, the warm estimator
    # — lives as long as the process: keep the collector's full passes
    # off it, so they walk only what requests allocate.
    gc.freeze()
    stop = threading.Event()

    def _request_stop(signum, _frame) -> None:
        log.info("received signal %d, shutting down", signum)
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        service.start()
        print(
            f"repro serve listening on {service.url} "
            f"(procs={config.procs}, workers={config.workers}, "
            f"cache_cap={config.cache_cap})",
            flush=True,
        )
        if ready_file is not None:
            _write_ready_file(ready_file, service.host, service.port)
        stop.wait()
    finally:
        service.shutdown()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("repro serve stopped", flush=True)
    return 0
