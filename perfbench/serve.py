"""``serve-estimate``: recommender lookups against ``repro serve``.

The service runs as a subprocess in its default configuration
(``repro serve --port 0``); set-up time is the spawn until its ready
file appears, taken as the median of :data:`SETUP_SPAWNS` spawns.  Load
comes from this process alone: one thread, at most two keep-alive
connections, requests pipelined on them.  The server is warmed with
:data:`WARMUP_REQUESTS` requests; capacity is measured with a closed
loop over two connections (each keeps one request in flight); then an
open loop runs at :data:`OFFERED_RPS`, timing every request from the
moment it was due to be sent.

Checks: every response is HTTP 200 and byte-identical to every other
response for the same request; sampled responses are byte-identical to
an in-process ``ServiceState`` rendering of the same request.

With ``--trace 1`` half the time runs against a plain server and half
against one started through :mod:`serve_traced`; the spans of the
traced half give the per-layer numbers and the capacity difference
gives the tracing overhead.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from types import SimpleNamespace

import inputs
from common import (
    BENCH_DIR, OUT, PAPER_MAE_KCAL, ROOT, Outcome, child_env, median,
    peak_rss_mb, percentile, use_program,
)

SETUP_SPAWNS = 5
READY_TIMEOUT_S = 60.0
#: Requests that warm the response cache and memos.
WARMUP_REQUESTS = 6000
#: Share of the measured time spent finding capacity.
CAPACITY_SHARE = 0.5
#: The fixed open-loop rate, 30-40% of the capacity of a warm server on
#: this mix on a 2-vCPU machine.  Nearer half the capacity, queueing
#: amplified the machine's own speed swings into p90 spreads of ~0.2
#: between runs.
OFFERED_RPS = 500.0
#: A catalogue recipe is byte-checked against the reference when its
#: index is a multiple of this.
SAMPLE_EVERY = 40
#: Measured loops are cut into at most MAX_WINDOWS consecutive windows
#: of equal request count, and each figure is the median over its
#: windows, so a disturbed stretch of a run does not set the result.
#: A latency window keeps at least ten samples beyond its p90.
MAX_WINDOWS = 10
THROUGHPUT_WINDOW_MIN = 30
LATENCY_WINDOW_MIN = 100

_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


# ----------------------------------------------------------------------
# the server under test


class Server:
    """One ``repro serve`` subprocess, ready to take requests."""

    def __init__(self, tag: str, spans_path=None):
        ready = OUT / f"ready-{tag}.txt"
        ready.unlink(missing_ok=True)
        serve_args = ["--port", "0", "--ready-file", str(ready)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "serve_traced.py"),
                "--spans", str(spans_path), "--", *serve_args,
            ]
        self.log = (OUT / f"serve-{tag}.log").open("wb")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=str(ROOT),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        while True:
            text = ready.read_text().strip() if ready.exists() else ""
            if text:
                break
            if self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(f"repro serve exited early; see {self.log.name}")
            if time.perf_counter() - launched > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - launched
        host, port = text.split()
        self.address = (host, int(port))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def metrics(self) -> dict:
        with socket.create_connection(self.address, timeout=30) as sock:
            sock.sendall(
                b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n"
                b"Connection: close\r\n\r\n"
            )
            raw = bytearray()
            while chunk := sock.recv(1 << 16):
                raw += chunk
        return json.loads(bytes(raw).partition(b"\r\n\r\n")[2])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_server(tag: str, spans_path=None) -> tuple[Server, list[float]]:
    """Spawn :data:`SETUP_SPAWNS` servers; keep the last one running."""
    setups = []
    for i in range(SETUP_SPAWNS):
        last = i == SETUP_SPAWNS - 1
        server = Server(f"{tag}-{i}", spans_path if last else None)
        setups.append(server.setup_s)
        if not last:
            server.stop()
    return server, setups


# ----------------------------------------------------------------------
# the load generator


class Conn:
    """A keep-alive connection with pipelined requests in flight."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.pending: deque = deque()

    def send(self, data: bytes, meta) -> None:
        self.pending.append(meta)
        self.sock.sendall(data)

    def pump(self) -> list[tuple]:
        """Read what arrived; return the completed ``(meta, status, body)``."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        done = []
        while True:
            head_end = self.buf.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(self.buf[:head_end])
            match = _CONTENT_LENGTH.search(head)
            end = head_end + 4 + (int(match.group(1)) if match else 0)
            if len(self.buf) < end:
                break
            body = bytes(self.buf[head_end + 4:end])
            del self.buf[:end]
            done.append((self.pending.popleft(), int(head[9:12]), body))
        return done

    def close(self) -> None:
        self.sock.close()


def _selector(conns):
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    return sel


def closed_loop(conns, next_request, duration_s, on_response,
                count: int | None = None) -> tuple[int, float]:
    """Each connection keeps one request in flight until time (or
    *count* requests) runs out.  ``next_request() -> (key, bytes)``;
    ``on_response(key, status, body, latency_s)``.  Returns
    ``(completed, wall seconds)``."""
    sel = _selector(conns)
    started = time.perf_counter()
    end = started + duration_s
    sent = completed = 0

    def send(conn):
        nonlocal sent
        key, data = next_request()
        conn.send(data, (key, time.perf_counter()))
        sent += 1

    for conn in conns:
        send(conn)
    last = started
    while completed < sent:
        events = sel.select(timeout=30)
        if not events:
            raise TimeoutError("no response for 30 s")
        for selected, _ in events:
            conn = selected.data
            for (key, sent_at), status, body in conn.pump():
                last = time.perf_counter()
                completed += 1
                on_response(key, status, body, last - sent_at)
                more = sent < count if count is not None else last < end
                if more:
                    send(conn)
    sel.close()
    return completed, last - started


def open_loop(conns, next_request, rate, duration_s, on_response):
    """Send on a fixed schedule, round-robin over *conns*.

    Latency runs from when a request was due, so a stall also charges
    the requests queued behind it.  Returns the generator's lateness
    (actual send time minus due time) per request, in seconds.
    """
    sel = _selector(conns)
    total = int(rate * duration_s)
    t0 = time.perf_counter() + 0.005
    late = []
    sent = completed = 0
    give_up = t0 + duration_s + 60.0
    while completed < total:
        now = time.perf_counter()
        while sent < total and t0 + sent / rate <= now:
            due = t0 + sent / rate
            key, data = next_request()
            late.append(time.perf_counter() - due)
            conns[sent % len(conns)].send(data, (key, due))
            sent += 1
            now = time.perf_counter()
        timeout = t0 + sent / rate - now if sent < total else 1.0
        for selected, _ in sel.select(timeout=max(timeout, 0.0)):
            for (key, due), status, body in selected.data.pump():
                completed += 1
                on_response(key, status, body, time.perf_counter() - due)
        if time.perf_counter() > give_up:
            raise TimeoutError("open loop did not drain")
    sel.close()
    return late


def _windows(records, started: float, min_size: int):
    """``(records, wall seconds)`` of consecutive equal-count windows."""
    count = max(1, min(MAX_WINDOWS, len(records) // min_size))
    edges = [round(i * len(records) / count) for i in range(count + 1)]
    for a, b in zip(edges, edges[1:]):
        begin = records[a - 1][0] if a else started
        yield records[a:b], records[b - 1][0] - begin


def windowed(records, started: float) -> dict:
    """Window medians of ``(done at, latency s, lines)`` records in
    completion order: requests/s, lines/s, p50 and p90 latency (ms)."""
    rates = list(_windows(records, started, THROUGHPUT_WINDOW_MIN))
    latencies = [
        [latency * 1e3 for _, latency, _ in chunk]
        for chunk, _ in _windows(records, started, LATENCY_WINDOW_MIN)
    ]
    return {
        "rps": median([len(chunk) / wall for chunk, wall in rates]),
        "lines_per_s": median([
            sum(lines for _, _, lines in chunk) / wall
            for chunk, wall in rates
        ]),
        "p50_ms": median([percentile(w, 0.50) for w in latencies]),
        "p90_ms": median([percentile(w, 0.90) for w in latencies]),
    }


def _phases(began, warm_start, window_start, window_end, stop_start):
    """Wall seconds of each phase of one server's lifetime."""
    return {
        "setup": round(warm_start - began, 3),
        "warm-up": round(window_start - warm_start, 3),
        "measure": round(window_end - window_start, 3),
        "stop": round(time.perf_counter() - stop_start, 3),
    }


# ----------------------------------------------------------------------
# traced runs


def server_layers(spans_path, window: tuple[float, float],
                  latency_s: float, requests: int, served: int) -> dict:
    """Per-request self times of the traced server inside *window*.

    ``service.http`` is the client-observed latency not covered by any
    server-side span: HTTP parsing and framing, the event loop,
    pipelining queues and response-cache hits served on the loop.
    Counters cover the server's whole life, so they are divided by all
    *served* requests, warm-up included.
    """
    from tracer import global_spans, self_times

    with open(spans_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    spans = global_spans(records)
    start_ns, end_ns = (int(t * 1e9) for t in window)
    parent_of = {s[0]: s[1] for s in spans}
    start_of = {s[0]: s[3] for s in spans}

    def root(key):
        while parent_of.get(key) is not None:
            key = parent_of[key]
        return key

    kept = [s for s in spans if start_ns <= start_of[root(s[0])] <= end_ns]
    totals = self_times(kept)
    layers = {}
    for name, (ns, calls) in totals.items():
        layers[f"{name}_s"] = ns / 1e9 / requests
        layers[f"{name}_calls"] = calls / requests
    server_s = sum(t1 - t0 for _k, p, _n, t0, t1 in kept if p is None) / 1e9
    layers["service.http_s"] = (latency_s - server_s) / requests
    layers["service.http_calls"] = 1.0
    layers["trace.unattributed_share"] = (latency_s - server_s) / latency_s
    layers["trace.wall_s"] = window[1] - window[0]
    counters = {}
    for record in records:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    layers["core.fallback_lines"] = (
        counters.get("core.fallback_lines", 0) / served
    )
    return layers


def cache_layers(before: dict, after: dict) -> dict:
    """Hit ratios and shedding between two ``/metrics`` scrapes."""
    def ratio(name):
        b, a = before["caches"][name], after["caches"][name]
        hits = a["hits"] - b["hits"]
        probes = hits + a["misses"] - b["misses"]
        return hits / probes if probes else 0.0

    return {
        "service.response_cache_hit_ratio": ratio("response"),
        "service.fragment_cache_hit_ratio": ratio("fragment"),
        "matching.cache_hit_ratio": ratio("matcher"),
        "core.parse_cache_hit_ratio": ratio("parse"),
        "service.shed": (
            after["resilience"]["admission"]["shed_total"]
            - before["resilience"]["admission"]["shed_total"]
        ),
    }


# ----------------------------------------------------------------------
# checks


def _reference_state():
    use_program()
    from repro.service.handlers import dispatch
    from repro.service.state import ServiceConfig, ServiceState

    state = ServiceState(ServiceConfig(port=0))

    def render(path: str, payload) -> bytes:
        response = dispatch(state, "POST", path, payload)
        if response.status != 200:
            raise RuntimeError(f"reference render failed: {response.body!r}")
        return response.body

    return render


def _estimate_view(fully_mapped: float, kcal_per_serving: float):
    """What the §III evaluation reads from a recipe estimate."""
    return SimpleNamespace(
        fraction_fully_mapped=fully_mapped,
        per_serving=SimpleNamespace(calories=kcal_per_serving),
    )


def _recipe_head(body: bytes) -> dict:
    """The recipe-level fields of a ``/v1/estimate`` body (no lines)."""
    return json.loads(body[:body.index(b',"ingredients":')] + b"}")


def _mae(recipes, views):
    from repro.eval.gold import select_evaluation_recipes
    from repro.eval.metrics import calorie_error_report

    report, _ = calorie_error_report(select_evaluation_recipes(recipes, views))
    return report


# ----------------------------------------------------------------------
# the workload


def _measure_estimate(cat, seconds: float, spans_path=None) -> dict:
    began = time.perf_counter()
    server, setups = start_server("estimate", spans_path)
    out = {"setups": setups, "attempted": 0, "failed": 0,
           "digests": {}, "heads": {}, "samples": {}, "bytes": 0}

    def on_response(key, status, body, _latency):
        out["attempted"] += 1
        out["bytes"] += len(body)
        if status != 200:
            out["failed"] += 1
            return
        seen = out["digests"].get(key)
        if seen is None:
            out["digests"][key] = hash(body)
            out["heads"][key] = _recipe_head(body)
            if key % SAMPLE_EVERY == 0:
                out["samples"][key] = body
        elif seen != hash(body):
            out["failed"] += 1

    def requests(stream):
        draws = cat.draws(stream)

        def next_request():
            key = next(draws)
            return key, cat.requests[key]
        return next_request

    conns = [Conn(server.address) for _ in range(2)]
    try:
        warm_start = time.perf_counter()
        closed_loop(conns, requests(0), 0, on_response,
                    count=WARMUP_REQUESTS)
        before = server.metrics()
        window_start = time.perf_counter()
        capacity, open_ = [], []

        def recorder(records):
            def record(key, status, body, latency):
                on_response(key, status, body, latency)
                records.append((time.perf_counter(), latency, cat.lines[key]))
            return record

        closed_loop(
            conns, requests(1), seconds * CAPACITY_SHARE, recorder(capacity)
        )
        late = open_loop(
            conns, requests(2), OFFERED_RPS,
            seconds * (1 - CAPACITY_SHARE), recorder(open_),
        )
        window_end = time.perf_counter()
        after = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        stop_start = time.perf_counter()
        server.stop()
    out["phases"] = _phases(
        began, warm_start, window_start, window_end, stop_start
    )
    out.update(
        capacity=windowed(capacity, window_start),
        open=windowed(open_, open_[0][0]),
        open_lat=[latency for _, latency, _ in open_],
        late=late,
        rss=rss,
        window=(window_start, window_end),
        latency_sum=sum(r[1] for r in capacity + open_),
        window_requests=len(capacity) + len(open_),
        caches=cache_layers(before, after),
    )
    return out


def run_estimate(seed: int, seconds: float, trace: bool) -> Outcome:
    use_program()
    OUT.mkdir(parents=True, exist_ok=True)
    cat = inputs.catalogue(seed)
    plain = _measure_estimate(cat, seconds / 2 if trace else seconds)
    traced = None
    if trace:
        spans_path = OUT / "serve-estimate.spans.jsonl"
        traced = _measure_estimate(cat, seconds / 2, spans_path)

    outcome = Outcome()
    render = _reference_state()
    for run_ in (plain, traced) if traced else (plain,):
        outcome.attempted += run_["attempted"]
        outcome.failed += run_["failed"]
        for key, body in run_["samples"].items():
            outcome.attempted += 1
            if render("/v1/estimate", cat.payloads[key]) != body:
                outcome.failed += 1
    outcome.checks["samples_compared"] = len(plain["samples"]) > 0
    mae = _mae(
        [cat.recipes[k] for k in plain["heads"]],
        [
            _estimate_view(
                h["fraction_fully_mapped"], h["per_serving"]["energy_kcal"]
            )
            for h in plain["heads"].values()
        ],
    )
    lat_ms = [s * 1e3 for s in plain["open_lat"]]
    late_ms = [s * 1e3 for s in plain["late"]]
    outcome.metrics = {
        "setup_s": median(plain["setups"]),
        "lines_per_s": plain["capacity"]["lines_per_s"],
        "capacity_rps": plain["capacity"]["rps"],
        "p50_ms": plain["open"]["p50_ms"],
        "p90_ms": plain["open"]["p90_ms"],
        "peak_rss_mb": plain["rss"],
        "calorie_mae_kcal": mae.mean_abs_error,
    }
    outcome.notes += [
        f"catalogue shape: {cat.shape}",
        f"open loop: {len(lat_ms)} requests at {OFFERED_RPS:g}/s over 2 "
        f"connections; p99 {percentile(lat_ms, 0.99):.3f} ms "
        f"(not gated: too noisy run to run); generator lateness p99 "
        f"{percentile(late_ms, 0.99):.3f} ms; capacity (closed loop, 2 "
        f"connections) {plain['capacity']['rps']:.1f} req/s",
        f"response cache hit ratio {plain['caches']['service.response_cache_hit_ratio']:.3f}; "
        f"{len(plain['samples'])} sampled bodies byte-compared with an "
        "in-process ServiceState",
        f"calorie MAE {mae.mean_abs_error:.2f} kcal over {mae.n_recipes} "
        f"fully mapped served recipes (paper: {PAPER_MAE_KCAL})",
        f"phase seconds: {plain['phases']}",
    ]
    if traced:
        layers = server_layers(
            spans_path, traced["window"], traced["latency_sum"],
            traced["window_requests"], traced["attempted"],
        )
        layers.update(traced["caches"])
        layers["service.response_bytes"] = traced["bytes"] / traced["attempted"]
        layers["loadgen.late_p99_ms"] = percentile(
            [s * 1e3 for s in traced["late"]], 0.99
        )
        layers["trace.overhead_ratio"] = (
            plain["capacity"]["rps"] / traced["capacity"]["rps"] - 1.0
        )
        outcome.layers = layers
        outcome.notes.append(f"server spans: {spans_path}")
    return outcome
