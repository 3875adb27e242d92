"""Concurrency-grade load harness for the event-loop serving tier.

The PR 3 benchmark drove one keep-alive connection against the seed
threading server; this version is the load side of the event-loop +
pre-fork rewrite.  It measures, per topology:

* **ramp** — the cached ``/v1/estimate`` workload at 1, 10 and 100
  concurrent connections (1/10/50 in smoke mode), each level reporting
  req/s and client-observed p50/p95/p99,
* **soak** — a sustained mixed workload (cached estimate + parse +
  match) at fixed concurrency for several seconds: throughput must not
  collapse and no request may fail,
* **per-endpoint series** — cached and uncached latency percentiles
  for ``/v1/estimate``, ``/v1/match`` and ``/v1/parse``,
* **batch** — one corpus-sized ``/v1/estimate_batch`` request.

Two topologies run: the in-process single event loop (directly
comparable to the seed server's single-process number) and a real
``repro serve --procs 2`` subprocess, where the harness also scrapes
``/metrics`` from **each worker** (fresh connections until every
``worker_id`` answered) and aggregates the per-worker counters.

The acceptance floor: cached throughput at ``--procs 2`` must exceed
the seed threading server's best single-process number
(:data:`SEED_SINGLE_PROCESS_RPS` = 4524.6 req/s from the PR 3 run of
this benchmark).  Clients are raw sockets with pre-rendered request
bytes — ``http.client`` would bottleneck the driver long before the
server.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
    PYTHONPATH=src python benchmarks/bench_service.py   # standalone
    REPRO_BENCH_SMOKE=1 ...                             # CI smoke
"""

from __future__ import annotations

import itertools
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from conftest import write_result

from repro import RecipeGenerator
from repro.recipedb.generator import GeneratorConfig
from repro.service import NutritionService, ServiceConfig
from repro.service.metrics import percentile

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: The seed threading server's cached req/s over one connection — the
#: best single-process number from the PR 3 benchmark.  The pre-fork
#: topology must beat it.
SEED_SINGLE_PROCESS_RPS = 4524.6

#: Recipes in the uncached series / the batch request.
N_RECIPES = 40 if SMOKE else 200
#: Distinct payloads the cached series cycles through.
N_CACHED_DISTINCT = 8
#: Ramp levels (concurrent connections) and requests per level.
RAMP_LEVELS = (
    {1: 300, 10: 600, 50: 1200} if SMOKE else {1: 2000, 10: 5000, 100: 8000}
)
#: Soak phase: concurrency and duration.
SOAK_CONNECTIONS = 8 if SMOKE else 32
SOAK_SECONDS = 2.0 if SMOKE else 6.0
#: Endpoint series length (distinct payloads are corpus-bounded).
N_ENDPOINT = 40 if SMOKE else 100

#: Floors and ceilings.  Smoke mode shares cores with the CI matrix,
#: so its bounds only catch order-of-magnitude regressions; the full
#: run enforces the seed-beating floor.
MIN_CACHED_RPS_1CONN = 300.0 if SMOKE else 1000.0
MIN_PROCS2_CACHED_RPS = 600.0 if SMOKE else SEED_SINGLE_PROCESS_RPS
MAX_CACHED_P99_MS = 500.0 if SMOKE else 250.0

_RESULTS: dict | None = None

_REPO_ROOT = Path(__file__).resolve().parent.parent
_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


# ----------------------------------------------------------------------
# raw-socket load client


def _render_request(path: str, body: str) -> bytes:
    payload = body.encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload


class _Conn:
    """One keep-alive benchmark connection (raw socket, buffered)."""

    __slots__ = ("sock", "buf")

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, data: bytes) -> int:
        """Send one pre-rendered request, read one response, return
        its status code."""
        self.sock.sendall(data)
        while b"\r\n\r\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            self.buf += chunk
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        match = _CONTENT_LENGTH.search(head)
        length = int(match.group(1)) if match else 0
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self.buf = rest[length:]
        return int(head[9:12])

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _run_closed_loop(
    host: str,
    port: int,
    requests: list[bytes],
    *,
    connections: int,
    total: int | None = None,
    duration_s: float | None = None,
) -> dict:
    """Closed-loop load: *connections* threads, each with its own
    keep-alive socket, pulling work off a shared counter.

    Exactly one of *total* (request count) or *duration_s* bounds the
    run.  Returns throughput + latency percentiles + error count.
    """
    assert (total is None) != (duration_s is None)
    counter = itertools.count()
    deadline = None if duration_s is None else time.perf_counter() + duration_s
    lock = threading.Lock()
    all_latencies: list[float] = []
    errors = [0]
    done = [0]

    def worker() -> None:
        conn = _Conn(host, port)
        latencies: list[float] = []
        local_errors = 0
        local_done = 0
        try:
            while True:
                i = next(counter)
                if total is not None and i >= total:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                data = requests[i % len(requests)]
                start = time.perf_counter()
                status = conn.request(data)
                latencies.append(time.perf_counter() - start)
                local_done += 1
                local_errors += status != 200
        finally:
            conn.close()
            with lock:
                all_latencies.extend(latencies)
                errors[0] += local_errors
                done[0] += local_done

    threads = [
        threading.Thread(target=worker, name=f"bench-conn-{i}")
        for i in range(connections)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "connections": connections,
        **_percentiles(all_latencies),
        "errors": errors[0],
        "wall_s": round(wall, 3),
        "rps": round(done[0] / wall, 1) if wall > 0 else 0.0,
    }


def _percentiles(latencies_s: list[float]) -> dict:
    samples = sorted(value * 1000.0 for value in latencies_s)
    return {
        "count": len(samples),
        "p50_ms": round(percentile(samples, 0.50), 4),
        "p95_ms": round(percentile(samples, 0.95), 4),
        "p99_ms": round(percentile(samples, 0.99), 4),
        "max_ms": round(samples[-1], 4) if samples else 0.0,
    }


def _get_json(host: str, port: int, path: str) -> dict:
    """GET *path* over a fresh connection (used for /metrics scrapes)."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    return json.loads(raw.partition(b"\r\n\r\n")[2])


# ----------------------------------------------------------------------
# topologies


class _PreforkProc:
    """A real ``repro serve --procs N`` subprocess for the bench."""

    def __init__(self, procs: int, tag: str):
        self.ready_file = _REPO_ROOT / "results" / f".bench-ready-{tag}.txt"
        self.ready_file.parent.mkdir(parents=True, exist_ok=True)
        self.ready_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO_ROOT / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--procs", str(procs),
                "--ready-file", str(self.ready_file),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(_REPO_ROOT),
        )
        deadline = time.monotonic() + 120.0
        while True:
            if self.proc.poll() is not None:
                out = self.proc.stdout.read().decode(errors="replace")
                raise RuntimeError(f"bench serve exited early:\n{out}")
            if self.ready_file.exists():
                text = self.ready_file.read_text().strip()
                if text:
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                    break
            if time.monotonic() > deadline:
                raise RuntimeError("bench serve never became ready")
            time.sleep(0.05)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            self.proc.wait(timeout=30)
        self.ready_file.unlink(missing_ok=True)


def _aggregate_worker_metrics(
    host: str, port: int, procs: int
) -> dict:
    """Scrape ``/metrics`` until every ``worker_id`` answered, then
    sum the per-worker counters — the cross-process aggregation a
    scraper needs because each worker keeps its own registry."""
    per_worker: dict[int, dict] = {}
    for _ in range(400):
        snap = _get_json(host, port, "/metrics")
        per_worker[snap["server"]["worker_id"]] = snap
        if len(per_worker) == procs:
            break
    aggregate = {
        "requests_total": sum(
            s["requests_total"] for s in per_worker.values()
        ),
        "errors_total": sum(
            s["errors_total"] for s in per_worker.values()
        ),
        "cache_hits_total": sum(
            s["cache_hits_total"] for s in per_worker.values()
        ),
        "connections_opened": sum(
            s["connections"]["opened"] for s in per_worker.values()
        ),
    }
    return {
        "workers_seen": sorted(per_worker),
        "per_worker": {
            str(worker_id): {
                "pid": snap["server"]["pid"],
                "requests_total": snap["requests_total"],
                "cache_hits_total": snap["cache_hits_total"],
                "connections_opened": snap["connections"]["opened"],
            }
            for worker_id, snap in sorted(per_worker.items())
        },
        "aggregate": aggregate,
    }


# ----------------------------------------------------------------------
# workloads


def _build_workloads() -> dict:
    generator = RecipeGenerator(config=GeneratorConfig(seed=7))
    recipes = generator.generate(N_RECIPES)
    estimate = [
        _render_request(
            "/v1/estimate",
            json.dumps(
                {"ingredients": r.ingredient_texts, "servings": r.servings}
            ),
        )
        for r in recipes
    ]
    match = [
        _render_request(
            "/v1/match",
            json.dumps({"name": r.ingredients[0].text.split(",")[0][:60]}),
        )
        for r in recipes[:N_ENDPOINT]
    ]
    parse = [
        _render_request(
            "/v1/parse", json.dumps({"text": r.ingredients[0].text})
        )
        for r in recipes[:N_ENDPOINT]
    ]
    batch_body = json.dumps({
        "recipes": [
            {"ingredients": r.ingredient_texts, "servings": r.servings}
            for r in recipes
        ],
    })
    return {
        "estimate": estimate,
        "cached_cycle": estimate[:N_CACHED_DISTINCT],
        "match": match,
        "parse": parse,
        "batch": _render_request("/v1/estimate_batch", batch_body),
        "n_lines": sum(len(r.ingredients) for r in recipes),
    }


def _bench_inproc(work: dict) -> dict:
    started = time.perf_counter()
    with NutritionService(ServiceConfig(port=0)) as service:
        startup_s = time.perf_counter() - started
        host, port = service.host, service.port

        # Per-endpoint uncached series (distinct payloads, cold cache)
        # at moderate concurrency.
        endpoints: dict[str, dict] = {}
        uncached_runs = {
            "estimate": work["estimate"],
            "match": work["match"],
            "parse": work["parse"],
        }
        for name, reqs in uncached_runs.items():
            endpoints[name] = {
                "uncached": _run_closed_loop(
                    host, port, reqs, connections=10, total=len(reqs)
                )
            }
        # Cached series: the payloads above are warm now; repeat a
        # small cycle per endpoint.
        for name, reqs in uncached_runs.items():
            cycle = reqs[:N_CACHED_DISTINCT]
            endpoints[name]["cached"] = _run_closed_loop(
                host, port, cycle,
                connections=10,
                total=RAMP_LEVELS[10] if name == "estimate" else
                min(RAMP_LEVELS[10], 2000),
            )

        # Ramp: cached estimates at increasing concurrency.
        ramp = [
            _run_closed_loop(
                host, port, work["cached_cycle"],
                connections=level, total=total,
            )
            for level, total in sorted(RAMP_LEVELS.items())
        ]

        # Soak: sustained mixed workload.
        mixed = (
            work["cached_cycle"]
            + work["parse"][:N_CACHED_DISTINCT]
            + work["match"][:N_CACHED_DISTINCT]
        )
        soak = _run_closed_loop(
            host, port, mixed,
            connections=SOAK_CONNECTIONS, duration_s=SOAK_SECONDS,
        )

        # One corpus-sized batch request on a dedicated connection.
        conn = _Conn(host, port)
        batch_started = time.perf_counter()
        batch_status = conn.request(work["batch"])
        batch_s = time.perf_counter() - batch_started
        conn.close()

        metrics = _get_json(host, port, "/metrics")

    return {
        "startup_s": round(startup_s, 3),
        "endpoints": endpoints,
        "cached_ramp": ramp,
        "soak": soak,
        "estimate_batch": {
            "recipes": N_RECIPES,
            "lines": work["n_lines"],
            "status": batch_status,
            "seconds": round(batch_s, 3),
            "lines_per_s": round(work["n_lines"] / batch_s, 1),
        },
        "server_metrics": {
            "requests_total": metrics["requests_total"],
            "errors_total": metrics["errors_total"],
            "cache_hits_total": metrics["cache_hits_total"],
        },
    }


def _bench_prefork(work: dict, procs: int) -> dict:
    proc = _PreforkProc(procs, tag=f"procs{procs}")
    try:
        host, port = proc.host, proc.port
        # Warm every worker's cache: each worker misses each distinct
        # payload at most once, so a short scatter over fresh
        # connections is enough.
        for data in work["cached_cycle"] * (4 * procs):
            conn = _Conn(host, port)
            conn.request(data)
            conn.close()
        ramp = [
            _run_closed_loop(
                host, port, work["cached_cycle"],
                connections=level, total=total,
            )
            for level, total in sorted(RAMP_LEVELS.items())
        ]
        worker_metrics = _aggregate_worker_metrics(host, port, procs)
    finally:
        proc.stop()
    return {
        "procs": procs,
        "cached_ramp": ramp,
        "worker_metrics": worker_metrics,
    }


def run_benchmark() -> dict:
    """Drive every topology and series once, return the results."""
    global _RESULTS
    if _RESULTS is not None:
        return _RESULTS

    work = _build_workloads()
    inproc = _bench_inproc(work)
    prefork = _bench_prefork(work, procs=2)

    results = {
        "benchmark": "service",
        "smoke": SMOKE,
        "config": {
            "n_recipes": N_RECIPES,
            "n_cached_distinct": N_CACHED_DISTINCT,
            "ramp_levels": {
                str(level): total
                for level, total in sorted(RAMP_LEVELS.items())
            },
            "soak_connections": SOAK_CONNECTIONS,
            "soak_seconds": SOAK_SECONDS,
            "seed_single_process_rps": SEED_SINGLE_PROCESS_RPS,
            "min_cached_rps_1conn": MIN_CACHED_RPS_1CONN,
            "min_procs2_cached_rps": MIN_PROCS2_CACHED_RPS,
            "max_cached_p99_ms": MAX_CACHED_P99_MS,
        },
        "inproc": inproc,
        "procs2": prefork,
    }
    write_result("BENCH_service.json", json.dumps(results, indent=2))
    _RESULTS = results
    return results


def _ramp_level(results: dict, topology: str, connections: int) -> dict:
    for entry in results[topology]["cached_ramp"]:
        if entry["connections"] == connections:
            return entry
    raise KeyError(connections)


def _top_level(results: dict, topology: str) -> dict:
    return max(
        results[topology]["cached_ramp"],
        key=lambda entry: entry["connections"],
    )


# ----------------------------------------------------------------------
# assertions (pytest entry points)


def test_all_requests_succeed():
    results = run_benchmark()
    for name, series in results["inproc"]["endpoints"].items():
        assert series["uncached"]["errors"] == 0, name
        assert series["cached"]["errors"] == 0, name
    for entry in results["inproc"]["cached_ramp"]:
        assert entry["errors"] == 0, entry
    for entry in results["procs2"]["cached_ramp"]:
        assert entry["errors"] == 0, entry
    assert results["inproc"]["soak"]["errors"] == 0
    assert results["inproc"]["estimate_batch"]["status"] == 200
    assert results["inproc"]["server_metrics"]["errors_total"] == 0


def test_cached_repeats_sustain_rps_floor():
    results = run_benchmark()
    level = _ramp_level(results, "inproc", 1)
    assert level["rps"] >= MIN_CACHED_RPS_1CONN, (
        f"cached repeats at {level['rps']} req/s over one connection "
        f"(floor {MIN_CACHED_RPS_1CONN}); p50 {level['p50_ms']} ms"
    )


def test_procs2_beats_seed_single_process_throughput():
    results = run_benchmark()
    best = max(
        entry["rps"] for entry in results["procs2"]["cached_ramp"]
    )
    assert best >= MIN_PROCS2_CACHED_RPS, (
        f"--procs 2 peaked at {best} req/s "
        f"(floor {MIN_PROCS2_CACHED_RPS})"
    )


def test_p99_within_ceiling_at_high_concurrency():
    results = run_benchmark()
    for topology in ("inproc", "procs2"):
        top = _top_level(results, topology)
        assert top["p99_ms"] <= MAX_CACHED_P99_MS, (
            f"{topology} p99 {top['p99_ms']} ms at "
            f"{top['connections']} connections "
            f"(ceiling {MAX_CACHED_P99_MS} ms)"
        )


def test_load_spreads_across_workers():
    results = run_benchmark()
    metrics = results["procs2"]["worker_metrics"]
    assert metrics["workers_seen"] == [0, 1]
    for worker_id, snap in metrics["per_worker"].items():
        assert snap["requests_total"] > 0, f"worker {worker_id} idle"
    issued = sum(
        entry["count"] for entry in results["procs2"]["cached_ramp"]
    )
    assert metrics["aggregate"]["requests_total"] >= issued


def test_cache_actually_served_the_repeats():
    results = run_benchmark()
    ramp_total = sum(
        entry["count"] for entry in results["inproc"]["cached_ramp"]
    )
    assert (
        results["inproc"]["server_metrics"]["cache_hits_total"]
        >= ramp_total - N_CACHED_DISTINCT
    )


def test_cached_is_faster_than_uncached():
    results = run_benchmark()
    estimate = results["inproc"]["endpoints"]["estimate"]
    assert estimate["cached"]["p50_ms"] < estimate["uncached"]["p50_ms"]


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
