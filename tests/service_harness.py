"""Shared plumbing for the serving-tier test suites.

Raw-socket HTTP helpers (the parity and protocol suites compare exact
bytes, so ``http.client``'s parsing would hide what we assert on), the
server-matrix request cases, and a subprocess runner for
``repro serve`` — the only honest way to test
``--procs N``, SIGTERM drains and SO_REUSEPORT spread is against real
processes.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


class ResponseStream:
    """Reads consecutive HTTP responses off one socket.

    Pipelined responses coalesce into single TCP segments, so bytes
    past one response's ``Content-Length`` belong to the *next*
    response — this keeps them buffered instead of dropping them.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""

    def next_response(self, timeout: float = 10.0) -> bytes:
        self.sock.settimeout(timeout)
        while b"\r\n\r\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:  # EOF: surface whatever partial bytes exist
                out, self.buf = self.buf, b""
                return out
            self.buf += chunk
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        match = _CONTENT_LENGTH.search(head)
        length = int(match.group(1)) if match else 0
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                break
            rest += chunk
        self.buf = rest[length:]
        return head + b"\r\n\r\n" + rest[:length]


def recv_response(sock: socket.socket, timeout: float = 10.0) -> bytes:
    """Read exactly one HTTP response (headers + Content-Length body).

    One-shot: anything received past the first response is discarded —
    use :class:`ResponseStream` when reading several responses from
    the same socket.
    """
    return ResponseStream(sock).next_response(timeout)


def raw_request(
    host: str, port: int, data: bytes, timeout: float = 10.0
) -> bytes:
    """One connection, one request, one response, close."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        return recv_response(sock, timeout)


def build_request(
    method: str,
    path: str,
    payload=None,
    *,
    headers: dict[str, str] | None = None,
    body: bytes | None = None,
) -> bytes:
    """Deterministic request bytes (parity needs identical inputs)."""
    if body is None:
        body = b"" if payload is None else json.dumps(payload).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    sent = {k.lower() for k in (headers or {})}
    if body and "content-length" not in sent:
        lines.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


#: The server matrix (``tests/test_service_http.py``): every endpoint
#: and error-envelope case, as deterministic raw request bytes.  Each
#: server sees each case exactly once, in this order, so cache
#: behaviour (all misses) is identical everywhere.  ``full`` cases
#: compare status line, headers (minus Date) and exact body bytes
#: against ``golden/server_matrix.json``; ``status`` cases have
#: process-varying bodies (uptime, pid) and check status 200 and
#: Content-Type only.
MATRIX_CASES = [
    ("healthz", build_request("GET", "/healthz"), "status"),
    ("readyz", build_request("GET", "/readyz"), "status"),
    ("metrics", build_request("GET", "/metrics"), "status"),
    ("estimate", build_request("POST", "/v1/estimate", {
        "ingredients": ["2 cups all-purpose flour", "1 tsp salt",
                        "3 cloves garlic , minced"],
        "servings": 4,
    }), "full"),
    ("estimate_batch", build_request("POST", "/v1/estimate_batch", {
        "recipes": [
            {"ingredients": ["1 cup white sugar"], "servings": 2},
            {"ingredients": ["2 teaspoons garam masala",
                             "1 small onion , finely chopped"],
             "servings": 1},
        ],
    }), "full"),
    ("match", build_request("POST", "/v1/match", {
        "name": "red lentils", "top": 3,
    }), "full"),
    ("parse", build_request("POST", "/v1/parse", {
        "text": "1 small onion , finely chopped",
    }), "full"),
    ("explain", build_request("POST", "/v1/explain", {
        "text": "1 head butter cup",
        "context": ["2 tablespoons butter", "1 tablespoon butter"],
    }), "full"),
    ("invalid_json", build_request(
        "POST", "/v1/estimate", body=b"this is not json",
    ), "full"),
    ("validation_error", build_request("POST", "/v1/estimate", {
        "ingredients": [], "servings": 2,
    }), "full"),
    ("not_found", build_request("GET", "/v1/unknown"), "full"),
    ("method_not_allowed", build_request("GET", "/v1/estimate"), "full"),
    ("bad_content_length", build_request(
        "POST", "/v1/parse", headers={"Content-Length": "abc"},
    ), "full"),
    ("negative_content_length", build_request(
        "POST", "/v1/parse", headers={"Content-Length": "-1"},
    ), "full"),
    ("payload_too_large", build_request(
        "POST", "/v1/estimate",
        headers={"Content-Length": str((1 << 20) + 1)},
    ), "full"),
]


def split_response(raw: bytes) -> tuple[int, str, list[str], bytes]:
    """(status, status_line, header_lines_without_date, body)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("iso-8859-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = [
        line for line in lines[1:]
        if not line.lower().startswith("date:")
    ]
    return status, lines[0], headers, body


class ServeProcess:
    """A real ``repro serve`` subprocess, discovered via --ready-file.

    Context manager: on exit sends SIGTERM and asserts a clean
    (exit 0) graceful stop unless the test already killed it.
    """

    def __init__(self, tmp_path: Path, *extra_args: str, procs: int = 1):
        self.ready_file = tmp_path / f"ready-{os.getpid()}-{id(self)}.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--procs", str(procs),
                "--ready-file", str(self.ready_file),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(REPO_ROOT),
        )
        self.host = ""
        self.port = 0
        self._wait_ready()

    def _wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                out = self.proc.stdout.read().decode(errors="replace")
                raise RuntimeError(
                    f"serve exited {self.proc.returncode} before ready:\n"
                    f"{out}"
                )
            if self.ready_file.exists():
                text = self.ready_file.read_text().strip()
                if text:
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                    return
            time.sleep(0.05)
        raise RuntimeError("serve did not become ready in time")

    def output(self) -> str:
        return self.proc.stdout.read().decode(errors="replace")

    def stop(self, timeout_s: float = 20.0) -> int:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.proc.kill()
            self.proc.wait(timeout=5.0)
            raise

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        code = self.stop()
        if exc_info[0] is None:
            assert code == 0, f"serve exited {code}"


def get_json(host: str, port: int, path: str, timeout: float = 10.0) -> dict:
    """GET *path* over a fresh connection, decode the JSON body."""
    raw = raw_request(
        host, port, build_request("GET", path), timeout=timeout
    )
    _, _, _, body = split_response(raw)
    return json.loads(body)
