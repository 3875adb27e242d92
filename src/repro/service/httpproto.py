"""Incremental HTTP/1.1 wire protocol for the event-loop server.

:class:`RequestParser` is a per-connection, allocation-light state
machine: bytes go in via :meth:`feed` as they arrive from the socket,
complete requests come out of :meth:`next_request` — ``None`` means
"need more bytes", which is what makes the server's loop non-blocking
end to end.  Because the parser owns a rolling buffer, **pipelined**
requests (several requests in one TCP segment) fall out naturally:
after one request is consumed, the next call to :meth:`next_request`
picks up at the following byte.

Protocol failures raise the service's *typed* errors so the server
answers them with the same JSON envelopes the rest of the stack uses:

* malformed request line / header, unsupported transfer coding, a
  ``Content-Length`` that is not ``1*DIGIT`` or two that disagree →
  :class:`~repro.service.errors.ValidationError` (HTTP 400),
* headers growing past :data:`MAX_HEADER_BYTES` →
  :class:`~repro.service.errors.HeadersTooLargeError` (HTTP 431),
* declared body larger than the configured cap →
  :class:`~repro.service.errors.PayloadTooLargeError` (HTTP 413) —
  raised from the *headers* alone, before any body byte is read,
  so an attacker cannot make the server buffer the oversized body.

The ``Content-Length`` and 413 error messages are part of the wire
contract: ``tests/golden/server_matrix.json`` pins their envelopes
byte for byte.

:func:`render_response` is the other half: status line, headers and
body concatenated into **one** bytes object so the server ships every
response in a single ``send`` (a body sent as a second segment stalls
keep-alive clients ~40 ms on Nagle + delayed ACK).  Header names,
order and formatting (``Server`` then ``Date`` first) are fixed by the
same golden responses.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus

from repro import __version__
from repro.service.errors import (
    HeadersTooLargeError,
    PayloadTooLargeError,
    ValidationError,
)

#: Cap on the request line + headers of one request.  Generous for any
#: real client (http.client emits a few hundred bytes) while bounding
#: what a drip-feeding client can make the server buffer.
MAX_HEADER_BYTES = 32 * 1024

_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"


@dataclass(frozen=True, slots=True)
class ParsedRequest:
    """One complete request, ready for dispatch."""

    method: str
    path: str
    version: str
    headers: dict[str, str]  # keys lowercased; last duplicate wins
    body: bytes
    close: bool  # client asked for (or implied) connection close


_STATE_HEADERS = 0
_STATE_BODY = 1


class RequestParser:
    """Incremental parser for a stream of HTTP/1.1 requests.

    One instance per connection.  Raising leaves the parser unusable
    by design: every protocol error closes the connection, so there
    is nothing to resynchronize.
    """

    __slots__ = (
        "_buf",
        "_state",
        "_scanned",
        "_content_length",
        "_pending",
        "max_body_bytes",
    )

    def __init__(self, max_body_bytes: int):
        self.max_body_bytes = max_body_bytes
        self._buf = bytearray()
        self._state = _STATE_HEADERS
        #: How far the header-terminator scan has looked (avoid
        #: rescanning the whole buffer on every drip-fed byte).
        self._scanned = 0
        self._content_length = 0
        self._pending: ParsedRequest | None = None

    # ------------------------------------------------------------------
    # feeding

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def receiving(self) -> bool:
        """A request has started arriving but is not complete yet.

        Distinguishes a *slow* request (subject to the I/O timeout —
        the slowloris case) from an idle keep-alive connection
        (subject to the longer idle timeout).
        """
        return self._state == _STATE_BODY or len(self._buf) > 0

    def buffered_bytes(self) -> int:
        return len(self._buf)

    # ------------------------------------------------------------------
    # parsing

    def next_request(self) -> ParsedRequest | None:
        """The next complete request, or ``None`` until more bytes land."""
        if self._state == _STATE_HEADERS:
            if not self._parse_head():
                return None
        # _STATE_BODY: wait for the declared Content-Length.
        assert self._pending is not None
        if len(self._buf) < self._content_length:
            return None
        body = bytes(self._buf[: self._content_length])
        del self._buf[: self._content_length]
        request = self._pending
        self._pending = None
        self._state = _STATE_HEADERS
        self._scanned = 0
        return ParsedRequest(
            method=request.method,
            path=request.path,
            version=request.version,
            headers=request.headers,
            body=body,
            close=request.close,
        )

    def _parse_head(self) -> bool:
        """Parse request line + headers once the terminator is in."""
        end = self._buf.find(_HEADER_END, max(0, self._scanned - 3))
        if end < 0:
            self._scanned = len(self._buf)
            if self._scanned > MAX_HEADER_BYTES:
                raise HeadersTooLargeError(
                    f"request head exceeds {MAX_HEADER_BYTES} bytes "
                    "before the header terminator"
                )
            return False
        if end > MAX_HEADER_BYTES:
            raise HeadersTooLargeError(
                f"request head of {end} bytes exceeds the "
                f"{MAX_HEADER_BYTES} byte limit"
            )
        head = bytes(self._buf[:end])
        del self._buf[: end + 4]

        try:
            text = head.decode("iso-8859-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise ValidationError("request head is not decodable")
        lines = text.split("\r\n")
        method, path, version = self._parse_request_line(lines[0])
        headers = self._parse_headers(lines[1:])

        if "chunked" in headers.get("transfer-encoding", "").lower():
            # Without a chunked decoder the body would be read as
            # empty and the connection would desynchronize; reject.
            raise ValidationError(
                "chunked transfer encoding is not supported",
                field="Transfer-Encoding",
            )

        # Missing/empty Content-Length means no body; anything but
        # 1*DIGIT gets the 400 envelope pinned by the golden responses.
        raw_length = headers.get("content-length") or "0"
        length = _content_length(raw_length)
        if length is None:
            raise _invalid_content_length(raw_length)
        if length > self.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes} byte limit"
            )

        connection = headers.get("connection", "").lower()
        close = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )

        self._content_length = length
        self._pending = ParsedRequest(
            method=method,
            path=path,
            version=version,
            headers=headers,
            body=b"",
            close=close,
        )
        self._state = _STATE_BODY
        return True

    @staticmethod
    def _parse_request_line(line: str) -> tuple[str, str, str]:
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(f"malformed request line: {line!r}")
        method, path, version = parts
        if not method.isalpha() or method != method.upper():
            raise ValidationError(f"malformed request method: {method!r}")
        if not path.startswith("/"):
            raise ValidationError(f"malformed request target: {path!r}")
        if not version.startswith("HTTP/1."):
            raise ValidationError(
                f"unsupported protocol version: {version!r}"
            )
        return method, path, version

    @staticmethod
    def _parse_headers(lines: list[str]) -> dict[str, str]:
        headers: dict[str, str] = {}
        for line in lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip():
                raise ValidationError(f"malformed header line: {line!r}")
            key = name.lower()
            value = value.strip()
            # Two framings for one body would let the last one win
            # silently; RFC 9110 §8.6 requires rejecting a conflict.
            if key == "content-length" and headers.get(key, value) != value:
                raise _invalid_content_length(f"{headers[key]}, {value}")
            headers[key] = value
        return headers


def _content_length(raw: str) -> int | None:
    """*raw* as ``1*DIGIT`` (RFC 9110 §8.6), else ``None``.

    Bare ``int()`` would also accept ``+10``, ``1_0`` and non-ASCII
    digits.
    """
    if not (raw.isascii() and raw.isdigit()):
        return None
    try:
        return int(raw)
    except ValueError:  # more digits than int() converts from a str
        return None


def _invalid_content_length(raw: str) -> ValidationError:
    return ValidationError(
        f"invalid Content-Length header: {raw!r}",
        field="Content-Length",
    )


# ----------------------------------------------------------------------
# response rendering


# "repro-serve/<version> Python/<x.y.z>", as pinned by
# tests/golden/server_matrix.json (the test rebuilds it for the
# interpreter it runs on).
_SERVER_HEADER = (
    f"Server: repro-serve/{__version__} "
    f"Python/{sys.version.split()[0]}\r\n".encode()
)

#: Pre-rendered status lines for every status the service can emit.
_STATUS_LINES: dict[int, bytes] = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n".encode()
    for status in HTTPStatus
}

# The Date header changes once a second; render it at most that often.
_date_cache: tuple[int, bytes] = (0, b"")


def _date_header() -> bytes:
    global _date_cache
    now = int(time.time())
    if _date_cache[0] != now:
        _date_cache = (
            now,
            f"Date: {formatdate(now, usegmt=True)}\r\n".encode(),
        )
    return _date_cache[1]


def render_response(
    status: int,
    body: bytes,
    *,
    cache_hit: bool = False,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """Status line + headers + body as one single-send bytes object.

    Header order: Server, Date, Content-Type, Content-Length, then
    ``X-Cache`` and any error-carried extras.  The contract is
    ``tests/golden/server_matrix.json``, compared byte for byte
    (``Date`` aside).
    """
    status_line = _STATUS_LINES.get(status)
    if status_line is None:  # pragma: no cover - unknown status code
        status_line = f"HTTP/1.1 {status} Unknown\r\n".encode()
    parts = [
        status_line,
        _SERVER_HEADER,
        _date_header(),
        b"Content-Type: application/json\r\n",
        b"Content-Length: %d\r\n" % len(body),
    ]
    if cache_hit:
        parts.append(b"X-Cache: hit\r\n")
    for name, value in extra_headers:
        parts.append(f"{name}: {value}\r\n".encode())
    parts.append(_CRLF)
    parts.append(body)
    return b"".join(parts)
