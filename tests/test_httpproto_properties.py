"""Chunking-independence of the incremental HTTP/1.1 parser.

:class:`~repro.service.httpproto.RequestParser` sees whatever segment
boundaries TCP delivers.  The property: a pipelined byte stream parses
to the same :class:`ParsedRequest` sequence, and fails with the same
typed error after the same number of requests, however it is split —
one shot, one byte at a time, at every single offset, or at drawn
offsets.  The stream is built from the server-matrix requests
(``service_harness.MATRIX_CASES``) plus one malformed or truncated
tail.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.errors import ServiceError
from repro.service.httpproto import MAX_HEADER_BYTES, RequestParser
from repro.service.state import ServiceConfig
from service_harness import MATRIX_CASES, build_request

MAX_BODY_BYTES = ServiceConfig().max_body_bytes

#: Matrix cases the parser itself rejects (400 / 413 from the head).
REJECTED_CASES = {
    "bad_content_length", "negative_content_length", "payload_too_large",
}
REQUESTS = [req for name, req, _ in MATRIX_CASES if name not in REJECTED_CASES]

#: Stream endings: a clean end, a truncated request, and every typed
#: protocol error the parser raises.
TAILS = {
    "clean": b"",
    "truncated_head": b"POST /v1/parse HTTP/1.1\r\nContent-Le",
    "truncated_body": build_request(
        "POST", "/v1/parse", {"text": "1 tsp salt"}
    )[:-3],
    **{
        name: req for name, req, _ in MATRIX_CASES if name in REJECTED_CASES
    },
    "underscore_length": build_request(
        "POST", "/v1/parse", headers={"Content-Length": "1_0"},
    ) + b"0123456789",
    "signed_length": build_request(
        "POST", "/v1/parse", headers={"Content-Length": "+10"},
    ) + b"0123456789",
    "overlong_length": build_request(
        "POST", "/v1/parse", headers={"Content-Length": "9" * 5000},
    ),
    "conflicting_lengths": (
        b"POST /v1/parse HTTP/1.1\r\nContent-Length: 10\r\n"
        b"Content-Length: 12\r\n\r\n0123456789"
    ),
    "garbage_line": b"GARBAGE\r\n\r\n",
    "bad_header": b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
    "chunked": (
        b"POST /v1/parse HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    ),
    "oversized_head": (
        b"GET /healthz HTTP/1.1\r\nX-Junk: "
        + b"a" * (MAX_HEADER_BYTES + 1)
    ),
}


def parse(chunks) -> tuple[list, tuple | None, tuple[bool, int]]:
    """Drive one parser the way the server loop does.

    Returns the requests parsed, the error raised (type + JSON
    envelope) or ``None``, and the parser's final buffered state.
    """
    parser = RequestParser(MAX_BODY_BYTES)
    requests = []
    for chunk in chunks:
        parser.feed(chunk)
        try:
            while (request := parser.next_request()) is not None:
                requests.append(request)
        except ServiceError as exc:
            return requests, (type(exc), exc.status, exc.to_body()), None
    return requests, None, (parser.receiving, parser.buffered_bytes())


def split(stream: bytes, offsets) -> list[bytes]:
    cuts = [0, *sorted(set(offsets)), len(stream)]
    return [stream[a:b] for a, b in zip(cuts, cuts[1:])]


def test_one_shot_stream_parses_every_request():
    """The stream the properties split is not vacuous."""
    requests, error, state = parse([b"".join(REQUESTS)])
    assert error is None and state == (False, 0)
    assert len(requests) == len(REQUESTS)
    assert [r.path for r in requests] == [
        req.split(b" ", 2)[1].decode() for req in REQUESTS
    ]


@pytest.mark.parametrize("tail", sorted(TAILS))
def test_byte_at_a_time_matches_one_shot(tail):
    stream = b"".join(REQUESTS) + TAILS[tail]
    expected = parse([stream])
    assert len(expected[0]) == len(REQUESTS)
    assert (expected[1] is None) == (tail.startswith(("clean", "truncated")))
    drip = [stream[i:i + 1] for i in range(len(stream))]
    assert parse(drip) == expected


@pytest.mark.parametrize(
    "tail", sorted(set(TAILS) - {"oversized_head"})  # 32 KiB x 32 KiB
)
def test_every_single_split_matches_one_shot(tail):
    stream = b"".join(REQUESTS) + TAILS[tail]
    expected = parse([stream])
    for offset in range(len(stream) + 1):
        assert parse(split(stream, [offset])) == expected, offset


@st.composite
def split_streams(draw):
    requests = draw(st.lists(st.sampled_from(REQUESTS), max_size=6))
    stream = b"".join(requests) + TAILS[draw(st.sampled_from(sorted(TAILS)))]
    offsets = draw(st.lists(
        st.integers(0, len(stream)), max_size=12,
    ))
    return stream, offsets


@settings(max_examples=200, deadline=None)
@given(split_streams())
def test_drawn_splits_match_one_shot(case):
    stream, offsets = case
    assert parse(split(stream, offsets)) == parse([stream])
