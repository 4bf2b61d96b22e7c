"""Property tests of the front end's incremental HTTP/1.x request parser.

One parser fronts both deployments, so it must give the same requests
however the kernel happens to split the byte stream, and turn any input
it cannot accept into a :class:`_BadRequest` (answered with a 4xx) that
ends the list after the requests before it, rather than an exception
that would reach the event loop.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    _BadRequest,
    _Connection,
    _Request,
)

_TOKEN = string.ascii_letters + string.digits + "-_"

_methods = st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"])
_paths = st.text(alphabet=_TOKEN + "/.%?=&", max_size=40).map(lambda path: "/" + path)
_header_names = st.text(alphabet=_TOKEN, min_size=1, max_size=16).filter(
    lambda name: name.lower() != "content-length"
)
_header_values = st.text(alphabet=_TOKEN + " ;=,/.:", max_size=24).map(str.strip)


@st.composite
def _requests(draw):
    """One valid request: its wire bytes and what the parser must yield."""
    method, path = draw(_methods), draw(_paths)
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    headers = draw(st.dictionaries(_header_names, _header_values, max_size=5))
    body = draw(st.binary(max_size=64))
    lines = [f"{method} {path} {version}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    expected = {name.lower(): value for name, value in headers.items()}
    if body or draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
        expected["content-length"] = str(len(body))
    wire = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    return wire, _Request(method, path, version, expected, body)


def _feed_in_pieces(stream: bytes, cuts) -> list:
    connection = _Connection(None)
    parsed = []
    bounds = [0] + sorted(cuts) + [len(stream)]
    for start, end in zip(bounds, bounds[1:]):
        parsed.extend(connection.feed(stream[start:end]))
    return parsed


@settings(max_examples=200, deadline=None)
@given(st.lists(_requests(), min_size=1, max_size=4), st.data())
def test_pipelined_stream_parses_the_same_at_any_split(requests, data):
    stream = b"".join(wire for wire, _ in requests)
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
    assert _feed_in_pieces(stream, cuts) == [expected for _, expected in requests]


_latin1 = st.text(st.characters(max_codepoint=255), max_size=24)


@st.composite
def _mangled_heads(draw):
    """A request line and header lines with arbitrary contents."""
    line = draw(st.sampled_from(["POST /evaluate HTTP/1.1", "GET / HTTP/1.0"]) | _latin1)
    names = st.sampled_from(["Content-Length", "Connection", "Host"]) | _latin1
    headers = draw(st.lists(st.tuples(names, _latin1), max_size=4))
    head = "\r\n".join([line] + [f"{name}:{value}" for name, value in headers])
    return (head + "\r\n\r\n").encode("latin-1") + draw(st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=512),
        _mangled_heads(),
        st.builds(
            lambda wire, tail: wire[0] + tail, _requests(), st.binary(max_size=128)
        ),
    ),
    st.lists(st.integers(0, 700), max_size=6),
)
def test_arbitrary_bytes_yield_requests_or_a_bad_request(stream, cuts):
    parsed = _feed_in_pieces(stream, [cut for cut in cuts if cut <= len(stream)])
    if parsed and isinstance(parsed[-1], _BadRequest):
        assert parsed.pop().status in (400, 413)
    for request in parsed:
        assert isinstance(request, _Request)
        assert len(request.body) == int(request.headers.get("content-length", 0))
        assert len(request.body) <= MAX_BODY_BYTES


_bad_heads = st.sampled_from([
    b"NOT-HTTP\r\n\r\n",
    b"POST /evaluate HTTP/1.1\r\nContent-Length: x\r\n\r\n",
    b"POST /evaluate HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
    b"GET /" + b"a" * MAX_HEADER_BYTES,
])


@settings(max_examples=200, deadline=None)
@given(st.lists(_requests(), min_size=1, max_size=3), _bad_heads, st.data())
def test_bad_request_comes_after_the_requests_before_it(requests, bad, data):
    stream = b"".join(wire for wire, _ in requests) + bad + b"GET / HTTP/1.1\r\n\r\n"
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
    *parsed, error = _feed_in_pieces(stream, cuts)
    assert parsed == [expected for _, expected in requests]
    assert isinstance(error, _BadRequest)
