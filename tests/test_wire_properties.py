"""Property tests of the shard channel's framing and request identity.

The fleet ships each request as its canonical JSON plus its execution
hints, and a worker trusts that payload only after hashing it back to
the hash it was routed by.  These properties pin what that relies on:

* every op and reply frame shape, batched ones included, decodes to the
  same message however the byte stream is split;
* arbitrary bytes make :class:`FrameDecoder` return messages, wait for
  more, or raise :class:`ProtocolError` — never anything else;
* the canonical JSON of any valid request hashes to its
  ``content_hash()``, and rebuilding from that JSON plus the hints gives
  an equal request with the same hash.

Examples are derandomized with fixed budgets, so every run draws the
same cases.
"""

import hashlib
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service.requests import MACRO_REGISTRY, EvaluationRequest, ServiceError
from repro.service.shard.protocol import (
    HEADER,
    HEARTBEAT_ID,
    READY_ID,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    fault_message,
    heartbeat_message,
)


# ----------------------------------------------------------------------
# Message strategies
# ----------------------------------------------------------------------
_ids = st.integers(min_value=0, max_value=2**40)
_hashes = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
_hints = st.fixed_dictionaries({}, optional={
    "deadline_ms": st.floats(min_value=0.1, max_value=1e6),
})


@st.composite
def _members(draw):
    member = {"id": draw(_ids), "hash": draw(_hashes), "request": draw(st.text(max_size=60))}
    hints = draw(_hints)
    if hints:
        member["hints"] = hints
    return member


def _ok(correlation, result):
    return {"id": correlation, "ok": True, "result": result}


_replies = st.one_of(
    st.builds(_ok, _ids, _json),
    st.builds(lambda c, name, text: fault_message(c, type(name, (Exception,), {})(text)),
              _ids, st.sampled_from(["ServiceError", "QueueFullError", "ProtocolError"]),
              st.text(max_size=20)),
)

_messages = st.one_of(
    st.builds(lambda i, members: {"id": i, "op": "evaluate", "members": members},
              _ids, st.lists(_members(), min_size=1, max_size=4)),
    st.builds(lambda i, h: {"id": i, "op": "result", "hash": h}, _ids, _hashes),
    st.builds(lambda i, op: {"id": i, "op": op}, _ids, st.sampled_from(["healthz", "shutdown"])),
    _replies,
    st.builds(lambda i, replies: {"id": i, "replies": replies},
              _ids, st.lists(_replies, min_size=1, max_size=4)),
    st.builds(heartbeat_message, st.integers(min_value=0), st.text(max_size=10)),
    st.builds(lambda pid: {"id": READY_ID, "ok": True, "ready": "shard-0", "pid": pid},
              st.integers(min_value=1)),
)


def _split(stream: bytes, cuts) -> list:
    bounds = [0] + sorted(cut % (len(stream) + 1) for cut in cuts) + [len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(_messages, min_size=1, max_size=6),
       st.lists(st.integers(min_value=0), max_size=12))
def test_any_frames_decode_to_themselves_under_any_split(messages, cuts):
    stream = b"".join(encode_frame(message) for message in messages)
    decoder = FrameDecoder()
    decoded = []
    for piece in _split(stream, cuts):
        decoded.extend(decoder.feed(piece))
    assert decoded == messages


@st.composite
def _garbage(draw):
    """Raw bytes, or frames whose length is right and whose body is not."""
    pieces = draw(st.lists(st.one_of(
        st.binary(max_size=48),
        st.binary(max_size=48).map(lambda body: HEADER.pack(len(body)) + body),
        _json.map(lambda value: json.dumps(value).encode())
        .map(lambda body: HEADER.pack(len(body)) + body),
        _messages.map(encode_frame),
    ), min_size=1, max_size=5))
    return b"".join(pieces)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_garbage(), st.lists(st.integers(min_value=0), max_size=8))
def test_arbitrary_bytes_yield_messages_wait_or_a_protocol_error(stream, cuts):
    decoder = FrameDecoder()
    for piece in _split(stream, cuts):
        try:
            messages = decoder.feed(piece)
        except ProtocolError:
            return
        for message in messages:
            assert isinstance(message, dict) and type(message["id"]) is int


def test_a_frame_that_is_not_an_object_with_an_integer_id_is_typed():
    for body in (b"[1,2]", b"7", b'"id"', b'{"id":"7"}', b'{"id":true}', b'{"ok":1}'):
        try:
            FrameDecoder().feed(HEADER.pack(len(body)) + body)
        except ProtocolError:
            continue
        raise AssertionError(f"{body!r} decoded")
    assert FrameDecoder().feed(encode_frame({"id": HEARTBEAT_ID})) == [{"id": HEARTBEAT_ID}]


# ----------------------------------------------------------------------
# Request identity across the wire
# ----------------------------------------------------------------------
_overrides = st.fixed_dictionaries({}, optional={
    "adc_resolution": st.integers(min_value=1, max_value=12),
    "columns_per_adc": st.sampled_from([1, 2, 4, 8, 16.0]),
    "cycle_time_ns": st.floats(min_value=0.5, max_value=50.0),
    "node_nm": st.sampled_from([7, 22, 28.0, 45, 65]),
    "vdd": st.floats(min_value=0.6, max_value=1.2),
    "value_aware_adc": st.booleans(),
})
_named = st.builds(lambda rows, cols: f"mvm_{rows}x{cols}",
                   st.sampled_from([16, 32, 64]), st.sampled_from([16, 32, 64]))
_common = st.fixed_dictionaries({}, optional={
    "input_bits": st.integers(min_value=1, max_value=8),
    "weight_bits": st.integers(min_value=1, max_value=8),
})
_matmul = st.builds(
    lambda m, k, n, common: {"kind": "matmul", "name": "fc", "m": m, "k": k, "n": n, **common},
    st.integers(1, 64), st.integers(1, 256), st.integers(1, 256), _common,
)
_conv = st.builds(
    lambda channels, filters, size, kernel: {
        "kind": "conv2d", "name": "conv", "in_channels": channels,
        "out_channels": filters, "height": size, "width": size, "kernel": kernel,
    },
    st.integers(1, 32), st.integers(1, 32), st.integers(1, 16), st.sampled_from([1, 3]),
)


@st.composite
def _request_payloads(draw):
    """A valid request in normal form (no field its objective ignores)."""
    objective = draw(st.sampled_from(["energy", "area", "mappings"]))
    payload = {"macro": draw(st.sampled_from(sorted(MACRO_REGISTRY))),
               "objective": objective, "overrides": draw(_overrides)}
    if objective != "area":
        if draw(st.booleans()):
            payload["workload"] = draw(_named)
        else:
            payload["layer"] = draw(st.one_of(_matmul, _conv))
        payload["use_distributions"] = draw(st.booleans())
    if objective == "mappings":
        payload["num_mappings"] = draw(st.integers(1, 5000))
        payload["seed"] = draw(st.integers(0, 2**31))
    payload.update(draw(_hints))
    return payload


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_request_payloads())
def test_shipped_canonical_form_rebuilds_the_same_request(payload):
    try:
        request = EvaluationRequest.from_dict(payload)
    except ServiceError:
        assume(False)
    canonical = request.canonical_json()
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == request.content_hash()
    rebuilt = EvaluationRequest.from_dict(json.loads(canonical) | request.execution_hints())
    assert rebuilt == request
    assert rebuilt.content_hash() == request.content_hash()
    assert rebuilt.canonical_json() == canonical
    assert rebuilt.execution_hints() == request.execution_hints()
