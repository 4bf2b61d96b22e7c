"""Length-prefixed JSON framing between the front end and shard workers.

The front end and its workers speak a minimal message protocol over a
socketpair: each frame is a 4-byte big-endian length followed by that
many bytes of canonical JSON.  Framing (rather than raw pipes) keeps the
channel multiplexable — many in-flight requests share one socket, paired
up by a per-channel correlation ``id`` — and lets either side consume
the stream incrementally (:class:`FrameDecoder`), which is what the
selectors-based front end needs.

Message shapes
--------------
Every frame is a JSON object with an integer ``id``; anything else is a
:class:`ProtocolError` at decode, on both ends.

Requests (front end -> worker)::

    {"id": N, "op": "evaluate", "members": [          # one frame per shard
        {"id": C, "hash": "<sha256>",                 # per-member correlation
         "request": "<canonical JSON>",               # hashes to "hash"
         "hints": {"deadline_ms": ...}},              # optional
        ...]}
    {"id": N, "op": "result", "hash": "<sha256>"}   # store lookup
    {"id": N, "op": "healthz"}                      # scheduler health
    {"id": N, "op": "shutdown"}                     # drain + final stats

An ``evaluate`` frame carries every member the front end routed to that
shard in one call; ``N`` is its first member's correlation id.  The
worker checks ``sha256(request) == hash`` (a mismatch is a
``ProtocolError`` fault for that member, never a result), answers store
hits from the hash alone, and builds and submits a request only on a
miss.

Replies (worker -> front end)::

    {"id": C, "ok": true, "result": {...}}
    {"id": C, "ok": false,
     "error": {"type": ..., "message": ..., "retry_after_s": ...}}
    {"id": N, "replies": [<reply>, ...]}   # members answered on receipt

The members of an ``evaluate`` frame the worker could answer on receipt
(store hits, faults) come back together in one ``replies`` frame, split
across frames when it would exceed :data:`MAX_FRAME_BYTES`; members
that wait on evaluation reply one by one as they complete.  Every result
payload echoes its ``request_hash``, and the parent fails a member whose
echo differs from the hash it routed with a ``ProtocolError``.

Unsolicited worker frames use negative correlation ids: the one-time
ready announcement (:data:`READY_ID`) and the periodic heartbeat
(:data:`HEARTBEAT_ID`), which feeds the front end's timeout-based
failure detector — a shard is declared dead when its beats stop, not
when its channel finally reports EOF, so a hung worker is detected
within the configured heartbeat timeout.

Worker-side exceptions cross the channel by *name*: the worker
serialises the exception type, message, and any ``retry_after_s``
backpressure hint, and the parent rebuilds a :class:`RemoteFault` that
the front end answers by that name, from the same status table an
in-process fault is looked up in
(:data:`repro.service.http.FAULT_STATUS`).
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional

from repro.service.faults import FaultError

#: Frame header: one unsigned 32-bit big-endian payload length.
HEADER = struct.Struct(">I")

#: Largest accepted frame (8 MiB): far beyond any legal result payload,
#: small enough that a corrupted length prefix cannot balloon memory.
MAX_FRAME_BYTES = 8 << 20

#: The correlation id of the worker's unsolicited ready announcement.
READY_ID = -1

#: The correlation id of the worker's unsolicited periodic heartbeat.
HEARTBEAT_ID = -2


class ProtocolError(FaultError):
    """A malformed frame on the worker channel (desynced or hostile).

    Part of the service fault taxonomy (:class:`FaultError`): a corrupt
    or oversized length prefix raises this *before* any read is
    attempted, and both channel ends count it (worker stats, parent-side
    :attr:`ShardClient.protocol_errors`) instead of silently desyncing.
    """


class RemoteFault(FaultError):
    """A worker-side failure rebuilt on the parent side of the channel.

    Carries the original exception's type name (``remote_type``) and
    its ``retry_after_s`` backpressure hint when one crossed the channel.
    """

    def __init__(
        self,
        remote_type: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.remote_type = remote_type
        self.retry_after_s = retry_after_s


def encode_frame(message: Dict) -> bytes:
    """One length-prefixed frame of canonical JSON."""
    blob = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}")
    return HEADER.pack(len(blob)) + blob


class FrameDecoder:
    """Incremental frame decoder: feed bytes, get complete messages.

    :meth:`feed` returns messages, returns nothing while a frame is
    incomplete, or raises :class:`ProtocolError` (a length over
    :data:`MAX_FRAME_BYTES`, bytes that are not JSON, JSON that is not an
    object with an integer ``id``); it raises nothing else.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict]:
        """Append received bytes; return every now-complete message."""
        self._buffer.extend(data)
        messages: List[Dict] = []
        while True:
            if len(self._buffer) < HEADER.size:
                return messages
            (length,) = HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds {MAX_FRAME_BYTES}; "
                    "channel is desynced"
                )
            if len(self._buffer) < HEADER.size + length:
                return messages
            blob = bytes(self._buffer[HEADER.size:HEADER.size + length])
            del self._buffer[:HEADER.size + length]
            try:
                message = json.loads(blob)
            except (ValueError, RecursionError) as error:
                raise ProtocolError(f"frame is not valid JSON: {error}") from None
            if not isinstance(message, dict) or type(message.get("id")) is not int:
                raise ProtocolError(
                    "frame is not a JSON object with an integer id: "
                    f"{blob[:80]!r}"
                )
            messages.append(message)


def heartbeat_message(sequence: int, shard_id: str) -> Dict:
    """One unsolicited worker heartbeat frame (liveness, not a reply)."""
    return {
        "id": HEARTBEAT_ID,
        "ok": True,
        "heartbeat": sequence,
        "shard": shard_id,
    }


def fault_message(correlation: int, error: BaseException) -> Dict:
    """The error reply a worker sends for one failed correlation id."""
    payload: Dict[str, object] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
    return {"id": correlation, "ok": False, "error": payload}


def remote_fault(error_payload: Dict) -> RemoteFault:
    """Rebuild the parent-side exception of one error reply."""
    return RemoteFault(
        str(error_payload.get("type", "RemoteFault")),
        str(error_payload.get("message", "shard worker failed")),
        error_payload.get("retry_after_s"),
    )
