"""Shard workers: one :class:`EvaluationScheduler` per process, a fleet on top.

A *shard worker* is the single-process evaluation service wrapped in a
child process: its own coalescing scheduler (with the full fault
pipeline — isolation, scalar rescue, deadlines, admission — and store
chaos via the usual ``REPRO_CHAOS`` knobs), evaluating in its own
process, and a :class:`~repro.service.store.ResultStore` whose **disk
tier is shared** across the fleet — every worker points at the same
directory, writes are atomic and content-addressed, so any worker serves
any hash the fleet has ever computed.  The worker builds that store with
:meth:`ResultStore.from_env`, only the directory taken from the fleet, so
the ``REPRO_RESULT_STORE_*`` bounds hold in a worker as in one process.
Energy tables and terms stay in each worker's memory.

Three layers live here:

* :func:`_worker_main` — the child-process loop: read frames, check
  each ``evaluate`` member's canonical request against its routed hash,
  submit a frame's members into the scheduler in one ``submit_many``
  call (one store lookup per miss; members the worker's store already
  holds, or that it refuses, are answered together in one frame), reply
  to each evaluated member from its future's callback (so many requests
  are in flight at once), answer ``healthz`` / ``result`` /
  ``shutdown``, and send a periodic heartbeat frame from a side thread
  so the parent's failure detector never depends on channel EOF.
* :class:`ShardClient` — the parent-side handle: a framed socket, a
  correlation-id table of outstanding :class:`_PendingOp` records (each
  keeps the op, its fields, and its routing hash so a supervisor can
  **re-dispatch** it to another shard without failing the caller's
  future), and one reader thread per worker, which checks every
  result's hash echo before resolving a future.
* :class:`ShardFleet` — N workers behind a
  :class:`~repro.service.shard.ring.HashRing`, plus the **parent tier**:
  a memory-only :class:`~repro.service.store.ResultStore` in the parent
  process (bounded by ``REPRO_RESULT_STORE_MAX_ENTRIES``; it reads no
  disk and writes none, the workers own the shared disk tier) that every
  evaluate result enters once it passed the hash-echo check.
  ``stored`` answers hits from it before anything is routed, so the HTTP
  front end's hits never cross the wire.  ``submit_many`` drops
  requests whose hash is already in flight onto that op's future, groups
  the rest by ring owner and sends each owner one ``evaluate`` frame
  (``submit`` is a one-request call; with ``stored``, ``result_lookup``
  and ``health`` these are the backend interface the HTTP front end
  calls, :mod:`repro.service.http`), ``add_shard`` / ``drain_shard``
  change membership live,
  ``health`` merges per-shard payloads plus per-shard **liveness**
  (heartbeat age, misses, supervisor state) into one fleet payload.
  A :class:`~repro.service.shard.frontend.FleetSupervisor` may attach
  to run the heartbeat failure detector, crash recovery, and respawns;
  when quorum is lost the fleet refuses new work with
  :class:`~repro.service.faults.FleetDegradedError` instead of hanging.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.faults import FleetDegradedError
from repro.service.requests import EvaluationRequest, ServiceError
from repro.service.shard.protocol import (
    HEARTBEAT_ID,
    READY_ID,
    FrameDecoder,
    ProtocolError,
    RemoteFault,
    encode_frame,
    fault_message,
    heartbeat_message,
    remote_fault,
)
from repro.service.shard.ring import DEFAULT_REPLICAS, HashRing, RingEmptyError
from repro.service.store import DEFAULT_MAX_ENTRIES, RESULT_STORE_MAX_ENTRIES_ENV, ResultStore
from repro.utils.env import env_positive_float, env_positive_int

#: Seconds the parent waits for a freshly-forked worker's ready frame.
DEFAULT_READY_TIMEOUT_S = 60.0

#: Seconds a drain waits for in-flight work before forcing shutdown.
DEFAULT_DRAIN_TIMEOUT_S = 120.0

#: Seconds between worker heartbeat frames.  The failure detector's
#: timeout is expressed in multiples of this (see
#: :class:`~repro.service.shard.frontend.FleetSupervisor`).
DEFAULT_HEARTBEAT_INTERVAL_S = 0.25

HEARTBEAT_INTERVAL_ENV = "REPRO_FLEET_HEARTBEAT_INTERVAL_S"

#: How many times the fleet's submit path re-routes a hash whose chosen
#: shard died between routing and dispatch before declaring the fleet
#: unable to take the request.
_ROUTE_ATTEMPTS = 64


# ----------------------------------------------------------------------
# Child-process side
# ----------------------------------------------------------------------
class _ReplySender:
    """Child-side framed sender shared by the loop thread, the future
    done-callbacks, and the heartbeat thread.

    A reply that cannot cross the channel is **counted**, never silently
    lost: ``dropped_replies`` is surfaced through the shard's healthz
    payload (and summed into the fleet merge).  A reply set too large for
    one frame is split in halves until each part fits, and a single
    result too large to frame degrades to a framed error reply — the
    parent's future resolves with a :class:`ProtocolError` fault instead
    of hanging forever.
    """

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.lock = threading.Lock()
        self.dropped_replies = 0
        self.heartbeats_sent = 0
        self.alive = True

    def send(self, message: Dict, count_drop: bool = True) -> bool:
        replies = message.get("replies")
        try:
            blob = encode_frame(message)
        except ProtocolError as error:
            if replies is not None and len(replies) > 1:
                half = len(replies) // 2
                sent = [self.send(dict(message, replies=part), count_drop)
                        for part in (replies[:half], replies[half:])]
                return all(sent)
            correlation = replies[0]["id"] if replies else message["id"]
            if not (count_drop and correlation >= 0):
                return False
            blob = encode_frame(fault_message(correlation, error))
        try:
            with self.lock:
                self.conn.sendall(blob)
            return True
        except OSError:
            self.alive = False
            if count_drop and message["id"] >= 0:
                self.dropped_replies += len(replies) if replies is not None else 1
            return False


def _reply_message(correlation: int, future: Future) -> Dict:
    """The reply frame of one resolved scheduler future."""
    try:
        result = future.result()
    except BaseException as error:  # noqa: BLE001 - crosses the channel
        return fault_message(correlation, error)
    return {"id": correlation, "ok": True, "result": result}


def _open_member(member: Dict) -> EvaluationRequest:
    """Build one ``evaluate`` member's request.

    The member's canonical request must hash to the hash it was routed
    by; a mismatch (a payload damaged on the way) raises
    :class:`ProtocolError` and never yields a result.  The request is
    built from its canonical form (syntax checks only: the scheduler
    resolves it if it misses the store).
    """
    request_hash, canonical = member.get("hash"), member.get("request")
    hints = member.get("hints", {})
    if not (isinstance(request_hash, str) and isinstance(canonical, str)
            and isinstance(hints, dict)):
        raise ProtocolError("malformed evaluate member")
    if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != request_hash:
        raise ProtocolError(
            f"request payload does not hash to its routed hash {request_hash[:12]}"
        )
    payload = json.loads(canonical)
    if isinstance(payload, dict):
        payload.update(hints)
    request = EvaluationRequest.from_dict(payload)
    if request.content_hash() != request_hash:
        raise ProtocolError(
            f"request does not re-canonicalise to its routed hash {request_hash[:12]}"
        )
    return request


def _worker_main(conn: socket.socket, shard_id: str, options: Dict) -> None:
    """Run one shard worker until its channel closes or ``shutdown``.

    The loop thread parses frames and submits each frame's members in
    one call; what the store already holds is answered at once, and
    replies to evaluated work are sent from future done-callbacks
    (scheduler dispatcher thread), so a slow evaluation never blocks
    later arrivals from joining the scheduler's coalescing window.  A
    heartbeat thread beats every ``heartbeat_interval_s`` independently
    of evaluation load.
    """
    from repro.core.batch import process_energy_cache
    from repro.service.scheduler import EvaluationScheduler

    # A terminal Ctrl-C reaches every process in the foreground group;
    # shutdown is the parent's job (it catches the signal and drains the
    # fleet over the framed channel).  A worker that died to SIGINT
    # mid-drain would race that drain and be declared crashed by the
    # supervisor, so ignore it here and wait for the shutdown op.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if options.get("cold_start"):
        # Workers fork from the parent and inherit its in-memory energy
        # cache; benchmarks comparing cold sharded vs cold single-process
        # replays need genuinely cold workers.
        process_energy_cache().invalidate()
    scheduler_kwargs: Dict = {
        "store": ResultStore.from_env(options.get("store_dir")),
        "max_pending": options.get("max_pending"),
    }
    if options.get("coalesce_window_s") is not None:
        scheduler_kwargs["coalesce_window_s"] = options["coalesce_window_s"]
    scheduler = EvaluationScheduler(**scheduler_kwargs)
    scheduler.start()

    sender = _ReplySender(conn)
    protocol_errors = 0

    def evaluate(frame_id: int, members: List[Dict]) -> None:
        """Submit a frame's members in one call and answer what is
        settled now (store hits, refusals) in one frame; reply to each
        evaluated member as it completes, so a hit never waits for one."""
        nonlocal protocol_errors
        if not isinstance(members, list):
            raise ProtocolError("evaluate frame without a member list")
        answered: List[Dict] = []
        opened: List[Tuple[int, EvaluationRequest]] = []
        for member in members:
            correlation = member.get("id") if isinstance(member, dict) else None
            if type(correlation) is not int:
                raise ProtocolError("evaluate member without an integer id")
            try:
                opened.append((correlation, _open_member(member)))
            except Exception as error:  # noqa: BLE001 - crosses the channel
                if isinstance(error, ProtocolError):
                    protocol_errors += 1
                answered.append(fault_message(correlation, error))
        outcomes = scheduler.submit_many([request for _, request in opened])
        for (correlation, _), outcome in zip(opened, outcomes):
            if isinstance(outcome, BaseException):
                answered.append(fault_message(correlation, outcome))
            elif outcome.done():
                answered.append(_reply_message(correlation, outcome))
            else:
                outcome.add_done_callback(
                    lambda done, c=correlation: sender.send(_reply_message(c, done))
                )
        if answered:
            sender.send({"id": frame_id, "replies": answered})

    # Heartbeats: liveness decoupled from evaluation — a worker stuck in
    # a long dispatch still beats, a SIGKILLed/SIGSTOPped one goes quiet
    # and the parent's detector fires within its configured timeout.
    interval = float(
        options.get("heartbeat_interval_s") or DEFAULT_HEARTBEAT_INTERVAL_S
    )
    beat_stop = threading.Event()

    def _heartbeat_loop() -> None:
        while not beat_stop.wait(interval):
            sender.heartbeats_sent += 1
            if not sender.send(
                heartbeat_message(sender.heartbeats_sent, shard_id),
                count_drop=False,
            ):
                break

    heartbeat_thread = threading.Thread(
        target=_heartbeat_loop, name=f"shard-heartbeat-{shard_id}", daemon=True
    )

    sender.send(
        {"id": READY_ID, "ok": True, "ready": shard_id, "pid": os.getpid()},
        count_drop=False,
    )
    heartbeat_thread.start()
    decoder = FrameDecoder()
    running = True
    while running:
        try:
            data = conn.recv(1 << 16)
        except OSError:
            break
        if not data:
            break
        try:
            messages = decoder.feed(data)
        except ProtocolError:
            # A corrupt frame desynced the channel (or the parent sent a
            # frame that is not an object with an integer id); there is no
            # way to resynchronise a length-prefixed stream, so the worker
            # exits and the parent's supervisor re-dispatches its
            # in-flight work to surviving shards.
            protocol_errors += 1
            break
        for message in messages:
            op = message.get("op")
            correlation = message["id"]
            try:
                if op == "evaluate":
                    evaluate(correlation, message.get("members"))
                elif op == "result":
                    # Shared disk tier: this worker can serve the hash even
                    # when another shard computed it.
                    sender.send({
                        "id": correlation,
                        "ok": True,
                        "result": scheduler.store.get(str(message.get("hash", ""))),
                    })
                elif op == "healthz":
                    payload = scheduler.health()
                    payload["shard"] = shard_id
                    payload["pid"] = os.getpid()
                    payload["dropped_replies"] = sender.dropped_replies
                    payload["protocol_errors"] = protocol_errors
                    payload["heartbeat"] = {
                        "interval_s": interval,
                        "sent": sender.heartbeats_sent,
                    }
                    sender.send({"id": correlation, "ok": True, "result": payload})
                elif op == "shutdown":
                    # close() drains the dispatcher: every queued slot gets
                    # a final tick (its waiters' replies go out from their
                    # callbacks) before the final stats are reported.
                    beat_stop.set()
                    scheduler.close()
                    payload = scheduler.health()
                    payload["status"] = "drained"
                    payload["shard"] = shard_id
                    payload["pid"] = os.getpid()
                    payload["dropped_replies"] = sender.dropped_replies
                    payload["protocol_errors"] = protocol_errors
                    sender.send({"id": correlation, "ok": True, "result": payload})
                    running = False
                else:
                    raise ServiceError(f"unknown shard op {op!r}")
            except Exception as error:  # noqa: BLE001 - crosses the channel
                if isinstance(error, ProtocolError):
                    protocol_errors += 1
                sender.send(fault_message(correlation, error))
    beat_stop.set()
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _PendingOp:
    """One outstanding op on a shard channel, re-dispatchable by hash.

    The record outlives the channel it was first sent on: when a shard
    dies, the supervisor takes its pending records and dispatches each
    on a surviving shard under a fresh correlation id — the *same*
    future resolves, so the caller never observes the crash.
    """

    __slots__ = ("future", "op", "fields", "request_hash", "attempts")

    def __init__(self, future: Future, op: str, fields: Dict,
                 request_hash: Optional[str] = None):
        self.future = future
        self.op = op
        self.fields = fields
        self.request_hash = request_hash
        self.attempts = 0

    @property
    def content_addressed(self) -> bool:
        """Evaluate/result ops are deterministic and content-addressed:
        running one twice is safe (the shared store dedups), so a
        supervisor may re-dispatch it, and its result must echo its
        hash.  Control ops (healthz/shutdown) are bound to their shard."""
        return self.op in ("evaluate", "result") and bool(self.request_hash)


def _op_frames(ids: Sequence[int], records: Sequence[_PendingOp]) -> List[bytes]:
    """The frames carrying ``records`` under correlation ids ``ids``."""
    if records[0].op != "evaluate":
        message = {"id": ids[0], "op": records[0].op}
        message.update(records[0].fields)
        return [encode_frame(message)]
    return _member_frames([
        dict(record.fields, id=correlation)
        for correlation, record in zip(ids, records)
    ])


def _member_frames(members: List[Dict]) -> List[bytes]:
    """One ``evaluate`` frame, or halves of it until each fits a frame."""
    try:
        return [encode_frame({"id": members[0]["id"], "op": "evaluate",
                              "members": members})]
    except ProtocolError:
        if len(members) == 1:
            raise
        half = len(members) // 2
        return _member_frames(members[:half]) + _member_frames(members[half:])


class ShardClient:
    """Parent-side handle of one shard worker's framed channel."""

    def __init__(self, shard_id: str, sock: socket.socket,
                 process: multiprocessing.Process,
                 on_closed: Optional[Callable[["ShardClient"], None]] = None):
        self.shard_id = shard_id
        self.process = process
        self._sock = sock
        self._send_lock = threading.Lock()
        self._table_lock = threading.Lock()
        self._pending: Dict[int, _PendingOp] = {}
        self._next_id = 0
        self.alive = True
        self.drained = False
        self.crash_claimed = False
        self.crash_info: Optional[Dict] = None
        self.protocol_errors = 0
        self.heartbeats_received = 0
        self.last_heartbeat: Optional[float] = None
        #: Chaos hook: transforms outgoing frame bytes (frame corruption).
        self.corrupt_hook: Optional[Callable[[bytes], bytes]] = None
        #: The fleet's parent tier: evaluate results enter it once their
        #: hash echo checked out.
        self.store: Optional[ResultStore] = None
        self._on_closed = on_closed
        self._ready = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-client-{shard_id}", daemon=True
        )

    def start(self, timeout: float = DEFAULT_READY_TIMEOUT_S) -> "ShardClient":
        """Start the reader and wait for the worker's ready frame."""
        self._reader.start()
        if not self._ready.wait(timeout) or not self.alive:
            raise RemoteFault(
                "ShutdownError",
                f"shard {self.shard_id} did not become ready within {timeout}s",
            )
        return self

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        while True:
            try:
                data = self._sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                break
            try:
                for message in decoder.feed(data):
                    self._deliver(message)
            except Exception:  # noqa: BLE001 - every undeliverable frame
                # A frame that cannot be decoded or delivered means a
                # desynced channel or a broken worker: unrecoverable,
                # counted, and treated as a channel death (the supervisor
                # re-dispatches).  Shutting the socket down tells the
                # worker too.
                self.protocol_errors += 1
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                break
        self.alive = False
        self._ready.set()  # unblock a starter waiting on a dead worker
        handler = self._on_closed
        if handler is not None:
            handler(self)
        else:
            self._fail_all(RemoteFault(
                "ShutdownError", f"shard {self.shard_id} channel closed"
            ))

    def _deliver(self, message: Dict) -> None:
        correlation = message["id"]
        if correlation == HEARTBEAT_ID:
            self.last_heartbeat = time.monotonic()
            self.heartbeats_received += 1
            return
        if correlation == READY_ID:
            self.last_heartbeat = time.monotonic()
            self._ready.set()
            return
        replies = message.get("replies")
        if replies is None:
            self._resolve(message)
            return
        for reply in replies:
            self._resolve(reply)

    def _resolve(self, reply: Dict) -> None:
        """Resolve the op one reply answers, after checking its hash echo.

        A result for another hash than the op was routed by fails the
        op's future with :class:`ProtocolError`; it never resolves it.
        An evaluate result that checks out enters the parent tier
        (:attr:`store`) before its future resolves, and so before the
        fleet stops tracking the hash as in flight: a later request for
        it either attaches to the op or hits the tier.
        """
        correlation = reply["id"]
        if type(correlation) is not int:
            raise ProtocolError(f"reply without an integer id: {correlation!r}")
        with self._table_lock:
            record = self._pending.pop(correlation, None)
        if record is None:
            return
        try:
            if not reply.get("ok"):
                record.future.set_exception(remote_fault(reply.get("error") or {}))
                return
            result = reply.get("result")
            if record.content_addressed and not (
                record.op == "result" and result is None
            ):
                echo = result.get("request_hash") if isinstance(result, dict) else None
                if echo != record.request_hash:
                    self.protocol_errors += 1
                    record.future.set_exception(ProtocolError(
                        f"shard {self.shard_id} answered hash "
                        f"{record.request_hash[:12]} with a result for {str(echo)[:12]}"
                    ))
                    return
                if record.op == "evaluate" and self.store is not None:
                    self.store.put(record.request_hash, result)
            record.future.set_result(result)
        except InvalidStateError:  # pragma: no cover - defensive
            pass

    def _fail_all(self, error: BaseException) -> None:
        for record in self.take_pending():
            try:
                record.future.set_exception(error)
            except InvalidStateError:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    def heartbeat_age(self) -> Optional[float]:
        """Seconds since the last heartbeat (None before ready)."""
        last = self.last_heartbeat
        if last is None:
            return None
        return time.monotonic() - last

    def take_pending(self) -> List[_PendingOp]:
        """Atomically strip every outstanding op (the recovery handoff).

        Marks the client dead so no new op can slip in behind the
        supervisor's back; any late reply from a not-actually-dead
        worker (a false-positive detection) finds an empty table and is
        ignored, so a future is never resolved twice.
        """
        with self._table_lock:
            self.alive = False
            records = list(self._pending.values())
            self._pending.clear()
        return records

    def dispatch(self, record: _PendingOp, fail_fast: bool = False) -> bool:
        """Send one op record; False when this client can no longer take it."""
        return self.dispatch_many([record], fail_fast=fail_fast)

    def dispatch_many(self, records: Sequence[_PendingOp],
                      fail_fast: bool = False) -> bool:
        """Send op records in one frame; False when this client can no
        longer take them.

        Several records must all be ``evaluate`` ops: they travel as the
        members of one frame (split only to stay under
        :data:`~repro.service.shard.protocol.MAX_FRAME_BYTES`), each under
        its own correlation id.  Records are registered *before* the
        write, so a channel that dies mid-send strands nothing: the
        reader's exit hands the still registered records to the
        supervisor, which re-dispatches each.  Without a supervisor
        (``fail_fast``), a send failure fails the futures immediately,
        preserving the standalone-client contract.
        """
        with self._table_lock:
            if not self.alive:
                return False
            first = self._next_id
            self._next_id += len(records)
            for offset, record in enumerate(records):
                self._pending[first + offset] = record
        ids = range(first, first + len(records))
        try:
            blobs = _op_frames(ids, records)
            with self._send_lock:
                for blob in blobs:
                    hook = self.corrupt_hook
                    self._sock.sendall(hook(blob) if hook is not None else blob)
        except ProtocolError as error:  # a record too large to frame
            self._fail(ids, error)
        except OSError as error:
            if fail_fast:
                self._fail(ids, RemoteFault(
                    "ShutdownError", f"cannot reach shard {self.shard_id}: {error}"
                ))
        return True

    def _fail(self, ids: Sequence[int], error: BaseException) -> None:
        """Fail the still-registered ops of ``ids`` with ``error``."""
        with self._table_lock:
            records = [self._pending.pop(correlation, None) for correlation in ids]
        for record in records:
            if record is None:
                continue
            try:
                record.future.set_exception(error)
            except InvalidStateError:  # pragma: no cover - defensive
                pass

    def send_op(self, op: str, *, request_hash: Optional[str] = None,
                **fields) -> Future:
        """Send one op frame; the future resolves with the worker's reply.

        An ``evaluate`` op's ``fields`` are one member's (``hash``,
        ``request``, optional ``hints``)."""
        record = _PendingOp(Future(), op, fields, request_hash)
        if not self.dispatch(record, fail_fast=self._on_closed is None):
            record.future.set_exception(RemoteFault(
                "ShutdownError", f"shard {self.shard_id} is gone"
            ))
        return record.future

    def call(self, op: str, timeout: float = 60.0, **fields) -> Dict:
        """Synchronous convenience: one op, block for the reply."""
        return self.send_op(op, **fields).result(timeout)

    def outstanding(self) -> int:
        """How many ops are awaiting replies (drain watches this)."""
        with self._table_lock:
            return len(self._pending)

    def kill(self) -> None:
        """SIGKILL the worker and reap it (the crash path; idempotent).

        Used on detected failure: a heartbeat-timeout victim may be hung
        rather than dead (or merely slow — a false positive), and the
        recovery contract requires its in-flight work to run exactly
        once more elsewhere, so the declaration is made true first.
        """
        process = self.process
        if process.pid is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass
        process.join(timeout=10.0)
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.join(timeout=10.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=5.0)


class ShardFleet:
    """N shard workers behind a consistent-hash ring."""

    def __init__(
        self,
        shards: int = 2,
        store_dir: Optional[str] = None,
        replicas: int = DEFAULT_REPLICAS,
        max_pending: Optional[int] = None,
        coalesce_window_s: Optional[float] = None,
        cold_start: bool = False,
        heartbeat_interval_s: Optional[float] = None,
    ):
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if heartbeat_interval_s is None:
            heartbeat_interval_s = (
                env_positive_float(HEARTBEAT_INTERVAL_ENV) or DEFAULT_HEARTBEAT_INTERVAL_S
            )
        self.heartbeat_interval_s = heartbeat_interval_s
        self.ring = HashRing(replicas)
        self.clients: Dict[str, ShardClient] = {}
        self.retired: List[Dict] = []
        self._draining: Dict[str, ShardClient] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._degraded: Optional[str] = None
        #: Set by :meth:`attach_supervisor`; when present, channel deaths
        #: route to crash recovery instead of failing in-flight futures.
        self.supervisor = None
        #: Chaos hook applied to every (current and future) shard channel.
        self.frame_corrupt_hook: Optional[Callable[[bytes], bytes]] = None
        #: Content hash -> future of each deadline-free evaluate op in
        #: flight: later requests for the hash attach to the future
        #: instead of crossing the wire.
        self._inflight: Dict[str, Future] = {}
        #: Requests answered by attaching to an in-flight op; folded into
        #: the merged ``scheduler.submitted`` / ``coalesced`` counters.
        self.coalesced = 0
        #: The parent tier: memory only (the workers own the disk tier),
        #: filled by every shard client's checked evaluate results.
        self.store = ResultStore(
            max_entries=env_positive_int(RESULT_STORE_MAX_ENTRIES_ENV) or DEFAULT_MAX_ENTRIES
        )
        self._options: Dict = {
            "store_dir": str(store_dir) if store_dir else None,
            "max_pending": max_pending,
            "coalesce_window_s": coalesce_window_s,
            "cold_start": cold_start,
            "heartbeat_interval_s": heartbeat_interval_s,
        }
        for _ in range(shards):
            self.add_shard()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Fork one worker and claim its ring points (live add)."""
        with self._lock:
            if shard_id is None:
                shard_id = f"shard-{self._counter}"
                self._counter += 1
            if shard_id in self.clients or shard_id in self._draining:
                raise ValueError(f"shard {shard_id!r} already exists")
        parent_sock, child_sock = socket.socketpair()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_sock, shard_id, dict(self._options)),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        client = ShardClient(
            shard_id, parent_sock, process, on_closed=self._channel_closed
        ).start()
        client.corrupt_hook = self.frame_corrupt_hook
        client.store = self.store
        # The ring only learns about the shard once it answered ready, so
        # no request ever routes to a worker that cannot take it yet.
        with self._lock:
            self.clients[shard_id] = client
            self.ring.add(shard_id)
            supervisor = self.supervisor
            if (
                self._degraded
                and supervisor is not None
                and len(self.ring) >= supervisor.min_quorum
            ):
                # A live add restored quorum: reopen admission.
                self._degraded = None
        return shard_id

    def members(self) -> List[str]:
        """The shard ids currently taking new hashes (sorted)."""
        with self._lock:
            return self.ring.members()

    def serving_clients(self) -> List[Tuple[str, ShardClient]]:
        """Snapshot of the serving shards (supervisor's check loop)."""
        with self._lock:
            return list(self.clients.items())

    def begin_drain(self, shard_id: str) -> ShardClient:
        """Stop routing new hashes to a shard (in-flight work continues)."""
        with self._lock:
            if shard_id not in self.clients:
                raise ValueError(f"shard {shard_id!r} is not serving")
            client = self.clients.pop(shard_id)
            self.ring.remove(shard_id)
            self._draining[shard_id] = client
        return client

    def finish_drain(
        self, shard_id: str, timeout: float = DEFAULT_DRAIN_TIMEOUT_S
    ) -> Dict:
        """Wait out a draining shard's in-flight work, fold its stats.

        Every hash in flight on the shard resolves through its existing
        future; once the channel is idle the worker shuts down its
        scheduler (which drains any queued slot) and reports final
        stats, which join :attr:`retired` — the fleet aggregate keeps
        counting the drained shard's lifetime work.  A worker that dies
        *mid-drain* is folded too: the supervisor (when attached)
        re-dispatches its in-flight work so nothing is lost, and the
        retired record carries the crash instead of the final stats.
        """
        with self._lock:
            client = self._draining.get(shard_id)
        if client is None:
            raise ValueError(f"shard {shard_id!r} is not draining")
        deadline = time.monotonic() + timeout
        while (
            client.alive and client.outstanding()
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        try:
            final = client.call("shutdown", timeout=timeout)
            client.drained = True
        except (RemoteFault, FleetDegradedError):
            # The worker died mid-drain.  With a supervisor its in-flight
            # futures were re-dispatched (crash_info records how many);
            # without one, the reader already failed them.  Recovery may
            # still be in flight, so give it a moment to stamp the crash
            # record before declaring the shard lost.
            if self.supervisor is not None:
                grace = time.monotonic() + 5.0
                while client.crash_info is None and time.monotonic() < grace:
                    time.sleep(0.005)
            final = client.crash_info or {"status": "lost", "shard": shard_id}
        with self._lock:
            self._draining.pop(shard_id, None)
            self.retired.append(final)
        client.close()
        return final

    def drain_shard(
        self, shard_id: str, timeout: float = DEFAULT_DRAIN_TIMEOUT_S
    ) -> Dict:
        """Live drain: remove from the ring, finish in-flight, retire."""
        self.begin_drain(shard_id)
        return self.finish_drain(shard_id, timeout=timeout)

    # ------------------------------------------------------------------
    # Crash recovery (driven by the attached FleetSupervisor)
    # ------------------------------------------------------------------
    def attach_supervisor(self, supervisor) -> None:
        """Route channel deaths through a supervisor's crash recovery."""
        self.supervisor = supervisor

    def _channel_closed(self, client: ShardClient) -> None:
        """Reader-thread exit hook: recover in-flight work or fail it."""
        supervisor = self.supervisor
        if supervisor is not None and not supervisor.stopped:
            supervisor.handle_channel_closed(client)
            return
        if client.drained:
            return
        client._fail_all(RemoteFault(
            "ShutdownError", f"shard {client.shard_id} channel closed"
        ))

    def take_failure(self, client: ShardClient) -> Optional[bool]:
        """Atomically claim one failed shard *incarnation* for recovery.

        Returns ``was_draining``, or None when this exact client is not
        the current holder of its shard id (already claimed, already
        retired, or — crucially — a *stale* death report: the SIGKILLed
        incarnation's channel EOF arriving after a replacement was
        respawned under the same id must never claim the replacement).
        The heartbeat detector and the EOF handler race to report the
        same death; identity comparison lets exactly one win.  A
        draining shard stays in the draining table so
        :meth:`finish_drain` still folds its (crash) record.
        """
        with self._lock:
            shard_id = client.shard_id
            if self.clients.get(shard_id) is client:
                del self.clients[shard_id]
                self.ring.discard(shard_id)
                client.crash_claimed = True
                return False
            if (
                self._draining.get(shard_id) is client
                and not client.crash_claimed
                and not client.drained
            ):
                client.crash_claimed = True
                return True
        return None

    def record_crash(self, info: Dict) -> None:
        """Fold a crashed serving shard into the retired history."""
        with self._lock:
            self.retired.append(info)

    def redispatch(self, record: _PendingOp) -> bool:
        """Route one recovered in-flight op to a live shard (same future)."""
        if not record.content_addressed:
            return False
        for _ in range(_ROUTE_ATTEMPTS):
            with self._lock:
                if self._degraded:
                    return False
                try:
                    shard_id = self.ring.route(record.request_hash)
                except RingEmptyError:
                    return False
                client = self.clients.get(shard_id)
            if client is not None and client.dispatch(record):
                return True
            time.sleep(0.005)
        return False

    def mark_degraded(self, reason: str) -> None:
        with self._lock:
            self._degraded = reason

    def clear_degraded(self) -> None:
        with self._lock:
            self._degraded = None

    @property
    def degraded(self) -> Optional[str]:
        return self._degraded

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def stored(self, request_hash: str) -> Optional[bytes]:
        """The parent tier's reply bytes of a hash, or None: the front end
        answers these hits before anything is routed, so they never
        cross the wire."""
        return self.store.reply(request_hash)

    def submit(self, request: EvaluationRequest) -> Future:
        """Route one request by content hash (a one-request
        :meth:`submit_many`); raises when the fleet refuses it."""
        [outcome] = self.submit_many([request])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def submit_many(self, requests: Sequence[EvaluationRequest]) -> List:
        """Route one call's requests by content hash: one frame per shard.

        Returns one item per request, in order: the future of its result,
        or the :class:`FleetDegradedError` of a fleet below quorum.  A
        request whose hash already has an evaluate op in flight attaches
        to that op's future and never crosses the wire, unless it carries
        a deadline: that goes to its shard, whose scheduler merges
        deadlines.  The rest are grouped by ring owner and each owner
        gets one ``evaluate`` frame holding all of its members; every
        member keeps its own :class:`_PendingOp`, so crash recovery and
        re-dispatch stay per op.
        """
        outcomes: List = []
        records: List[_PendingOp] = []
        tracked: List[_PendingOp] = []
        with self._lock:
            if self._degraded:
                return [FleetDegradedError(self._degraded)] * len(requests)
            for request in requests:
                request_hash = request.content_hash()
                inflight = self._inflight.get(request_hash)
                if inflight is not None and request.deadline_ms is None:
                    self.coalesced += 1
                    outcomes.append(inflight)
                    continue
                fields = {"hash": request_hash, "request": request.canonical_json()}
                hints = request.execution_hints()
                if hints:
                    fields["hints"] = hints
                record = _PendingOp(Future(), "evaluate", fields, request_hash)
                if inflight is None and request.deadline_ms is None:
                    self._inflight[request_hash] = record.future
                    tracked.append(record)
                records.append(record)
                outcomes.append(record.future)
        for record in tracked:
            record.future.add_done_callback(
                functools.partial(self._settled, record.request_hash)
            )
        self._route(records)
        return outcomes

    def _settled(self, request_hash: str, future: Future) -> None:
        """Done-callback: a resolved op no longer takes attachments."""
        with self._lock:
            if self._inflight.get(request_hash) is future:
                del self._inflight[request_hash]

    def _route(self, records: List[_PendingOp]) -> None:
        """Send each record to its hash's ring owner, one frame per owner.

        Routing and dispatch race with crash recovery: an owner may die
        in between, and its records are then re-routed on the updated
        ring (membership changes are bounded-remap, so only the dead
        shard's hashes move).  Records no shard takes fail with
        :class:`FleetDegradedError` instead of hanging.
        """
        failure: Optional[Exception] = None
        for _ in range(_ROUTE_ATTEMPTS):
            groups: Dict[str, List[_PendingOp]] = {}
            with self._lock:
                if self._degraded:
                    failure = FleetDegradedError(self._degraded)
                    break
                try:
                    for record in records:
                        owner = self.ring.route(record.request_hash)
                        groups.setdefault(owner, []).append(record)
                except RingEmptyError as error:
                    failure = error
                    break
                owners = [(self.clients[owner], group) for owner, group in groups.items()]
            # A shard that died between routing and dispatch refuses its
            # group; the supervisor is updating membership — re-route.
            records = [
                record for client, group in owners
                if not client.dispatch_many(group) for record in group
            ]
            if not records:
                return
            time.sleep(0.005)
        if failure is None:
            failure = FleetDegradedError(
                f"no live shard accepted {len(records)} request(s) after "
                f"{_ROUTE_ATTEMPTS} routing attempts"
            )
        for record in records:
            try:
                record.future.set_exception(failure)
            except InvalidStateError:  # pragma: no cover - defensive
                pass

    def result_lookup(self, request_hash: str) -> Future:
        """Content-addressed store lookup on the hash's owning shard.

        The owner sees its in-memory tier plus the shared disk tier, so
        a hash computed by a *drained* shard still resolves (the disk
        entry outlives the worker).
        """
        with self._lock:
            if self._degraded:
                raise FleetDegradedError(self._degraded)
            shard_id = self.ring.route(request_hash)
            client = self.clients[shard_id]
        return client.send_op("result", request_hash=request_hash,
                              hash=request_hash)

    def client_for(self, shard_id: str) -> ShardClient:
        with self._lock:
            client = self.clients.get(shard_id) or self._draining.get(shard_id)
        if client is None:
            raise ValueError(f"unknown shard {shard_id!r}")
        return client

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def liveness(self) -> Dict[str, Dict]:
        """Per-shard liveness: heartbeat age, misses, supervisor state."""
        supervisor = self.supervisor
        payload: Dict[str, Dict] = {}
        for shard_id, client in self.serving_clients():
            age = client.heartbeat_age()
            entry: Dict[str, object] = {
                "state": "live",
                "last_heartbeat_age_s": age,
                "heartbeats_received": client.heartbeats_received,
                "consecutive_misses": (
                    int(age / self.heartbeat_interval_s) if age else 0
                ),
                "restarts": 0,
                "protocol_errors": client.protocol_errors,
            }
            if supervisor is not None:
                entry.update(supervisor.shard_view(shard_id))
            payload[shard_id] = entry
        if supervisor is not None:
            for shard_id, view in supervisor.retired_views():
                payload.setdefault(shard_id, view)
        return payload

    def health(self, timeout: float = 30.0) -> Dict:
        """Fleet-level health: per-shard payloads plus merged counters."""
        with self._lock:
            serving = dict(self.clients)
            draining = sorted(self._draining)
        payloads: Dict[str, Dict] = {}
        for shard_id, client in serving.items():
            try:
                payloads[shard_id] = client.call("healthz", timeout=timeout)
            except Exception:  # noqa: BLE001 - a lost shard is reportable
                payloads[shard_id] = {"status": "lost", "shard": shard_id}
        supervisor = self.supervisor
        return merge_health(
            payloads, self.ring.members(), draining, list(self.retired),
            liveness=self.liveness(),
            supervisor=(
                supervisor.stats_payload() if supervisor is not None else None
            ),
            coalesced=self.coalesced,
            frontend_store=self.store.stats(),
        )

    def close(self) -> None:
        """Drain every shard (idempotent); no request is ever dropped."""
        if self.supervisor is not None:
            self.supervisor.stop()
        with self._lock:
            serving = list(self.clients)
        for shard_id in serving:
            try:
                self.drain_shard(shard_id)
            except ValueError:
                continue


def merge_health(
    shard_payloads: Dict[str, Dict],
    members: List[str],
    draining: List[str],
    retired: List[Dict],
    liveness: Optional[Dict[str, Dict]] = None,
    supervisor: Optional[Dict] = None,
    coalesced: int = 0,
    frontend_store: Optional[Dict] = None,
) -> Dict:
    """Merge per-shard health payloads into the fleet-level report.

    Scheduler counters (and store counters) sum across serving *and*
    retired shards, so a drain never loses history; ratios are
    recomputed from the summed counters rather than averaged.  The
    requests the front end ``coalesced`` onto in-flight ops count as
    submitted and coalesced, as they would had a scheduler seen them, so
    ``scheduler.submitted`` is every request the fleet took (the HTTP
    front end adds the hits it answered from the parent tier).  The
    parent tier's own counters are reported as ``frontend_store``; its
    hits also count in ``store.hits`` (it counts no misses: each one is
    looked up, and counted, by the shard it is routed to).  Crashed
    shards whose in-flight work was re-dispatched appear as
    ``crashed_shards`` (the fleet healed; status stays ``ok``); shards
    that died with requests unrecovered appear in ``lost`` and degrade
    the status.
    """
    sources = [p for p in shard_payloads.values() if "scheduler" in p]
    sources += [p for p in retired if isinstance(p, dict) and "scheduler" in p]
    scheduler = _sum_counters([p["scheduler"] for p in sources])
    scheduler["submitted"] = scheduler.get("submitted", 0) + coalesced
    scheduler["coalesced"] = scheduler.get("coalesced", 0) + coalesced
    term_lookups = scheduler.get("term_hits", 0) + scheduler.get("term_misses", 0)
    scheduler["term_hit_ratio"] = (
        scheduler.get("term_hits", 0) / term_lookups if term_lookups else 0.0
    )
    store = _sum_counters([p["store"] for p in sources if "store" in p])
    store.pop("disk_directory", None)
    if frontend_store is not None:
        store["hits"] = store.get("hits", 0) + frontend_store.get("hits", 0)
    lost = [sid for sid, p in shard_payloads.items() if p.get("status") != "ok"]
    lost += [
        str(p.get("shard", "?")) for p in retired
        if isinstance(p, dict) and p.get("status") == "lost"
    ]
    crashed = [
        str(p.get("shard", "?")) for p in retired
        if isinstance(p, dict) and p.get("status") == "crashed"
    ]
    degraded = bool(lost) or bool((supervisor or {}).get("degraded"))
    payload = {
        "status": "degraded" if degraded else "ok",
        "members": members,
        "draining": draining,
        "lost": lost,
        "crashed_shards": crashed,
        "retired_shards": len(retired),
        "pending": sum(p.get("pending", 0) for p in sources),
        "inflight": sum(p.get("inflight", 0) for p in sources),
        "dropped_replies": sum(p.get("dropped_replies", 0) for p in sources),
        "scheduler": scheduler,
        "store": store,
        "shards": shard_payloads,
        "liveness": liveness or {},
    }
    if frontend_store is not None:
        payload["frontend_store"] = frontend_store
    if supervisor is not None:
        payload["supervisor"] = supervisor
    return payload


def _sum_counters(dicts: List[Dict]) -> Dict:
    """Elementwise sum of the numeric fields of per-shard counter dicts."""
    merged: Dict[str, object] = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged
