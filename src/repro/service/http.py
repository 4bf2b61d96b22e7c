"""The HTTP front end of the evaluation service, for both deployments.

One :mod:`selectors` loop on one thread serves every client connection:
no thread per socket, connections stay open between requests (HTTP/1.1
keep-alive; an HTTP/1.0 client opts in with ``Connection: keep-alive``),
and each reply leaves as one buffer, head and body in a single send.
The loop (:class:`AsyncFrontend`) parses requests and writes replies;
its routing half (:class:`EvaluationServiceHandler`) turns each request
into calls on a *backend* that offers five methods:

* ``stored(hash) -> bytes | None``, the reply bytes of a stored result
  (``json.dumps(result, sort_keys=True)``) or None on a miss,
* ``submit(request) -> Future`` of the result payload,
* ``submit_many(requests) -> list``, one item per request in order: its
  future, or the exception that refused it (a batch's misses reach the
  backend in one call, so they share a dispatch tick and a fleet can
  send each shard one frame),
* ``result_lookup(hash) -> Future`` of the stored payload, or None,
* ``health() -> dict``.

Store hits never reach ``submit``: the front end hashes every valid
request and batch member (syntax checks and the hash are all a request
costs before its store lookup, see :mod:`repro.service.requests`), asks
``stored`` first, and splices the bytes of each hit verbatim into the
``/evaluate``, ``/evaluate/batch`` and ``GET /result/<hash>`` replies —
byte-identical to serialising the result again.  Each evaluate hit is
counted once as submitted and once as a store hit: ``GET /healthz``
folds the front end's ``store_hits`` into the backend's ``scheduler``
counters.  Only misses are submitted.

The in-process :class:`~repro.service.scheduler.EvaluationScheduler`
(:func:`serve`) and the shard fleet (:mod:`repro.service.shard`) are both
such backends, so a client cannot tell one process from a fleet.
Evaluation never blocks the loop: a future that resolves on another
thread queues its reply and wakes the selector through a socket pair.

Routes:

* ``POST /evaluate`` — body is one request object; responds with the
  result JSON.
* ``POST /evaluate/batch`` — body is ``{"requests": [...]}``; responds
  with ``{"results": [...]}`` in request order.  A member that fails
  validation, admission or evaluation becomes an inline error envelope;
  the batch itself still returns 200.
* ``GET /result/<hash>`` — content-addressed store lookup; 404 when the
  hash has never been computed.
* ``GET /healthz`` — the backend's health payload plus the front end's
  own counters under ``frontend``.

Every error response is a JSON envelope
``{"error": {"type": ..., "message": ...}}`` whose status comes from one
table keyed by the failure's type name (:data:`FAULT_STATUS`):
validation problems 400, a shed queue 429, shutdown and a fleet
without live shards 503, a missed deadline 504, anything else 500.  A
fault with a backpressure hint carries it as ``retry_after_s`` and as a
``Retry-After`` header.  Unknown routes answer 404, other methods 405,
bodies over :data:`MAX_BODY_BYTES` 413.
"""

from __future__ import annotations

import collections
import json
import math
import selectors
import socket
import sys
import threading
from concurrent.futures import Future
from http import HTTPStatus
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.service.requests import EvaluationRequest, ServiceError
from repro.service.scheduler import EvaluationScheduler

#: Largest accepted request body (1 MiB): far beyond any legal request,
#: small enough that a misdirected upload cannot balloon memory.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted HTTP header block (64 KiB).
MAX_HEADER_BYTES = 64 << 10

#: HTTP status of each failure with an answer of its own, keyed by
#: exception type name; every other failure is a 500.  A fault that
#: crossed a shard channel is looked up by the name it was raised under
#: (``remote_type``), so both deployments give the same answer.
FAULT_STATUS = {
    "ServiceError": 400,
    "QueueFullError": 429,
    "FleetDegradedError": 503,
    "RingEmptyError": 503,
    "ShutdownError": 503,
    "DeadlineExceeded": 504,
}


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
def error_type(error: BaseException) -> str:
    """The type name a client sees: a remote fault's original name."""
    return getattr(error, "remote_type", None) or type(error).__name__


def error_status(error: BaseException) -> int:
    """The HTTP status of a failure (:data:`FAULT_STATUS`, else 500)."""
    return FAULT_STATUS.get(error_type(error), 500)


def error_envelope(error: BaseException) -> Dict[str, object]:
    """The JSON error envelope of an exception.

    Faults carrying a backpressure hint (``retry_after_s``) expose it in
    the envelope too, so batch-inline errors (which have no headers of
    their own) still tell the client when to come back.
    """
    body: Dict[str, object] = {"type": error_type(error), "message": str(error)}
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        body["retry_after_s"] = retry_after
    return {"error": body}


def retry_after_header(error: BaseException) -> Optional[Dict[str, str]]:
    """The ``Retry-After`` header (whole seconds, at least 1) of a fault
    with a backpressure hint; None without one."""
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is None:
        return None
    return {"Retry-After": str(max(int(math.ceil(retry_after)), 1))}


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------
class _BadRequest(Exception):
    """A request the parser cannot accept; answered, then the connection
    closes, because the byte stream cannot be resynchronised."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Request(NamedTuple):
    """One parsed request; header names are lower-cased."""

    method: str
    path: str
    version: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class _Connection:
    """Parser and buffer state of one client socket."""

    def __init__(self, sock: Optional[socket.socket]):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        # Parsed requests waiting their turn; a parse error queues as a
        # _BadRequest so it is answered after the requests before it.
        self.requests: Deque = collections.deque()
        self.busy = False        # a request is being served (ordering)
        self.broken = False      # a parse error was met; parse no further
        self.closing = False     # close once outbuf drains
        self.writing = False     # registered for EVENT_WRITE
        self.open = True
        self._head: Optional[Tuple[str, str, str, Dict[str, str], int]] = None

    def feed(self, data: bytes) -> List[Union[_Request, _BadRequest]]:
        """Incremental HTTP/1.x parsing: bytes in, complete requests out.

        A malformed or oversized request ends the list as a
        :class:`_BadRequest`, after the requests completed before it, and
        every later call returns nothing: the stream cannot be resynchronised.
        """
        if self.broken:
            return []
        self.inbuf += data
        complete: List[Union[_Request, _BadRequest]] = []
        try:
            while True:
                if self._head is None:
                    split = self.inbuf.find(b"\r\n\r\n")
                    if split < 0 and len(self.inbuf) <= MAX_HEADER_BYTES:
                        break
                    if split < 0 or split > MAX_HEADER_BYTES:
                        raise _BadRequest(400, "request head too large")
                    head = bytes(self.inbuf[:split]).decode("latin-1")
                    del self.inbuf[:split + 4]
                    self._head = _parse_head(head)
                method, path, version, headers, length = self._head
                if len(self.inbuf) < length:
                    break
                body = bytes(self.inbuf[:length])
                del self.inbuf[:length]
                self._head = None
                complete.append(_Request(method, path, version, headers, body))
        except _BadRequest as error:
            self.broken = True
            self.inbuf.clear()
            complete.append(error)
        return complete


def _parse_head(head: str) -> Tuple[str, str, str, Dict[str, str], int]:
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise _BadRequest(400, f"malformed request line {lines[0][:200]!r}")
    method, path, version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise _BadRequest(400, "invalid Content-Length")
    # Past 16 digits the value is over the limit (unless zero-padded);
    # int() of a huge digit string would refuse it anyway.
    if len(length) > 16 or int(length) > MAX_BODY_BYTES:
        raise _BadRequest(413, f"request body must be 0..{MAX_BODY_BYTES} bytes")
    return method, path, version, headers, int(length)


def _parse_json(body: bytes):
    try:
        return json.loads(body.decode("utf-8", errors="replace") or "null")
    except ValueError as error:
        raise ServiceError(f"invalid JSON: {error}") from None


def _json_bytes(payload) -> bytes:
    """A reply body without its newline: stored bytes pass through."""
    if isinstance(payload, bytes):
        return payload
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _http_response(
    status: int,
    payload: Union[Dict, bytes],
    headers: Optional[Dict[str, str]],
    close: bool,
) -> bytes:
    body = _json_bytes(payload) + b"\n"
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class Exchange(NamedTuple):
    """One parsed request and the way back to its client.

    Exactly one of :meth:`reply`, :meth:`reject` or :meth:`fail` is
    called per request, from the loop or from whichever thread resolves
    the backend's future; all three are thread-safe.
    """

    frontend: "AsyncFrontend"
    conn: _Connection
    request: _Request

    def reply(self, status: int, payload: Union[Dict, bytes],
              headers: Optional[Dict[str, str]] = None) -> None:
        """Answer with a JSON payload, or with its already encoded bytes."""
        self.frontend._enqueue_response(
            self.conn, status, payload, headers, close=not self.request.keep_alive
        )

    def reject(self, status: int, message: str) -> None:
        """Answer a client error the front end found itself (route,
        method, malformed id)."""
        self.reply(status, error_envelope(ServiceError(message)))

    def fail(self, error: BaseException) -> None:
        """Answer a failure with its status, envelope and Retry-After."""
        self.reply(error_status(error), error_envelope(error), retry_after_header(error))


class EvaluationServiceHandler:
    """The routing half of the front end: evaluation routes over a backend.

    The backend is reached only through ``stored``, ``submit``,
    ``submit_many``, ``result_lookup`` and ``health``.  A deployment with
    routes of its own subclasses this and hands every other request to
    ``super()._route`` (the fleet's ``/shards`` routes live in
    :class:`repro.service.shard.frontend.FleetServiceHandler`).
    """

    def __init__(self, backend):
        self.backend = backend
        #: Evaluate requests answered from ``stored`` (loop thread only).
        self.store_hits = 0

    def route(self, exchange: Exchange) -> None:
        """Answer one request, now or once its backend future resolves."""
        try:
            self._route(exchange)
        except Exception as error:  # noqa: BLE001 - every failure is a reply
            exchange.fail(error)

    def _route(self, exchange: Exchange) -> None:
        method, path = exchange.request.method, exchange.request.path
        if method == "GET":
            self._route_get(exchange, path)
        elif method != "POST":
            exchange.reject(405, f"method {method} not supported")
        elif path == "/evaluate":
            request = EvaluationRequest.from_dict(_parse_json(exchange.request.body))
            blob = self.backend.stored(request.content_hash())
            if blob is not None:
                self.store_hits += 1
                exchange.reply(200, blob)
            else:
                self._respond_future(exchange, self.backend.submit(request))
        elif path == "/evaluate/batch":
            payload = _parse_json(exchange.request.body)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("requests"), list
            ):
                raise ServiceError('batch body must be {"requests": [...]}')
            # Every member is checked and hashed first: hits are answered
            # from their stored bytes, and the misses reach the backend in
            # one call, sharing its dispatch tick.  A member that fails
            # validation, resolution or admission becomes an inline
            # envelope: one bad request never sinks its batch.
            members = [_attempt(EvaluationRequest.from_dict, entry)
                       for entry in payload["requests"]]
            misses = []
            for index, member in enumerate(members):
                if isinstance(member, Exception):
                    continue
                blob = self.backend.stored(member.content_hash())
                if blob is None:
                    misses.append(index)
                else:
                    self.store_hits += 1
                    members[index] = blob
            if misses:
                outcomes = self.backend.submit_many([members[index] for index in misses])
                for index, outcome in zip(misses, outcomes):
                    members[index] = outcome
            self._respond_future(exchange, _gather(members), shape=_batch_body)
        else:
            exchange.reject(404, f"unknown route {path!r}")

    def _route_get(self, exchange: Exchange, path: str) -> None:
        if path == "/healthz":
            frontend = exchange.frontend

            def _collect() -> Dict:
                payload = self.backend.health()
                hits = self.store_hits
                payload["frontend"] = dict(frontend.stats(), store_hits=hits)
                # Hits the front end answered are submissions the backend
                # never saw.
                scheduler = payload.get("scheduler")
                if scheduler is not None:
                    scheduler["submitted"] = scheduler.get("submitted", 0) + hits
                    scheduler["store_hits"] = scheduler.get("store_hits", 0) + hits
                return payload

            # Off the loop: a fleet's health waits on every shard.
            self._respond_future(exchange, _call_async(_collect))
        elif path.startswith("/result/"):
            request_hash = path[len("/result/"):]
            # A content hash is exactly 64 hex chars; anything else never
            # reaches the store, whose disk tier builds a file path from
            # it (no traversal via crafted URLs).
            if len(request_hash) != 64 or any(
                c not in "0123456789abcdef" for c in request_hash
            ):
                exchange.reject(404, f"{request_hash!r} is not a request hash")
                return
            blob = self.backend.stored(request_hash)
            if blob is not None:
                exchange.reply(200, blob)
                return
            self._respond_future(
                exchange, self.backend.result_lookup(request_hash),
                missing=f"no stored result for hash {request_hash!r}",
            )
        else:
            exchange.reject(404, f"unknown route {path!r}")

    @staticmethod
    def _respond_future(exchange: Exchange, future: Future, shape=None,
                        missing: Optional[str] = None) -> None:
        """Reply once ``future`` resolves: its result (through ``shape``),
        a 404 saying ``missing`` when that result is None, or its failure."""

        def _finish(done: Future) -> None:
            try:
                result = done.result()
            except Exception as error:  # noqa: BLE001 - a failure is a reply
                exchange.fail(error)
                return
            if result is None and missing is not None:
                exchange.reject(404, missing)
            else:
                exchange.reply(200, shape(result) if shape is not None else result)

        future.add_done_callback(_finish)


def _attempt(function, argument):
    """``function(argument)``, or the exception it raised."""
    try:
        return function(argument)
    except Exception as error:  # noqa: BLE001 - becomes an inline envelope
        return error


def _batch_body(parts: List[bytes]) -> bytes:
    """``json.dumps({"results": [...]}, sort_keys=True)`` spliced from
    each member's encoded result or envelope."""
    return b'{"results": [' + b", ".join(parts) + b"]}"


def _member_bytes(outcome) -> bytes:
    """One batch member's reply bytes: a result, or its error envelope."""
    if isinstance(outcome, BaseException):
        outcome = error_envelope(outcome)
    return _json_bytes(outcome)


def _gather(items: List) -> Future:
    """One future resolving to every member's reply bytes, in order.

    ``items`` are a batch's members: a :class:`Future` of a result, an
    exception (a member refused synchronously), or the stored bytes of a
    hit.  The aggregate resolves to a list of encoded results and error
    envelopes in input order and never raises.
    """
    aggregate: Future = Future()
    slots: List[Optional[bytes]] = [
        None if isinstance(item, Future) else _member_bytes(item) for item in items
    ]
    remaining = sum(1 for item in items if isinstance(item, Future))
    if remaining == 0:
        aggregate.set_result(slots)
        return aggregate
    lock = threading.Lock()

    def _finish(index: int, future: Future) -> None:
        nonlocal remaining
        try:
            slots[index] = _member_bytes(future.result())
        except Exception as error:  # noqa: BLE001 - inline envelope (a failed
            slots[index] = _member_bytes(error)  # member, or a result JSON cannot hold)
        with lock:
            remaining -= 1
            done = remaining == 0
        if done:
            aggregate.set_result(slots)

    for index, item in enumerate(items):
        if isinstance(item, Future):
            item.add_done_callback(lambda future, i=index: _finish(i, future))
    return aggregate


def _call_async(function) -> Future:
    """Run a blocking callable on a helper thread, resolve a future."""
    future: Future = Future()

    def _run() -> None:
        try:
            future.set_result(function())
        except Exception as error:  # noqa: BLE001 - delivered to waiter
            future.set_exception(error)

    threading.Thread(target=_run, daemon=True).start()
    return future


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
class AsyncFrontend:
    """The selectors event loop in front of one routing handler."""

    def __init__(
        self,
        handler: EvaluationServiceHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 1024,
    ):
        self.handler = handler
        self.verbose = False
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        # Wake-up channel: threads that resolve futures off the loop queue
        # their reply and poke the selector.  A socket pair rather than a
        # pipe, so a poke after shutdown fails on the closed socket object
        # instead of writing to a reused descriptor.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")
        self._completed: Deque = collections.deque()
        self._conns: Dict[socket.socket, _Connection] = {}
        self._running = False
        self._loop_thread: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self.requests_served = 0

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.address[1]

    def stats(self) -> Dict[str, int]:
        """The front end's own counters (served under ``/healthz``)."""
        return {"connections": len(self._conns), "requests_served": self.requests_served}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncFrontend":
        """Run the loop in a daemon thread (tests / embedded serving)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-service-frontend", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._loop_thread = threading.get_ident()
        self._running = True
        while self._running:
            for key, mask in self._selector.select(timeout=0.5):
                if key.data == "accept":
                    self._accept()
                elif key.data == "wake":
                    try:
                        self._wake_recv.recv(4096)
                    except OSError:
                        pass
                else:
                    conn: _Connection = key.data
                    if mask & selectors.EVENT_READ:
                        self._readable(conn)
                    if conn.open and mask & selectors.EVENT_WRITE:
                        self._send(conn)
            self._flush_completed()

    def shutdown(self) -> None:
        """Stop the loop, send the replies already queued, close every
        socket.  The backend stays up: close it first, so the replies of
        its in-flight work are among those sent."""
        self._running = False
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._flush_completed()
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        self._selector.close()
        self._listener.close()
        self._wake_recv.close()
        self._wake_send.close()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except OSError:  # full (a wake-up is already pending) or closed
            pass

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._conns[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.requests.extend(conn.feed(data))
        self._pump(conn)

    def _send(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close_conn(conn)
            return
        del conn.outbuf[:sent]
        if conn.outbuf:
            self._watch(conn, write=True)
            return
        self._watch(conn, write=False)
        if conn.closing:
            self._close_conn(conn)

    def _watch(self, conn: _Connection, write: bool) -> None:
        if conn.writing == write:
            return
        conn.writing = write
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if write else 0)
        self._selector.modify(conn.sock, events, conn)

    def _close_conn(self, conn: _Connection) -> None:
        if not conn.open:
            return
        conn.open = False
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        self._conns.pop(conn.sock, None)

    # ------------------------------------------------------------------
    # Requests and replies
    # ------------------------------------------------------------------
    def _pump(self, conn: _Connection) -> None:
        """Serve the connection's next parsed request, one at a time.

        Replies go out in request order because a new request is only
        picked up after the previous reply was written.
        """
        if conn.busy or conn.closing or not conn.requests:
            return
        conn.busy = True
        request = conn.requests.popleft()
        if isinstance(request, _BadRequest):
            self._enqueue_response(
                conn, request.status, error_envelope(ServiceError(str(request))),
                None, close=True,
            )
            return
        if self.verbose:
            print(f"repro.service: {request.method} {request.path}", file=sys.stderr)
        self.handler.route(Exchange(self, conn, request))

    def _enqueue_response(
        self,
        conn: _Connection,
        status: int,
        payload: Union[Dict, bytes],
        headers: Optional[Dict[str, str]],
        close: bool,
    ) -> None:
        """Thread-safe: queue one finished reply.

        On the loop thread the reply goes out when the current round of
        events is done; any other thread wakes the loop.
        """
        self._completed.append((conn, status, payload, headers, close))
        if threading.get_ident() != self._loop_thread:
            self._wake()

    def _flush_completed(self) -> None:
        while self._completed:
            conn, status, payload, headers, close = self._completed.popleft()
            if not conn.open:
                continue
            try:
                blob = _http_response(status, payload, headers, close)
            except (TypeError, ValueError) as error:  # a payload JSON cannot hold
                blob = _http_response(500, error_envelope(error), None, close)
            conn.outbuf += blob
            conn.busy = False
            conn.closing = conn.closing or close
            self.requests_served += 1
            # Try an eager write; EVENT_WRITE takes over for any rest.
            self._send(conn)
            if conn.open and not conn.closing:
                self._pump(conn)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    scheduler: Optional[EvaluationScheduler] = None,
) -> AsyncFrontend:
    """Bind the single-process service (``port=0`` picks an ephemeral port).

    The scheduler's background dispatcher is started so concurrent
    requests coalesce into shared ticks.  The caller owns the loop: call
    ``serve_forever()`` (the CLI does) or ``start()`` to run it on a
    daemon thread; when done, ``scheduler.close()`` then ``shutdown()``.
    """
    scheduler = scheduler if scheduler is not None else EvaluationScheduler()
    scheduler.start()
    return AsyncFrontend(EvaluationServiceHandler(scheduler), host=host, port=port)
