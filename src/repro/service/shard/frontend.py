"""Fleet routes and crash recovery of the sharded evaluation service.

The fleet is served by the same front end as the single process
(:class:`repro.service.http.AsyncFrontend`: one selectors thread,
keep-alive connections, one fault table), so clients cannot tell one
process from a fleet.  What is particular to the fleet lives here:

* :class:`FleetServiceHandler` — the evaluation routes over a
  :class:`ShardFleet` backend.  Requests are checked and hashed locally,
  so a malformed one answers 400 without ever crossing a channel, and
  every hash the fleet has answered before is served from the parent
  tier (``ShardFleet.stored``: a memory-only result store in this
  process) — hits never cross the wire.  Only misses are submitted: a
  batch's misses reach the fleet in one ``submit_many`` call, which
  drops duplicates of in-flight hashes and sends each shard one frame,
  and the shard resolves each member (a config the model rejects comes
  back as the same 400 the single process gives).  Plus the
  fleet-management routes:

  * ``GET /shards`` and ``GET /shards/<id>/healthz`` — membership
    listing and per-shard passthrough.
  * ``POST /shards`` — live add: fork a worker, claim its ring points.
  * ``POST /shards/<id>/drain`` — live drain: the shard leaves the ring
    synchronously (new hashes remap before the 202 is sent), in-flight
    work finishes in the background, final stats fold into the
    aggregate.

  ``GET /healthz`` is the **fleet** health: per-shard payloads merged
  into one aggregate (summed :class:`SchedulerStats` counters including
  retired shards, with the front end's hits and in-flight attachments
  folded into ``submitted``, ``store_hits`` and ``coalesced``; the
  parent tier as ``frontend_store``; ring membership, drain state).

* :class:`FleetSupervisor` — a heartbeat-timeout failure detector plus
  crash recovery.  A shard whose beats stop (SIGKILL, hang, SIGSTOP — no
  EOF required) is declared dead within the configured timeout; its ring
  points are released, its tracked in-flight ops are **re-dispatched**
  to surviving shards under the same futures (safe: evaluation is
  deterministic and the shared disk store dedups), and a replacement
  worker is respawned under the same shard id — identical ring
  placement — while a restart budget and a quorum floor bound how much
  failure the fleet absorbs before refusing new work with
  :class:`~repro.service.faults.FleetDegradedError`, all as the fleet's
  settings (:mod:`repro.service.settings`) say.
"""

from __future__ import annotations

import collections
import threading
from concurrent.futures import InvalidStateError
from typing import Deque, Dict, List, Optional, Tuple

from repro.service.faults import FleetDegradedError
from repro.service.http import AsyncFrontend, EvaluationServiceHandler, Exchange
from repro.service.shard.protocol import RemoteFault
from repro.service.shard.worker import ShardFleet


class FleetServiceHandler(EvaluationServiceHandler):
    """The evaluation routes over a :class:`ShardFleet`, plus ``/shards``."""

    def _route(self, exchange: Exchange) -> None:
        method, path = exchange.request.method, exchange.request.path
        fleet: ShardFleet = self.backend
        if method == "GET" and path == "/shards":
            exchange.reply(200, {
                "members": fleet.ring.members(),
                "retired_shards": len(fleet.retired),
            })
        elif method == "GET" and path.startswith("/shards/") and path.endswith("/healthz"):
            shard_id = path[len("/shards/"):-len("/healthz")]
            try:
                client = fleet.client_for(shard_id)
            except ValueError as error:
                exchange.reject(404, str(error))
                return
            self._respond_future(exchange, client.send_op("healthz"))
        elif method == "POST" and path == "/shards":
            # Live add: the fork + ready handshake happens on the loop
            # thread — a brief pause for the fleet, not a correctness
            # issue (the new worker only joins the ring once ready).
            shard_id = fleet.add_shard()
            exchange.reply(200, {"added": shard_id, "members": fleet.ring.members()})
        elif method == "POST" and path.startswith("/shards/") and path.endswith("/drain"):
            shard_id = path[len("/shards/"):-len("/drain")]
            try:
                fleet.begin_drain(shard_id)
            except ValueError as error:
                exchange.reject(404, str(error))
                return
            # The ring change is already visible; the wait-and-fold half
            # runs off-loop so in-flight work never blocks the selector.
            threading.Thread(
                target=fleet.finish_drain, args=(shard_id,),
                name=f"drain-{shard_id}", daemon=True,
            ).start()
            exchange.reply(202, {"draining": shard_id, "members": fleet.ring.members()})
        else:
            super()._route(exchange)


#: How many shard deaths one op survives before its future is failed —
#: a backstop against a pathological fleet where every shard an op
#: lands on dies; in practice one re-dispatch resolves it.
MAX_REDISPATCH_ATTEMPTS = 8


class FleetSupervisor:
    """Heartbeat failure detector + crash recovery for a :class:`ShardFleet`.

    One monitor thread sweeps the serving shards every fraction of the
    heartbeat timeout; a shard whose last beat is older than
    ``detector_timeout_s`` is declared dead **without waiting for
    channel EOF** — detection latency is bounded by the timeout even
    when the worker is hung or SIGSTOPped and its socket stays open.
    Channel EOFs (the fast path for a SIGKILL) feed the same recovery
    through :meth:`handle_channel_closed`, and :meth:`ShardFleet.take_failure`
    arbitrates the race so each death is recovered exactly once.

    Recovery is zero-loss by construction: the victim is SIGKILLed
    first (a false-positive declaration is *made* true, so an op can
    never run to completion on both the victim and its re-dispatch
    target's future), its pending op records are atomically taken, a
    replacement respawns under the same shard id (identical ring
    placement) while the restart budget lasts, and every taken op
    re-dispatches on the updated ring under its original future.  When
    live membership falls below ``min_quorum`` the fleet is marked
    degraded: submits fail fast with :class:`FleetDegradedError` until
    a respawn or live add restores quorum.  A ``restart_budget`` of 0
    recovers in-flight work but never respawns.

    The supervisor takes the fleet's own settings, so the detector times
    the heartbeats its workers send.
    """

    def __init__(self, fleet: ShardFleet, respawn: bool = True):
        self.fleet = fleet
        self.settings = fleet.settings
        self.heartbeat_timeout_s = self.settings.detector_timeout_s
        self.respawn = respawn
        self._check_interval = max(0.01, min(
            self.heartbeat_timeout_s / 4.0, self.settings.heartbeat_interval_s
        ))
        self._suspect_after_s = self.heartbeat_timeout_s / 2.0
        self._lock = threading.Lock()
        self._states: Dict[str, str] = {}
        self._restarts: Dict[str, int] = {}
        self._retired_views: Dict[str, Dict] = {}
        self._queue: Deque[Tuple[object, str]] = collections.deque()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.detected_failures = 0
        self.redispatched_ops = 0
        self.failed_redispatches = 0
        self.restarts_used = 0

    # ------------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        """Attach to the fleet and run the monitor thread."""
        self.fleet.attach_supervisor(self)
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-fleet-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop monitoring; channel deaths fall back to fail-fast."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def handle_channel_closed(self, client) -> None:
        """Reader-thread EOF notification: queue recovery, wake the sweep.

        Carries the client *object*, not just the shard id: recovery
        claims by identity, so a stale EOF from a killed incarnation can
        never be mistaken for a death of its respawned replacement."""
        self._queue.append((client, "channel EOF"))
        self._wake.set()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self._check_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            while self._queue:
                client, reason = self._queue.popleft()
                self._recover(client, reason)
            for shard_id, client in self.fleet.serving_clients():
                if client.drained or client.crash_claimed:
                    continue
                age = client.heartbeat_age()
                if age is None:
                    continue
                if age >= self.heartbeat_timeout_s:
                    self._recover(client, (
                        f"heartbeat timeout: last beat {age:.2f}s ago "
                        f"(timeout {self.heartbeat_timeout_s:.2f}s)"
                    ))
                else:
                    with self._lock:
                        self._states[shard_id] = (
                            "suspect" if age >= self._suspect_after_s else "live"
                        )

    def _recover(self, client, reason: str) -> None:
        """Recover one dead shard incarnation: kill, take, respawn,
        re-dispatch."""
        was_draining = self.fleet.take_failure(client)
        if was_draining is None:
            return  # already recovered, stale incarnation, or unknown
        shard_id = client.shard_id
        with self._lock:
            self._states[shard_id] = "restarting"
            self.detected_failures += 1
        # Make the declaration true before touching its in-flight work:
        # a suspect that was merely slow must not complete ops that are
        # about to run elsewhere.
        client.kill()
        pending = client.take_pending()
        respawned = False
        if not was_draining and self.respawn and not self._stop.is_set():
            with self._lock:
                under_budget = self.restarts_used < self.settings.restart_budget
                if under_budget:
                    self.restarts_used += 1
                    self._restarts[shard_id] = self._restarts.get(shard_id, 0) + 1
            if under_budget:
                try:
                    # Same shard id => identical ring points: the dead
                    # shard's keys come straight back, nothing else moves.
                    self.fleet.add_shard(shard_id)
                    respawned = True
                except Exception:  # noqa: BLE001 - respawn is best-effort
                    respawned = False
        live = len(self.fleet.members())
        if live < self.settings.min_quorum:
            self.fleet.mark_degraded(
                f"fleet degraded: {live} live shard(s) below quorum "
                f"{self.settings.min_quorum} after losing {shard_id} ({reason})"
            )
        else:
            self.fleet.clear_degraded()
        redispatched = failed = 0
        for record in pending:
            record.attempts += 1
            routed = (
                record.attempts <= MAX_REDISPATCH_ATTEMPTS
                and self.fleet.redispatch(record)
            )
            while not routed and self._queue and record.attempts < MAX_REDISPATCH_ATTEMPTS:
                # The op's new owner died after this recovery began (a
                # kill, a corrupt frame).  Its recovery is queued behind
                # this one on this thread, so waiting cannot heal the
                # route: recover that shard now, then route the op again.
                self._recover(*self._queue.popleft())
                record.attempts += 1
                routed = self.fleet.redispatch(record)
            if routed:
                redispatched += 1
                continue
            failed += 1
            degraded = self.fleet.degraded
            error: BaseException = (
                FleetDegradedError(degraded) if degraded else RemoteFault(
                    "ShutdownError",
                    f"shard {shard_id} died ({reason}) and its "
                    f"{record.op!r} op could not be re-dispatched",
                )
            )
            try:
                record.future.set_exception(error)
            except InvalidStateError:  # pragma: no cover - defensive
                pass
        info = {
            "status": "crashed",
            "shard": shard_id,
            "reason": reason,
            "redispatched": redispatched,
            "failed": failed,
            "respawned": respawned,
        }
        client.crash_info = info
        with self._lock:
            self.redispatched_ops += redispatched
            self.failed_redispatches += failed
            if respawned:
                self._states[shard_id] = "live"
            else:
                self._states.pop(shard_id, None)
                self._retired_views[shard_id] = {
                    "state": "retired",
                    "restarts": self._restarts.get(shard_id, 0),
                    "reason": reason,
                }
        if not was_draining:
            # Draining shards fold through finish_drain instead.
            self.fleet.record_crash(info)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def shard_view(self, shard_id: str) -> Dict:
        """The supervisor's view of one serving shard (liveness merge)."""
        with self._lock:
            return {
                "state": self._states.get(shard_id, "live"),
                "restarts": self._restarts.get(shard_id, 0),
            }

    def retired_views(self) -> List[Tuple[str, Dict]]:
        """Shards the supervisor retired without respawning."""
        with self._lock:
            return [(sid, dict(view)) for sid, view in self._retired_views.items()]

    def stats_payload(self) -> Dict:
        with self._lock:
            return {
                "heartbeat_interval_s": self.settings.heartbeat_interval_s,
                "heartbeat_timeout_s": self.heartbeat_timeout_s,
                "min_quorum": self.settings.min_quorum,
                "restart_budget": self.settings.restart_budget,
                "restarts_used": self.restarts_used,
                "detected_failures": self.detected_failures,
                "redispatched_ops": self.redispatched_ops,
                "failed_redispatches": self.failed_redispatches,
                "degraded": self.fleet.degraded,
                "states": dict(self._states),
            }


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = 8080,
    shards: int = 2,
    fleet: Optional[ShardFleet] = None,
    supervise: bool = True,
) -> AsyncFrontend:
    """Bind the sharded service (``port=0`` picks an ephemeral port).

    The caller owns both loops: ``frontend.serve_forever()`` (the CLI
    does) or ``frontend.start()`` from tests, then ``fleet.close()`` and
    ``shutdown()`` when done (the fleet is ``frontend.handler.backend``).
    Without a ``fleet``, one of ``shards`` workers is built from the
    environment's settings.  Unless ``supervise`` is off, a
    :class:`FleetSupervisor` is attached so shard crashes self-heal
    instead of stranding in-flight requests.
    """
    fleet = fleet if fleet is not None else ShardFleet(shards=shards)
    if supervise and fleet.supervisor is None:
        FleetSupervisor(fleet).start()
    return AsyncFrontend(FleetServiceHandler(fleet), host=host, port=port)
