"""The self-healing fleet: heartbeats, crash detection, re-dispatch.

Covers the heartbeat protocol additions, the reply sender's
dropped-reply accounting, the timeout-based failure detector (detection
bounded by the heartbeat timeout, **not** channel EOF — proven with a
SIGSTOPped worker whose socket stays open), zero-loss crash recovery
with in-flight re-dispatch and respawn, quorum loss ->
:class:`FleetDegradedError`, drain-vs-crash races, the per-shard
liveness surfaced through the fleet health payload, and the hit path:
hits are answered by the parent tier and never cross the wire, while
the shard that resolves a miss refuses a bad config as the single
process does.
"""

import json
import os
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.faults import FaultError, FleetDegradedError
from repro.service.http import error_envelope, error_status
from repro.service.requests import EvaluationRequest, ServiceError
from repro.service.scheduler import evaluate_scalar
from repro.service.settings import ServiceSettings
from repro.service.shard import (
    HEARTBEAT_ID,
    FleetSupervisor,
    FrameDecoder,
    ProtocolError,
    ShardFleet,
    encode_frame,
    heartbeat_message,
    serve_sharded,
)
from repro.service.shard import protocol
from repro.service.shard.worker import _ReplySender

#: Fast liveness for tests: beats every 50 ms, detector fires after
#: 400 ms of silence — orders of magnitude below any EOF-free hang.
HEARTBEAT_INTERVAL_S = 0.05
DETECT_TIMEOUT_S = 0.4


def _settings(tmp_path, **fields):
    """A test fleet's settings: fast liveness, a shared disk tier."""
    return ServiceSettings(**{
        "store_dir": str(tmp_path / "store"),
        "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
        "heartbeat_timeout_s": DETECT_TIMEOUT_S,
        **fields,
    })


def _request(index=0, objective="energy"):
    return EvaluationRequest(
        macro="macro_b",
        workload="mvm_64x64",
        objective=objective,
        overrides={"adc_resolution": 4 + index % 4},
    )


def _wait(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def fleet(tmp_path):
    fleet = ShardFleet(shards=2, settings=_settings(tmp_path))
    yield fleet
    fleet.close()


@pytest.fixture
def slow_detector_fleet(tmp_path):
    """A fleet whose detector waits 60 s for a missed heartbeat, so a
    stopped shard is found by its channel's EOF, not by the timeout."""
    fleet = ShardFleet(shards=2, settings=_settings(tmp_path, heartbeat_timeout_s=60.0))
    yield fleet
    fleet.close()


@pytest.fixture
def supervised(fleet):
    supervisor = FleetSupervisor(fleet).start()
    return fleet, supervisor


# ----------------------------------------------------------------------
# Protocol + reply-sender units
# ----------------------------------------------------------------------
class TestHeartbeatProtocol:
    def test_heartbeat_frame_roundtrip(self):
        frame = heartbeat_message(12, "shard-3")
        assert frame["id"] == HEARTBEAT_ID
        assert FrameDecoder().feed(encode_frame(frame)) == [frame]

    def test_corrupt_length_prefix_is_a_typed_fault(self):
        # The bounds check fires on the prefix alone — before any read
        # is attempted — and the error is part of the fault taxonomy.
        decoder = FrameDecoder()
        with pytest.raises(FaultError) as excinfo:
            decoder.feed(b"\xff\xff\xff\xff" + b"x" * 64)
        assert isinstance(excinfo.value, ProtocolError)

    def test_oversized_encode_is_a_typed_fault(self):
        with pytest.raises(FaultError):
            encode_frame({"id": 1, "blob": "x" * (9 << 20)})


class TestReplySender:
    def test_dead_channel_reply_is_counted_not_silently_dropped(self):
        left, right = socket.socketpair()
        sender = _ReplySender(left)
        right.close()
        # A broken pipe may take one buffered send to surface.
        ok = True
        for _ in range(64):
            ok = sender.send({"id": 1, "ok": True, "result": {}})
            if not ok:
                break
        left.close()
        assert not ok
        assert not sender.alive
        assert sender.dropped_replies == 1

    def test_unsendable_result_degrades_to_a_framed_fault_reply(self):
        # A result too large to frame must resolve the parent future
        # with a ProtocolError fault, never hang it.
        left, right = socket.socketpair()
        sender = _ReplySender(left)
        assert sender.send({"id": 5, "ok": True, "result": "x" * (9 << 20)})
        reply = FrameDecoder().feed(right.recv(1 << 16))[0]
        left.close()
        right.close()
        assert reply["id"] == 5
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ProtocolError"

    def test_reply_set_over_the_frame_limit_splits_until_each_part_fits(
        self, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2048)
        left, right = socket.socketpair()
        sender = _ReplySender(left)
        replies = [{"id": i, "ok": True, "result": {"pad": "x" * 400}} for i in range(10)]
        replies.append({"id": 10, "ok": True, "result": {"pad": "x" * 4096}})
        assert sender.send({"id": 0, "replies": replies})
        left.close()
        stream = b""
        while chunk := right.recv(1 << 16):
            stream += chunk
        right.close()
        frames = FrameDecoder().feed(stream)
        assert len(frames) > 1
        delivered = [reply for frame in frames for reply in frame.get("replies", [frame])]
        assert [reply["id"] for reply in delivered] == list(range(11))
        assert delivered[:10] == replies[:10]
        # The one reply no frame can hold degrades to a typed fault.
        assert delivered[10]["error"]["type"] == "ProtocolError"
        assert sender.dropped_replies == 0

    def test_heartbeats_are_never_counted_as_dropped_replies(self):
        left, right = socket.socketpair()
        sender = _ReplySender(left)
        right.close()
        for _ in range(64):
            if not sender.send(heartbeat_message(1, "s"), count_drop=False):
                break
        left.close()
        assert sender.dropped_replies == 0


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------
class TestFailureDetector:
    def test_workers_heartbeat(self, fleet):
        clients = dict(fleet.serving_clients())
        assert _wait(lambda: all(
            c.heartbeats_received >= 2 for c in clients.values()
        ), timeout=10.0)
        for client in clients.values():
            assert client.heartbeat_age() < 5.0

    def test_sigstop_detected_by_timeout_not_eof(self, supervised):
        """The load-bearing claim: a hung worker whose channel never
        EOFs is still detected, within the heartbeat timeout."""
        fleet, supervisor = supervised
        shard_id, client = fleet.serving_clients()[0]
        assert _wait(lambda: client.heartbeats_received >= 1)
        os.kill(client.process.pid, signal.SIGSTOP)
        started = time.monotonic()
        try:
            assert _wait(
                lambda: supervisor.detected_failures >= 1, timeout=10.0
            )
        finally:
            try:
                os.kill(client.process.pid, signal.SIGCONT)
            except (OSError, ProcessLookupError):
                pass
        detection_s = time.monotonic() - started
        # Bounded by the configured timeout plus sweep/beat slack — a
        # SIGSTOPped process sends no EOF, so only the timeout can fire.
        assert detection_s < DETECT_TIMEOUT_S + 1.0
        # Recovery made the declaration true (killed it) and respawned
        # a replacement under the same id: membership is whole again.
        assert _wait(lambda: len(fleet.members()) == 2, timeout=10.0)
        assert shard_id in fleet.members()


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkill_with_inflight_loses_nothing(self, supervised):
        fleet, supervisor = supervised
        requests = [_request(i) for i in range(24)]
        futures = [fleet.submit(request) for request in requests]
        # Kill a shard while that work is in flight.
        victim_id, victim = fleet.serving_clients()[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        results = [future.result(timeout=180) for future in futures]
        for request, result in zip(requests, results):
            assert result["request_hash"] == request.content_hash()
        assert results[0] == evaluate_scalar(requests[0])
        assert _wait(lambda: supervisor.detected_failures >= 1, timeout=10.0)
        assert supervisor.failed_redispatches == 0
        # The fleet healed: replacement respawned, nothing lost.
        assert _wait(lambda: len(fleet.members()) == 2, timeout=10.0)
        health = fleet.health()
        assert health["status"] == "ok"
        assert health["lost"] == []
        assert victim_id in health["crashed_shards"]

    def test_corrupted_frame_kills_channel_but_not_the_request(self, supervised):
        fleet, supervisor = supervised
        request = _request(31)
        owner = fleet.ring.route(request.content_hash())
        client = fleet.client_for(owner)
        armed = {"left": 1}

        def corrupt_once(blob):
            if armed["left"] > 0:
                armed["left"] -= 1
                return b"\xff\xff\xff\xff" + blob[4:]
            return blob

        client.corrupt_hook = corrupt_once
        future = fleet.submit(request)
        # The worker's bounds check trips, the channel dies, and the
        # supervisor re-dispatches the op — same future, correct result.
        assert future.result(timeout=180) == evaluate_scalar(request)
        assert _wait(lambda: supervisor.detected_failures >= 1, timeout=10.0)

    def test_owner_dying_during_a_recovery_loses_nothing(self, slow_detector_fleet):
        """A recovered op's new owner may die before the op reaches it;
        that owner's recovery is queued behind the running one on the
        same thread, so the running recovery must perform it, not wait
        for it."""
        fleet = slow_detector_fleet
        # Not started: recoveries run on this thread, as on the
        # supervisor's, and channel deaths only queue.
        supervisor = FleetSupervisor(fleet)
        fleet.attach_supervisor(supervisor)
        victim_id, victim = fleet.serving_clients()[0]
        requests = [
            EvaluationRequest(
                macro="macro_b", workload="mvm_64x64",
                overrides={"adc_resolution": 4 + i % 4, "dac_resolution": 1 + i // 4},
            )
            for i in range(16)
        ]
        requests = [
            request for request in requests
            if fleet.ring.route(request.content_hash()) == victim_id
        ][:3]
        os.kill(victim.process.pid, signal.SIGSTOP)  # park the ops on it
        futures = [fleet.submit(request) for request in requests]
        add_shard = fleet.add_shard

        def add_then_kill(shard_id=None):
            # The first replacement dies before anything is re-dispatched.
            fleet.add_shard = add_shard
            added = fleet.client_for(add_shard(shard_id))
            os.kill(added.process.pid, signal.SIGKILL)
            assert _wait(lambda: not added.alive and supervisor._queue)
            return added.shard_id

        fleet.add_shard = add_then_kill
        supervisor._recover(victim, "test: stopped")
        for request, future in zip(requests, futures):
            assert future.result(timeout=180) == evaluate_scalar(request)
        assert supervisor.failed_redispatches == 0
        assert supervisor.detected_failures == 2

    def test_quorum_loss_degrades_and_live_add_restores(self, tmp_path):
        fleet = ShardFleet(shards=1, settings=_settings(tmp_path, min_quorum=1))
        supervisor = FleetSupervisor(fleet, respawn=False).start()
        try:
            _, client = fleet.serving_clients()[0]
            os.kill(client.process.pid, signal.SIGKILL)
            assert _wait(lambda: fleet.degraded is not None, timeout=10.0)
            with pytest.raises(FleetDegradedError) as excinfo:
                fleet.submit(_request(0))
            assert excinfo.value.retry_after_s > 0
            # A live add restores quorum and reopens admission.
            fleet.add_shard()
            assert fleet.degraded is None
            result = fleet.submit(_request(0)).result(timeout=180)
            assert result == evaluate_scalar(_request(0))
        finally:
            fleet.close()

    def test_restart_budget_bounds_respawns(self, tmp_path):
        fleet = ShardFleet(shards=2, settings=_settings(tmp_path, restart_budget=1))
        supervisor = FleetSupervisor(fleet).start()
        try:
            for round_index in range(2):
                _, client = fleet.serving_clients()[0]
                os.kill(client.process.pid, signal.SIGKILL)
                assert _wait(
                    lambda r=round_index: supervisor.detected_failures >= r + 1,
                    timeout=10.0,
                )
            assert supervisor.restarts_used == 1
            assert _wait(lambda: len(fleet.members()) == 1, timeout=10.0)
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# Batched submission: one op frame per shard, duplicates stop at the
# front end
# ----------------------------------------------------------------------
def _count_op_frames(fleet):
    """Pass-through frame hooks: every evaluate frame each shard is sent."""
    frames = {}
    for shard_id, client in fleet.serving_clients():
        def hook(blob, shard_id=shard_id):
            message = FrameDecoder().feed(blob)[0]
            if message.get("op") == "evaluate":
                frames.setdefault(shard_id, []).append(message["members"])
            return blob

        client.corrupt_hook = hook
    return frames


class TestBatchedSubmission:
    def test_one_op_frame_per_owning_shard_and_duplicates_cross_once(self, fleet):
        unique = [_request(i) for i in range(4)] + [
            EvaluationRequest(macro="macro_b", workload="mvm_64x64",
                              overrides={"dac_resolution": 1 + i % 4})
            for i in range(4)
        ]
        batch = [unique[(7 * i) % 8] for i in range(32)]  # 4 of each, interleaved
        frames = _count_op_frames(fleet)
        outcomes = fleet.submit_many(batch)
        owners = {fleet.ring.route(request.content_hash()) for request in unique}
        assert {shard: len(sent) for shard, sent in frames.items()} == {
            shard: 1 for shard in owners
        }
        crossed = [member["hash"] for sent in frames.values()
                   for members in sent for member in members]
        assert sorted(crossed) == sorted(request.content_hash() for request in unique)
        assert fleet.coalesced == len(batch) - len(unique)
        oracle = {request.content_hash(): evaluate_scalar(request) for request in unique}
        for request, future in zip(batch, outcomes):
            assert future.result(timeout=180) == oracle[request.content_hash()]
        # Front-end attachments count as submitted and coalesced.
        health = fleet.health()
        assert health["scheduler"]["submitted"] == len(batch)
        assert health["scheduler"]["coalesced"] >= len(batch) - len(unique)
        assert health["scheduler"]["dispatched_requests"] == len(unique)

    def test_concurrent_callers_share_inflight_ops_without_losing_any(self, fleet):
        """Front-end attachment and the reader threads' settle callbacks
        share the in-flight map: under a short switch interval, every
        request is still counted once and every hash evaluated once."""
        unique = [_request(i) for i in range(4)] + [_request(i, "area") for i in range(2)]
        calls = [[unique[(call + i) % len(unique)] for i in range(12)]
                 for call in range(24)]
        results, errors = {}, []

        def caller(worker):
            try:
                for index in range(worker, len(calls), 6):
                    outcomes = fleet.submit_many(calls[index])
                    results[index] = [future.result(timeout=180) for future in outcomes]
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        oracle = {request.content_hash(): evaluate_scalar(request) for request in unique}
        for index, batch in enumerate(calls):
            assert results[index] == [oracle[r.content_hash()] for r in batch]
        health = fleet.health()
        assert health["scheduler"]["submitted"] == sum(len(batch) for batch in calls)
        assert health["scheduler"]["dispatched_requests"] == len(unique)
        # Settle callbacks run just after a future's waiters wake.
        assert _wait(lambda: not fleet._inflight)

    def test_hints_that_would_loosen_an_inflight_op_do_not_attach(self, fleet):
        plain = _request(5)
        with_deadline = EvaluationRequest.from_dict(plain.to_dict() | {"deadline_ms": 60000})
        frames = _count_op_frames(fleet)
        outcomes = fleet.submit_many([plain, with_deadline, plain])
        [sent] = [members for sent in frames.values() for members in sent]
        assert len(sent) == 2
        assert [member.get("hints", {}) for member in sent] == [{}, {"deadline_ms": 60000.0}]
        assert outcomes[2] is outcomes[0]
        assert outcomes[1] is not outcomes[0]
        assert fleet.coalesced == 1
        expected = evaluate_scalar(plain)
        assert all(future.result(timeout=180) == expected for future in outcomes)

    def test_an_inflight_op_with_a_deadline_takes_no_attachments(self, fleet):
        plain = _request(6)
        with_deadline = EvaluationRequest.from_dict(plain.to_dict() | {"deadline_ms": 60000})
        outcomes = fleet.submit_many([with_deadline, plain])
        assert outcomes[0] is not outcomes[1]
        assert fleet.coalesced == 0
        assert outcomes[1].result(timeout=180) == evaluate_scalar(plain)

    def test_sigkill_with_a_multi_member_frame_in_flight_loses_nothing(
        self, slow_detector_fleet
    ):
        # A long heartbeat timeout: the stopped shard must be found by
        # the SIGKILL's channel EOF, not declared dead before the frame
        # is parked on it.
        fleet = slow_detector_fleet
        supervisor = FleetSupervisor(fleet).start()
        victim_id, victim = fleet.serving_clients()[0]
        requests = [
            EvaluationRequest(
                macro="macro_b", workload="mvm_64x64",
                overrides={"adc_resolution": 4 + i % 4, "dac_resolution": 1 + i // 4},
            )
            for i in range(16)
        ]
        frames = _count_op_frames(fleet)
        os.kill(victim.process.pid, signal.SIGSTOP)  # park the frame on it
        try:
            outcomes = fleet.submit_many(requests)
            [sent] = frames[victim_id]
            assert len(sent) > 1
        finally:
            os.kill(victim.process.pid, signal.SIGKILL)
        for request, future in zip(requests, outcomes):
            assert future.result(timeout=180) == evaluate_scalar(request)
        # Each member was re-dispatched as its own op.
        assert _wait(lambda: supervisor.redispatched_ops >= len(sent), timeout=10.0)
        assert supervisor.failed_redispatches == 0

    def test_store_hits_over_the_frame_limit_reply_in_split_frames(
        self, tmp_path, monkeypatch
    ):
        # Forked workers inherit the limit: every frame either way must
        # fit ~3 results, so a set of 8 hits must come back split.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 3000)
        fleet = ShardFleet(shards=1, settings=ServiceSettings(
            store_dir=str(tmp_path / "store")))
        try:
            requests = [
                EvaluationRequest(macro="macro_b", workload="mvm_64x64",
                                  overrides={"adc_resolution": 4 + i})
                for i in range(8)
            ]
            expected = [future.result(timeout=180)
                        for future in fleet.submit_many(requests)]
            # Settle callbacks run just after a future's waiters wake.
            assert _wait(lambda: not fleet._inflight)
            [(_, client)] = fleet.serving_clients()
            deliver, reply_sets = client._deliver, []

            def counting(message):
                if "replies" in message:
                    reply_sets.append(len(message["replies"]))
                deliver(message)

            client._deliver = counting
            results = [future.result(timeout=60)
                       for future in fleet.submit_many(requests)]
            assert results == expected
            assert len(reply_sets) > 1 and sum(reply_sets) == len(requests)
            assert expected == [evaluate_scalar(request) for request in requests]
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# The hit path: the parent tier answers hits, shards resolve misses
# ----------------------------------------------------------------------
def _http(port, method, path, payload=None):
    """One HTTP call; (status, reply bytes)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=180) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestFleetHits:
    def test_hits_are_answered_by_the_parent_tier_and_never_cross_the_wire(
        self, tmp_path
    ):
        fleet = ShardFleet(shards=2, settings=_settings(tmp_path, store_max_entries=8))
        frontend = serve_sharded(fleet=fleet, port=0, supervise=False).start()
        try:
            evicted = [_request(i, "area") for i in range(4)]
            hot = [
                EvaluationRequest(macro="macro_b", workload="mvm_64x64",
                                  overrides={"adc_resolution": 4 + i % 4,
                                             "dac_resolution": 1 + i // 4})
                for i in range(8)
            ]
            for warm in (evicted, hot):  # hot last: the tier keeps those 8
                status, _ = _http(frontend.port, "POST", "/evaluate/batch",
                                  {"requests": [r.to_dict() for r in warm]})
                assert status == 200
            assert _wait(lambda: not fleet._inflight)
            assert len(fleet.store) == 8 and fleet.store.evictions == 4
            frames = _count_op_frames(fleet)
            _, before = _http(frontend.port, "GET", "/healthz")
            batch = [hot[(5 * i) % 8] for i in range(32)]
            status, body = _http(frontend.port, "POST", "/evaluate/batch",
                                 {"requests": [r.to_dict() for r in batch]})
            assert status == 200
            assert frames == {}  # not one evaluate frame crossed
            oracle = [evaluate_scalar(request) for request in batch]
            assert json.loads(body)["results"] == oracle
            assert body == (json.dumps({"results": oracle}, sort_keys=True)
                            + "\n").encode("utf-8")
            _, after = _http(frontend.port, "GET", "/healthz")
            before, after = json.loads(before), json.loads(after)
            for counter in ("submitted", "store_hits"):
                assert after["scheduler"][counter] - before["scheduler"][counter] == 32
            assert after["frontend"]["store_hits"] == 32
            assert after["frontend_store"]["entries"] <= 8
            assert len(fleet.store) <= 8
        finally:
            fleet.close()
            frontend.shutdown()

    def test_a_bad_config_is_refused_by_its_shard_as_by_one_process(self, fleet):
        """Resolution happens where the miss is evaluated: on a fleet, in
        the shard worker, which answers the single process's 400."""
        frontend = serve_sharded(fleet=fleet, port=0, supervise=False).start()
        try:
            body = {"macro": "macro_b", "workload": "mvm_64x64",
                    "overrides": {"rows": -1}}
            with pytest.raises(ServiceError) as refused:
                EvaluationRequest.from_dict(body).resolve()
            expected = (error_status(refused.value), error_envelope(refused.value))
            assert expected[0] == 400
            frames = _count_op_frames(fleet)
            status, reply = _http(frontend.port, "POST", "/evaluate", body)
            assert (status, json.loads(reply)) == expected
            assert len(frames) == 1  # the shard resolved it, not the parent
            status, reply = _http(frontend.port, "POST", "/evaluate/batch",
                                  {"requests": [body, _request(1).to_dict()]})
            assert status == 200
            results = json.loads(reply)["results"]
            assert results == [expected[1], evaluate_scalar(_request(1))]
        finally:
            frontend.shutdown()


# ----------------------------------------------------------------------
# Drain-vs-crash races
# ----------------------------------------------------------------------
class TestDrainVsCrash:
    def test_worker_dying_mid_drain_still_folds_and_loses_nothing(
        self, supervised
    ):
        fleet, supervisor = supervised
        # Park work on both shards, then start draining one and kill it
        # before the drain's shutdown handshake completes.
        futures = [fleet.submit(_request(i)) for i in range(16)]
        victim_id = fleet.members()[0]
        client = fleet.begin_drain(victim_id)
        os.kill(client.process.pid, signal.SIGKILL)
        record = fleet.finish_drain(victim_id)
        # The crash was folded as a supervised crash, not silent loss.
        assert record["shard"] == victim_id
        assert record["status"] == "crashed"
        for future in futures:
            future.result(timeout=180)  # zero loss
        health = fleet.health()
        assert health["lost"] == []
        assert health["status"] == "ok"

    def test_kill_during_ring_add_leaves_placement_consistent(
        self, supervised
    ):
        fleet, supervisor = supervised
        _, victim = fleet.serving_clients()[0]
        added = {}

        def _add():
            added["id"] = fleet.add_shard()

        adder = threading.Thread(target=_add)
        adder.start()
        os.kill(victim.process.pid, signal.SIGKILL)
        adder.join(timeout=120)
        assert not adder.is_alive()
        assert _wait(lambda: supervisor.detected_failures >= 1, timeout=10.0)
        assert _wait(lambda: len(fleet.members()) == 3, timeout=10.0)
        # Placement is consistent: every member routes to a live client,
        # and requests keep resolving.
        members = set(fleet.members())
        assert added["id"] in members
        with fleet._lock:
            assert set(fleet.clients) == members
        for index in range(8):
            request = _request(index)
            assert fleet.ring.route(request.content_hash()) in members
        result = fleet.submit(_request(2)).result(timeout=180)
        assert result == evaluate_scalar(_request(2))


# ----------------------------------------------------------------------
# Liveness observability
# ----------------------------------------------------------------------
class TestLivenessHealth:
    def test_health_surfaces_liveness_and_supervisor(self, supervised):
        fleet, supervisor = supervised
        clients = dict(fleet.serving_clients())
        assert _wait(lambda: all(
            c.heartbeats_received >= 1 for c in clients.values()
        ), timeout=10.0)
        health = fleet.health()
        assert health["dropped_replies"] == 0
        liveness = health["liveness"]
        assert set(liveness) == set(fleet.members())
        for entry in liveness.values():
            assert entry["state"] in {"live", "suspect"}
            assert entry["last_heartbeat_age_s"] is not None
            assert entry["restarts"] == 0
            assert entry["consecutive_misses"] >= 0
        sup = health["supervisor"]
        assert sup["heartbeat_timeout_s"] == DETECT_TIMEOUT_S
        assert sup["min_quorum"] == 1
        assert sup["degraded"] is None

    def test_crashed_shard_restart_count_appears_in_liveness(self, supervised):
        fleet, supervisor = supervised
        victim_id, victim = fleet.serving_clients()[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        assert _wait(lambda: supervisor.restarts_used >= 1, timeout=10.0)
        assert _wait(lambda: len(fleet.members()) == 2, timeout=10.0)
        liveness = fleet.liveness()
        assert liveness[victim_id]["restarts"] == 1
        assert liveness[victim_id]["state"] in {"live", "restarting", "suspect"}
