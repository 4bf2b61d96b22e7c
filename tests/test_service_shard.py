"""The sharded service: framing, fleet lifecycle, async front end.

Covers the channel protocol units (framing, incremental decode, fault
serialisation), the fleet end to end against the scalar oracle, the
zero-loss drain contract under load, live shard add, and the shared
selectors front end serving the fleet's routes.
"""

import hashlib
import json
import multiprocessing
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.http import error_status
from repro.service.requests import EvaluationRequest
from repro.service.scheduler import evaluate_scalar
from repro.service.shard import (
    READY_ID,
    FrameDecoder,
    ProtocolError,
    RemoteFault,
    ShardClient,
    ShardFleet,
    encode_frame,
    serve_sharded,
)
from repro.service.shard.protocol import HEADER, fault_message, remote_fault
from repro.service.shard.worker import _worker_main


def _request(index=0, objective="energy"):
    return EvaluationRequest(
        macro="macro_b",
        workload="mvm_64x64",
        objective=objective,
        overrides={"adc_resolution": 4 + index % 4},
    )


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_single_frame(self):
        message = {"id": 7, "op": "evaluate",
                   "members": [{"id": 7, "hash": "h", "request": "{}"}]}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_incremental_feed_byte_by_byte(self):
        message = {"id": 1, "ok": True, "result": {"value": 2}}
        blob = encode_frame(message)
        decoder = FrameDecoder()
        seen = []
        for offset in range(len(blob)):
            seen.extend(decoder.feed(blob[offset:offset + 1]))
        assert seen == [message]

    def test_many_frames_in_one_feed(self):
        messages = [{"id": i} for i in range(5)]
        blob = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(blob) == messages

    def test_oversized_length_prefix_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_invalid_json_raises(self):
        blob = b"\x00\x00\x00\x03abc"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(blob)

    def test_fault_roundtrip_preserves_type_and_backpressure(self):
        class QueueFullError(Exception):
            retry_after_s = 1.5

        message = fault_message(3, QueueFullError("queue is full"))
        rebuilt = remote_fault(message["error"])
        assert isinstance(rebuilt, RemoteFault)
        assert rebuilt.remote_type == "QueueFullError"
        assert rebuilt.retry_after_s == 1.5
        assert error_status(rebuilt) == 429

    def test_unknown_fault_type_maps_to_500(self):
        assert error_status(remote_fault({"type": "WeirdError", "message": "?"})) == 500


# ----------------------------------------------------------------------
# Channel integrity: undeliverable frames and hash echoes
# ----------------------------------------------------------------------
class _NoProcess:
    """The process slot of a client whose worker end the test drives."""

    pid = None

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


class _FakeWorker:
    """The worker end of a socketpair, driven by the test."""

    def __init__(self, on_closed=None):
        self.sock, parent = socket.socketpair()
        self.sock.settimeout(10)
        self.decoder = FrameDecoder()
        self.client = ShardClient("fake", parent, _NoProcess(), on_closed=on_closed)
        self.sock.sendall(encode_frame({"id": READY_ID, "ok": True, "ready": "fake"}))
        self.client.start(timeout=10)

    def receive(self):
        """The next frame the client sent."""
        while True:
            messages = self.decoder.feed(self.sock.recv(1 << 16))
            if messages:
                [message] = messages
                return message

    def send_raw(self, body: bytes):
        self.sock.sendall(HEADER.pack(len(body)) + body)

    def close(self):
        self.sock.close()
        self.client.close()


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


_UNDELIVERABLE = [
    b"[1,2]",                                   # parses, is not an object
    b'{"id":"7","ok":true,"result":{}}',        # an object whose id is no integer
    b'{"id":3,"replies":[[1,2]]}',              # a reply set holding a non-object
]


class TestChannelIntegrity:
    @pytest.mark.parametrize("body", _UNDELIVERABLE)
    def test_undeliverable_frame_is_a_channel_death_on_the_parent(self, body):
        closed = []
        worker = _FakeWorker(on_closed=closed.append)
        try:
            future = worker.client.send_op("healthz")
            assert worker.receive()["op"] == "healthz"
            worker.send_raw(body)
            # The reader died *as a channel death*: marked dead, counted,
            # and handed to the close hook that recovers pending work.
            assert _until(lambda: closed == [worker.client])
            assert not worker.client.alive
            assert worker.client.protocol_errors == 1
            assert worker.client.outstanding() == 1  # left for recovery
            assert not future.done()
        finally:
            worker.close()

    def test_unsupervised_reader_death_fails_pending_futures(self):
        worker = _FakeWorker()
        try:
            future = worker.client.send_op("healthz")
            worker.receive()
            worker.send_raw(b"[1,2]")
            with pytest.raises(RemoteFault) as excinfo:
                future.result(timeout=5)
            assert excinfo.value.remote_type == "ShutdownError"
        finally:
            worker.close()

    @pytest.mark.parametrize("batched", [False, True])
    def test_swapped_hash_echo_fails_the_op_never_resolves_it(self, batched):
        worker = _FakeWorker()
        try:
            routed, other = _request(0), _request(1)
            future = worker.client.send_op(
                "evaluate", request_hash=routed.content_hash(),
                hash=routed.content_hash(), request=routed.canonical_json(),
            )
            correlation = worker.receive()["members"][0]["id"]
            reply = {"id": correlation, "ok": True,
                     "result": {"request_hash": other.content_hash(), "summary": {}}}
            worker.sock.sendall(encode_frame(
                {"id": correlation, "replies": [reply]} if batched else reply
            ))
            with pytest.raises(ProtocolError) as excinfo:
                future.result(timeout=5)
            assert error_status(excinfo.value) == 500
            assert worker.client.protocol_errors == 1
            assert worker.client.alive  # the channel itself is fine
            # A matching echo on the same channel still resolves.
            future = worker.client.send_op(
                "evaluate", request_hash=other.content_hash(),
                hash=other.content_hash(), request=other.canonical_json(),
            )
            correlation = worker.receive()["members"][0]["id"]
            worker.sock.sendall(encode_frame(dict(reply, id=correlation)))
            assert future.result(timeout=5) == reply["result"]
        finally:
            worker.close()

    def test_worker_gives_undeliverable_frames_the_same_typed_handling(self, tmp_path):
        parent, child = socket.socketpair()
        process = multiprocessing.Process(
            target=_worker_main, args=(child, "shard-t", {"store_dir": str(tmp_path)}),
            daemon=True,
        )
        process.start()
        child.close()
        parent.settimeout(60)
        decoder = FrameDecoder()

        def receive(correlation):
            while True:
                for message in decoder.feed(parent.recv(1 << 16)):
                    if message["id"] == correlation:
                        return message

        try:
            assert receive(READY_ID)["ready"] == "shard-t"
            # An object frame with a bad member list: a typed fault reply,
            # and the worker keeps serving.
            parent.sendall(encode_frame({"id": 3, "op": "evaluate", "members": 5}))
            reply = receive(3)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
            # A frame that is not an object: counted, and the worker exits
            # cleanly (EOF to the parent) instead of with a traceback.
            parent.sendall(HEADER.pack(5) + b"[1,2]")
            process.join(timeout=60)
            assert process.exitcode == 0
        finally:
            parent.close()
            if process.is_alive():
                process.kill()
                process.join(timeout=10)


# ----------------------------------------------------------------------
# Fleet end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = ShardFleet(
        shards=2, store_dir=str(tmp_path_factory.mktemp("shared-store"))
    )
    yield fleet
    fleet.close()


class TestShardFleet:
    def test_results_match_the_scalar_oracle(self, fleet):
        requests = [_request(0), _request(1), _request(0, objective="area")]
        futures = [fleet.submit(request) for request in requests]
        for request, future in zip(requests, futures):
            assert future.result(timeout=180) == evaluate_scalar(request)

    def test_duplicate_hashes_route_to_one_shard_and_dedup(self, fleet):
        request = _request(2)
        futures = [fleet.submit(request) for _ in range(6)]
        results = [future.result(timeout=180) for future in futures]
        assert all(result == results[0] for result in results)
        health = fleet.health()
        # 6 submissions of one hash cost at most one dispatch fleet-wide.
        assert health["scheduler"]["submitted"] >= 6

    def test_result_lookup_serves_the_stored_hash(self, fleet):
        request = _request(3)
        expected = fleet.submit(request).result(timeout=180)
        found = fleet.result_lookup(request.content_hash()).result(timeout=30)
        assert found == expected

    def test_result_lookup_misses_cleanly(self, fleet):
        assert fleet.result_lookup("0" * 64).result(timeout=30) is None

    def test_payload_not_hashing_to_its_routed_hash_is_a_typed_fault(self, fleet):
        client = fleet.client_for(fleet.members()[0])
        canonical = _request(0).canonical_json()
        routed = _request(1).content_hash()  # a hash the payload is not
        future = client.send_op("evaluate", request_hash=routed,
                                hash=routed, request=canonical)
        with pytest.raises(RemoteFault) as excinfo:
            future.result(timeout=30)
        assert excinfo.value.remote_type == "ProtocolError"
        assert error_status(excinfo.value) == 500

    def test_worker_side_validation_fault_crosses_the_channel(self, fleet):
        # Hashes correctly, but no build of this service accepts it.
        canonical = json.dumps({"macro": "macro_b", "objective": "nope"},
                               sort_keys=True, separators=(",", ":"))
        routed = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        client = fleet.client_for(fleet.members()[0])
        future = client.send_op("evaluate", request_hash=routed,
                                hash=routed, request=canonical)
        with pytest.raises(RemoteFault) as excinfo:
            future.result(timeout=30)
        assert excinfo.value.remote_type == "ServiceError"
        assert error_status(excinfo.value) == 400

    def test_unknown_op_is_a_service_error(self, fleet):
        client = fleet.client_for(fleet.members()[0])
        with pytest.raises(RemoteFault) as excinfo:
            client.send_op("frobnicate").result(timeout=30)
        assert excinfo.value.remote_type == "ServiceError"

    def test_health_merges_counters_and_membership(self, fleet):
        health = fleet.health()
        assert health["status"] == "ok"
        assert health["members"] == fleet.members()
        assert set(health["shards"]) == set(fleet.members())
        per_shard = sum(
            payload["scheduler"]["submitted"]
            for payload in health["shards"].values()
        )
        assert health["scheduler"]["submitted"] >= per_shard


class TestDrainAndAdd:
    def test_drain_under_load_loses_zero_requests(self, tmp_path):
        fleet = ShardFleet(shards=2, store_dir=str(tmp_path))
        try:
            requests = [_request(index) for index in range(4)] * 4
            futures = [fleet.submit(request) for request in requests]
            # Drain a shard while its work is still in flight.
            victim = fleet.members()[0]
            fleet.begin_drain(victim)
            final = fleet.finish_drain(victim)
            assert final["status"] == "drained"
            results = [future.result(timeout=180) for future in futures]
            for request, result in zip(requests, results):
                assert result["request_hash"] == request.content_hash()
            health = fleet.health()
            assert health["members"] == [m for m in ("shard-0", "shard-1")
                                         if m != victim]
            assert health["retired_shards"] == 1
            assert health["lost"] == []
            # The drained shard's lifetime counters stayed in the merge.
            assert health["scheduler"]["submitted"] == len(requests)
        finally:
            fleet.close()

    def test_drained_shards_disk_entries_survive_via_shared_tier(self, tmp_path):
        fleet = ShardFleet(shards=2, store_dir=str(tmp_path))
        try:
            request = _request(1)
            expected = fleet.submit(request).result(timeout=180)
            owner = fleet.ring.route(request.content_hash())
            fleet.drain_shard(owner)
            # The hash now routes to the surviving shard, whose store
            # reads the same directory the drained worker wrote.
            found = fleet.result_lookup(request.content_hash()).result(timeout=30)
            assert found == expected
        finally:
            fleet.close()

    def test_live_add_joins_the_ring_after_ready(self, tmp_path):
        fleet = ShardFleet(shards=1, store_dir=str(tmp_path))
        try:
            before = fleet.members()
            added = fleet.add_shard()
            assert fleet.members() == sorted(before + [added])
            result = fleet.submit(_request(2)).result(timeout=180)
            assert result["request_hash"] == _request(2).content_hash()
        finally:
            fleet.close()

    def test_draining_an_unknown_shard_raises(self, tmp_path):
        fleet = ShardFleet(shards=1, store_dir=str(tmp_path))
        try:
            with pytest.raises(ValueError):
                fleet.begin_drain("shard-99")
        finally:
            fleet.close()


class TestWorkerStore:
    """A worker given the fleet's store directory builds its store like
    ``ResultStore.from_env``: only the directory comes from the fleet,
    every ``REPRO_RESULT_STORE_*`` bound from the environment."""

    @pytest.mark.parametrize("disk_bound", [
        "REPRO_RESULT_STORE_DISK_MAX_ENTRIES",
        "REPRO_RESULT_STORE_DISK_MAX_BYTES",
    ])
    def test_store_dir_keeps_the_env_bounds(self, tmp_path, monkeypatch, disk_bound):
        monkeypatch.setenv("REPRO_RESULT_STORE_MAX_ENTRIES", "7")
        monkeypatch.setenv(disk_bound, "1")
        fleet = ShardFleet(shards=1, store_dir=str(tmp_path))
        try:
            for index in range(2):
                fleet.submit(_request(index)).result(timeout=180)
            store = fleet.health()["shards"]["shard-0"]["store"]
        finally:
            fleet.close()
        assert store["max_entries"] == 7
        assert store["disk_directory"] == str(tmp_path)
        # Either disk bound at 1 keeps only the newest entry.
        assert len(list(tmp_path.glob("result-*.json"))) == 1
        assert store["disk_evictions"] == 1


# ----------------------------------------------------------------------
# Async front end over real HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def frontend(fleet):
    frontend = serve_sharded(fleet=fleet, port=0, supervise=False).start()
    yield frontend
    frontend.shutdown()


def _call(frontend, method, path, payload=None, timeout=180):
    request = urllib.request.Request(
        f"http://127.0.0.1:{frontend.port}{path}",
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestAsyncFrontend:
    def test_evaluate_matches_the_oracle(self, frontend):
        request = _request(0)
        status, body = _call(frontend, "POST", "/evaluate", request.to_dict())
        assert status == 200
        assert body == evaluate_scalar(request)

    def test_batch_mixes_results_and_inline_envelopes(self, frontend):
        status, body = _call(frontend, "POST", "/evaluate/batch", {
            "requests": [
                _request(1).to_dict(),
                {"macro": "macro_b", "objective": "nope"},
            ],
        })
        assert status == 200
        first, second = body["results"]
        assert first["request_hash"] == _request(1).content_hash()
        assert second["error"]["type"] == "ServiceError"

    def test_batch_crosses_as_one_frame_per_owning_shard(self, frontend, fleet):
        # Hashes this module's fleet has never answered: a stored one
        # stops at the front end (test_service_fleet.py::TestFleetHits).
        unique = [
            EvaluationRequest(macro="macro_b", workload="mvm_64x64",
                              overrides={"adc_resolution": 4 + index, "dac_resolution": 3})
            for index in range(4)
        ]
        assert _until(lambda: not fleet._inflight)  # earlier tests' ops settled
        frames = {}
        for shard_id, client in fleet.serving_clients():
            def hook(blob, shard_id=shard_id):
                message = FrameDecoder().feed(blob)[0]
                if message.get("op") == "evaluate":
                    frames.setdefault(shard_id, []).append(
                        [member["hash"] for member in message["members"]]
                    )
                return blob

            client.corrupt_hook = hook
        try:
            status, body = _call(frontend, "POST", "/evaluate/batch", {
                "requests": [request.to_dict() for request in unique * 3],
            })
        finally:
            for _, client in fleet.serving_clients():
                client.corrupt_hook = None
        assert status == 200
        assert body["results"] == [evaluate_scalar(request) for request in unique * 3]
        owners = {fleet.ring.route(request.content_hash()) for request in unique}
        assert {shard: len(sent) for shard, sent in frames.items()} == dict.fromkeys(owners, 1)
        assert sorted(h for sent in frames.values() for hashes in sent for h in hashes) == sorted(
            request.content_hash() for request in unique
        )

    def test_validation_errors_are_http_400(self, frontend):
        status, body = _call(frontend, "POST", "/evaluate", {"macro": "macro_b",
                                                            "objective": "nope"})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"

    def test_malformed_json_is_http_400(self, frontend):
        request = urllib.request.Request(
            f"http://127.0.0.1:{frontend.port}/evaluate",
            data=b"{ not json", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_result_roundtrip_and_missing_hash(self, frontend):
        request = _request(0)
        _call(frontend, "POST", "/evaluate", request.to_dict())
        status, body = _call(
            frontend, "GET", f"/result/{request.content_hash()}"
        )
        assert status == 200 and body["request_hash"] == request.content_hash()
        status, _ = _call(frontend, "GET", "/result/" + "f" * 64)
        assert status == 404
        status, _ = _call(frontend, "GET", "/result/not-a-hash")
        assert status == 404

    def test_fleet_healthz_includes_frontend_counters(self, frontend):
        status, health = _call(frontend, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["frontend"]["requests_served"] >= 1
        assert set(health["shards"]) == set(health["members"])

    def test_per_shard_healthz_passthrough(self, frontend, fleet):
        shard_id = fleet.members()[0]
        status, payload = _call(frontend, "GET", f"/shards/{shard_id}/healthz")
        assert status == 200
        assert payload["shard"] == shard_id
        status, _ = _call(frontend, "GET", "/shards/shard-99/healthz")
        assert status == 404

    def test_unknown_route_and_method(self, frontend):
        status, _ = _call(frontend, "GET", "/nope")
        assert status == 404
        status, _ = _call(frontend, "PUT", "/evaluate", {})
        assert status == 405

    def test_keep_alive_serves_many_requests_on_one_connection(self, frontend):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", frontend.port, timeout=180
        )
        try:
            payload = json.dumps(_request(3).to_dict())
            for _ in range(3):
                connection.request("POST", "/evaluate", body=payload,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert body["request_hash"] == _request(3).content_hash()
        finally:
            connection.close()

    def test_many_concurrent_connections(self, frontend):
        """Dozens of sockets at once on the single selectors thread."""
        request = _request(0)
        errors = []

        def _one():
            try:
                status, body = _call(frontend, "POST", "/evaluate",
                                     request.to_dict())
                assert status == 200
                assert body["request_hash"] == request.content_hash()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=_one) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert errors == []

    def test_http_drain_and_add_cycle(self, tmp_path):
        fleet = ShardFleet(shards=2, store_dir=str(tmp_path))
        frontend = serve_sharded(fleet=fleet, port=0, supervise=False).start()
        try:
            victim = fleet.members()[0]
            status, body = _call(frontend, "POST", f"/shards/{victim}/drain")
            assert status == 202
            assert victim not in body["members"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status, health = _call(frontend, "GET", "/healthz")
                if health["retired_shards"] == 1:
                    break
                time.sleep(0.05)
            assert health["retired_shards"] == 1
            status, added = _call(frontend, "POST", "/shards")
            assert status == 200
            assert len(added["members"]) == 2
            status, _ = _call(frontend, "POST", "/shards/shard-99/drain")
            assert status == 404
        finally:
            frontend.shutdown()
            fleet.close()
