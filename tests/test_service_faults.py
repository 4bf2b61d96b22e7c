"""Tests for the service's fault handling (repro.service.faults).

Covers hash invariance of the ``deadline_ms`` execution hint, scheduler
failure isolation (a poisoned request fails alone, its family's healthy
members complete bitwise-identically to a clean run), the single
dispatch attempt and the scalar-oracle rescue, that failed families
never shut out later valid requests, deadlines, bounded-queue admission
control, shutdown semantics of :meth:`EvaluationScheduler.close`,
corruption quarantine in the result store and disk energy cache, the
deterministic chaos injector, and the HTTP front end's fault-to-status
mapping (400/429/503/504/500 + ``Retry-After``), identical from a single
process and from a fleet.
"""

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

from repro.service import (
    ChaosConfig,
    ChaosInjector,
    DeadlineExceeded,
    EvaluationRequest,
    EvaluationScheduler,
    QueueFullError,
    ResultStore,
    ServiceError,
    ShutdownError,
)
from repro.service.faults import FleetDegradedError
from repro.service.settings import ServiceSettings
from repro.service.shard import (
    FrameDecoder,
    RingEmptyError,
    ShardFleet,
    encode_frame,
    serve_sharded,
)
from repro.service.shard.protocol import fault_message, remote_fault


def _request(**kwargs):
    defaults = dict(macro="base_macro", workload="mvm_32x32", objective="energy")
    defaults.update(kwargs)
    return EvaluationRequest(**defaults)


# ----------------------------------------------------------------------
# Execution hints are hash-invariant
# ----------------------------------------------------------------------
class TestExecutionHints:
    def test_deadline_does_not_change_the_hash(self):
        plain = _request()
        hinted = _request(deadline_ms=250.0)
        assert plain.content_hash() == hinted.content_hash()
        assert plain.canonical_json() == hinted.canonical_json()
        assert "deadline_ms" not in hinted.to_dict()

    def test_hints_round_trip_from_dict(self):
        request = EvaluationRequest.from_dict({"workload": "mvm_32x32", "deadline_ms": 100})
        assert request.deadline_ms == 100.0

    def test_hint_validation(self):
        with pytest.raises(ServiceError):
            _request(deadline_ms=0)
        with pytest.raises(ServiceError):
            _request(deadline_ms=-5)


# ----------------------------------------------------------------------
# Failure isolation: one poisoned request fails alone
# ----------------------------------------------------------------------
class TestFailureIsolation:
    ADC_VALUES = (4, 5, 6, 7)
    POISON_ADC = 6

    def _family(self):
        return [
            _request(overrides={"adc_resolution": adc}) for adc in self.ADC_VALUES
        ]

    def test_poisoned_request_fails_alone_healthy_results_bitwise_identical(self):
        # Reference: the same family through an unpoisoned scheduler.
        clean = EvaluationScheduler()
        clean_results = {
            result["request_hash"]: result
            for result in clean.evaluate_batch(self._family())
        }

        scheduler = EvaluationScheduler()
        real_run_grid = scheduler.runner.run_grid

        def poisoned_run_grid(configs, network, **kwargs):
            if any(c.adc_resolution == self.POISON_ADC for c in configs):
                raise RuntimeError("poisoned request")
            return real_run_grid(configs, network, **kwargs)

        scheduler.runner.run_grid = poisoned_run_grid

        def broken_oracle(request):
            raise RuntimeError("oracle poisoned too")

        scheduler.scalar_fallback = broken_oracle

        requests = self._family()
        futures = [scheduler.submit(request) for request in requests]
        scheduler.run_pending()

        poisoned_index = self.ADC_VALUES.index(self.POISON_ADC)
        for index, (request, future) in enumerate(zip(requests, futures)):
            if index == poisoned_index:
                with pytest.raises(RuntimeError, match="poisoned request"):
                    future.result()
            else:
                # Healthy members complete — and their payloads are
                # *bitwise-identical* to the clean-family run, because
                # isolation re-dispatches them through the same batched
                # machinery, not the scalar oracle.
                assert future.result() == clean_results[request.content_hash()]
        assert scheduler.stats.errors == 1
        assert scheduler.stats.fallbacks == len(requests)
        assert scheduler.stats.scalar_fallbacks == 1  # attempted, failed

    def test_duplicate_waiters_receive_the_same_exception(self):
        scheduler = EvaluationScheduler()

        def explode(family):
            raise RuntimeError("family is broken")

        scheduler._dispatch_family = explode
        scheduler.scalar_fallback = lambda request: (_ for _ in ()).throw(
            RuntimeError("oracle broken")
        )
        request = _request(overrides={"adc_resolution": 5})
        first = scheduler.submit(request)
        second = scheduler.submit(request)  # coalesces onto the same slot
        assert scheduler.stats.coalesced == 1
        scheduler.run_pending()
        with pytest.raises(RuntimeError, match="family is broken"):
            first.result()
        with pytest.raises(RuntimeError, match="family is broken"):
            second.result()
        assert first.exception() is second.exception()
        # One slot failed -> one error, regardless of waiter count.
        assert scheduler.stats.errors == 1


# ----------------------------------------------------------------------
# One dispatch attempt, then the scalar-oracle rescue
# ----------------------------------------------------------------------
class TestRetriesAndRescue:
    def test_permanent_failure_is_not_retried_but_oracle_rescues(self):
        scheduler = EvaluationScheduler()
        calls = {"run_grid": 0}

        def broken_run_grid(configs, network, **kwargs):
            calls["run_grid"] += 1
            raise RuntimeError("batched engine down")

        scheduler.runner.run_grid = broken_run_grid
        result = scheduler.evaluate(_request())
        # A single dispatch attempt, then the oracle.
        assert calls["run_grid"] == 1
        assert scheduler.stats.scalar_fallbacks == 1
        assert scheduler.stats.errors == 0
        reference = EvaluationScheduler().evaluate(_request())
        assert result["summary"]["total_energy_j"] == pytest.approx(
            reference["summary"]["total_energy_j"], rel=1e-9
        )


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_fails_fast_with_deadline_exceeded(self):
        scheduler = EvaluationScheduler()
        future = scheduler.submit(_request(deadline_ms=1.0))
        time.sleep(0.01)
        scheduler.run_pending()
        with pytest.raises(DeadlineExceeded):
            future.result()
        assert scheduler.stats.deadline_expired == 1
        assert scheduler.stats.dispatched_requests == 0

    def test_generous_deadline_completes_normally(self):
        scheduler = EvaluationScheduler()
        result = scheduler.evaluate(_request(deadline_ms=60_000))
        assert result["summary"]["total_energy_j"] > 0
        assert scheduler.stats.deadline_expired == 0


# ----------------------------------------------------------------------
# Admission control (bounded pending queue)
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_queue_full_sheds_new_requests_but_not_duplicates(self):
        scheduler = EvaluationScheduler(settings=ServiceSettings(max_pending=2))
        first = _request(overrides={"adc_resolution": 4})
        futures = [
            scheduler.submit(first),
            scheduler.submit(_request(overrides={"adc_resolution": 5})),
        ]
        with pytest.raises(QueueFullError) as excinfo:
            scheduler.submit(_request(overrides={"adc_resolution": 6}))
        assert excinfo.value.retry_after_s > 0
        assert scheduler.stats.queue_sheds == 1
        # Duplicates coalesce (no new slot), so they are never shed.
        duplicate = scheduler.submit(first)
        assert scheduler.stats.coalesced == 1
        scheduler.run_pending()
        assert all(f.result()["summary"]["total_energy_j"] > 0 for f in futures)
        assert duplicate.result() == futures[0].result()
        # Once drained (and stored), the shed request is accepted — and
        # store hits bypass the bound entirely.
        assert scheduler.submit(first).result() == futures[0].result()


# ----------------------------------------------------------------------
# Failed families never shut out a later valid request
# ----------------------------------------------------------------------
class TestFamilyFailures:
    def test_failed_dispatches_never_refuse_a_later_valid_request(self):
        """Evaluation is deterministic, so a family whose every member
        failed says nothing about the next request of that family: it is
        dispatched like any other, once."""
        scheduler = EvaluationScheduler()
        calls = {"dispatch": 0}
        real_dispatch, real_oracle = scheduler._dispatch_family, scheduler.scalar_fallback

        def broken_dispatch(family):
            calls["dispatch"] += 1
            raise RuntimeError("family engine down")

        scheduler._dispatch_family = broken_dispatch
        scheduler.scalar_fallback = lambda request: (_ for _ in ()).throw(
            RuntimeError("oracle down too")
        )
        failing = (3, 4, 5, 6, 7, 8)
        for adc in failing:
            with pytest.raises(RuntimeError, match="family engine down"):
                scheduler.evaluate(_request(overrides={"adc_resolution": adc}))
        assert calls["dispatch"] == len(failing)  # one attempt each
        assert scheduler.stats.errors == len(failing)

        scheduler._dispatch_family = real_dispatch
        scheduler.scalar_fallback = real_oracle
        valid = _request(overrides={"adc_resolution": 2})
        assert scheduler.evaluate(valid) == EvaluationScheduler().evaluate(valid)
        assert scheduler.stats.errors == len(failing)
        assert scheduler.stats.scalar_fallbacks == len(failing)


# ----------------------------------------------------------------------
# Shutdown semantics
# ----------------------------------------------------------------------
class TestClose:
    def test_close_fails_stranded_futures_instead_of_hanging(self):
        scheduler = EvaluationScheduler()  # no dispatcher thread
        futures = [
            scheduler.submit(_request(overrides={"adc_resolution": adc}))
            for adc in (4, 5)
        ]
        scheduler.close()
        for future in futures:
            assert future.done()
            with pytest.raises(ShutdownError):
                future.result()
        with pytest.raises(ShutdownError):
            scheduler.submit(_request())
        assert scheduler.stats.errors == 2

    def test_close_drains_the_background_dispatcher_first(self):
        scheduler = EvaluationScheduler(coalesce_window_s=0.001).start()
        future = scheduler.submit(_request(overrides={"adc_resolution": 7}))
        scheduler.close()
        # The dispatcher's final tick served the queued request.
        assert future.result(timeout=1)["summary"]["total_energy_j"] > 0
        with pytest.raises(ShutdownError):
            scheduler.submit(_request())

    def test_close_is_idempotent(self):
        scheduler = EvaluationScheduler()
        scheduler.close()
        scheduler.close()


# ----------------------------------------------------------------------
# Corruption quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_result_store_quarantines_corrupt_disk_entries(self, tmp_path):
        writer = ResultStore(directory=tmp_path)
        writer.put("a" * 64, {"objective": "energy", "value": 1.0})
        path = writer.path_for("a" * 64)
        path.write_text("{definitely not json")

        reader = ResultStore(directory=tmp_path)
        assert reader.get("a" * 64) is None
        assert reader.corrupt_entries == 1
        assert reader.stats()["corrupt_entries"] == 1
        assert not path.exists()
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        assert quarantined.exists()
        # The second miss is clean: no re-parse, counters stay put.
        failures = reader.load_failures
        assert reader.get("a" * 64) is None
        assert reader.load_failures == failures
        # A fresh put re-creates the entry alongside the quarantined one.
        reader.put("a" * 64, {"objective": "energy", "value": 2.0})
        fresh = ResultStore(directory=tmp_path)
        assert fresh.get("a" * 64) == {"objective": "energy", "value": 2.0}


# ----------------------------------------------------------------------
# Chaos injection
# ----------------------------------------------------------------------
class _ForgetfulStore:
    """The two store methods the corruption site calls, recorded."""

    def __init__(self):
        self.forgotten = []

    def forget(self, request_hash):
        self.forgotten.append(request_hash)

    def path_for(self, request_hash):
        return None


class TestChaos:
    def test_injector_is_deterministic_under_a_seed(self):
        """Each site draws from its own stream — ``Random(seed)`` for the
        store, ``Random(seed ^ 0xF1EE7)`` for the fleet fabric — so the
        same seed injects the same faults, whatever the other site did."""
        import random

        config = ChaosConfig(seed=42, corrupt_entry=0.3, frame_corrupt=0.3)
        hashes = [f"{index:064x}" for index in range(60)]
        frame = b"\x00\x00\x00\x02{}"

        def store_stream(injector):
            store = _ForgetfulStore()
            for request_hash in hashes:
                injector.after_store(store, request_hash)
            return store.forgotten

        def frame_stream(injector):
            return [injector._corrupt_frame(frame) != frame for _ in hashes]

        first, second = ChaosInjector(config), ChaosInjector(config)
        corrupted, frames = store_stream(first), frame_stream(first)
        # The second injector draws its sites in the opposite order.
        assert frames == frame_stream(second) and corrupted == store_stream(second)
        store_rng, fleet_rng = random.Random(42), random.Random(42 ^ 0xF1EE7)
        assert corrupted == [h for h in hashes if store_rng.random() < 0.3]
        assert frames == [fleet_rng.random() < 0.3 for _ in hashes]
        assert 0 < len(corrupted) < len(hashes) and any(frames) and not all(frames)
        assert first.stats() == {
            "injected_corruptions": len(corrupted),
            "injected_shard_kills": 0,
            "injected_frame_corruptions": sum(frames),
            "scheduled_kills_remaining": 0,
        }

    def test_kills_are_scheduled_mid_trace(self):
        injector = ChaosInjector(ChaosConfig(kills=3), trace_len=400)
        assert injector.kill_at == {100, 200, 300}
        assert ChaosInjector(ChaosConfig(kills=3)).kill_at == set()

    def test_from_env_requires_the_flag(self, monkeypatch, capsys):
        """Ambient chaos arms a scheduler only with ``REPRO_CHAOS`` on;
        off, its seed and rate are not even read."""
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        monkeypatch.setenv("REPRO_CHAOS_SEED", "seven")
        monkeypatch.delenv("REPRO_CHAOS_CORRUPT_ENTRY", raising=False)
        assert ServiceSettings.from_env().chaos is None
        assert EvaluationScheduler().chaos is None
        assert "warning" not in capsys.readouterr().err
        monkeypatch.delenv("REPRO_CHAOS_SEED")
        monkeypatch.setenv("REPRO_CHAOS", "1")
        assert EvaluationScheduler().chaos.config == ChaosConfig(
            corrupt_entry=ChaosConfig.preset().corrupt_entry
        )
        monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
        monkeypatch.setenv("REPRO_CHAOS_CORRUPT_ENTRY", "0.5")
        injector = EvaluationScheduler().chaos
        assert injector.config == ChaosConfig(seed=7, corrupt_entry=0.5)

    def test_corrupt_entry_injection_exercises_quarantine_and_recompute(
        self, tmp_path
    ):
        store = ResultStore(directory=tmp_path)
        chaos = ChaosConfig(seed=0, corrupt_entry=1.0)
        scheduler = EvaluationScheduler(store=store, chaos=chaos)
        request = _request(overrides={"adc_resolution": 5})
        first = scheduler.evaluate(request)
        # The injector dropped the memory entry and corrupted the disk
        # file, so the duplicate walks the quarantine-and-recompute path.
        second = scheduler.evaluate(request)
        assert first == second
        assert scheduler.chaos.injected_corruptions >= 1
        assert store.corrupt_entries >= 1
        assert scheduler.stats.store_hits == 0
        assert scheduler.stats.dispatched_requests == 2

    def test_chaos_replay_returns_correct_results(self, tmp_path):
        from repro.service.replay import generate_trace, replay_coalesced

        trace = generate_trace(num_requests=40, duplicate_fraction=0.5,
                               families=2, seed=3)
        clean_results, _, _, _ = replay_coalesced(trace, window=16)
        chaos = ChaosInjector(ChaosConfig(seed=1, corrupt_entry=0.3))
        store = ResultStore(directory=tmp_path)
        chaos_results, _, scheduler, _ = replay_coalesced(
            trace, window=16, store=store, chaos=chaos,
        )
        assert chaos_results == clean_results
        assert scheduler.stats.errors == 0
        assert chaos.stats()["injected_corruptions"] > 0
        assert store.corrupt_entries > 0


# ----------------------------------------------------------------------
# HTTP fault mapping, for both deployments
# ----------------------------------------------------------------------
#: (fault, status, Retry-After header) — one answer per failure, whether
#: a single process or a fleet serves it.
FAULT_ANSWERS = [
    (QueueFullError("queue full", retry_after_s=3.0), 429, "3"),
    (FleetDegradedError("below quorum", retry_after_s=5.0), 503, "5"),
    (ShutdownError("scheduler is shut down"), 503, None),
    (RingEmptyError("no shard is serving"), 503, None),
    (DeadlineExceeded("missed deadline"), 504, None),
    (ServiceError("unknown macro"), 400, None),
    (RuntimeError("evaluation blew up"), 500, None),
]

FAILURE_COUNTERS = ("errors", "fallbacks", "scalar_fallbacks", "deadline_expired",
                    "queue_sheds")


def _refuse(error):
    """A scheduler refuses at submission: the fault is raised."""
    raise error


def _from_shard(error):
    """A shard reports the fault over its channel: serialised by type
    name, framed, decoded and rebuilt on the parent side."""
    [message] = FrameDecoder().feed(encode_frame(fault_message(1, error)))
    future = Future()
    future.set_exception(remote_fault(message["error"]))
    return future


class _Served:
    """A running front end whose backend's submits can be made to fail
    the way that backend delivers faults."""

    def __init__(self, frontend, deliver):
        self.frontend = frontend
        self.backend = frontend.handler.backend
        self._deliver = deliver

    def fail_submits(self, error, nth=None):
        """Fail every submitted request with ``error``, or only the
        ``nth`` distinct one (1-based), whether it arrives through
        ``submit`` or ``submit_many``: each backend implements one of the
        two through the other, so a request is counted once, by identity.
        """
        submit, submit_many, seen = self.backend.submit, self.backend.submit_many, []

        def refused(request):
            if not any(request is earlier for earlier in seen):
                seen.append(request)
            return nth is None or (len(seen) >= nth and seen[nth - 1] is request)

        def failing(request):
            return self._deliver(error) if refused(request) else submit(request)

        def failing_many(requests):
            outcomes = []
            for request in requests:
                if not refused(request):
                    outcomes.extend(submit_many([request]))
                    continue
                try:
                    outcomes.append(self._deliver(error))
                except Exception as refusal:  # noqa: BLE001 - per member
                    outcomes.append(refusal)
            return outcomes

        self.backend.submit = failing
        self.backend.submit_many = failing_many

    def restore(self):
        vars(self.backend).pop("submit", None)
        vars(self.backend).pop("submit_many", None)


class TestHTTPFaultMapping:
    """Faults of the single-process service (an in-process scheduler)."""

    @pytest.fixture()
    def served(self):
        from repro.service.http import serve

        scheduler = EvaluationScheduler(coalesce_window_s=0.001)
        frontend = serve("127.0.0.1", 0, scheduler=scheduler).start()
        yield _Served(frontend, _refuse)
        scheduler.close()
        frontend.shutdown()

    def _post(self, served, path, payload):
        request = urllib.request.Request(
            f"http://127.0.0.1:{served.frontend.port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, dict(response.headers), \
                    json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    def _healthz(self, served):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{served.frontend.port}/healthz", timeout=120
        ) as response:
            return json.loads(response.read())

    @pytest.mark.parametrize(
        "error, status, retry_after", FAULT_ANSWERS,
        ids=[type(error).__name__ for error, _, _ in FAULT_ANSWERS],
    )
    def test_every_fault_gets_its_status_envelope_and_header(
        self, served, error, status, retry_after
    ):
        served.fail_submits(error)
        got, headers, payload = self._post(served, "/evaluate", {"workload": "mvm_32x32"})
        assert got == status
        assert headers.get("Retry-After") == retry_after
        expected = {"type": type(error).__name__, "message": str(error)}
        if retry_after is not None:
            expected["retry_after_s"] = error.retry_after_s
        assert payload == {"error": expected}

    def test_queue_full_maps_to_429_with_retry_after(self, served):
        served.fail_submits(QueueFullError("queue full", retry_after_s=3.0))
        status, headers, payload = self._post(
            served, "/evaluate", {"workload": "mvm_32x32"}
        )
        assert status == 429
        assert headers.get("Retry-After") == "3"
        assert payload["error"]["type"] == "QueueFullError"
        assert payload["error"]["retry_after_s"] == 3.0

    def test_shutdown_maps_to_503_and_deadline_to_504(self, served):
        served.fail_submits(ShutdownError("scheduler is shut down"))
        status, _, payload = self._post(
            served, "/evaluate", {"workload": "mvm_32x32"}
        )
        assert status == 503
        assert payload["error"]["type"] == "ShutdownError"

        served.restore()
        served.fail_submits(DeadlineExceeded("missed deadline"))
        status, _, payload = self._post(
            served, "/evaluate", {"workload": "mvm_32x32"}
        )
        assert status == 504

    def test_batch_inlines_shed_requests(self, served):
        served.fail_submits(QueueFullError("queue full", retry_after_s=1.0), nth=2)
        status, _, payload = self._post(
            served, "/evaluate/batch",
            {"requests": [
                {"workload": "mvm_32x32"},
                {"workload": "mvm_32x32", "overrides": {"adc_resolution": 5}},
                {"workload": "mvm_32x32", "overrides": {"adc_resolution": 7}},
            ]},
        )
        assert status == 200
        results = payload["results"]
        assert "summary" in results[0] and "summary" in results[2]
        assert results[1]["error"]["type"] == "QueueFullError"
        assert results[1]["error"]["retry_after_s"] == 1.0

    def test_oversized_body_is_413(self, served):
        import http.client

        from repro.service.http import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(
            "127.0.0.1", served.frontend.port, timeout=120
        )
        try:
            connection.putrequest("POST", "/evaluate")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read())["error"]["type"] == "ServiceError"
        finally:
            connection.close()

    def test_malformed_request_is_answered_after_the_one_before_it(self, served):
        import socket

        # Both requests reach the server in one segment: the valid one
        # still gets its own reply, then the 400, then the close.
        with socket.create_connection(("127.0.0.1", served.frontend.port), timeout=120) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nNOT-HTTP\r\n\r\n")
            replies = b""
            while chunk := sock.recv(1 << 16):
                replies += chunk
        first, second = replies.split(b"HTTP/1.1 ")[1:]
        assert first.startswith(b"200 ") and b"Connection: keep-alive" in first
        assert second.startswith(b"400 ") and b"Connection: close" in second

    def test_healthz_exposes_failure_counters(self, served):
        health = self._healthz(served)
        for counter in FAILURE_COUNTERS:
            assert counter in health["scheduler"]
        assert "corrupt_entries" in health["store"]


class TestFleetHTTPFaultMapping(TestHTTPFaultMapping):
    """The same faults from a one-shard fleet, crossing the shard channel
    by name: every one must get the single process's answer."""

    @pytest.fixture(scope="class")
    def fleet_frontend(self, tmp_path_factory):
        fleet = ShardFleet(shards=1, settings=ServiceSettings(
            store_dir=str(tmp_path_factory.mktemp("faults"))))
        frontend = serve_sharded(fleet=fleet, port=0, supervise=False).start()
        yield frontend
        fleet.close()
        frontend.shutdown()

    @pytest.fixture()
    def served(self, fleet_frontend):
        served = _Served(fleet_frontend, _from_shard)
        yield served
        served.restore()

    def test_healthz_exposes_failure_counters(self, served):
        health = self._healthz(served)
        for counter in FAILURE_COUNTERS:
            assert counter in health["scheduler"]
        assert all("scheduler" in shard for shard in health["shards"].values())
        assert "corrupt_entries" in health["store"]
