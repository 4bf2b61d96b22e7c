"""Tests for the repro.service subsystem.

Covers the four contracts the service depends on: request-hash
canonicalisation (key order / whitespace / omitted defaults are
identity-preserving), the content-addressed result store (memory LRU +
disk round trip), scheduler coalescing (N duplicates -> one evaluation,
distinct configs grouped into one family dispatch, store short-circuit),
and an end-to-end HTTP smoke test against an ephemeral port, including
the real ``python -m repro.service serve`` command.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.batch import process_energy_cache
from repro.service import (
    EvaluationRequest,
    EvaluationScheduler,
    ResultStore,
    ServiceError,
)
from repro.service.replay import (
    evaluate_serial,
    generate_trace,
    load_trace,
    replay_coalesced,
    trace_profile,
)


def _request(**kwargs):
    defaults = dict(macro="base_macro", workload="mvm_32x32", objective="energy")
    defaults.update(kwargs)
    return EvaluationRequest(**defaults)


# ----------------------------------------------------------------------
# Request schema and canonical hashing
# ----------------------------------------------------------------------
class TestRequestHashing:
    def test_key_order_and_whitespace_do_not_change_the_hash(self):
        a = EvaluationRequest.from_json(
            '{"macro":"macro_b","workload":"mvm_64x64",'
            '"overrides":{"adc_resolution":6,"vdd":1.0}}'
        )
        b = EvaluationRequest.from_json(
            '{\n  "overrides": {"vdd": 1, "adc_resolution": 6},\n'
            '  "workload": "mvm_64x64",\n  "macro": "macro_b"\n}'
        )
        assert a.canonical_json() == b.canonical_json()
        assert a.content_hash() == b.content_hash()

    def test_omitted_defaults_match_explicit_defaults(self):
        implicit = EvaluationRequest.from_dict({"workload": "mvm_32x32"})
        explicit = EvaluationRequest.from_dict(
            {"workload": "mvm_32x32", "objective": "energy", "seed": 0,
             "use_distributions": True, "version": 1, "overrides": {}}
        )
        assert implicit.content_hash() == explicit.content_hash()

    def test_different_requests_hash_differently(self):
        base = _request()
        assert base.content_hash() != _request(macro="macro_b").content_hash()
        assert base.content_hash() != _request(
            overrides={"adc_resolution": 6}
        ).content_hash()
        assert base.content_hash() != _request(objective="area").content_hash()

    def test_integral_floats_collapse_to_ints(self):
        a = _request(overrides={"vdd": 1})
        b = _request(overrides={"vdd": 1.0})
        assert a.content_hash() == b.content_hash()

    def test_integral_float_overrides_evaluate_like_ints(self):
        """JSON clients routinely send 6.0 for 6: both forms must hash the
        same AND resolve to the same (integer-typed) config — the float
        form used to crash the dispatch-time `1 << adc_resolution`."""
        float_form = _request(overrides={"adc_resolution": 6.0, "rows": 64.0})
        int_form = _request(overrides={"adc_resolution": 6, "rows": 64})
        assert float_form.content_hash() == int_form.content_hash()
        assert float_form.config() == int_form.config()
        assert isinstance(float_form.config().adc_resolution, int)
        result = EvaluationScheduler().evaluate(float_form)
        assert result["summary"]["total_energy_j"] > 0

    def test_objective_irrelevant_fields_do_not_change_the_hash(self):
        """The mapping budget/seed are meaningless for energy/area, and
        area is a pure function of the config — requests differing only
        in such fields must share one store entry."""
        assert _request(seed=3).content_hash() == _request(seed=0).content_hash()
        assert _request(num_mappings=5).content_hash() == _request().content_hash()
        area_with_workload = _request(objective="area")
        area_bare = EvaluationRequest(macro="base_macro", objective="area")
        assert area_with_workload.content_hash() == area_bare.content_hash()
        # ...but they are identity for the mappings objective.
        m1 = _request(objective="mappings", seed=1, num_mappings=50)
        m2 = _request(objective="mappings", seed=2, num_mappings=50)
        m3 = _request(objective="mappings", seed=1, num_mappings=60)
        assert len({m1.content_hash(), m2.content_hash(), m3.content_hash()}) == 3

    def test_inline_layer_requests_resolve_and_hash(self):
        spec = {"kind": "matmul", "name": "probe", "m": 16, "k": 32, "n": 4}
        a = EvaluationRequest(layer=spec)
        b = EvaluationRequest(layer=dict(reversed(list(spec.items()))))
        assert a.content_hash() == b.content_hash()
        network = a.network()
        assert len(network) == 1 and network.layers[0].total_macs == 16 * 32 * 4

    @pytest.mark.parametrize("payload,message", [
        ({"macro": "nope"}, "unknown macro"),
        ({"workload": "mvm_32x32", "objective": "nope"}, "unknown objective"),
        ({"workload": "mvm_32x32", "bogus": 1}, "unknown request field"),
        ({"workload": "mvm_32x32", "version": 99}, "unsupported request version"),
        ({"workload": "mvm_32x32", "overrides": {"bogus": 1}}, "unknown config override"),
        ({"objective": "energy"}, "needs a workload"),
        ({"workload": "not_a_network"}, "unknown network"),
        ({"workload": "mvm_32x32", "layer": {"kind": "matmul"}}, "not both"),
        ({"layer": {"kind": "pool"}}, "kind"),
        ({"workload": "resnet18", "objective": "mappings"}, "single-layer"),
        ({"workload": "mvm_32x32", "overrides": {"rows": -1}}, "invalid config overrides"),
    ])
    def test_invalid_requests_are_rejected_with_messages(self, payload, message):
        with pytest.raises(ServiceError, match=message):
            EvaluationRequest.from_dict(payload)

    def test_family_keys_group_by_workload_and_objective(self):
        same_family = {
            _request().family_key(),
            _request(macro="macro_b").family_key(),
            _request(overrides={"adc_resolution": 6}).family_key(),
        }
        assert len(same_family) == 1
        assert _request(workload="mvm_64x64").family_key() not in same_family
        assert _request(objective="area").family_key() == ("area",)


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_memory_round_trip_and_counters(self):
        store = ResultStore(max_entries=8)
        assert store.get("h1") is None
        store.put("h1", {"value": 1})
        assert store.get("h1") == {"value": 1}
        assert store.hits == 1 and store.misses == 1 and store.puts == 1

    def test_lru_eviction_keeps_recently_used_entries(self):
        store = ResultStore(max_entries=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        assert store.get("a") == {"v": 1}  # refresh 'a'; 'b' is now LRU
        store.put("c", {"v": 3})
        assert store.get("b") is None  # evicted
        assert store.get("a") == {"v": 1} and store.get("c") == {"v": 3}
        assert store.evictions == 1

    def test_disk_round_trip_across_store_instances(self, tmp_path):
        cold = ResultStore(directory=tmp_path)
        cold.put("h1", {"value": 42})
        warm = ResultStore(directory=tmp_path)
        assert warm.get("h1") == {"value": 42}
        assert warm.disk_hits == 1
        # Memory now holds the entry: a second get is a pure memory hit.
        assert warm.get("h1") == {"value": 42}
        assert warm.hits == 1

    def test_corrupt_disk_entries_are_misses(self, tmp_path):
        store = ResultStore(directory=tmp_path)
        store.put("h1", {"value": 1})
        store.path_for("h1").write_text("{broken json")
        fresh = ResultStore(directory=tmp_path)
        assert fresh.get("h1") is None
        assert fresh.load_failures == 1

    def test_disk_entry_key_is_verified(self, tmp_path):
        store = ResultStore(directory=tmp_path)
        store.put("h1", {"value": 1})
        store.path_for("h2").write_bytes(store.path_for("h1").read_bytes())
        fresh = ResultStore(directory=tmp_path)
        assert fresh.get("h2") is None  # stored key says h1

    def test_disk_lru_eviction_bounds_the_directory(self, tmp_path):
        store = ResultStore(directory=tmp_path, disk_max_entries=2)
        for index in range(5):
            store.put(f"h{index}", {"value": index})
        remaining = list(tmp_path.glob("result-*.json"))
        assert len(remaining) == 2
        assert store.disk_evictions == 3

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_RESULT_STORE_MAX_ENTRIES", "7")
        store = ResultStore.from_env()
        assert store.max_entries == 7
        assert store.directory == tmp_path / "results"


# ----------------------------------------------------------------------
# Scheduler coalescing
# ----------------------------------------------------------------------
class TestSchedulerCoalescing:
    def test_duplicate_requests_coalesce_to_one_evaluation(self):
        """N identical in-flight requests -> one dispatched evaluation and
        at most one fresh energy derivation, results shared by identity."""
        scheduler = EvaluationScheduler()
        # A geometry no other test uses, so the process-wide cache is cold.
        request = _request(workload="mvm_56x40")
        cache = process_energy_cache()
        derivations_before = cache.derivations
        results = scheduler.evaluate_batch([request] * 6)
        stats = scheduler.stats
        assert stats.submitted == 6
        assert stats.coalesced == 5
        assert stats.dispatched_requests == 1
        assert stats.dispatched_batches == 1
        assert cache.derivations - derivations_before <= 1
        assert all(result is results[0] for result in results)

    def test_distinct_configs_group_into_one_family_dispatch(self):
        scheduler = EvaluationScheduler()
        requests = [
            _request(overrides={"adc_resolution": bits}) for bits in (4, 5, 6, 7)
        ] + [_request(macro="macro_b")]
        results = scheduler.evaluate_batch(requests)
        assert scheduler.stats.dispatched_requests == 5
        assert scheduler.stats.dispatched_batches == 1  # one family, one run_grid
        energies = {result["summary"]["total_energy_j"] for result in results}
        assert len(energies) == 5  # distinct configs, distinct energies

    def test_store_short_circuits_repeat_traffic(self):
        scheduler = EvaluationScheduler()
        request = _request()
        first = scheduler.evaluate(request)
        dispatched = scheduler.stats.dispatched_requests
        second = scheduler.evaluate(request)
        assert second == first
        assert scheduler.stats.store_hits == 1
        assert scheduler.stats.dispatched_requests == dispatched  # nothing recomputed

    def test_objectives_dispatch_in_separate_families(self):
        scheduler = EvaluationScheduler()
        results = scheduler.evaluate_batch([
            _request(),
            _request(objective="area"),
            _request(objective="mappings", num_mappings=40),
        ])
        assert scheduler.stats.dispatched_batches == 3
        assert results[0]["objective"] == "energy"
        assert results[1]["objective"] == "area"
        assert results[1]["total_area_mm2"] > 0
        assert results[2]["objective"] == "mappings"
        assert results[2]["best_energy_j"] > 0
        assert results[2]["mappings_evaluated"] == 40

    def test_coalesced_energies_match_the_serial_library_path(self):
        scheduler = EvaluationScheduler()
        requests = [
            _request(overrides={"adc_resolution": bits}) for bits in (5, 8)
        ]
        coalesced = scheduler.evaluate_batch(requests)
        for request, result in zip(requests, coalesced):
            serial = evaluate_serial(request)
            assert result["summary"]["total_energy_j"] == pytest.approx(
                serial["summary"]["total_energy_j"], rel=1e-9
            )
            assert result["summary"]["latency_s"] == serial["summary"]["latency_s"]

    def test_duplicates_attach_to_in_flight_evaluations(self):
        """A duplicate arriving while its twin is *being evaluated* (the
        tick already drained the queue) must attach to the in-flight
        slot, not dispatch a second evaluation."""
        scheduler = EvaluationScheduler()
        request = _request(workload="mvm_40x24")
        release = threading.Event()
        original = scheduler._dispatch_family

        def slow_dispatch(family):
            first.set()
            release.wait(timeout=60)
            return original(family)

        scheduler._dispatch_family = slow_dispatch
        first = threading.Event()
        early = scheduler.submit(request)
        ticker = threading.Thread(target=scheduler.run_pending, daemon=True)
        ticker.start()
        assert first.wait(timeout=60)  # evaluation is now in flight
        late = scheduler.submit(request)  # queue is empty, slot is in flight
        release.set()
        ticker.join(timeout=60)
        assert late.result(timeout=60) is early.result(timeout=60)
        assert scheduler.stats.dispatched_requests == 1
        assert scheduler.stats.coalesced == 1

    def test_store_failures_do_not_fail_requests(self, capsys):
        """An unserialisable/store-side failure degrades to a warning;
        the request still resolves and the dispatcher survives."""
        scheduler = EvaluationScheduler()

        def broken_put(request_hash, result):
            raise TypeError("boom")

        scheduler.store.put = broken_put
        result = scheduler.evaluate(_request())
        assert result["summary"]["total_energy_j"] > 0
        assert "could not store result" in capsys.readouterr().err

    def test_background_dispatcher_serves_submissions(self):
        scheduler = EvaluationScheduler(coalesce_window_s=0.001).start()
        try:
            futures = [scheduler.submit(_request()) for _ in range(4)]
            results = [future.result(timeout=60) for future in futures]
            assert all(result == results[0] for result in results)
        finally:
            scheduler.close()

    def test_conv_workloads_resolve_through_the_request_schema(self):
        """Parameterised conv_<h>x<w>x<c>[_k..][_f..] names are service
        workloads like any registry entry, and the coalesced result
        matches the serial library path."""
        scheduler = EvaluationScheduler()
        request = _request(workload="conv_8x8x16_k3_f32")
        result = scheduler.evaluate(request)
        serial = evaluate_serial(request)
        assert result["summary"]["total_energy_j"] == pytest.approx(
            serial["summary"]["total_energy_j"], rel=1e-9
        )
        # Different conv parameters are different request identities.
        assert request.content_hash() != _request(
            workload="conv_8x8x16_k1_f32"
        ).content_hash()

    def test_term_cache_reuse_across_near_duplicate_families(self):
        """A second family differing from the first along one axis
        resolves most of its per-component terms from the term cache,
        and the stats surface the reuse."""
        scheduler = EvaluationScheduler()
        first = [
            _request(workload="mvm_48x48", overrides={"adc_resolution": bits})
            for bits in (4, 5, 6)
        ]
        scheduler.evaluate_batch(first)
        hits_after_first = scheduler.stats.term_hits
        second = [
            _request(
                workload="mvm_48x48",
                overrides={"adc_resolution": bits, "adc_energy_scale": 1.25},
            )
            for bits in (4, 5, 6)
        ]
        scheduler.evaluate_batch(second)
        stats = scheduler.stats
        assert stats.term_hits > hits_after_first  # unchanged terms reused
        assert 0 < stats.term_hit_ratio <= 1
        reported = stats.as_dict()
        assert reported["term_hits"] == stats.term_hits
        assert reported["term_hit_ratio"] == stats.term_hit_ratio

    def test_area_results_match_the_scalar_breakdown(self):
        from repro.core.model import CiMLoopModel

        scheduler = EvaluationScheduler()
        request = _request(objective="area", macro="macro_d")
        result = scheduler.evaluate(request)
        expected = CiMLoopModel(request.config()).area_breakdown_um2()
        for component, reference in expected.items():
            assert result["area_breakdown_um2"][component] == pytest.approx(
                reference, rel=1e-9
            )


# ----------------------------------------------------------------------
# Trace synthesis / replay
# ----------------------------------------------------------------------
class TestReplay:
    def test_generated_trace_meets_its_shape_targets(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = generate_trace(
            num_requests=200, duplicate_fraction=0.6, families=3, path=path
        )
        profile = trace_profile(trace)
        assert profile["requests"] == 200
        assert profile["duplicate_fraction"] >= 0.6
        assert profile["families"] >= 3
        assert load_trace(path) == trace

    def test_coalesced_replay_answers_every_request_in_order(self):
        trace = generate_trace(num_requests=40, duplicate_fraction=0.5, families=2)
        results, _, scheduler, _ = replay_coalesced(trace, window=16)
        assert len(results) == len(trace)
        hashes = [EvaluationRequest.from_dict(entry).content_hash()
                  for entry in trace]
        assert [result["request_hash"] for result in results] == hashes
        stats = scheduler.stats
        assert stats.coalesced + stats.store_hits > 0  # dedup actually happened
        assert stats.dispatched_requests < len(trace)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class TestHTTPService:
    @pytest.fixture()
    def server(self):
        from repro.service.http import serve

        scheduler = EvaluationScheduler(coalesce_window_s=0.001)
        server = serve("127.0.0.1", 0, scheduler=scheduler).start()
        yield server
        scheduler.close()
        server.shutdown()

    def _post(self, server, path, payload):
        port = server.port
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def _get(self, server, path):
        port = server.port
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=120
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_evaluate_result_and_healthz_round_trip(self, server):
        body = {"macro": "base_macro", "workload": "mvm_32x32"}
        status, result = self._post(server, "/evaluate", body)
        assert status == 200
        assert result["summary"]["total_energy_j"] > 0

        status, stored = self._get(server, f"/result/{result['request_hash']}")
        assert status == 200 and stored == result

        status, health = self._get(server, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["scheduler"]["submitted"] >= 1
        assert "store" in health and "energy_cache" in health
        assert {"term_tier", "disk_tier"} <= set(health["energy_cache"])

    def test_batch_endpoint_coalesces_duplicates(self, server):
        body = {"macro": "base_macro", "workload": "mvm_32x32",
                "overrides": {"adc_resolution": 6}}
        status, payload = self._post(
            server, "/evaluate/batch", {"requests": [body, body, body]}
        )
        assert status == 200
        results = payload["results"]
        assert len(results) == 3
        assert results[0] == results[1] == results[2]

    def test_error_envelopes(self, server):
        status, payload = self._post(server, "/evaluate", {"macro": "nope"})
        assert status == 400
        assert payload["error"]["type"] == "ServiceError"
        assert "unknown macro" in payload["error"]["message"]

        status, payload = self._get(server, "/result/" + "0" * 64)
        assert status == 404 and "error" in payload

        # Non-hash suffixes (wrong length, non-hex, traversal attempts)
        # are rejected before they reach the store's disk path.
        status, payload = self._get(server, "/result/deadbeef")
        assert status == 404 and "error" in payload
        status, payload = self._get(
            server, "/result/..%2f..%2f..%2fetc%2fpasswd"
        )
        assert status == 404 and "error" in payload

        status, payload = self._get(server, "/bogus")
        assert status == 404 and "error" in payload

        # Fleet management exists only on a fleet.
        status, payload = self._get(server, "/shards")
        assert status == 404 and "error" in payload

        port = server.port
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/evaluate", data=b"not json{",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=120)
        assert excinfo.value.code == 400


def _subprocess_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


class TestServeCommand:
    """``python -m repro.service serve`` as a user runs it."""

    def test_single_process_serving_loads_no_shard_code(self):
        code = (
            "import sys\n"
            "from repro.service.cli import main\n"
            "from repro.service.http import serve\n"
            "from repro.service.scheduler import EvaluationScheduler\n"
            "scheduler = EvaluationScheduler()\n"
            "frontend = serve('127.0.0.1', 0, scheduler=scheduler)\n"
            "scheduler.close()\n"
            "frontend.shutdown()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.service.shard')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_keep_alive_store_hits_and_sigterm_drain(self):
        import http.client
        import queue
        import re
        import signal
        import time

        env = _subprocess_env()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        lines: "queue.Queue" = queue.Queue()

        def _read_stderr():
            for line in process.stderr:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=_read_stderr, daemon=True).start()
        try:
            port = None
            while port is None:
                line = lines.get(timeout=120)
                assert line is not None, "serve exited before listening"
                match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))

            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            body = json.dumps({"macro": "base_macro", "workload": "mvm_32x32"})
            headers = {"Content-Type": "application/json"}
            connection.request("POST", "/evaluate", body=body, headers=headers)
            response = connection.getresponse()
            first = response.read()
            assert response.status == 200
            sock = connection.sock

            # Store hits over one kept-alive connection: a per-call
            # delayed-ACK stall (~40 ms) would take at least 4 s.
            start = time.perf_counter()
            for _ in range(100):
                connection.request("POST", "/evaluate", body=body, headers=headers)
                response = connection.getresponse()
                assert response.status == 200
                assert response.read() == first
            elapsed = time.perf_counter() - start
            assert connection.sock is sock  # never reconnected
            assert elapsed < 1.0, f"100 store hits took {elapsed:.2f} s"
            connection.close()

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
