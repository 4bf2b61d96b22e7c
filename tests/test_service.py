"""Tests for the repro.service subsystem.

Covers the contracts the service depends on: request-hash
canonicalisation (key order / whitespace / omitted defaults are
identity-preserving), the content-addressed result store (memory LRU +
disk round trip, memoised reply bytes), scheduler coalescing (N
duplicates -> one evaluation, distinct configs grouped into one family
dispatch, store short-circuit, one tick per call), batch composition
(a result is a pure function of its request, whatever it was evaluated
with), the hit path (lazy resolution answers exactly what resolving at
parse time answers, and hits are served as stored bytes), and an
end-to-end HTTP smoke test against an ephemeral port, including the real
``python -m repro.service serve`` command.
"""

import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.batch import process_energy_cache
from repro.service import (
    EvaluationRequest,
    EvaluationScheduler,
    ResultStore,
    ServiceError,
)
from repro.service.http import error_envelope, error_status
from repro.service.scheduler import evaluate_scalar
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
        ({"workload": "mvm_32x32", "max_retries": 2}, "unknown request field"),
        ({"workload": "mvm_32x32", "version": 99}, "unsupported request version"),
        ({"workload": "mvm_32x32", "overrides": {"bogus": 1}}, "unknown config override"),
        ({"objective": "energy"}, "needs a workload"),
        ({"workload": "mvm_32x32", "layer": {"kind": "matmul"}}, "not both"),
        ({"layer": {"kind": "pool"}}, "kind"),
    ])
    def test_invalid_requests_are_rejected_with_messages(self, payload, message):
        with pytest.raises(ServiceError, match=message):
            EvaluationRequest.from_dict(payload)

    @pytest.mark.parametrize("payload,message", [
        ({"workload": "not_a_network"}, "unknown network"),
        ({"workload": "resnet18", "objective": "mappings"}, "single-layer"),
        ({"workload": "mvm_32x32", "overrides": {"rows": -1}}, "invalid config overrides"),
        ({"workload": "mvm_32x32", "overrides": {"adc_resolution": 0}},
         r"adc_resolution must be in \[1, 14\]"),
        ({"workload": "mvm_32x32", "overrides": {"adc_resolution": 15}},
         r"adc_resolution must be in \[1, 14\]"),
        ({"workload": "mvm_32x32", "overrides": {"adc_resolution": 5.5}},
         "adc_resolution must be an integer"),
        ({"workload": "mvm_32x32", "overrides": {"bits_per_cell": 1.5}},
         "bits_per_cell must be an integer"),
        ({"workload": "mvm_32x32", "overrides": {"rows": 1.5}}, "rows must be an integer"),
        ({"workload": "mvm_32x32_x0"}, "at least one repeat"),
        ({"workload": "mvm_032x32_x00"}, "at least one repeat"),
    ])
    def test_resolution_errors_surface_at_submit(self, payload, message):
        """Building a request checks its syntax and hashes it; the config
        and workload resolve when a miss is submitted, which refuses a
        request the model cannot evaluate with the same message — a 400,
        before anything is queued or dispatched."""
        request = EvaluationRequest.from_dict(payload)
        assert len(request.content_hash()) == 64
        scheduler = EvaluationScheduler()
        with pytest.raises(ServiceError, match=message):
            scheduler.submit(request)
        [refusal] = scheduler.submit_many([request])
        assert isinstance(refusal, ServiceError) and re.search(message, str(refusal))
        assert error_status(refusal) == 400
        assert scheduler.stats.dispatched_requests == 0 and not scheduler._pending

    def test_spellings_of_one_mvm_workload_share_one_hash(self):
        """``load_network`` resolves these names to one network, so the
        request respells them when it is built: one canonical form, one
        hash, one family and one dispatch."""
        spellings = ("mvm_32x32", "mvm_32x32_x1", "mvm_032x32")
        requests = [EvaluationRequest.from_dict({"workload": name}) for name in spellings]
        assert {request.workload for request in requests} == {"mvm_32x32"}
        assert len({request.canonical_json() for request in requests}) == 1
        assert len({request.content_hash() for request in requests}) == 1
        assert len({request.family_key() for request in requests}) == 1
        scheduler = EvaluationScheduler(store=ResultStore())
        first, second, third = scheduler.evaluate_batch(requests)
        assert first == second == third
        assert scheduler.stats.dispatched_requests == 1
        repeated = EvaluationRequest.from_dict({"workload": "mvm_32x32_x2"})
        assert repeated.workload == "mvm_32x32_x2"
        assert repeated.content_hash() != requests[0].content_hash()
        # Names already spelled canonically (the benchmark's among them)
        # are left alone, so their hashes do not move.
        for name in ("mvm_64x64", "mvm_96x96", "mvm_64x128", "mvm_128x128",
                     "mvm_64x256", "conv_16x16x64", "resnet18", "mvm_abc"):
            assert EvaluationRequest.from_dict({"workload": name}).workload == name

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

    def test_an_entry_from_before_the_submission_checks_is_not_served(self, tmp_path):
        """A version-1 disk entry can hold the result of a request this
        build refuses (older builds clamped ``_x0`` to one repeat and
        stored the result), and a hit is never resolved: the entry format
        version keeps it out, so it is a counted miss and the request gets
        its 400.  An entry this build wrote is still a disk hit."""
        stale = EvaluationRequest.from_dict({"workload": "mvm_32x32_x0"})
        old_numbers = EvaluationScheduler(store=ResultStore()).evaluate(_request())
        ResultStore(directory=tmp_path).path_for(stale.content_hash()).write_text(
            json.dumps({"version": 1, "key": stale.content_hash(), "result": old_numbers})
        )
        scheduler = EvaluationScheduler(store=ResultStore(directory=tmp_path))
        [outcome] = scheduler.submit_many([stale])
        assert isinstance(outcome, ServiceError), outcome
        assert "at least one repeat" in str(outcome) and error_status(outcome) == 400
        assert scheduler.store.load_failures == 1 and scheduler.store.disk_hits == 0

        valid = _request()
        EvaluationScheduler(store=ResultStore(directory=tmp_path)).evaluate(valid)
        warm = EvaluationScheduler(store=ResultStore(directory=tmp_path))
        [future] = warm.submit_many([valid])
        assert future.result(timeout=30) == old_numbers
        assert warm.store.disk_hits == 1 and warm.stats.dispatched_requests == 0

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

    @staticmethod
    def _disk_entries(store):
        return sorted(path.name for path in store.directory.glob("result-*.json"))

    def test_a_disk_load_refreshes_recency(self, tmp_path):
        store = ResultStore(max_entries=1, directory=tmp_path, disk_max_entries=2)
        for index in range(2):
            store.put(f"h{index}", {"value": index})
            time.sleep(0.01)  # keep mtimes ordered on coarse filesystems
        assert store.get("h0") == {"value": 0}  # from disk: h1 is now the LRU
        time.sleep(0.01)
        store.put("h2", {"value": 2})
        assert self._disk_entries(store) == ["result-h0.json", "result-h2.json"]

    def test_disk_byte_bound_keeps_the_newest_entries(self, tmp_path):
        probe = ResultStore(directory=tmp_path / "probe")
        probe.put("h0", {"value": 0})
        entry_bytes = probe.path_for("h0").stat().st_size
        store = ResultStore(
            directory=tmp_path / "bounded", disk_max_bytes=int(entry_bytes * 2.5)
        )
        for index in range(4):
            store.put(f"h{index}", {"value": index})
            time.sleep(0.01)
        assert self._disk_entries(store) == ["result-h2.json", "result-h3.json"]
        assert store.disk_evictions == 2

    def test_a_failed_disk_write_costs_only_the_persistence(self, tmp_path, capsys):
        store = ResultStore(directory=tmp_path / "gone")
        (tmp_path / "gone").rmdir()
        store.put("h0", {"value": 0})
        assert store.get("h0") == {"value": 0}
        assert "warning: could not persist service result" in capsys.readouterr().err

    def test_the_newest_disk_entry_survives_an_impossible_byte_budget(self, tmp_path):
        store = ResultStore(directory=tmp_path, disk_max_bytes=1)
        for index in range(2):
            store.put(f"h{index}", {"value": index})
            time.sleep(0.01)
        assert self._disk_entries(store) == ["result-h1.json"]

    def test_an_unbounded_disk_tier_never_evicts(self, tmp_path):
        store = ResultStore(max_entries=1, directory=tmp_path)
        for index in range(3):
            store.put(f"h{index}", {"value": index})
        assert self._disk_entries(store) == [f"result-h{index}.json" for index in range(3)]
        assert store.disk_evictions == 0 and store.evictions == 2

    @pytest.mark.parametrize("bound", ["max_entries", "disk_max_entries", "disk_max_bytes"])
    def test_bounds_below_one_are_rejected(self, tmp_path, bound):
        with pytest.raises(ValueError, match=f"{bound} must be at least 1"):
            ResultStore(directory=tmp_path, **{bound: 0})

    def test_an_interrupted_disk_write_leaves_no_scratch_file(
        self, tmp_path, monkeypatch, capsys
    ):
        def replace(source, target):
            raise OSError("disk full")

        store = ResultStore(directory=tmp_path)
        monkeypatch.setattr("repro.service.store.os.replace", replace)
        store.put("h0", {"value": 0})
        assert list(tmp_path.iterdir()) == []
        assert store.get("h0") == {"value": 0}
        assert "could not persist service result result-h0.json (disk full)" in (
            capsys.readouterr().err
        )

    def test_reply_bytes_are_memoised_and_dropped_with_their_entry(self):
        store = ResultStore(max_entries=2)
        assert store.reply("a") is None
        result = {"value": 0.1, "name": "a"}
        store.put("a", result)
        blob = store.reply("a")
        assert blob == json.dumps(result, sort_keys=True).encode()
        assert store.reply("a") is blob  # serialised once
        # A miss is left to the get() of the submission that follows it.
        assert store.hits == 2 and store.misses == 0
        store.put("a", {"value": 2})  # a new result drops the old bytes
        assert store.reply("a") == b'{"value": 2}'
        store.put("b", {"v": 1})
        store.put("c", {"v": 2})  # evicts "a", and its bytes with it
        assert store.reply("a") is None and "a" not in store._replies
        store.reply("b")
        store.forget("b")
        assert "b" not in store._replies

    def test_reply_reads_memory_only_and_get_reads_the_disk_tier(self, tmp_path):
        ResultStore(directory=tmp_path).put("h1", {"value": 42})
        warm = ResultStore(directory=tmp_path)
        assert warm.reply("h1") is None
        assert warm.get("h1") == {"value": 42} and warm.disk_hits == 1
        assert warm.reply("h1") == b'{"value": 42}'

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_RESULT_STORE_MAX_ENTRIES", "7")
        store = ResultStore.from_env()
        assert store.max_entries == 7
        assert store.directory == tmp_path / "results"

    @pytest.mark.parametrize("raw", [None, "", "  "])
    def test_from_env_without_a_directory_is_memory_only(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("REPRO_RESULT_STORE_DIR", raising=False)
        else:
            monkeypatch.setenv("REPRO_RESULT_STORE_DIR", raw)
        store = ResultStore.from_env()
        assert store.directory is None and store.path_for("h0") is None

    def test_a_store_dir_takes_the_place_of_the_env_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_DIR", str(tmp_path / "env"))
        monkeypatch.setenv("REPRO_RESULT_STORE_DISK_MAX_ENTRIES", "3")
        store = ResultStore.from_env(tmp_path / "flag")
        assert store.directory == tmp_path / "flag" and store.disk_max_entries == 3
        assert sorted(path.name for path in tmp_path.iterdir()) == ["flag"]

    def test_an_unusable_directory_leaves_a_memory_only_store(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory")
        store = ResultStore.from_env(occupied)
        assert store.directory is None
        assert "result store disk tier disabled" in capsys.readouterr().err
        store.put("h0", {"value": 0})
        assert store.get("h0") == {"value": 0}


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

    def test_store_hits_are_never_resolved(self, monkeypatch):
        scheduler = EvaluationScheduler()
        first = scheduler.evaluate(_request(overrides={"adc_resolution": 5}))

        def refuse(self):
            raise AssertionError("a store hit was resolved")

        monkeypatch.setattr(EvaluationRequest, "_resolve_config", refuse)
        monkeypatch.setattr(EvaluationRequest, "_resolve_network", refuse)
        again = _request(overrides={"adc_resolution": 5})
        assert scheduler.submit(again).result() is first
        assert scheduler.stored(again.content_hash()) == json.dumps(
            first, sort_keys=True).encode()

    def test_a_call_runs_in_one_tick_however_long_resolution_takes(self, monkeypatch):
        """Whole-call admission: every member of one submit_many call is
        resolved before any is queued, and all are queued at once, so the
        call shares one dispatch tick even when resolving it outlasts the
        coalescing window many times over."""
        resolve_network = EvaluationRequest._resolve_network

        def slow_resolve_network(self):
            time.sleep(0.0003)
            return resolve_network(self)

        monkeypatch.setattr(EvaluationRequest, "_resolve_network", slow_resolve_network)
        requests = [
            _request(workload="mvm_24x40", overrides={
                "adc_resolution": 3 + index % 6, "columns_per_adc": 2 ** (1 + index // 6),
            })
            for index in range(32)
        ]
        assert len({request.content_hash() for request in requests}) == 32
        scheduler = EvaluationScheduler(coalesce_window_s=0.001).start()
        try:
            results = [future.result(timeout=120)
                       for future in scheduler.submit_many(requests)]
        finally:
            scheduler.close()
        assert scheduler.stats.ticks == 1
        assert scheduler.stats.dispatched_requests == 32
        reference = EvaluationScheduler().evaluate_batch(requests)
        assert [json.dumps(r, sort_keys=True) for r in results] == [
            json.dumps(r, sort_keys=True) for r in reference
        ]

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
# Batch composition: a result is a pure function of its request
# ----------------------------------------------------------------------
#: Config-override axes of the generated design points.
_AXES = {
    "adc_resolution": (3, 4, 5, 6, 7, 8),
    "vdd": (0.8, 0.9, 1.0, 1.1, 1.2),
    "columns_per_adc": (2, 4, 8, 16, 32),
    "input_bits": (4, 5, 6, 7, 8),
    "weight_bits": (4, 5, 6, 7, 8),
    "rows": (64, 128, 256, 512),
}


@st.composite
def _design_points(draw):
    """One valid ``energy`` or ``area`` request."""
    overrides = draw(st.fixed_dictionaries(
        {}, optional={axis: st.sampled_from(values) for axis, values in _AXES.items()}
    ))
    request = EvaluationRequest(
        macro=draw(st.sampled_from(("base_macro", "macro_a", "macro_b", "macro_d"))),
        objective=draw(st.sampled_from(("energy", "area"))),
        workload=draw(st.sampled_from(("mvm_32x32", "mvm_16x48"))),
        overrides=overrides,
    )
    try:
        request.resolve()
    except ServiceError:
        assume(False)
    return request


def _assert_close(value, reference, path="result"):
    """Every number within 1e-9 (relative) of the reference's."""
    if isinstance(reference, dict):
        assert set(value) == set(reference), path
        for key in reference:
            _assert_close(value[key], reference[key], f"{path}.{key}")
    elif isinstance(reference, float):
        assert value == pytest.approx(reference, rel=1e-9, abs=0.0), path
    else:
        assert value == reference, path


class TestBatchComposition:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(family=st.lists(_design_points(), min_size=2, max_size=6), data=st.data())
    def test_a_member_evaluates_the_same_in_any_family(self, family, data):
        """Each member's payload is bitwise the same evaluated in its
        family, in a random sub-family or alone (fresh schedulers, so no
        store answers), and within 1e-9 of the scalar oracle."""
        in_family = EvaluationScheduler().evaluate_batch(family)
        chosen = data.draw(st.lists(
            st.integers(0, len(family) - 1), min_size=1, max_size=len(family), unique=True,
        ))
        in_part = EvaluationScheduler().evaluate_batch([family[i] for i in chosen])
        for index, result in zip(chosen, in_part):
            assert json.dumps(result, sort_keys=True) == json.dumps(
                in_family[index], sort_keys=True)
        for request, result in zip(family, in_family):
            alone = EvaluationScheduler().evaluate(request)
            assert json.dumps(alone, sort_keys=True) == json.dumps(result, sort_keys=True)
            _assert_close(result, evaluate_scalar(request))


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
        assert health["energy_cache"]["term_tier"] is not None
        assert "disk_tier" not in health["energy_cache"]

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


def _post_raw(port, path, body):
    """POST ``body`` (JSON-encoded unless bytes); (status, reply bytes)."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _reply_bytes(payload):
    """What the front end sends for a payload: sorted keys, one newline."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class TestHitReplies:
    """Hits are answered from the store's reply bytes, never submitted."""

    @pytest.fixture()
    def served(self):
        from repro.service.http import serve

        scheduler = EvaluationScheduler(coalesce_window_s=0.001)
        frontend = serve("127.0.0.1", 0, scheduler=scheduler).start()
        yield frontend, scheduler
        scheduler.close()
        frontend.shutdown()

    def test_hit_replies_are_byte_identical(self, served):
        frontend, scheduler = served
        hit = {"workload": "mvm_32x32", "overrides": {"adc_resolution": 7}}
        miss = {"workload": "mvm_32x32", "overrides": {"adc_resolution": 3}}
        invalid = {"workload": "mvm_32x32", "overrides": {"rows": -1}}
        status, first = _post_raw(frontend.port, "/evaluate", hit)
        assert status == 200
        result = json.loads(first)
        assert first == _reply_bytes(result)
        assert _post_raw(frontend.port, "/evaluate", hit) == (200, first)
        request_hash = result["request_hash"]
        assert _post_raw(frontend.port, "/evaluate", {
            "overrides": {"adc_resolution": 7.0}, "workload": "mvm_32x32",
        }) == (200, first)  # the same hash, spelled differently
        with urllib.request.urlopen(
            f"http://127.0.0.1:{frontend.port}/result/{request_hash}", timeout=120
        ) as response:
            assert response.read() == first

        submits = []
        submit_many = scheduler.submit_many
        scheduler.submit_many = lambda requests: submits.append(
            [r.content_hash() for r in requests]) or submit_many(requests)
        status, body = _post_raw(frontend.port, "/evaluate/batch",
                                 {"requests": [hit, miss, invalid, "nope", hit]})
        assert status == 200
        results = json.loads(body)["results"]
        missed = EvaluationRequest.from_dict(miss)
        assert submits == [[missed.content_hash(),
                            EvaluationRequest.from_dict(invalid).content_hash()]]
        assert results[1] == evaluate_scalar(missed)
        assert results[2]["error"]["message"].startswith("invalid config overrides")
        assert results[3]["error"]["message"] == "request body must be a JSON object"
        assert body == _reply_bytes(
            {"results": [result, results[1], results[2], results[3], result]})

        with urllib.request.urlopen(
            f"http://127.0.0.1:{frontend.port}/healthz", timeout=120
        ) as response:
            health = json.loads(response.read())
        # 4 evaluate hits (the GET is a lookup, not a submission), each
        # counted once as submitted and once as a store hit.
        assert health["frontend"]["store_hits"] == 4
        assert health["scheduler"]["store_hits"] == 4
        assert health["scheduler"]["submitted"] == 4 + 3  # + first, miss, invalid


# ----------------------------------------------------------------------
# The hit path answers what resolving at parse time answers
# ----------------------------------------------------------------------
_VALID_OVERRIDES = {"adc_resolution": (4, 6), "rows": (48, 64)}
_BAD_OVERRIDES = (
    {"rows": -1}, {"rows": 0}, {"rows": "abc"}, {"vdd": -1}, {"vdd": "x"},
    {"columns_per_adc": 0}, {"input_bits": 0}, {"node_nm": "abc"}, {"node_nm": 0},
    {"output_reuse_style": "nope"}, {"bogus": 1}, {"rows": [64]},
)
_LAYER = {"kind": "matmul", "name": "probe", "m": 8, "k": 32, "n": 4}
_BAD_LAYERS = (
    dict(_LAYER, m="abc"), dict(_LAYER, m=-4), dict(_LAYER, stride=2),
    dict(_LAYER, name=["probe"]), dict(_LAYER, activation_style="nope"),
    {"kind": "conv2d", "name": "probe"}, {"kind": "pool", "name": "probe"}, ["probe"],
)


@st.composite
def _bodies(draw):
    """A request body: valid about half the time, else with one flaw."""
    flaw = draw(st.sampled_from(
        (None,) * 5 + ("override", "workload", "layer", "field", "body")))
    if flaw == "body":
        return draw(st.sampled_from(("not an object", [1, 2], None)))
    objective = draw(st.sampled_from(("energy", "energy", "area", "mappings")))
    body = {"overrides": draw(st.fixed_dictionaries({}, optional={
        key: st.sampled_from(values) for key, values in _VALID_OVERRIDES.items()
    }))}
    if objective != "energy":
        body["objective"] = objective
    if objective == "mappings":
        body.update(num_mappings=20, seed=draw(st.integers(0, 1)))
    if flaw == "override":
        body["overrides"].update(draw(st.sampled_from(_BAD_OVERRIDES)))
    if flaw == "layer":
        body["layer"] = draw(st.sampled_from(_BAD_LAYERS))
    elif flaw == "workload":
        workloads = ("not_a_network", "mvm_0x8") + (
            ("resnet18",) if objective == "mappings" else ())
        body["workload"] = draw(st.sampled_from(workloads))
    elif objective != "area":
        body.update(draw(st.sampled_from((
            {"workload": "mvm_32x32"}, {"workload": "mvm_16x48"}, {"layer": _LAYER},
        ))))
    if flaw == "field":
        body[draw(st.sampled_from(("version", "bogus_field")))] = 2
    return body


def _eager(body, scheduler):
    """What resolving at parse time answers: (status, payload)."""
    try:
        request = EvaluationRequest.from_dict(body)
        request.resolve()
    except Exception as error:  # noqa: BLE001 - the reference answer
        return error_status(error), error_envelope(error)
    return 200, scheduler.evaluate(request)


class TestHitPath:
    @pytest.fixture(scope="class")
    def served(self):
        from repro.service.http import serve

        scheduler = EvaluationScheduler(coalesce_window_s=0.001)
        frontend = serve("127.0.0.1", 0, scheduler=scheduler).start()
        yield frontend, EvaluationScheduler()
        scheduler.close()
        frontend.shutdown()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bodies=st.lists(_bodies(), min_size=1, max_size=5))
    def test_lazy_resolution_serves_what_eager_resolution_would(self, served, bodies):
        """For valid and invalid bodies alike, ``/evaluate`` and the
        members of ``/evaluate/batch`` get the status, error envelope and
        reply bytes that resolving each request at parse time gives:
        a 400 with the same message, or ``json.dumps(result,
        sort_keys=True)``.  The server's store warms across examples, so
        repeated bodies take the hit path."""
        frontend, reference = served
        expected = [_eager(body, reference) for body in bodies]
        status, single = _post_raw(frontend.port, "/evaluate", bodies[0])
        assert (status, single) == (expected[0][0], _reply_bytes(expected[0][1]))
        status, batch = _post_raw(frontend.port, "/evaluate/batch", {"requests": bodies})
        assert status == 200
        assert batch == _reply_bytes({"results": [payload for _, payload in expected]})


def _subprocess_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


@contextlib.contextmanager
def _serve_process(*args):
    """``python -m repro.service serve --port 0 <args>`` in a child
    process, yielded with its port once it listens; killed on exit if
    the test left it running."""
    import queue

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0", *args],
        env=_subprocess_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
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
        yield process, port
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


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
        import signal

        with _serve_process() as (process, port):
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

    def test_store_dir_without_shards_writes_the_disk_tier(self, tmp_path):
        """``--store-dir`` names the disk result tier of the single
        process too, as it does for every worker of a fleet."""
        import http.client
        import signal

        with _serve_process("--store-dir", str(tmp_path)) as (process, port):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            body = json.dumps({"macro": "base_macro", "workload": "mvm_32x32"})
            connection.request("POST", "/evaluate", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            result = json.loads(response.read())
            assert response.status == 200
            connection.close()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        entries = sorted(path.name for path in tmp_path.iterdir())
        assert entries == [f"result-{result['request_hash']}.json"]
