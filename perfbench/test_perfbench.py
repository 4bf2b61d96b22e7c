"""Tests of the benchmark's own helpers (inputs, percentile rule, span arithmetic).

Run with ``python -m pytest -q perfbench``.
"""

import json
import os
import socket
import subprocess
import sys
import threading

import pytest

import inputs
import layers
import traced_serve
from client import Connection, build_request
from run import calls_needed, percentile, tail_latency

HERE = os.path.dirname(os.path.abspath(__file__))


def in_batch_duplicate_share(batches):
    """Share of batch members that repeat an earlier member of their batch."""
    keys = [[json.dumps(member, sort_keys=True) for member in batch] for batch in batches]
    repeats = sum(len(batch) - len(set(batch)) for batch in keys)
    return repeats / sum(len(batch) for batch in keys)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_inputs_are_a_function_of_the_seed():
    assert inputs.hot_pool(3) == inputs.hot_pool(3)
    assert inputs.hot_pool(3) != inputs.hot_pool(4)
    assert inputs.hot_draws(3, 500, "single") == inputs.hot_draws(3, 500, "single")
    assert inputs.hot_draws(3, 500, "single") != inputs.hot_draws(4, 500, "single")
    assert inputs.fleet_batches(3, 20) == inputs.fleet_batches(3, 20)
    assert inputs.sweep_batches(3, 5) == inputs.sweep_batches(3, 5)
    assert inputs.sweep_batches(3, 5) != inputs.sweep_batches(4, 5)


def test_hot_pool_is_unique_energy_requests_on_mvm_workloads():
    pool = inputs.hot_pool(0)
    assert len(pool) == inputs.HOT_POOL_SIZE
    assert len({inputs.encode(body) for body in pool}) == len(pool)
    assert {body["workload"] for body in pool} == set(inputs.HOT_WORKLOADS)
    assert {body["objective"] for body in pool} == {"energy"}


def test_fleet_batches_repeat_about_28_percent_in_batch():
    batches = inputs.fleet_batches(0, 500)
    assert all(len(batch) == inputs.FLEET_BATCH for batch in batches)
    assert 0.24 < in_batch_duplicate_share(batches) < 0.32


def test_sweep_batches_are_fresh_across_batches():
    batches = inputs.sweep_batches(1, 40)
    seen = set()
    for batch in batches:
        assert len(batch) == inputs.SWEEP_BATCH
        unique = {inputs.encode(body) for body in batch}
        assert len(unique) == inputs.SWEEP_UNIQUE_ENERGY + inputs.SWEEP_UNIQUE_MAPPINGS
        assert sum(body["objective"] == "mappings" for body in batch) == 4
        assert not unique & seen
        seen |= unique
    assert in_batch_duplicate_share(batches) == 0.25


def test_inputs_never_import_repro():
    code = ("import sys, inputs; inputs.sweep_batches(1, 2); inputs.hot_pool(1); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out.replace("'", '"')) == []


# ----------------------------------------------------------------------
# Percentiles and the client
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.99) == 99
    assert percentile(values, 0.5) == 50
    assert percentile(values, 1.0) == 100
    assert percentile([5.0], 0.99) == 5.0


def test_tail_needs_ten_calls_beyond_the_percentile():
    assert calls_needed(0.99) == 1000
    assert calls_needed(0.8) == 50
    assert tail_latency([1.0] * 999, 0.99)[1] == 0
    value, groups = tail_latency(list(range(1000)), 0.99)
    assert (value, groups) == (989, 1)
    assert sum(1 for v in range(1000) if v > value) == 10
    # Two groups: the median of each group's p99.
    latencies = list(range(1000)) + list(range(1000, 2000))
    value, groups = tail_latency(latencies, 0.99)
    assert groups == 2 and value == (989 + 1989) / 2


def test_transport_error_is_a_failed_call_and_never_resent():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    listener.settimeout(5.0)

    def close_without_reply():
        peer, _ = listener.accept()
        peer.recv(1 << 16)
        peer.close()

    thread = threading.Thread(target=close_without_reply)
    thread.start()
    connection = Connection(*listener.getsockname(), timeout=5.0)
    try:
        call = connection.call(build_request("GET", "/healthz"))
        thread.join()
        # A re-sent request would have opened a second connection.
        listener.settimeout(0.2)
        with pytest.raises(socket.timeout):
            listener.accept()
    finally:
        connection.close()
        listener.close()
    assert call.status == 0 and call.body == b""
    assert connection.connects == 1


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(name, start, end, span_id, parent=0, attrs=None):
    return [name, start, end, span_id, parent, 1, None, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("http.request", 0.0, 10.0, 1),
        _span("requests.validate", 1.0, 3.0, 2, parent=1),
        _span("requests.hash", 1.5, 2.5, 3, parent=2),
        _span("scheduler.wait", 4.0, 8.0, 4, parent=1),
    ]
    assert layers.self_times(spans) == {1: 4.0, 2: 1.0, 3: 1.0, 4: 4.0}
    # The wait is nobody's work: only the handler's and children's own time.
    assert sorted(layers.self_intervals(spans)) == [
        (0.0, 1.0), (1.0, 1.5), (1.5, 2.5), (2.5, 3.0), (3.0, 4.0), (8.0, 10.0)]


def test_interval_union_and_subtraction():
    assert layers.union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert layers.subtract((0, 10), [(2, 3), (8, 12)]) == [(0, 2), (3, 8)]
    assert layers.subtract((0, 1), []) == [(0, 1)]


def test_unattributed_share_counts_overlapping_work_once():
    server = [_span("http.request", 1.0, 4.0, 1), _span("store.get", 2.0, 3.0, 2, parent=1)]
    other = [_span("http.request", 2.0, 5.0, 1)]
    metrics = layers.per_layer(
        [(10, server), (11, other)], window=(0.0, 10.0), requests=1, calls=1,
        client_intervals=[(0.0, 1.0)], client_connects=1,
        health_before={}, health_after={}, traced_rps=90.0, untraced_rps=100.0)
    # Busy: client 0-1, servers 1-5 (overlap counted once); idle 5-10.
    assert metrics["trace.unattributed_share"] == 0.5
    assert abs(metrics["trace.overhead"] - 0.1) < 1e-12
    assert set(metrics) == {name for name, _, _ in layers.METRICS}


def test_span_recorder_records_calls_and_passes_exceptions_through(tmp_path):
    traced_serve.RECORDER = traced_serve.Recorder(str(tmp_path))
    try:
        @traced_serve.span("wire.encode", attrs=lambda a, r: {"bytes": len(r)})
        def encode(value):
            if value is None:
                raise ValueError("not encodable")
            return b"xy"

        @traced_serve.span("fleet.submit")
        def submit(value):
            return encode(value)

        assert submit(1) == b"xy"
        with pytest.raises(ValueError, match="not encodable"):
            encode(None)
        spans = traced_serve.RECORDER.spans
        assert [s[layers.NAME] for s in spans] == [
            "wire.encode", "fleet.submit", "wire.encode.error"]
        assert spans[0][layers.ATTRS] == {"bytes": 2}
        assert spans[0][layers.PARENT] == spans[1][layers.ID]
        assert spans[2][layers.PARENT] == 0
    finally:
        traced_serve.RECORDER = None
