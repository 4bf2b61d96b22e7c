"""Benchmark: batched vs scalar mapping-search throughput (perf record).

Measures mappings/second of the batched population engine against the
scalar per-candidate oracle on the fig. 12 map space, asserts the
engines agree on the best mapping at equal seeds, and writes a
``BENCH_mapper.json`` perf record at the repo root so the performance
trajectory of the mapper is tracked across commits.
"""

import time

from conftest import emit, write_record

from repro.experiments.fig12 import fig12_mapspace
from repro.mapping import batch_search, search_mappings

NUM_MAPPINGS = 5000
SEED = 0


def _measure(searcher, space):
    start = time.perf_counter()
    result = searcher(space, num_mappings=NUM_MAPPINGS, seed=SEED)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_mapper_throughput(benchmark):
    space = fig12_mapspace(1)
    batched, batch_s = benchmark(lambda: _measure(batch_search, space))
    scalar, scalar_s = _measure(search_mappings, space)

    assert batched.best_mapping == scalar.best_mapping
    assert batched.best_cost == scalar.best_cost
    assert batched.mappings_evaluated == scalar.mappings_evaluated == NUM_MAPPINGS

    batch_rate = NUM_MAPPINGS / batch_s
    scalar_rate = NUM_MAPPINGS / scalar_s
    speedup = batch_rate / scalar_rate
    record = {
        "benchmark": "mapper_throughput",
        "workload": "fig12_max_utilization",
        "num_mappings": NUM_MAPPINGS,
        "batch_mappings_per_s": batch_rate,
        "scalar_mappings_per_s": scalar_rate,
        "speedup": speedup,
        "batch_wall_s": batch_s,
        "scalar_wall_s": scalar_s,
    }
    write_record("BENCH_mapper.json", record)
    emit(
        "Mapper throughput (fig. 12 map space)",
        [
            f"batched {batch_rate:12.0f} mappings/s",
            f"scalar  {scalar_rate:12.0f} mappings/s",
            f"speedup {speedup:12.1f}x (identical best mapping at seed {SEED})",
        ],
    )
    # Acceptance: the batched engine evaluates >= 20x more mappings/s.
    assert speedup >= 20.0
