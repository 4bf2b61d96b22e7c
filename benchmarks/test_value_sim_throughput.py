"""Benchmark: vectorized vs loop value-simulator throughput (perf record).

Measures values/second of the vectorized whole-tensor engine against the
per-(vector, step) loop oracle at ``max_vectors=32``, asserts the energy
breakdowns agree to 1e-9 relative tolerance, and writes a
``BENCH_value_sim.json`` perf record at the repo root.
"""

import time

from conftest import emit, write_record

from repro.baselines.value_sim import ValueLevelSimulator
from repro.plugins import NeuroSimPlugin
from repro.workloads import resnet18
from repro.workloads.distributions import profile_layer

MAX_VECTORS = 32


def test_value_sim_throughput(benchmark):
    layer = list(resnet18())[2]
    distributions = profile_layer(layer)
    simulator = ValueLevelSimulator(NeuroSimPlugin().build_macro(), max_vectors=MAX_VECTORS)

    def run_vectorized():
        start = time.perf_counter()
        result = simulator.simulate_layer(layer, distributions)
        return result, time.perf_counter() - start

    fast, fast_s = benchmark(run_vectorized)
    start = time.perf_counter()
    loop = simulator.simulate_layer(layer, distributions, vectorized=False)
    loop_s = time.perf_counter() - start

    for component, expected in loop.energy_breakdown.items():
        actual = fast.energy_breakdown[component]
        scale = max(abs(actual), abs(expected), 1e-300)
        assert abs(actual - expected) <= 1e-9 * scale, component
    assert fast.values_simulated == loop.values_simulated

    speedup = loop_s / fast_s
    record = {
        "benchmark": "value_sim_throughput",
        "layer": layer.name,
        "max_vectors": MAX_VECTORS,
        "values_simulated": fast.values_simulated,
        "vectorized_values_per_s": fast.values_simulated / fast_s,
        "loop_values_per_s": loop.values_simulated / loop_s,
        "speedup": speedup,
        "vectorized_wall_s": fast_s,
        "loop_wall_s": loop_s,
    }
    write_record("BENCH_value_sim.json", record)
    emit(
        f"Value-simulator throughput ({layer.name}, {MAX_VECTORS} vectors)",
        [
            f"vectorized {fast.values_simulated / fast_s:14.0f} values/s",
            f"loop       {loop.values_simulated / loop_s:14.0f} values/s",
            f"speedup    {speedup:14.1f}x (breakdowns equal to 1e-9 rel)",
        ],
    )
    # Acceptance: the vectorized engine is >= 5x faster at 32 vectors.
    assert speedup >= 5.0
