#!/usr/bin/env python3
"""Design space exploration across the CiM stack.

Reproduces the style of the paper's case studies on a small scale: sweep an
architecture-level knob (array size) and a circuit-level knob (ADC
resolution) for a ReRAM macro running ResNet18, and show how the best
choice changes when the full system (DRAM + global buffer) is taken into
account — the paper's central motivation (Fig. 2).

The sweeps run on the batch evaluation path: operand distributions are
profiled once per layer and shared by every sweep point, per-action
energy tables for the whole grid are derived up front in config-axis
batched passes (``repro.core.config_batch`` — one NumPy pass per layer
for all sweep points, shipped to the workers inside their work items),
the joint (point x layer) grid fans out
across the process-wide shared pool (``BatchRunner`` / ``shared_pool``),
and mapping candidates are evaluated as one vectorized counts-matrix
product per layer.  The loop-nest mapper demo scores its whole
random-tiling population as NumPy factor arrays
(``repro.mapping.batch_search``).

Run with::

    python examples/design_space_exploration.py
"""

import time

from repro import CiMLoopModel, SystemConfig
from repro.core.batch import BatchRunner, process_energy_cache
from repro.macros import base_macro
from repro.workloads import resnet18
from repro.workloads.distributions import profile_network
from repro.workloads.networks import Network

#: Process-pool width used by the parallel sweeps below.
SWEEP_WORKERS = 2


def sweep_array_sizes(network: Network) -> None:
    print("== Architecture sweep: CiM array size (macro-only vs full system) ==")
    print(f"{'array':>8s} {'macro fJ/MAC':>14s} {'system fJ/MAC':>14s} {'utilisation':>12s}")
    sizes = (64, 128, 256, 512)
    macro_configs = [base_macro(rows=size, cols=size) for size in sizes]
    system_configs = [SystemConfig(macro=config) for config in macro_configs]
    # Profile once; both sweeps (eight points) share the same layer profiles
    # and run concurrently in worker processes.  The macro sweep's energy
    # tables are derived before fan-out in config-axis batched passes (one
    # NumPy pass per layer for all four sizes) and shipped to the workers
    # with the grid cells.
    distributions = profile_network(network)
    runner = BatchRunner(workers=SWEEP_WORKERS)
    macro_results = runner.run_points(
        macro_configs, network, distributions=distributions, default_profiled=True
    )
    system_results = runner.run_points(
        system_configs, network, distributions=distributions, default_profiled=True
    )
    cache = process_energy_cache()
    print(f"   ({cache.misses} per-action tables derived once, "
          f"{cache.hits} cache hits so far)")
    for size, macro_result, system_result in zip(sizes, macro_results, system_results):
        utilisation = sum(l.utilization * l.total_macs for l in macro_result.layers) / \
            macro_result.total_macs
        print(f"{size:8d} {macro_result.energy_per_mac * 1e15:14.1f} "
              f"{system_result.energy_per_mac * 1e15:14.1f} {utilisation:12.2f}")
    print("Larger arrays are often underutilised (higher macro energy/MAC) yet win at the\n"
          "system level because resident weights avoid off-chip traffic.\n")


def sweep_adc_resolution(network: Network) -> None:
    print("== Circuit sweep: ADC resolution ==")
    model = CiMLoopModel(base_macro(rows=256, cols=256))
    results = model.sweep(network, "adc_resolution", [4, 5, 6, 7, 8], workers=SWEEP_WORKERS)
    print(f"{'ADC bits':>9s} {'fJ/MAC':>10s} {'TOPS/W':>10s}")
    for bits, result in results.items():
        print(f"{bits:9d} {result.energy_per_mac * 1e15:10.1f} {result.tops_per_watt:10.1f}")
    print("Lower-resolution ADCs save energy, which is why every macro in the paper's\n"
          "Fig. 3 invents a strategy to reduce ADC conversions or resolution.\n")


def mapping_search_demo(network: Network) -> None:
    print("== Mapping search with amortised per-action energies ==")
    model = CiMLoopModel(base_macro(rows=256, cols=256))
    layer = network.layers[2]
    for num_mappings in (1, 100, 2000):
        search = model.evaluate_mappings(layer, num_mappings=num_mappings)
        print(f"  {num_mappings:5d} mappings -> best energy "
              f"{search.best.total_energy * 1e6:8.2f} uJ, "
              f"{search.mappings_per_second:10.0f} mappings/s")
    print("Per-mapping cost collapses as the data-value-dependent energies are amortised\n"
          "across the search and the candidates are evaluated in one vectorized batch\n"
          "(the effect behind the paper's Table II).\n")


def loop_nest_search_demo(network: Network) -> None:
    print("== Batched loop-nest mapping search, scored in femtojoules ==")
    model = CiMLoopModel(base_macro(rows=256, cols=256))
    layer = network.layers[2]
    # The population is scored by *energy*: every candidate's access
    # counts are lowered to macro action counts and multiplied against
    # the cached per-action energy vector in one GEMM — the objective the
    # paper's figures report, at batch speed.  The array level's spatial
    # budget defaults to the macro's geometry (one compute group per
    # independent output column group), so the mapper trades sequential
    # passes for exactly the parallelism the hardware offers.
    budget = model.macro.spatial_fanout_budget()
    start = time.perf_counter()
    batched = model.search_layer_mappings(layer, num_mappings=2000, seed=0)
    batch_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar = model.search_layer_mappings(
        layer, num_mappings=2000, seed=0, engine="scalar"
    )
    scalar_s = time.perf_counter() - start
    assert batched.best_mapping == scalar.best_mapping  # shared population
    print(f"  {batched.mappings_evaluated} mappings scored "
          f"({batched.mappings_rejected} rejected by the array capacity, "
          f"geometry-derived spatial budget {budget})")
    print(f"  best mapping energy {batched.best_cost * 1e6:8.2f} uJ")
    print(f"  batched engine {2000 / batch_s:10.0f} mappings/s (one energy GEMM)")
    print(f"  scalar oracle  {2000 / scalar_s:10.0f} mappings/s "
          f"({scalar_s / batch_s:.0f}x slower, same best mapping)")
    proxy = model.search_layer_mappings(layer, num_mappings=2000, seed=0,
                                        objective="proxy")
    if proxy.best_mapping != batched.best_mapping:
        print("  (the access-count proxy would have picked a different mapping)")
    print("  best loop nest:")
    for line in batched.best_mapping.describe().splitlines():
        print(f"    {line}")
    print()


def main() -> None:
    network = Network(name="resnet18_subset", layers=tuple(list(resnet18())[:8]))
    sweep_array_sizes(network)
    sweep_adc_resolution(network)
    mapping_search_demo(network)
    loop_nest_search_demo(network)


if __name__ == "__main__":
    main()
