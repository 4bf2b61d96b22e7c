"""Tests for the vectorized batch engine, safe energy caching, and sweeps."""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from repro import CiMLoopModel, SystemConfig
from repro.architecture.macro import (
    ACTION_KINDS,
    ACTION_TABLE,
    CiMMacro,
    action_component_matrix,
    per_action_energy_vector,
)
from repro.architecture.system import DataPlacement
from repro.core.batch import BatchEvaluator, BatchRunner, MappingCandidateSpace
from repro.core.fast_pipeline import AmortizedEvaluator, PerActionEnergyCache
from repro.macros import macro_a, macro_b, macro_c, macro_d
from repro.utils.errors import EvaluationError
from repro.workloads import matrix_vector_workload, resnet18
from repro.workloads.layer import conv2d_layer, matmul_layer

PUBLISHED_MACROS = (macro_a, macro_b, macro_c, macro_d)


def _layer(index=2):
    return list(resnet18())[index]


def _relative_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class TestActionVectorPlumbing:
    def test_action_vector_matches_fields(self):
        counts = CiMMacro(macro_a()).map_layer(_layer())
        vector = counts.action_vector()
        assert vector.shape == (len(ACTION_KINDS),)
        for value, (count_field, _, _) in zip(vector, ACTION_TABLE):
            assert value == getattr(counts, count_field)

    def test_action_vector_programming_appended(self):
        counts = CiMMacro(macro_a()).map_layer(_layer())
        vector = counts.action_vector(include_programming=True)
        assert vector.shape == (len(ACTION_KINDS) + 1,)
        assert vector[-1] == counts.cell_writes

    def test_energy_vector_alignment(self):
        macro = CiMMacro(macro_b())
        per_action = macro.per_action_energies(macro.operand_context(None))
        vector = per_action_energy_vector(per_action)
        for value, action in zip(vector, ACTION_KINDS):
            assert value == per_action[action]

    def test_component_matrix_partitions_actions(self):
        matrix, components = action_component_matrix()
        # Every action charges exactly one component.
        assert np.all(matrix.sum(axis=1) == 1.0)
        assert set(components) == {component for _, _, component in ACTION_TABLE}

    def test_dot_product_equals_scalar_breakdown(self):
        macro = CiMMacro(macro_c())
        layer = _layer()
        counts = macro.map_layer(layer)
        per_action = macro.per_action_energies(macro.operand_context(None))
        breakdown = macro.energy_breakdown(counts, per_action)
        subtotal = sum(v for k, v in breakdown.items() if k != "misc")
        dot = float(counts.action_vector() @ per_action_energy_vector(per_action))
        assert _relative_close(dot, subtotal)


class TestCandidateSpace:
    def test_matches_scalar_candidate_order(self):
        macro = CiMMacro(macro_a())
        layer = _layer()
        base = macro.map_layer(layer)
        scalar_candidates = AmortizedEvaluator(macro).candidate_counts(layer, 17)
        space = MappingCandidateSpace.tile_perturbations(base, 17)
        assert len(space) == 17
        for index, expected in enumerate(scalar_candidates):
            assert space.counts(index) == expected

    def test_counts_matrix_matches_materialised_candidates(self):
        macro = CiMMacro(macro_d())
        base = macro.map_layer(_layer())
        space = MappingCandidateSpace.tile_perturbations(base, 10)
        matrix = space.counts_matrix()
        for index in range(len(space)):
            assert np.array_equal(matrix[index], space.counts(index).action_vector())

    def test_rejects_empty_space(self):
        base = CiMMacro(macro_a()).map_layer(_layer())
        with pytest.raises(EvaluationError):
            MappingCandidateSpace.tile_perturbations(base, 0)


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("factory", PUBLISHED_MACROS, ids=lambda f: f.__name__)
    def test_every_candidate_breakdown_matches(self, factory):
        macro = CiMMacro(factory())
        layer = _layer()
        cache = PerActionEnergyCache()
        evaluator = AmortizedEvaluator(macro, cache)
        num = 40

        per_action = cache.get(macro, layer)
        candidates = evaluator.candidate_counts(layer, num)
        space = MappingCandidateSpace.tile_perturbations(macro.map_layer(layer), num)
        batch = BatchEvaluator(macro, cache).evaluate_space(layer, space)

        for index, counts in enumerate(candidates):
            expected = macro.energy_breakdown(counts, per_action)
            actual = batch.breakdown(index)
            assert set(actual) == set(expected)
            for component, value in expected.items():
                assert _relative_close(actual[component], value), (index, component)
            assert _relative_close(
                float(batch.total_energies[index]), sum(expected.values())
            )
            assert _relative_close(
                float(batch.latencies_s[index]), macro.latency_seconds(counts)
            )

    @pytest.mark.parametrize("factory", PUBLISHED_MACROS, ids=lambda f: f.__name__)
    def test_search_result_matches_scalar_oracle(self, factory):
        macro = CiMMacro(factory())
        layer = _layer(1)
        evaluator = AmortizedEvaluator(macro, PerActionEnergyCache())
        scalar = evaluator.evaluate_mappings_scalar(layer, 25)
        batch = evaluator.evaluate_mappings(layer, 25)
        assert batch.evaluations == scalar.evaluations == 25
        assert batch.best.counts == scalar.best.counts
        assert _relative_close(batch.best.total_energy, scalar.best.total_energy)
        for component, value in scalar.best.energy_breakdown.items():
            assert _relative_close(batch.best.energy_breakdown[component], value)

    def test_best_is_baseline_mapping(self):
        macro = CiMMacro(macro_b())
        layer = _layer(1)
        result = BatchEvaluator(macro).evaluate_mappings(layer, 16)
        baseline = macro.map_layer(layer)
        assert result.best.counts == baseline


class TestSafeEnergyCache:
    def test_same_named_configs_do_not_collide(self):
        """Regression: the old (config.name, layer.name) key aliased these."""
        layer = _layer()
        config_a = macro_a()
        config_b = config_a.with_updates(adc_resolution=4)
        assert config_a.name == config_b.name  # with_updates keeps the name
        cache = PerActionEnergyCache()
        energies_a = cache.get(CiMMacro(config_a), layer)
        energies_b = cache.get(CiMMacro(config_b), layer)
        assert cache.misses == 2 and cache.hits == 0 and len(cache) == 2
        assert energies_a["adc_convert"] != energies_b["adc_convert"]

    def test_same_named_layers_do_not_collide(self):
        macro = CiMMacro(macro_a())
        small = conv2d_layer("conv", 32, 32, 8, 8, kernel=3)
        large = conv2d_layer("conv", 64, 64, 16, 16, kernel=3)
        assert small.name == large.name
        cache = PerActionEnergyCache()
        cache.get(macro, small)
        cache.get(macro, large)
        assert cache.misses == 2 and len(cache) == 2

    def test_identical_pairs_still_hit(self):
        macro = CiMMacro(macro_a())
        rebuilt = CiMMacro(macro_a())  # distinct object, identical config
        layer = _layer()
        cache = PerActionEnergyCache()
        cache.get(macro, layer)
        cache.get(rebuilt, layer)
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_fingerprint_distinguishes_precisions_and_style(self):
        base = matmul_layer("ffn", 64, 64, 64)
        assert base.fingerprint() != base.with_bits(input_bits=4).fingerprint()
        assert base.fingerprint() == matmul_layer("ffn", 64, 64, 64).fingerprint()

    def test_concurrent_sweep_accounting(self):
        """A shared cache stays consistent under concurrent threaded sweeps."""
        layer = _layer()
        configs = [macro_a().with_updates(adc_resolution=bits) for bits in (4, 5, 6, 7)]
        macros = [CiMMacro(config) for config in configs]
        cache = PerActionEnergyCache()
        repeats = 8

        def probe(macro):
            return cache.get(macro, layer)["adc_convert"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            energies = list(pool.map(probe, macros * repeats))
        assert cache.hits + cache.misses == len(macros) * repeats
        assert cache.misses == len(macros) == len(cache)
        # Every repeat of the same config observed the same cached energy.
        for offset in range(len(macros)):
            assert len({energies[offset + i * len(macros)] for i in range(repeats)}) == 1

    def test_lock_is_real(self):
        assert isinstance(PerActionEnergyCache()._lock, type(threading.Lock()))

    def test_custom_distributions_do_not_poison_model_cache(self):
        """Regression: explicit non-default distributions must neither seed
        nor be served from the model's persistent energy cache."""
        from repro.workloads.distributions import profile_layer

        model = CiMLoopModel(macro_a())
        layer = _layer()
        custom = profile_layer(layer, salt=123)
        with_custom = model.evaluate_mappings(layer, 8, distributions=custom)
        assert len(model.energy_cache) == 0  # custom run bypassed the cache
        default = model.evaluate_mappings(layer, 8)
        assert len(model.energy_cache) == 1
        assert default.best.total_energy != with_custom.best.total_energy
        # And the custom profile never leaks out of the cache afterwards.
        repeat_custom = model.evaluate_mappings(layer, 8, distributions=custom)
        assert repeat_custom.best.total_energy == pytest.approx(
            with_custom.best.total_energy, rel=1e-12
        )


class TestSweepRebuild:
    def test_sweep_preserves_every_system_field(self):
        """Swept system configs are rebuilt with dataclasses.replace, so no
        field — present or future — is silently reset to its default."""
        system = SystemConfig(
            macro=macro_a(),
            num_macros=7,
            global_buffer_kib=512,
            dram_energy_per_bit_pj=9.5,
            dram_bandwidth_gbps=64.0,
            noc_flit_bits=128,
            noc_hops_per_transfer=5,
            placement=DataPlacement.ON_CHIP_IO,
        )
        model = CiMLoopModel(system, use_distributions=False)
        layer = matrix_vector_workload(64, 64, repeats=1).layers[0]
        results = model.sweep(layer, "dac_resolution", [1, 2])
        assert set(results) == {1, 2}
        # Re-run one point by hand with the fully-preserved config; a sweep
        # that dropped any system field would disagree.
        from dataclasses import replace

        expected = CiMLoopModel(
            replace(system, macro=system.macro.with_updates(dac_resolution=2)),
            use_distributions=False,
        ).evaluate(layer)
        assert results[2].total_energy == pytest.approx(expected.total_energy, rel=1e-12)
        for field_info in fields(SystemConfig):
            assert getattr(system, field_info.name) is not None

    def test_parallel_sweep_matches_serial(self):
        model = CiMLoopModel(macro_a())
        layer = matrix_vector_workload(64, 64, repeats=1).layers[0]
        serial = model.sweep(layer, "adc_resolution", [4, 6])
        parallel = model.sweep(layer, "adc_resolution", [4, 6], workers=2)
        for value in (4, 6):
            assert parallel[value].total_energy == pytest.approx(
                serial[value].total_energy, rel=1e-12
            )


class TestSharedPool:
    def test_sweep_creates_exactly_one_pool_per_process(self, monkeypatch):
        """Repeated parallel sweeps reuse one process-wide executor."""
        from repro.core import batch

        batch.shutdown_shared_pool()
        created = []
        real_executor = batch.ProcessPoolExecutor

        class CountingExecutor(real_executor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(batch, "ProcessPoolExecutor", CountingExecutor)
        try:
            model = CiMLoopModel(macro_a(), use_distributions=False)
            layer = matrix_vector_workload(64, 64, repeats=1).layers[0]
            model.sweep(layer, "adc_resolution", [4, 5], workers=2)
            model.sweep(layer, "adc_resolution", [6, 7], workers=2)
            BatchRunner(workers=2).mapping_search(macro_a(), [_layer(1)], 4)
            assert created == [2]
        finally:
            batch.shutdown_shared_pool()

    def test_pool_grows_only_when_more_workers_requested(self, monkeypatch):
        from repro.core import batch

        batch.shutdown_shared_pool()
        created = []
        real_executor = batch.ProcessPoolExecutor

        class CountingExecutor(real_executor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(batch, "ProcessPoolExecutor", CountingExecutor)
        try:
            assert batch.shared_pool(2) is batch.shared_pool(2)
            assert batch.shared_pool(1) is batch.shared_pool(2)  # smaller reuses
            bigger = batch.shared_pool(3)  # larger replaces
            assert batch.shared_pool(3) is bigger
            assert created == [2, 3]
        finally:
            batch.shutdown_shared_pool()

    def test_shared_pool_rejects_bad_worker_count(self):
        from repro.core import batch

        with pytest.raises(EvaluationError):
            batch.shared_pool(0)

    def test_shutdown_allows_recreation(self):
        from repro.core import batch

        batch.shutdown_shared_pool()
        first = batch.shared_pool(2)
        batch.shutdown_shared_pool()
        second = batch.shared_pool(2)
        assert first is not second
        batch.shutdown_shared_pool()

    def test_pool_scores_tables_derived_after_it_forked(self):
        """Configs the parent first derives after the pool forked reach the
        live workers in the cell payloads: results are bitwise equal to the
        in-process run."""
        from repro.core import batch
        from repro.workloads.networks import Network

        network = Network(name="head", layers=tuple(list(resnet18())[:3]))
        # cycle_time_ns=29 keeps these (config, layer) pairs unique to this
        # test, so no table exists anywhere when the pool forks.
        configs = [
            macro_b().with_updates(cycle_time_ns=29.0, adc_resolution=resolution)
            for resolution in (5, 7)
        ]
        configs.append(SystemConfig(macro=configs[0]))
        batch.shutdown_shared_pool()
        try:
            batch.shared_pool(2)
            cache = batch.process_energy_cache()
            key = PerActionEnergyCache.key_for(CiMMacro(configs[0]), network.layers[0])
            assert key not in cache._entries
            pooled = BatchRunner(workers=2).run_grid(configs, network)
        finally:
            batch.shutdown_shared_pool()
        inline = BatchRunner(workers=1).run_grid(configs, network)
        assert pooled == inline

    def test_shipped_table_cell_neither_profiles_nor_reads_a_cache(self, monkeypatch):
        from repro.architecture import macro as macro_module
        from repro.core import batch, model
        from repro.workloads import distributions

        config, layer = macro_b(), _layer(3)
        table = PerActionEnergyCache().get(CiMMacro(config), layer)
        expected = CiMLoopModel(config).evaluate_layer(layer)

        def refuse(*args, **kwargs):
            raise AssertionError("a cell with a shipped table profiled or read a cache")

        for owner in (macro_module, model, distributions):
            monkeypatch.setattr(owner, "profile_layer", refuse)
        monkeypatch.setattr(PerActionEnergyCache, "get", refuse)
        payload = (config, layer, None, True, True, True, table)
        assert batch._evaluate_grid_cell(payload) == expected

    def test_mapping_search_ships_parent_cached_energies(self):
        """Per-action energies are derived once in the parent and reused by
        later searches over the same (config, layer) pairs."""
        from repro.core.fast_pipeline import PerActionEnergyCache

        cache = PerActionEnergyCache()
        runner = BatchRunner(workers=1)
        layers = [_layer(1), _layer(2)]
        first = runner.mapping_search(macro_b(), layers, 8, energy_cache=cache)
        assert cache.misses == len(layers) and cache.hits == 0
        second = runner.mapping_search(macro_b(), layers, 8, energy_cache=cache)
        assert cache.misses == len(layers) and cache.hits == len(layers)
        for a, b in zip(first, second):
            assert a.best.total_energy == b.best.total_energy

    def test_mapping_search_custom_distributions_bypass_process_cache(self):
        """Explicit distributions must not seed (or be served from) the
        process-wide energy cache, whose key ignores distributions."""
        from repro.core import batch
        from repro.workloads.distributions import profile_layer

        layer = _layer(1)
        shared = batch.process_energy_cache()
        before = len(shared)
        custom = profile_layer(layer, salt=99)
        with_custom = BatchRunner(workers=1).mapping_search(
            macro_b(), [layer], 8, distributions={layer.name: custom}
        )
        assert len(shared) == before  # untouched by the custom-profile run
        default = BatchRunner(workers=1).mapping_search(macro_b(), [layer], 8)
        assert len(shared) == before + 1
        assert default[0].best.total_energy != with_custom[0].best.total_energy

    def test_grid_results_match_serial_evaluate(self):
        """run_grid reassembles per-point results identical to evaluate()."""
        from repro.workloads.networks import Network

        layers = tuple(list(resnet18())[:2])
        network = Network(name="head", layers=layers)
        configs = [macro_a(), macro_a().with_updates(adc_resolution=6)]
        grid = BatchRunner(workers=1).run_grid(configs, network, use_distributions=False)
        for config, result in zip(configs, grid):
            expected = CiMLoopModel(config, use_distributions=False).evaluate(network)
            assert result.target_name == expected.target_name
            assert result.workload_name == expected.workload_name
            assert result.total_energy == pytest.approx(expected.total_energy, rel=1e-12)
            assert [cell.layer_name for cell in result.layers] == \
                [cell.layer_name for cell in expected.layers]


class TestBatchRunner:
    def test_run_points_serial_and_parallel_agree(self):
        layer = matrix_vector_workload(64, 64, repeats=1).layers[0]
        from repro.workloads.networks import Network

        network = Network(name="single", layers=(layer,))
        configs = [macro_b(), macro_b().with_updates(adc_resolution=6)]
        serial = BatchRunner(workers=1).run_points(configs, network, use_distributions=False)
        parallel = BatchRunner(workers=2).run_points(configs, network, use_distributions=False)
        for a, b in zip(serial, parallel):
            assert a.total_energy == pytest.approx(b.total_energy, rel=1e-12)

    def test_mapping_search_fans_layers(self):
        layers = list(resnet18())[:2]
        results = BatchRunner(workers=2).mapping_search(macro_b(), layers, 8)
        assert [r.layer_name for r in results] == [l.name for l in layers]
        for result in results:
            assert result.evaluations == 8
            assert result.best.total_energy > 0