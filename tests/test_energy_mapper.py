"""Equivalence tests: energy-scored (fJ) mapping search vs the scalar oracle.

The batched engine lowers the whole population's access counts to
per-action count matrices and scores them against the cached per-action
energy vector in one GEMM; the oracle routes every candidate through the
same lowering one at a time.  These tests pin that the two paths agree on
per-candidate joules, the argmin, and the end-to-end model entry point,
and that the lowering behaves physically (spatial reduction cuts ADC
energy, weight thrash costs programming energy).
"""

import numpy as np
import pytest

from repro.architecture.macro import (
    ACTION_TABLE,
    PROGRAMMING_ACTION,
    CiMMacro,
    OutputReuseStyle,
)
from repro.core.fast_pipeline import PerActionEnergyCache
from repro.core.model import CiMLoopModel
from repro.macros.definitions import base_macro
from repro.mapping import (
    MapSpace,
    analyze_mapping,
    batch_analyze,
    batch_search,
    generate_mapping_population,
    search_mappings,
)
from repro.mapping.energy import (
    action_counts_matrix,
    energy_cost,
    lowering_for,
    mapping_action_counts,
    scalar_energy_cost,
)
from repro.utils.errors import EvaluationError, MappingError
from repro.workloads.einsum import TensorRole, matmul_einsum
from repro.workloads.networks import matrix_vector_workload

ACTION_INDEX = {
    count: i
    for i, (count, _, _) in enumerate(ACTION_TABLE + (PROGRAMMING_ACTION,))
}


def _setup(rows=64, cols=64, repeats=8, spatial_fanout=8, **config_overrides):
    config = base_macro(rows=rows, cols=cols)
    if config_overrides:
        config = config.with_updates(**config_overrides)
    macro = CiMMacro(config)
    layer = matrix_vector_workload(rows, cols, repeats=repeats).layers[0]
    space = MapSpace(
        einsum=layer.einsum,
        level_names=("compute", "array", "backing"),
        capacities={1: macro.weight_capacity()},
        spatial_limits={1: spatial_fanout} if spatial_fanout else {},
    )
    return macro, layer, space


class TestEnergyEquivalence:
    def test_batch_search_matches_scalar_energy_oracle(self):
        macro, layer, space = _setup()
        cache = PerActionEnergyCache()
        for seed in (0, 3):
            batched = batch_search(
                space, cost_function=energy_cost(macro, layer, cache=cache),
                num_mappings=200, seed=seed,
            )
            scalar = search_mappings(
                space, cost_function=scalar_energy_cost(macro, layer, cache=cache),
                num_mappings=200, seed=seed,
            )
            assert batched.best_mapping == scalar.best_mapping
            assert batched.best_cost == pytest.approx(scalar.best_cost, rel=1e-12)
        assert cache.misses == 1  # one (config, layer): derived once

    def test_per_candidate_energies_match_elementwise(self):
        """Every candidate's batched row equals the scalar lowering of its
        own analyzed counts — not just the winner."""
        macro, layer, space = _setup()
        lowering = lowering_for(macro, layer.einsum)
        population = generate_mapping_population(space, 40, seed=5)
        counts = batch_analyze(
            space.einsum, population.dims, population.factors,
            spatial=population.spatial,
        )
        matrix = action_counts_matrix(lowering, counts)
        for index in range(len(population)):
            scalar_counts = analyze_mapping(population.mapping(index))
            vector = mapping_action_counts(lowering, scalar_counts)
            assert np.array_equal(matrix[index], vector)

    def test_model_entry_point_energy_objective(self):
        layer = matrix_vector_workload(64, 64, repeats=4).layers[0]
        model = CiMLoopModel(base_macro(rows=64, cols=64))
        batched = model.search_layer_mappings(
            layer, num_mappings=120, seed=1, spatial_fanout=4
        )
        scalar = model.search_layer_mappings(
            layer, num_mappings=120, seed=1, engine="scalar", spatial_fanout=4
        )
        assert batched.best_mapping == scalar.best_mapping
        assert batched.best_cost == pytest.approx(scalar.best_cost, rel=1e-12)
        assert batched.best_cost > 0  # joules, not a unitless proxy
        proxy = model.search_layer_mappings(
            layer, num_mappings=120, seed=1, objective="proxy"
        )
        assert proxy.best_cost != pytest.approx(batched.best_cost)

    def test_fixed_energy_model_uses_nominal_energies(self):
        """A use_distributions=False model scores with nominal per-action
        energies and must not pollute its default-profiled cache."""
        layer = matrix_vector_workload(64, 64, repeats=4).layers[0]
        model = CiMLoopModel(base_macro(rows=64, cols=64), use_distributions=False)
        result = model.search_layer_mappings(layer, num_mappings=50, seed=0)
        assert result.best_cost > 0
        assert len(model.energy_cache) == 0


class TestDeepHierarchies:
    """>3-level map spaces: the extra staging levels' traffic is charged
    at the macro's buffer action energies, and the scalar/batched
    equivalence contract extends to the deeper lowering."""

    def test_per_candidate_energies_match_elementwise_deep(self):
        """Every candidate's batched row equals the scalar lowering of its
        own analyzed counts at 4 and 5 hierarchy levels."""
        layer = matrix_vector_workload(64, 64, repeats=8).layers[0]
        model = CiMLoopModel(base_macro(rows=64, cols=64))
        lowering = lowering_for(model.macro, layer.einsum)
        for backing_levels in (2, 3):
            space = model.layer_mapspace(
                layer, spatial_fanout=8, backing_levels=backing_levels
            )
            assert len(space.level_names) == 2 + backing_levels
            population = generate_mapping_population(space, 40, seed=5)
            counts = batch_analyze(
                space.einsum, population.dims, population.factors,
                spatial=population.spatial,
            )
            matrix = action_counts_matrix(lowering, counts)
            for index in range(len(population)):
                scalar_counts = analyze_mapping(population.mapping(index))
                vector = mapping_action_counts(lowering, scalar_counts)
                assert np.array_equal(matrix[index], vector)

    def test_model_entry_point_deep_hierarchy(self):
        """The batched and scalar engines agree end to end through
        search_layer_mappings at backing_levels=3."""
        layer = matrix_vector_workload(64, 64, repeats=4).layers[0]
        model = CiMLoopModel(base_macro(rows=64, cols=64))
        batched = model.search_layer_mappings(
            layer, num_mappings=120, seed=1, spatial_fanout=4, backing_levels=3
        )
        scalar = model.search_layer_mappings(
            layer, num_mappings=120, seed=1, engine="scalar",
            spatial_fanout=4, backing_levels=3,
        )
        assert batched.best_mapping == scalar.best_mapping
        assert batched.best_cost == pytest.approx(scalar.best_cost, rel=1e-12)
        assert batched.best_cost > 0

    def test_deeper_hierarchies_cost_more_buffer_energy(self):
        """Staging levels only add traffic: the best achievable energy is
        non-decreasing as backing levels are inserted."""
        layer = matrix_vector_workload(64, 64, repeats=4).layers[0]
        model = CiMLoopModel(base_macro(rows=64, cols=64))
        costs = [
            model.search_layer_mappings(
                layer, num_mappings=200, seed=0, spatial_fanout=4,
                backing_levels=levels,
            ).best_cost
            for levels in (1, 2, 3)
        ]
        assert costs[0] <= costs[1] <= costs[2]
        assert costs[2] > costs[0]  # the extra buffer traffic is charged

    def test_backing_levels_must_be_positive(self):
        layer = matrix_vector_workload(64, 64, repeats=4).layers[0]
        model = CiMLoopModel(base_macro(rows=64, cols=64))
        with pytest.raises(EvaluationError):
            model.layer_mapspace(layer, backing_levels=0)


class TestLoweringPhysics:
    def test_spatial_reduction_cuts_adc_conversions(self):
        """Partial sums reduced across the array's spatial instances are
        combined before conversion, so fanout over the reduction
        dimension lowers the ADC action count."""
        macro, layer, _ = _setup()
        lowering = lowering_for(macro, layer.einsum)
        einsum = layer.einsum
        dims = tuple(einsum.dimensions)
        k = dims.index("K")
        # Two hand-built candidates: identical combined factors, but one
        # runs its array-level K loop spatially (reduction fanout 8).
        factors = np.ones((2, 3, len(dims)), dtype=np.int64)
        for d, dim in enumerate(dims):
            factors[:, 2, d] = einsum.extent(dim)
        factors[:, 2, k] = einsum.extent("K") // 8
        factors[:, 1, k] = 8
        spatial = np.ones_like(factors)
        spatial[1, 1, k] = 8
        counts = batch_analyze(einsum, dims, factors, spatial=spatial)
        matrix = action_counts_matrix(lowering, counts)
        adc = ACTION_INDEX["adc_converts"]
        assert matrix[1, adc] * 8 == matrix[0, adc]

    def test_programming_charges_weight_fills(self):
        """Cell programming is charged per weight element filled into the
        array (with best-case ordering that is the weight tensor once),
        times the cells one weight occupies."""
        macro, layer, space = _setup(spatial_fanout=0)
        lowering = lowering_for(macro, layer.einsum)
        population = generate_mapping_population(space, 60, seed=2)
        counts = batch_analyze(space.einsum, population.dims, population.factors)
        matrix = action_counts_matrix(lowering, counts, include_programming=True)
        writes = matrix[:, ACTION_INDEX["cell_writes"]]
        fills = counts.writes[TensorRole.WEIGHTS][:, 1]
        assert np.array_equal(writes, fills * lowering.cells_per_weight)
        assert (writes > 0).all()
        # The output-drain terms are where candidates genuinely differ:
        # tilings that re-visit output tiles drain more partial sums.
        adc = matrix[:, ACTION_INDEX["adc_converts"]]
        assert adc.min() < adc.max()

    def test_digital_style_has_no_adc_actions(self):
        macro, layer, space = _setup(
            output_reuse_style=OutputReuseStyle.DIGITAL
        )
        lowering = lowering_for(macro, layer.einsum)
        population = generate_mapping_population(space, 20, seed=0)
        counts = batch_analyze(
            space.einsum, population.dims, population.factors,
            spatial=population.spatial,
        )
        matrix = action_counts_matrix(lowering, counts)
        assert (matrix[:, ACTION_INDEX["adc_converts"]] == 0).all()
        assert (matrix[:, ACTION_INDEX["digital_mac_ops"]] > 0).all()
        # And the cost function still ranks candidates end to end.
        result = batch_search(
            space, cost_function=energy_cost(macro, layer),
            num_mappings=20, seed=0,
        )
        assert result.best_cost > 0

    def test_energy_lowering_requires_canonical_hierarchy(self):
        macro, layer, _ = _setup()
        lowering = lowering_for(macro, layer.einsum)
        space = MapSpace(
            einsum=matmul_einsum("mm", m=8, k=8, n=2),
            level_names=("compute", "memory"),
        )
        population = generate_mapping_population(space, 5, seed=0)
        counts = batch_analyze(space.einsum, population.dims, population.factors)
        with pytest.raises(MappingError, match="backing"):
            action_counts_matrix(lowering, counts)
