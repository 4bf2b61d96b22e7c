"""Equivalence tests: batched mapping search vs the scalar oracle.

The batched engine must be a drop-in replacement for the scalar mapper:
same seed, same population, same best mapping, bitwise-equal default
cost.  These tests pin that contract across workload shapes, constraint
regimes, and seeds, and check the batched analysis term by term against
:func:`analyze_mapping`.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import (
    MapSpace,
    analyze_mapping,
    batch_analyze,
    batch_default_cost,
    batch_search,
    generate_mapping_population,
    search_mappings,
)
from repro.mapping.batch_search import (
    _SPATIAL_JOINT_ROUNDS,
    _sample_bounded_divisors,
    _sample_joint_subsplit,
)
from repro.mapping.mapper import _respects_constraints, default_cost
from repro.mapping.tiling import divisors
from repro.utils.errors import MappingError
from repro.workloads.einsum import ALL_TENSORS, conv2d_einsum, matmul_einsum

MATMUL = matmul_einsum("mm", m=16, k=32, n=4)
CONV = conv2d_einsum("conv", 1, 16, 32, 8, 8, 3, 3)

SPACES = {
    "matmul": MapSpace(einsum=MATMUL, level_names=("compute", "buffer", "dram")),
    "matmul_capacity": MapSpace(
        einsum=MATMUL, level_names=("compute", "buffer", "dram"), capacities={1: 64}
    ),
    "conv_four_levels": MapSpace(
        einsum=CONV, level_names=("compute", "array", "buffer", "dram")
    ),
    "conv_pinned": MapSpace(
        einsum=CONV,
        level_names=("compute", "array", "buffer", "dram"),
        fixed_factors={(1, "C"): 4, (3, "M"): 8},
    ),
    "conv_tight": MapSpace(
        einsum=CONV,
        level_names=("compute", "array", "buffer", "dram"),
        capacities={1: 512, 2: 4096},
    ),
    "matmul_spatial": MapSpace(
        einsum=MATMUL,
        level_names=("compute", "buffer", "dram"),
        spatial_limits={1: 4, 2: 2},
    ),
    "conv_spatial": MapSpace(
        einsum=CONV,
        level_names=("compute", "array", "backing"),
        capacities={1: 4096},
        spatial_limits={1: 16},
    ),
}


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("seed", [0, 7])
def test_batch_matches_scalar_best_mapping_and_cost(name, seed):
    space = SPACES[name]
    scalar = search_mappings(space, num_mappings=60, seed=seed)
    batched = batch_search(space, num_mappings=60, seed=seed)
    assert batched.best_mapping == scalar.best_mapping
    assert batched.best_cost == scalar.best_cost  # bitwise, not approx
    assert batched.mappings_attempted == scalar.mappings_attempted
    assert batched.mappings_evaluated == scalar.mappings_evaluated
    assert batched.best_counts.per_level == scalar.best_counts.per_level


def test_batch_analyze_matches_scalar_counts_exactly():
    space = SPACES["conv_four_levels"]
    population = generate_mapping_population(space, 25, seed=3)
    batch = batch_analyze(space.einsum, population.dims, population.factors)
    for index in range(len(population)):
        counts = analyze_mapping(population.mapping(index))
        for level in range(counts.mapping.num_levels):
            for role in ALL_TENSORS:
                scalar_acc = counts.at(level, role)
                assert batch.reads[role][index, level] == scalar_acc.reads
                assert batch.writes[role][index, level] == scalar_acc.writes
                assert batch.updates[role][index, level] == scalar_acc.updates
                assert batch.tile_elements[role][index, level] == scalar_acc.tile_elements


def test_batch_default_cost_bitwise_equals_scalar():
    space = SPACES["matmul"]
    population = generate_mapping_population(space, 40, seed=1)
    batch = batch_analyze(space.einsum, population.dims, population.factors)
    costs = batch_default_cost(batch)
    for index in range(len(population)):
        scalar_cost = default_cost(analyze_mapping(population.mapping(index)))
        assert costs[index] == scalar_cost


def test_constraint_masks_match_scalar_filter():
    """Every generated candidate passes the scalar constraint check, and the
    attempt accounting reflects rejected samples."""
    space = SPACES["conv_tight"]
    population = generate_mapping_population(space, 30, seed=5)
    assert population.rejected > 0  # the tight capacities actually prune
    for index in range(len(population)):
        assert _respects_constraints(space, population.mapping(index))


def test_population_prefix_is_stable_across_counts():
    """Asking for more mappings must extend the population, not reshuffle it
    (this is what makes few-vs-many searches comparable at one seed)."""
    space = SPACES["matmul"]
    small = generate_mapping_population(space, 5, seed=3)
    large = generate_mapping_population(space, 50, seed=3)
    assert np.array_equal(small.factors, large.factors[:5])


def test_more_mappings_never_worse_batched():
    space = SPACES["conv_four_levels"]
    few = batch_search(space, num_mappings=5, seed=3)
    many = batch_search(space, num_mappings=200, seed=3)
    assert many.best_cost <= few.best_cost


def test_batch_search_counts_are_meaningful():
    result = batch_search(SPACES["matmul_capacity"], num_mappings=50, seed=0)
    assert result.mappings_attempted > result.mappings_evaluated
    assert result.mappings_rejected == result.mappings_attempted - result.mappings_evaluated
    assert result.valid_mappings == result.mappings_evaluated


def test_batch_search_impossible_constraints_raise():
    space = MapSpace(
        einsum=MATMUL, level_names=("compute", "buffer", "dram"), capacities={1: 1}
    )
    with pytest.raises(MappingError):
        batch_search(space, num_mappings=5, seed=0)


def test_batch_search_rejects_bad_cost_shape():
    with pytest.raises(MappingError):
        batch_search(SPACES["matmul"], cost_function=lambda counts: np.zeros(3),
                     num_mappings=10, seed=0)


def test_custom_batch_cost_function():
    """A batched cost over the analysis arrays drives the argmin."""
    space = SPACES["matmul"]

    def innermost_traffic(counts):
        return counts.level_total(1).astype(float)

    result = batch_search(space, cost_function=innermost_traffic, num_mappings=40, seed=2)
    scalar = search_mappings(
        space, cost_function=lambda c: float(c.level_total(1)), num_mappings=40, seed=2
    )
    assert result.best_mapping == scalar.best_mapping


# ----------------------------------------------------------------------
# Spatial-factor populations
# ----------------------------------------------------------------------
class TestSpatialPopulations:
    def test_population_respects_spatial_limits(self):
        space = SPACES["conv_spatial"]
        population = generate_mapping_population(space, 60, seed=4)
        fanout = np.prod(population.spatial[:, 1, :], axis=1)
        assert (fanout <= 16).all()
        assert (fanout > 1).any()  # the budget is actually exercised
        for index in range(len(population)):
            assert _respects_constraints(space, population.mapping(index))

    def test_temporal_only_spaces_have_unit_spatial(self):
        population = generate_mapping_population(SPACES["matmul"], 30, seed=0)
        assert (population.spatial == 1).all()

    def test_spatial_subsplit_preserves_combined_factors(self):
        """Spatial sampling splits a level's factor, never changes it, so
        every dimension's factors still multiply to its extent."""
        space = SPACES["matmul_spatial"]
        population = generate_mapping_population(space, 40, seed=2)
        totals = np.prod(population.factors, axis=1)
        for d, dim in enumerate(population.dims):
            assert (totals[:, d] == space.einsum.extent(dim)).all()
        assert (population.factors % population.spatial == 0).all()

    def test_spatial_batch_analyze_matches_scalar_counts_exactly(self):
        space = SPACES["conv_spatial"]
        population = generate_mapping_population(space, 25, seed=7)
        assert (np.prod(population.spatial[:, 1, :], axis=1) > 1).any()
        batch = batch_analyze(
            space.einsum, population.dims, population.factors,
            spatial=population.spatial,
        )
        for index in range(len(population)):
            counts = analyze_mapping(population.mapping(index))
            for level in range(counts.mapping.num_levels):
                for role in ALL_TENSORS:
                    scalar_acc = counts.at(level, role)
                    assert batch.reads[role][index, level] == scalar_acc.reads
                    assert batch.writes[role][index, level] == scalar_acc.writes
                    assert batch.updates[role][index, level] == scalar_acc.updates
                    assert batch.tile_elements[role][index, level] == scalar_acc.tile_elements

    def test_spatial_reuse_subset_matches_scalar(self):
        """A non-default spatial_reuse map (only inputs multicast) divides
        the same reads in both engines."""
        space = SPACES["conv_spatial"]
        population = generate_mapping_population(space, 15, seed=11)
        reuse = {1: (ALL_TENSORS[0],), 2: ()}
        batch = batch_analyze(
            space.einsum, population.dims, population.factors,
            spatial=population.spatial, spatial_reuse=reuse,
        )
        for index in range(len(population)):
            counts = analyze_mapping(population.mapping(index), spatial_reuse=reuse)
            for level in range(counts.mapping.num_levels):
                for role in ALL_TENSORS:
                    scalar_acc = counts.at(level, role)
                    assert batch.reads[role][index, level] == scalar_acc.reads
                    assert batch.updates[role][index, level] == scalar_acc.updates

    def test_joint_subsplit_is_symmetric_across_dimensions(self):
        """The spatial sub-split must not favour earlier dimensions.

        For a square matmul the M and N dimensions are statistically
        interchangeable, so their mean spatial factors over a large
        population must agree closely.  The old sampler walked dimensions
        in declaration order with a shrinking cap, so M (first) grabbed
        most of the fanout budget and N (last) got the leftovers — under
        that scheme this ratio exceeds 2x.
        """
        space = MapSpace(
            einsum=matmul_einsum("sq", m=32, k=32, n=32),
            level_names=("compute", "array", "backing"),
            spatial_limits={1: 8},
        )
        population = generate_mapping_population(space, 2000, seed=0)
        dims = {dim: d for d, dim in enumerate(population.dims)}
        mean_m = population.spatial[:, 1, dims["M"]].mean()
        mean_n = population.spatial[:, 1, dims["N"]].mean()
        assert mean_m == pytest.approx(mean_n, rel=0.15)
        assert mean_m > 1.0  # the budget is actually used

    def test_joint_subsplit_stays_within_the_limit(self):
        """Rejection sampling (and its fanout-1 fallback) never emits a
        row whose joint spatial product exceeds the level limit."""
        space = MapSpace(
            einsum=CONV,
            level_names=("compute", "array", "backing"),
            spatial_limits={1: 3},  # tight limit: exercises the fallback
        )
        population = generate_mapping_population(space, 200, seed=9)
        fanout = np.prod(population.spatial[:, 1, :], axis=1)
        assert (fanout <= 3).all()

    def test_zero_spatial_limit_rejects_everything(self):
        space = MapSpace(
            einsum=MATMUL, level_names=("compute", "buffer", "dram"),
            spatial_limits={1: 0},
        )
        with pytest.raises(MappingError):
            batch_search(space, num_mappings=5, seed=0)


# ----------------------------------------------------------------------
# int64 overflow guard
# ----------------------------------------------------------------------
class TestOverflowGuard:
    PATHOLOGICAL = matmul_einsum("huge", m=2 ** 21, k=2 ** 21, n=2 ** 21)

    def test_batched_engines_refuse_pathological_extents(self):
        space = MapSpace(
            einsum=self.PATHOLOGICAL, level_names=("compute", "buffer", "dram")
        )
        with pytest.raises(MappingError, match="int64"):
            generate_mapping_population(space, 5, seed=0)
        with pytest.raises(MappingError, match="int64"):
            batch_analyze(
                self.PATHOLOGICAL,
                tuple(self.PATHOLOGICAL.dimensions),
                np.ones((1, 3, 3), dtype=np.int64),
            )
        with pytest.raises(MappingError, match="int64"):
            batch_search(space, num_mappings=5, seed=0)

    def test_scalar_analysis_stays_exact_beyond_int64(self):
        """Python-integer analysis of a hand-built mapping of the same
        pathological einsum yields counts far beyond int64, exactly."""
        from repro.mapping.loopnest import single_level_mapping

        counts = analyze_mapping(single_level_mapping(self.PATHOLOGICAL))
        total = self.PATHOLOGICAL.total_macs
        assert total == 2 ** 63  # genuinely past the int64 boundary
        assert counts.at(0, ALL_TENSORS[0]).reads == total


# ----------------------------------------------------------------------
# Property-style equivalence over random shapes and seeds
# ----------------------------------------------------------------------
@given(
    st.sampled_from([4, 8, 16]),
    st.sampled_from([6, 12, 24, 36]),
    st.sampled_from([1, 2, 4]),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_equivalence_property(m, k, n, seed):
    space = MapSpace(
        einsum=matmul_einsum("mm", m=m, k=k, n=n),
        level_names=("compute", "buffer", "dram"),
        capacities={1: m * k},
    )
    scalar = search_mappings(space, num_mappings=25, seed=seed)
    batched = batch_search(space, num_mappings=25, seed=seed)
    assert batched.best_mapping == scalar.best_mapping
    assert batched.best_cost == scalar.best_cost


# ----------------------------------------------------------------------
# The sampler's random stream
# ----------------------------------------------------------------------
def _reference_joint_subsplit(extents, factors, limit, rng):
    """The joint sub-split with one ``rng.integers`` call per dimension
    and rejection round: the draw order the batched sampler must keep."""
    rows, dims = factors.shape
    chosen = np.ones_like(factors)
    cap = np.full(rows, limit, dtype=np.int64)
    unresolved = np.arange(rows)
    for _ in range(_SPATIAL_JOINT_ROUNDS):
        if unresolved.size == 0:
            break
        draw = np.empty((unresolved.size, dims), dtype=np.int64)
        for d in range(dims):
            draw[:, d] = _sample_bounded_divisors(
                extents[d], factors[unresolved, d], cap[: unresolved.size], rng
            )
        accepted = np.prod(draw, axis=1) <= limit
        chosen[unresolved[accepted]] = draw[accepted]
        unresolved = unresolved[~accepted]
    if unresolved.size:
        fallback = np.ones((unresolved.size, dims), dtype=np.int64)
        remaining_cap = np.full(unresolved.size, limit, dtype=np.int64)
        for d in rng.permutation(dims):
            part = _sample_bounded_divisors(
                extents[d], factors[unresolved, d], remaining_cap, rng
            )
            fallback[:, d] = part
            remaining_cap //= part
        chosen[unresolved] = fallback
    return chosen


#: Extents for the sampler property: 1, primes, prime powers, and
#: composites with many divisors.
_EXTENTS = (1, 2, 3, 4, 7, 12, 16, 31, 60, 64, 97, 128, 210, 256, 720, 1024)


@given(
    extents=st.lists(st.sampled_from(_EXTENTS), min_size=1, max_size=7),
    rows=st.integers(min_value=0, max_value=300),
    limit=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_joint_subsplit_keeps_the_per_dimension_stream(extents, rows, limit, seed):
    """One bounds array per rejection round draws exactly what one call per
    dimension drew: equal sub-splits, and the generator left in an equal
    state (including its buffered 32-bit half-word), so everything drawn
    after the sub-split is unchanged too.  Seven dimensions with tight
    limits send many rows through the greedy fallback."""
    extents = tuple(extents)
    picker = np.random.default_rng(seed ^ 0x5EED)
    factors = np.empty((rows, len(extents)), dtype=np.int64)
    for d, extent in enumerate(extents):
        factors[:, d] = picker.choice(divisors(extent), size=rows)
    reference_rng = np.random.default_rng(seed)
    batched_rng = np.random.default_rng(seed)
    expected = _reference_joint_subsplit(extents, factors, limit, reference_rng)
    got = _sample_joint_subsplit(extents, factors, limit, batched_rng)
    assert np.array_equal(got, expected)
    assert batched_rng.bit_generator.state == reference_rng.bit_generator.state


def _population_digest(space, seeds, count=2000):
    digest = hashlib.sha256()
    for seed in seeds:
        population = generate_mapping_population(space, count, seed=seed)
        digest.update(np.ascontiguousarray(population.factors, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(population.spatial, dtype="<i8").tobytes())
        digest.update(str(population.attempted).encode())
    return digest.hexdigest()


#: sha256 over seeds 0-2 of 2000-mapping populations (factors, spatial
#: parts, attempted count) of the sweep's map spaces: ``conv_16x16x64`` on
#: ``base_macro`` at the array fanout limits the sweep produces.
CONV_SWEEP_DIGESTS = {
    32: "945b6562ccd55e52f45eff2501a6a94e344cb01f2fac94f9a01bfa3a4d11cb56",
    42: "8429e6acefa3b486b6471445ca0f1802ea63cde869e1b0ac2497e7dce53bd629",
    64: "8d28eafa89141c83b0e1e1803ed59d95d81c37654711c39a5d954484e62cfa21",
}

#: The same digest for the fig. 12 map space with a fanout budget of 8.
FIG12_DIGEST = "3f3c95aaf26fa0646b0213409de4c5cd42b13c66d6a1facd97b5983ee9309ffb"


class TestGoldenPopulations:
    """Seeded populations are pinned bitwise: a faster sampler that drew in
    another order would change every seeded search result."""

    @pytest.mark.parametrize("limit", sorted(CONV_SWEEP_DIGESTS))
    def test_sweep_map_spaces(self, limit):
        from repro.core.model import CiMLoopModel
        from repro.macros.definitions import base_macro
        from repro.workloads.networks import load_network

        layer = load_network("conv_16x16x64").layers[0]
        space = CiMLoopModel(base_macro()).layer_mapspace(layer, spatial_fanout=limit)
        assert _population_digest(space, (0, 1, 2)) == CONV_SWEEP_DIGESTS[limit]

    def test_fig12_map_space(self):
        from repro.experiments.fig12 import fig12_mapping_setup

        _, _, space = fig12_mapping_setup(1, spatial_fanout=8)
        assert _population_digest(space, (0, 1, 2)) == FIG12_DIGEST
