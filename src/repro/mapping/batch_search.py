"""Batched mapping search: the whole random-tiling population as arrays.

The scalar mapper (:func:`repro.mapping.mapper.search_mappings`) scores
loop nests one at a time: every candidate costs a Python
:func:`~repro.mapping.analysis.analyze_mapping` walk over levels and
tensors.  This module lowers the entire population onto NumPy:

* :func:`generate_mapping_population` — samples random tilings for *all*
  candidates at once as an integer factor array of shape
  ``(candidates, levels, dims)``, composes pinned factors with the
  sampled splits, sub-splits each level's factor into spatial x temporal
  parts at levels that declare a ``spatial_limits`` fanout budget, and
  applies capacity / spatial-limit constraints as boolean masks over the
  batch.
* :func:`batch_analyze` — derives tile sizes, footprints, distinct-tile
  counts, and per-level access counts for every candidate as array
  expressions, mirroring :func:`~repro.mapping.analysis.analyze_mapping`
  term by term (same integer arithmetic, so counts are exact), including
  spatial multicast / reduction: one parent access serves every parallel
  instance spawned between two storage levels.
* :func:`batch_search` — scores the population with one vectorized cost
  evaluation and materialises only the winning candidate as a
  :class:`~repro.mapping.loopnest.LoopNestMapping`.

The scalar path remains the tested oracle: both engines draw candidates
from the *same* generator (:func:`generate_mapping_population`), so a
fixed seed yields the identical population, and the vectorized default
cost accumulates in the same level order with the same weights as
:func:`~repro.mapping.mapper.default_cost` — equal seeds therefore return
the identical best mapping and bitwise-equal best cost.

Draw order
----------
A population is a pure function of its map space, count and seed, and
the tests pin it bitwise, so the order in which the generator consumes
its random stream is a contract.  Per chunk: every dimension's divisor
chain and within-row shuffle, in dimension order; then each spatial
level's joint sub-split, where a rejection round is *one*
``rng.integers`` call over ``(dims, unresolved rows)`` bounds.  NumPy
fills an array of bounds element by element in C order from the bit
generator's 32-bit stream, so that call draws exactly what one call per
dimension would.  A faster sampler must keep this stream, or every
seeded search result changes.

Cost functions
--------------
Two batched objectives are available:

* :func:`batch_default_cost` (the default) — the weighted access-count
  *proxy*: per-level totals weighted ``10 ** level``.  Exact twin of the
  scalar default, cheap, but it only approximates the paper's ranking
  (real hierarchies do not have decade-spaced per-access energies).
* :func:`repro.mapping.energy.energy_cost` — scores the population in
  **femtojoules**: the per-candidate access counts are lowered to macro
  action counts and multiplied against the cached per-action energy
  vector in one GEMM.  This optimizes the objective the paper's figures
  report and is exact w.r.t. the scalar per-candidate energy evaluation
  (:func:`repro.mapping.energy.scalar_energy_cost`).

Counts use ``int64``.  Workloads whose extents multiply beyond
:data:`INT64_COUNT_LIMIT` would overflow the vectorized integer
arithmetic (constraint footprints in the shared generator, access counts
in the analysis), so both are refused with a clear
:class:`~repro.utils.errors.MappingError` instead of silently wrapping.
The scalar *analysis* (:func:`~repro.mapping.analysis.analyze_mapping`,
arbitrary-precision Python integers) remains exact at any extent for
hand-constructed mappings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.mapping.analysis import analyze_mapping
from repro.mapping.loopnest import LoopNestMapping, MappingLevel
from repro.mapping.tiling import divisors
from repro.utils.errors import MappingError
from repro.workloads.einsum import ALL_TENSORS, EinsumOp, TensorRole

#: Rows sampled per generation round.  Fixed (count-independent) so the
#: candidate stream for a given seed is a prefix-stable sequence: asking
#: for more mappings extends the population without changing its head.
GENERATION_CHUNK = 1024

#: Largest total iteration-space product the batched int64 analysis
#: accepts.  Every access count the analysis produces is bounded by the
#: total factor product (= total MACs), and intermediate sums reach a few
#: times that, so capping the product at 2**61 keeps all arithmetic
#: comfortably inside int64.  Larger workloads must use the scalar mapper.
INT64_COUNT_LIMIT = 2 ** 61

#: A batch cost function maps batched access counts to one cost per
#: candidate (lower is better), shape ``(candidates,)``.
BatchCostFunction = Callable[["BatchAccessCounts"], np.ndarray]


def _check_count_range(einsum: EinsumOp) -> None:
    """Refuse workloads whose counts would overflow the int64 batch math."""
    if einsum.total_macs >= INT64_COUNT_LIMIT:
        raise MappingError(
            f"einsum {einsum.name!r} iterates {einsum.total_macs} points, which "
            f"exceeds the int64 limit ({INT64_COUNT_LIMIT}) of the vectorized "
            "count arithmetic; split the workload, or analyze hand-built "
            "mappings with the exact scalar analyze_mapping"
        )


# ----------------------------------------------------------------------
# Vectorized tiling generation
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=512)
def _divisor_tables(extent: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables for vectorized divisor-chain sampling.

    Returns ``(values, ndiv, table)`` where ``values`` lists the divisors
    of ``extent`` ascending, ``ndiv[i]`` is the divisor count of
    ``values[i]``, and ``table[i, :ndiv[i]]`` are its divisors ascending.
    Every intermediate "remaining" extent during a split of ``extent`` is
    one of ``values``, so the chain can be advanced for a whole batch with
    two table gathers per position.

    Memoized per extent (callers only read the arrays): the split and
    sub-split samplers consult these tables once per dimension for every
    chunk, so rebuilding them per call would dominate population
    generation.
    """
    values = np.asarray(divisors(extent), dtype=np.int64)
    per_value = [divisors(int(v)) for v in values]
    width = max(len(d) for d in per_value)
    table = np.zeros((len(values), width), dtype=np.int64)
    ndiv = np.empty(len(values), dtype=np.int64)
    for row, divs in enumerate(per_value):
        ndiv[row] = len(divs)
        table[row, : len(divs)] = divs
    return values, ndiv, table


def _sample_splits(
    extent: int, parts: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` random ordered factorisations of ``extent``.

    Vectorized twin of :func:`repro.mapping.tiling.random_tiling`'s inner
    loop: a uniform divisor chain over ``parts - 1`` positions followed by
    an independent within-row shuffle, batched across candidates.
    Returns an ``(count, parts)`` int64 array whose rows multiply to
    ``extent``.
    """
    if parts == 1:
        return np.full((count, 1), extent, dtype=np.int64)
    values, ndiv, table = _divisor_tables(extent)
    factors = np.empty((count, parts), dtype=np.int64)
    remaining = np.full(count, extent, dtype=np.int64)
    for position in range(parts - 1):
        row_index = np.searchsorted(values, remaining)
        choice = rng.integers(0, ndiv[row_index])
        chosen = table[row_index, choice]
        factors[:, position] = chosen
        remaining //= chosen
    factors[:, parts - 1] = remaining
    # Shuffle within each row so large factors are not biased toward
    # early levels (the batched form of the scalar generator's
    # per-candidate permutation).
    return rng.permuted(factors, axis=1)


def _sample_bounded_divisors(
    extent: int, values_of: np.ndarray, cap: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample, per row, a uniform divisor of ``values_of[i]`` that is <= ``cap[i]``.

    ``values_of`` must hold divisors of ``extent``.  Because each divisor
    table row is sorted ascending, the admissible divisors form a prefix
    of the row, so one gather + one bounded integer draw per row suffices.
    A cap >= 1 always admits the divisor 1, so sampling never fails.
    """
    values, ndiv, table = _divisor_tables(extent)
    row_index = np.searchsorted(values, values_of)
    width = table.shape[1]
    admissible = (np.arange(width)[None, :] < ndiv[row_index][:, None]) & (
        table[row_index] <= cap[:, None]
    )
    allowed = admissible.sum(axis=1)
    choice = rng.integers(0, allowed)
    return table[row_index, choice]


#: Rejection rounds of the joint spatial sub-split sampler.  Each round
#: redraws only the rows whose joint product still exceeds the fanout
#: limit; rows unresolved after the budget fall back to a fanout of 1
#: (always admissible), which in practice is a vanishing fraction.
_SPATIAL_JOINT_ROUNDS = 16


@functools.lru_cache(maxsize=256)
def _joint_subsplit_table(
    extents: Tuple[int, ...], limit: int
) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
    """Every dimension's divisor rows stacked, with their counts <= ``limit``.

    Returns ``(offsets, table, allowed)``: the rows of dimension ``d``'s
    :func:`_divisor_tables` table start at ``offsets[d]`` of ``table``
    (zero-padded to a common width), and ``allowed[r]`` counts the
    divisors of row ``r`` that are <= ``limit`` — a prefix of the row,
    since rows are sorted ascending.  The count is the same in every
    rejection round, so it is computed here once per ``(extents, limit)``
    rather than per round.  The arrays are shared: callers only read them.
    """
    per_dim = [_divisor_tables(extent) for extent in extents]
    offsets = []
    start = 0
    for values, _, _ in per_dim:
        offsets.append(start)
        start += len(values)
    width = max(table.shape[1] for _, _, table in per_dim)
    table = np.zeros((start, width), dtype=np.int64)
    allowed = np.empty(start, dtype=np.int64)
    for offset, (values, ndiv, dim_table) in zip(offsets, per_dim):
        block = slice(offset, offset + len(values))
        table[block, : dim_table.shape[1]] = dim_table
        in_row = np.arange(dim_table.shape[1])[None, :] < ndiv[:, None]
        allowed[block] = (in_row & (dim_table <= limit)).sum(axis=1)
    table.setflags(write=False)
    allowed.setflags(write=False)
    return tuple(offsets), table, allowed


def _sample_joint_subsplit(
    extents: Tuple[int, ...],
    factors: np.ndarray,
    limit: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample each row's spatial sub-split *jointly* over dimensions.

    ``factors`` is the ``(rows, dims)`` slice of one level's combined loop
    factors (``factors[:, d]`` divides ``extents[d]``).  Returns a
    same-shaped array of spatial parts whose per-row product is <= the
    fanout ``limit`` and whose entry ``d`` divides ``factors[:, d]``.

    The draw is symmetric across dimensions: every dimension's spatial
    part is drawn uniformly from its admissible divisors (those <=
    ``limit``), and rows whose joint product exceeds the limit are redrawn
    — i.e. the result is uniform over the admissible *joint* set.  The
    previous sampler walked dimensions in declaration order with a
    shrinking per-row cap, so earlier dimensions systematically grabbed
    the fanout budget first; the rejection form removes that bias.

    Draw order (a contract: populations are pinned bitwise by it): each
    rejection round makes one ``rng.integers`` call whose bounds are laid
    out dimension-major, ``(dims, unresolved rows)``.  Given an array of
    bounds, NumPy draws every element in C order from the bit generator's
    own 32-bit stream (a bound of 1 draws nothing), so the round consumes
    exactly the draws — and yields exactly the choices — of one
    ``rng.integers`` call per dimension over the unresolved rows, in
    dimension order.  The per-row bounds come from
    :func:`_joint_subsplit_table`.

    Rows still unresolved after :data:`_SPATIAL_JOINT_ROUNDS` rounds
    (possible for many-dimensional levels with tight limits, where the
    joint acceptance rate is low) fall back to the shrinking-cap greedy
    walk over a *randomly permuted* dimension order — always admissible,
    still spends the fanout budget, and the random order keeps the
    residual unbiased across dimensions in expectation.
    """
    rows, dims = factors.shape
    offsets, table, allowed_of = _joint_subsplit_table(extents, limit)
    # Stacked table row of every (dimension, row) factor, dimension-major.
    row_index = np.empty((dims, rows), dtype=np.int64)
    for d in range(dims):
        values = _divisor_tables(extents[d])[0]
        row_index[d] = np.searchsorted(values, factors[:, d]) + offsets[d]
    allowed = allowed_of[row_index]
    chosen = np.ones_like(factors)
    unresolved = np.arange(rows)
    for _ in range(_SPATIAL_JOINT_ROUNDS):
        if unresolved.size == 0:
            break
        choice = rng.integers(0, allowed[:, unresolved])
        draw = table[row_index[:, unresolved], choice]
        accepted = np.prod(draw, axis=0) <= limit
        chosen[unresolved[accepted]] = draw[:, accepted].T
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


def _pinned_by_dimension(space) -> Dict[str, Dict[int, int]]:
    """Fixed factors regrouped as dimension -> {level index: factor}."""
    pinned: Dict[str, Dict[int, int]] = {}
    for (level_index, dim), factor in space.fixed_factors.items():
        if not 0 <= level_index < space.num_levels:
            raise MappingError(f"fixed factor pins out-of-range level {level_index}")
        if factor < 1:
            raise MappingError(f"fixed factor of {dim} must be >= 1, got {factor}")
        pinned.setdefault(dim, {})[level_index] = factor
    return pinned


@dataclass(frozen=True)
class MappingPopulation:
    """A generated batch of valid candidate tilings of one map space.

    ``factors`` has shape ``(candidates, levels, dims)``; row ``i`` is the
    per-level *combined* (temporal x spatial) factor of each dimension
    (levels innermost first, dimension order given by ``dims``).
    ``spatial`` has the same shape and holds the spatial part of each
    factor (all ones at levels without a spatial-fanout budget), so the
    temporal part is ``factors // spatial``.  Every row already satisfies
    the map space's constraints.  ``attempted`` counts the tilings sampled
    up to and including the last accepted one, so ``rejected`` is the
    number of constraint-violating samples the generator discarded along
    the way.
    """

    space: "object"  # MapSpace (typed loosely to avoid a circular import)
    dims: Tuple[str, ...]
    factors: np.ndarray
    spatial: np.ndarray
    attempted: int

    def __len__(self) -> int:
        return int(self.factors.shape[0])

    @property
    def rejected(self) -> int:
        """Sampled tilings discarded by the constraint masks."""
        return self.attempted - len(self)

    def mapping(self, index: int) -> LoopNestMapping:
        """Materialise one candidate as a :class:`LoopNestMapping`."""
        levels: List[MappingLevel] = []
        for level_index, name in enumerate(self.space.level_names):
            temporal: Dict[str, int] = {}
            spatial: Dict[str, int] = {}
            for d, dim in enumerate(self.dims):
                combined = int(self.factors[index, level_index, d])
                spatial_part = int(self.spatial[index, level_index, d])
                temporal_part = combined // spatial_part
                if temporal_part > 1:
                    temporal[dim] = temporal_part
                if spatial_part > 1:
                    spatial[dim] = spatial_part
            levels.append(MappingLevel(name=name, temporal=temporal, spatial=spatial))
        return LoopNestMapping(einsum=self.space.einsum, levels=tuple(levels))


def _constraint_mask(
    space, dims: Tuple[str, ...], factors: np.ndarray, spatial: np.ndarray
) -> np.ndarray:
    """Validity of each sampled tiling under the map space's constraints.

    Mirrors the scalar ``_respects_constraints`` exactly: integer tile
    footprints (combined factors) against level capacities and per-level
    spatial fanout against spatial limits.  Pinned factors are satisfied
    by construction.
    """
    count = factors.shape[0]
    valid = np.ones(count, dtype=bool)
    if space.capacities:
        cumulative = np.cumprod(factors, axis=1)
        footprint = np.zeros((count, space.num_levels), dtype=np.int64)
        for role in TensorRole:
            indices = [d for d, dim in enumerate(dims)
                       if space.einsum.is_relevant(dim, role)]
            if indices:
                footprint += np.prod(cumulative[:, :, indices], axis=2)
            else:
                footprint += 1
        for level_index, capacity in space.capacities.items():
            valid &= footprint[:, level_index] <= capacity
    for level_index, limit in space.spatial_limits.items():
        if limit < 1:
            valid &= False
            continue
        fanout = np.prod(spatial[:, level_index, :], axis=1)
        valid &= fanout <= limit
    return valid


def generate_mapping_population(
    space,
    count: int,
    seed: int = 0,
    chunk: int = GENERATION_CHUNK,
) -> MappingPopulation:
    """Sample up to ``count`` valid tilings of the map space as one batch.

    The generator samples fixed-size chunks of random tilings (divisor
    chains per dimension, vectorized across the chunk), composes pinned
    factors with the sampled splits (the pinned level holds exactly the
    pinned factor; the dimension's remaining extent is split across the
    free levels), masks out constraint violations, and keeps the first
    ``count`` valid rows of the stream.  Sampling stops after the scalar
    mapper's historical attempt budget (``count * 20 + 100``).

    Levels listed in ``space.spatial_limits`` (with a limit >= 2) receive
    *spatial* factors: each such level's sampled factor is sub-split into
    a spatial part — drawn jointly over all dimensions, uniform over the
    divisor combinations whose product respects the level's fanout limit
    (:func:`_sample_joint_subsplit`) — and a temporal remainder.  The
    sub-split never changes the combined per-level factor, so capacities
    and pinned factors are unaffected, and the level's fanout respects
    its limit by construction.  Both search engines draw from this one
    generator, so equal seeds still yield identical populations.
    """
    rng = np.random.default_rng(seed)
    dims = tuple(space.einsum.dimensions)
    num_levels = space.num_levels
    max_attempts = count * 20 + 100
    pinned = _pinned_by_dimension(space)
    _check_count_range(space.einsum)

    for level_index in space.spatial_limits:
        if not 0 <= level_index < num_levels:
            raise MappingError(f"spatial limit on out-of-range level {level_index}")
    spatial_levels = sorted(
        index for index, limit in space.spatial_limits.items() if limit >= 2
    )

    # Per-dimension split plan: which levels receive sampled factors and
    # how much extent remains to be split once pins are carved out.
    plans = []
    for dim in dims:
        extent = space.einsum.extent(dim)
        pins = pinned.get(dim, {})
        pin_product = 1
        for factor in pins.values():
            pin_product *= factor
        if extent % pin_product != 0:
            raise MappingError(
                f"pinned factors of {dim} multiply to {pin_product}, "
                f"which does not divide extent {extent}"
            )
        free_levels = [index for index in range(num_levels) if index not in pins]
        split_extent = extent // pin_product
        if not free_levels and split_extent != 1:
            raise MappingError(
                f"every level of {dim} is pinned but extent {extent} is not covered"
            )
        plans.append((dim, pins, free_levels, split_extent))

    kept_factors: List[np.ndarray] = []
    kept_spatial: List[np.ndarray] = []
    found = 0
    sampled = 0
    attempted = 0
    while found < count and sampled < max_attempts:
        block = np.ones((chunk, num_levels, len(dims)), dtype=np.int64)
        for d, (dim, pins, free_levels, split_extent) in enumerate(plans):
            for level_index, factor in pins.items():
                block[:, level_index, d] = factor
            if free_levels:
                block[:, free_levels, d] = _sample_splits(
                    split_extent, len(free_levels), chunk, rng
                )
        # Sub-split levels with a fanout budget into spatial x temporal.
        # The sub-split is sampled *jointly* over dimensions (uniform over
        # the admissible joint set, via rejection) so no dimension grabs
        # the fanout budget first; every row satisfies its spatial limit
        # by construction (unresolved rows keep fanout 1).
        spatial_block = np.ones_like(block)
        extents = tuple(space.einsum.extent(dim) for dim, _, _, _ in plans)
        for level_index in spatial_levels:
            spatial_block[:, level_index, :] = _sample_joint_subsplit(
                extents,
                block[:, level_index, :],
                space.spatial_limits[level_index],
                rng,
            )
        # Truncate the final chunk so the stream never exceeds the
        # attempt budget (keeps parity with the scalar attempt counter).
        block = block[: max_attempts - sampled]
        spatial_block = spatial_block[: block.shape[0]]
        sampled += block.shape[0]
        valid = _constraint_mask(space, dims, block, spatial_block)
        positions = np.flatnonzero(valid)
        take = positions[: count - found]
        if take.size:
            kept_factors.append(block[take])
            kept_spatial.append(spatial_block[take])
            found += take.size
            attempted = sampled - block.shape[0] + int(take[-1]) + 1
    if found < count:
        attempted = sampled

    if kept_factors:
        factors = np.concatenate(kept_factors, axis=0)
        spatial = np.concatenate(kept_spatial, axis=0)
    else:
        factors = np.empty((0, num_levels, len(dims)), dtype=np.int64)
        spatial = np.empty((0, num_levels, len(dims)), dtype=np.int64)
    return MappingPopulation(
        space=space, dims=dims, factors=factors, spatial=spatial, attempted=attempted
    )


# ----------------------------------------------------------------------
# Batched reuse analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchAccessCounts:
    """Access counts of a whole candidate batch, one array per quantity.

    Each mapping of ``reads`` / ``writes`` / ``updates`` /
    ``tile_elements`` holds, per tensor role, an int64 array of shape
    ``(candidates, levels)`` — the batched form of
    :class:`~repro.mapping.analysis.TensorAccesses` over every candidate
    at once.  Values are exact (same integer arithmetic as the scalar
    analysis).
    """

    level_names: Tuple[str, ...]
    reads: Mapping[TensorRole, np.ndarray]
    writes: Mapping[TensorRole, np.ndarray]
    updates: Mapping[TensorRole, np.ndarray]
    tile_elements: Mapping[TensorRole, np.ndarray]

    @property
    def num_levels(self) -> int:
        """Number of hierarchy levels (0 = compute)."""
        return len(self.level_names)

    @property
    def num_candidates(self) -> int:
        """Number of candidates in the batch."""
        return int(self.reads[TensorRole.INPUTS].shape[0])

    def level_total(self, level_index: int) -> np.ndarray:
        """Per-candidate total accesses of all tensors at one level."""
        total = np.zeros(self.num_candidates, dtype=np.int64)
        for role in ALL_TENSORS:
            total += (
                self.reads[role][:, level_index]
                + self.writes[role][:, level_index]
                + self.updates[role][:, level_index]
            )
        return total


def batch_analyze(
    einsum: EinsumOp,
    dims: Tuple[str, ...],
    factors: np.ndarray,
    stores: Optional[Mapping[int, Tuple[TensorRole, ...]]] = None,
    spatial: Optional[np.ndarray] = None,
    spatial_reuse: Optional[Mapping[int, Tuple[TensorRole, ...]]] = None,
) -> BatchAccessCounts:
    """Vectorized :func:`~repro.mapping.analysis.analyze_mapping`.

    ``factors`` is the ``(candidates, levels, dims)`` batch of *combined*
    (temporal x spatial) loop factors; ``spatial`` optionally carries the
    spatial part with the same shape (omitted = temporal-only, fanout 1
    everywhere).  The analysis mirrors the scalar walk exactly — same
    storage-level selection, fill/drain formulas, spatial multicast /
    reduction division, and integer arithmetic.  ``spatial_reuse`` names,
    per level, the tensors multicast (inputs/weights) or spatially
    reduced (outputs) across that level's parallel instances; it defaults
    to every tensor at every level, like the scalar analysis.
    """
    _check_count_range(einsum)
    count, num_levels, _ = factors.shape
    if stores is None:
        stores = {index: tuple(ALL_TENSORS) for index in range(1, num_levels)}
    if spatial_reuse is None:
        spatial_reuse = {index: tuple(ALL_TENSORS) for index in range(num_levels)}
    total_macs = einsum.total_macs

    all_product = np.prod(factors, axis=2)  # (N, L) factor product per level
    cum_all = np.cumprod(all_product, axis=1)
    total_all = cum_all[:, -1]
    if spatial is None:
        level_fanout = np.ones((count, num_levels), dtype=np.int64)
    else:
        level_fanout = np.prod(spatial, axis=2)

    reads: Dict[TensorRole, np.ndarray] = {}
    writes: Dict[TensorRole, np.ndarray] = {}
    updates: Dict[TensorRole, np.ndarray] = {}
    tiles: Dict[TensorRole, np.ndarray] = {}

    for role in ALL_TENSORS:
        role_reads = np.zeros((count, num_levels), dtype=np.int64)
        role_writes = np.zeros((count, num_levels), dtype=np.int64)
        role_updates = np.zeros((count, num_levels), dtype=np.int64)
        role_tiles = np.zeros((count, num_levels), dtype=np.int64)

        indices = [d for d, dim in enumerate(dims) if einsum.is_relevant(dim, role)]
        if indices:
            relevant_product = np.prod(factors[:, :, indices], axis=2)
        else:
            relevant_product = np.ones((count, num_levels), dtype=np.int64)
        cum_relevant = np.cumprod(relevant_product, axis=1)
        total_relevant = cum_relevant[:, -1]

        storage_levels = sorted(
            {index for index in range(1, num_levels) if role in stores.get(index, ())}
            | {num_levels - 1}
        )

        # Exclusive prefix product of this role's reusable fanout: one
        # access at storage level s serves `prefix[s] // prefix[prev]`
        # compute-side uses (the instances spawned between the levels).
        reused = np.array(
            [role in spatial_reuse.get(index, ()) for index in range(num_levels)]
        )
        role_fanout = np.where(reused[None, :], level_fanout, 1)
        fanout_prefix = np.concatenate(
            [
                np.ones((count, 1), dtype=np.int64),
                np.cumprod(role_fanout, axis=1)[:, :-1],
            ],
            axis=1,
        )

        remaining = np.full(count, total_macs, dtype=np.int64)
        previous_level = 0
        for storage_index in storage_levels:
            fanout = fanout_prefix[:, storage_index] // fanout_prefix[:, previous_level]
            level_reads = remaining // np.maximum(fanout, 1)
            tile = cum_relevant[:, storage_index]
            distinct_tiles = total_relevant // cum_relevant[:, storage_index]
            fills = tile * distinct_tiles

            if role is TensorRole.OUTPUTS:
                iterations_above = total_all // cum_all[:, storage_index]
                irrelevant_above = np.maximum(
                    iterations_above // np.maximum(distinct_tiles, 1), 1
                )
                role_updates[:, storage_index] = level_reads
                if storage_index < num_levels - 1:
                    parent_writes = fills * irrelevant_above
                    parent_reads = fills * (irrelevant_above - 1)
                else:
                    parent_writes = fills
                    parent_reads = np.zeros(count, dtype=np.int64)
                remaining = parent_writes + parent_reads
            else:
                role_reads[:, storage_index] = level_reads
                role_writes[:, storage_index] = fills
                remaining = fills
            role_tiles[:, storage_index] = tile
            previous_level = storage_index

        # Compute level: raw per-MAC demand, as in the scalar analysis.
        if role is TensorRole.OUTPUTS:
            role_updates[:, 0] = total_macs
        else:
            role_reads[:, 0] = total_macs
        role_tiles[:, 0] = cum_relevant[:, 0]

        reads[role] = role_reads
        writes[role] = role_writes
        updates[role] = role_updates
        tiles[role] = role_tiles

    # Level names are positional in the batch form; reuse indices.
    return BatchAccessCounts(
        level_names=tuple(str(index) for index in range(num_levels)),
        reads=reads,
        writes=writes,
        updates=updates,
        tile_elements=tiles,
    )


def batch_default_cost(counts: BatchAccessCounts) -> np.ndarray:
    """Vectorized twin of :func:`repro.mapping.mapper.default_cost`.

    Accumulates per-level totals in the same order with the same
    ``10 ** level`` weights, so costs are bitwise equal to the scalar
    function applied to each candidate.  This is the access-count *proxy*
    objective; see :func:`repro.mapping.energy.energy_cost` for scoring
    populations in femtojoules against a real macro's per-action energies.
    """
    cost = np.zeros(counts.num_candidates, dtype=np.float64)
    for level_index in range(1, counts.num_levels):
        cost += counts.level_total(level_index) * (10.0 ** level_index)
    return cost


# ----------------------------------------------------------------------
# Batched search
# ----------------------------------------------------------------------
def batch_search(
    space,
    cost_function: Optional[BatchCostFunction] = None,
    num_mappings: int = 100,
    seed: int = 0,
    stores: Optional[Dict[int, Tuple[TensorRole, ...]]] = None,
):
    """Vectorized random search over a map space.

    Drop-in counterpart of :func:`repro.mapping.mapper.search_mappings`:
    the same seed draws the same candidate population (both engines share
    :func:`generate_mapping_population`), but the whole population is
    analyzed and scored as NumPy arrays and only the winner is
    materialised.  ``cost_function`` here is *batched* — it maps a
    :class:`BatchAccessCounts` to one cost per candidate; the default
    reproduces the scalar weighted access-count proxy exactly, and
    :func:`repro.mapping.energy.energy_cost` scores candidates in
    femtojoules against a macro's cached per-action energies.
    """
    from repro.mapping.mapper import MappingSearchResult

    cost_function = cost_function or batch_default_cost
    population = generate_mapping_population(space, num_mappings, seed=seed)
    if len(population) == 0:
        raise MappingError(
            "mapping search found no valid mapping; relax capacity or factor constraints"
        )
    counts = batch_analyze(
        space.einsum,
        population.dims,
        population.factors,
        stores=stores,
        spatial=population.spatial,
    )
    costs = np.asarray(cost_function(counts), dtype=np.float64)
    if costs.shape != (len(population),):
        raise MappingError(
            f"batch cost function returned shape {costs.shape}, "
            f"expected ({len(population)},)"
        )
    best_index = int(np.argmin(costs))
    best_mapping = population.mapping(best_index)
    best_counts = analyze_mapping(best_mapping, stores=stores)
    return MappingSearchResult(
        best_mapping=best_mapping,
        best_cost=float(costs[best_index]),
        best_counts=best_counts,
        mappings_attempted=population.attempted,
        mappings_evaluated=len(population),
    )
