"""Vectorized batch evaluation engine and parallel sweep runner.

The fast pipeline (:mod:`repro.core.fast_pipeline`) amortises per-action
energies across mappings, but the seed implementation still walked the
candidates one at a time in Python.  This module removes that loop:

* :class:`MappingCandidateSpace` — a batch of candidate mappings of one
  layer represented *implicitly* by per-candidate row/column tile scale
  factors.  The whole batch materialises as a single NumPy counts matrix
  (``candidates x action kinds``, layout fixed by
  :data:`repro.architecture.macro.ACTION_TABLE`) without constructing a
  :class:`~repro.architecture.macro.MacroLayerCounts` per candidate.
* :class:`BatchEvaluator` — evaluates every candidate's full energy
  breakdown in one matrix-vector product against the cached per-action
  energy vector, plus a vectorized latency model.  It is numerically
  equivalent to the scalar loop (kept as the reference oracle in
  :meth:`AmortizedEvaluator.evaluate_mappings_scalar`) to within float
  rounding, and orders of magnitude faster per candidate.
* :class:`BatchRunner` — fans independent evaluation work into the
  **process-wide shared pool** (:func:`shared_pool`): one lazily-created
  :class:`~concurrent.futures.ProcessPoolExecutor` per process, created on
  first parallel use, reused by every subsequent sweep / Table II run /
  mapping search, grown only when a later call requests more workers, and
  shut down at interpreter exit (or explicitly via
  :func:`shutdown_shared_pool`).  Sweeps fan the *joint* ``(point x
  layer)`` product (:meth:`BatchRunner.run_grid`) instead of one axis at a
  time, so the pool stays busy even when one axis is shorter than the
  worker count.  Layer-distribution profiles are profiled once and shared
  across all points (profiling is layer-only, paper Sec. III-D1), and
  per-action energies are derived once per (config, layer) in the parent
  — in config-axis batched passes
  (:meth:`~repro.core.fast_pipeline.PerActionEnergyCache.derive_many`) —
  and shipped to the workers in their payloads, so a worker never
  profiles, derives or consults a cache for them, whether the table
  existed before the pool forked or was derived long after.

Cache-keying contract: the parent resolves per-action energies through a
:class:`~repro.core.fast_pipeline.PerActionEnergyCache`, which keys on the
full frozen macro config plus the layer fingerprint — never on bare names —
so concurrently swept configs can never alias each other's entries.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.architecture.macro import (
    CiMMacro,
    CiMMacroConfig,
    MacroLayerCounts,
    _action_table,
    action_component_matrix,
    macro_for,
    per_action_energy_vector,
)
from repro.architecture.system import SystemConfig
from repro.core.fast_pipeline import (
    AmortizedSearchResult,
    MappingEvaluation,
    PerActionEnergyCache,
)
from repro.core.terms import TermCache
from repro.utils.errors import EvaluationError
from repro.workloads.distributions import LayerDistributions
from repro.workloads.layer import Layer

# Count fields scaled by the candidate's row-tile factor, column-tile
# factor, or both (mirroring ``AmortizedEvaluator._scaled_counts``): extra
# row tiles add partial-sum conversions and output updates, extra column
# tiles re-convert and re-read the inputs, and the array fires once per
# (row tile x column tile) pass.
_ROW_SCALED = frozenset(
    {
        "adc_converts",
        "column_mux_ops",
        "analog_adder_ops",
        "analog_accumulator_ops",
        "analog_mac_ops",
        "shift_add_ops",
        "digital_accumulate_ops",
        "output_buffer_updates",
    }
)
_COL_SCALED = frozenset({"dac_converts", "row_driver_ops", "input_buffer_reads"})


@dataclass(frozen=True)
class MappingCandidateSpace:
    """A batch of candidate mappings of one layer, stored implicitly.

    Candidate ``i`` is the baseline mapping with its row tiles multiplied
    by ``row_scales[i]`` and its column tiles by ``col_scales[i]``;
    candidate 0 is always the baseline itself.  Individual
    :class:`MacroLayerCounts` are only materialised on demand (for the
    winning candidate), so generating a space of N candidates costs O(N)
    NumPy work rather than N dataclass constructions.
    """

    base: MacroLayerCounts
    row_scales: np.ndarray
    col_scales: np.ndarray

    @classmethod
    def tile_perturbations(cls, base: MacroLayerCounts, num_candidates: int) -> "MappingCandidateSpace":
        """The standard search space: scale row/column tiles by small factors.

        Reproduces the candidate order of the scalar generator: baseline
        first, then for each scale ``s = 2, 3, ...`` the triple
        ``(s, 1), (1, s), (s, s)``.
        """
        if num_candidates < 1:
            raise EvaluationError("need at least one candidate mapping")
        extras = num_candidates - 1
        triples = math.ceil(extras / 3)
        scales = np.repeat(np.arange(2, 2 + triples, dtype=np.int64), 3)[:extras]
        position = np.arange(extras, dtype=np.int64) % 3
        row_scales = np.concatenate(([1], np.where(position == 1, 1, scales)))
        col_scales = np.concatenate(([1], np.where(position == 0, 1, scales)))
        return cls(base=base, row_scales=row_scales, col_scales=col_scales)

    def __len__(self) -> int:
        return int(self.row_scales.shape[0])

    def counts(self, index: int) -> MacroLayerCounts:
        """Materialise one candidate as a full :class:`MacroLayerCounts`."""
        from repro.core.fast_pipeline import AmortizedEvaluator

        row_scale = int(self.row_scales[index])
        col_scale = int(self.col_scales[index])
        if row_scale == 1 and col_scale == 1:
            return self.base
        return AmortizedEvaluator._scaled_counts(self.base, row_scale, col_scale)

    def counts_matrix(self, include_programming: bool = False) -> np.ndarray:
        """The batch as a ``candidates x action kinds`` counts matrix."""
        table = _action_table(include_programming)
        base_vector = self.base.action_vector(include_programming)
        rows = self.row_scales.astype(np.float64)
        cols = self.col_scales.astype(np.float64)
        ones = np.ones_like(rows)
        scale_columns = []
        for count, _, _ in table:
            if count in _ROW_SCALED:
                scale_columns.append(rows)
            elif count in _COL_SCALED:
                scale_columns.append(cols)
            else:
                scale_columns.append(ones)
        scales = np.stack(scale_columns, axis=1)
        return base_vector[None, :] * scales

    def array_activations(self) -> np.ndarray:
        """Per-candidate array activation counts (for the latency model)."""
        factor = self.row_scales.astype(np.float64) * self.col_scales.astype(np.float64)
        return self.base.array_activations * factor

    def adc_converts(self) -> np.ndarray:
        """Per-candidate ADC conversion counts (for the latency model)."""
        return self.base.adc_converts * self.row_scales.astype(np.float64)


@dataclass(frozen=True)
class BatchEvaluationResult:
    """Energy/latency of every candidate in a batch, in vector form."""

    layer_name: str
    space: MappingCandidateSpace
    components: Tuple[str, ...]
    component_energies: np.ndarray  # (candidates, components), without misc
    misc_energies: np.ndarray  # (candidates,)
    total_energies: np.ndarray  # (candidates,), including misc
    latencies_s: np.ndarray  # (candidates,)
    elapsed_s: float

    def __len__(self) -> int:
        return int(self.total_energies.shape[0])

    @property
    def best_index(self) -> int:
        """Index of the lowest-total-energy candidate (first on ties)."""
        return int(np.argmin(self.total_energies))

    def breakdown(self, index: int) -> Dict[str, float]:
        """Per-component energy breakdown of one candidate, with ``misc``."""
        result = {
            name: float(self.component_energies[index, column])
            for column, name in enumerate(self.components)
        }
        result["misc"] = float(self.misc_energies[index])
        return result

    def evaluation(self, index: int) -> MappingEvaluation:
        """Materialise one candidate as a scalar-path evaluation record."""
        return MappingEvaluation(
            counts=self.space.counts(index),
            energy_breakdown=self.breakdown(index),
            total_energy=float(self.total_energies[index]),
            latency_s=float(self.latencies_s[index]),
        )

    def as_search_result(self) -> AmortizedSearchResult:
        """Collapse the batch into the scalar API's best-candidate summary."""
        return AmortizedSearchResult(
            layer_name=self.layer_name,
            evaluations=len(self),
            best=self.evaluation(self.best_index),
            elapsed_s=self.elapsed_s,
        )


class BatchEvaluator:
    """Evaluate batches of candidate mappings with one matrix product.

    The per-action energy vector is fetched once from the shared
    :class:`PerActionEnergyCache`; a batch of N candidates then costs a
    single ``(N x actions) @ (actions,)``-shaped set of NumPy operations
    regardless of N.  Breakdowns match the scalar loop to float rounding.
    """

    def __init__(self, macro: CiMMacro, cache: Optional[PerActionEnergyCache] = None):
        self.macro = macro
        self.cache = cache if cache is not None else PerActionEnergyCache()

    def evaluate_space(
        self,
        layer: Layer,
        space: MappingCandidateSpace,
        distributions: Optional[LayerDistributions] = None,
    ) -> BatchEvaluationResult:
        """Evaluate every candidate of a prepared space."""
        start = time.perf_counter()
        per_action = self.cache.get(self.macro, layer, distributions)
        energy_vector = per_action_energy_vector(per_action)
        aggregate, components = action_component_matrix()

        counts = space.counts_matrix()
        action_energies = counts * energy_vector[None, :]
        component_energies = action_energies @ aggregate
        subtotals = component_energies.sum(axis=1)
        misc = subtotals * self.macro.config.misc_energy_fraction
        totals = subtotals + misc

        latencies = self._latencies(space)
        elapsed = time.perf_counter() - start
        return BatchEvaluationResult(
            layer_name=layer.name,
            space=space,
            components=components,
            component_energies=component_energies,
            misc_energies=misc,
            total_energies=totals,
            latencies_s=latencies,
            elapsed_s=elapsed,
        )

    def score_action_matrix(
        self,
        layer: Layer,
        counts_matrix: np.ndarray,
        distributions: Optional[LayerDistributions] = None,
        include_programming: bool = True,
        per_action: Optional[Dict[str, float]] = None,
    ) -> np.ndarray:
        """Total energy of each row of a per-action counts matrix, in joules.

        ``counts_matrix`` has shape ``(candidates, actions)`` in canonical
        :data:`~repro.architecture.macro.ACTION_KINDS` order (plus the
        programming action when ``include_programming``).  The per-action
        energies come from the shared cache (or the explicit ``per_action``
        override), so a batch of N candidates costs one matrix-vector
        product — this is the hook the loop-nest mapper's femtojoule cost
        function (:func:`repro.mapping.energy.energy_cost`) scores whole
        populations through.
        """
        if per_action is None:
            per_action = self.cache.get(self.macro, layer, distributions)
        energy_vector = per_action_energy_vector(per_action, include_programming)
        if counts_matrix.ndim != 2 or counts_matrix.shape[1] != energy_vector.shape[0]:
            raise EvaluationError(
                f"action counts matrix has shape {counts_matrix.shape}, expected "
                f"(candidates, {energy_vector.shape[0]})"
            )
        subtotals = counts_matrix @ energy_vector
        return subtotals * (1.0 + self.macro.config.misc_energy_fraction)

    def _latencies(self, space: MappingCandidateSpace) -> np.ndarray:
        """Vectorized form of :meth:`CiMMacro.latency_seconds`."""
        cycle_s = self.macro.effective_cycle_seconds()
        adc_limited = space.adc_converts() / max(self.macro.adc_bank.count, 1)
        cycles = np.maximum(space.array_activations(), adc_limited)
        return cycles * cycle_s

    def evaluate_mappings(
        self,
        layer: Layer,
        num_mappings: int = 1,
        distributions: Optional[LayerDistributions] = None,
    ) -> AmortizedSearchResult:
        """Batch equivalent of the scalar amortised mapping search."""
        start = time.perf_counter()
        base = self.macro.map_layer(layer)
        space = MappingCandidateSpace.tile_perturbations(base, num_mappings)
        result = self.evaluate_space(layer, space, distributions)
        elapsed = time.perf_counter() - start
        return AmortizedSearchResult(
            layer_name=layer.name,
            evaluations=len(result),
            best=result.evaluation(result.best_index),
            elapsed_s=elapsed,
        )


# ----------------------------------------------------------------------
# Shared process-wide pool
# ----------------------------------------------------------------------
_pool_lock = threading.Lock()
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_size = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor every parallel runner fans work into.

    Lifecycle: the pool is created lazily on the first parallel request
    and then reused by every subsequent sweep, Table II run, and mapping
    search in this process — worker processes are forked once, not per
    call.  If a later request asks for *more* workers than the live pool
    has, the pool is replaced by a larger one (still leaving exactly one
    alive); requests for fewer workers simply share the existing pool.  A
    pool whose workers died (e.g. OOM-killed) is detected and replaced
    rather than handed out broken.  Call :func:`shutdown_shared_pool` to
    release the workers explicitly (also registered at interpreter exit).
    """
    global _shared_pool, _shared_pool_size
    if workers < 1:
        raise EvaluationError("a process pool needs at least one worker")
    with _pool_lock:
        broken = _shared_pool is not None and getattr(_shared_pool, "_broken", False)
        if _shared_pool is not None and (broken or workers > _shared_pool_size):
            _shared_pool.shutdown(wait=True)
            _shared_pool = None
        if _shared_pool is None:
            _shared_pool = ProcessPoolExecutor(max_workers=max(workers, _shared_pool_size))
            _shared_pool_size = max(workers, _shared_pool_size)
        return _shared_pool


def shutdown_shared_pool() -> None:
    """Shut down the shared pool (a later parallel call recreates it)."""
    global _shared_pool, _shared_pool_size
    with _pool_lock:
        if _shared_pool is not None:
            _shared_pool.shutdown(wait=True)
            _shared_pool = None
            _shared_pool_size = 0


atexit.register(shutdown_shared_pool)

#: Process-wide cache of per-action energies, held in memory with its
#: term tier.  One derivation per (config, layer) per process; assumes
#: default-profiled distributions (callers with custom profiles pass
#: their own cache).  Pool workers never read it for shipped work: the
#: parent resolves every table here and ships it in the payload.
_process_energy_cache = PerActionEnergyCache(terms=TermCache())


def process_energy_cache() -> PerActionEnergyCache:
    """The process-wide per-action energy cache used by parallel runs."""
    return _process_energy_cache


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------
def _evaluate_grid_cell(payload):
    """Worker: evaluate one (config, layer) cell of a sweep grid.

    A cell that arrives with its per-action energy table (macro-only,
    default-profiled: the parent derived it in :meth:`BatchRunner.run_grid`)
    only maps and scores the layer — no profiling, no cache.  System cells,
    fixed-energy runs and custom-profiled cells take the model path.
    """
    config, layer, distributions, use_distributions, first_layer, last_layer, per_action = payload
    if per_action is not None:
        from repro.core.evaluation import LayerEvaluation

        result = macro_for(config).evaluate_layer(layer, distributions, per_action=per_action)
        return LayerEvaluation.from_macro_result(result)

    from repro.core.model import CiMLoopModel

    model = CiMLoopModel(config, use_distributions=use_distributions)
    return model.evaluate_layer(
        layer, distributions=distributions, first_layer=first_layer, last_layer=last_layer
    )


def _evaluate_layer_mappings(payload):
    """Worker: batch-evaluate one layer's candidate mappings.

    The parent ships the per-action energies; the worker seeds a
    throwaway cache with them, so nothing it scores is ever derived
    worker-side or outlives the payload.
    """
    config, layer, num_mappings, distributions, per_action = payload
    macro = macro_for(config)
    cache = PerActionEnergyCache()
    cache.seed(macro, layer, per_action)
    evaluator = BatchEvaluator(macro, cache)
    return evaluator.evaluate_mappings(layer, num_mappings, distributions=distributions)


class BatchRunner:
    """Fan independent evaluation work across the shared process pool.

    All runners in a process share one lazily-created pool (see
    :func:`shared_pool`): constructing a ``BatchRunner`` is free, and the
    fan-out axes are joint — a sweep ships the full ``(point x layer)``
    product so the pool stays busy even when one axis is shorter than the
    worker count.  Operand distributions are profiled once by the caller,
    and per-action energies are derived once per (config, layer) in the
    parent (see :func:`process_energy_cache`) and shipped, so no worker
    re-profiles a layer or re-derives a table.

    Choosing ``workers``: evaluation cells are CPU-bound, so physical
    core count (``os.cpu_count()``, the default) is the ceiling; fewer
    workers than grid cells is fine (cells queue), and ``workers=1``
    bypasses the pool entirely for debugging or tiny grids.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers if workers is not None else (os.cpu_count() or 1)

    def _map(self, function, payloads: List) -> List:
        if self.workers <= 1 or len(payloads) <= 1:
            return [function(payload) for payload in payloads]
        # Size the first pool to the work actually available; the shared
        # pool grows on demand when a wider batch arrives later.
        width = min(self.workers, len(payloads))
        return list(shared_pool(width).map(function, payloads))

    def run_grid(
        self,
        configs: Sequence[Union[CiMMacroConfig, SystemConfig]],
        network,
        distributions: Optional[Dict[str, LayerDistributions]] = None,
        use_distributions: bool = True,
        default_profiled: bool = False,
    ) -> List:
        """Evaluate the joint (config x layer) grid and reassemble points.

        Every cell of the grid is an independent work item, so a sweep of
        4 configs over an 8-layer network keeps 32 workers busy rather
        than 4.  Returns one
        :class:`~repro.core.evaluation.EvaluationResult` per config, in
        order, identical to evaluating each config serially.

        ``default_profiled=True`` declares that the supplied
        ``distributions`` are the layers' *default* profiles (as
        ``profile_network`` produces); under that declaration — or when no
        distributions are supplied at all, in which case layers are
        profiled with defaults — macro-only cells resolve their per-action
        energies through the process cache, so warm re-runs derive
        nothing.  The flag defaults to False so callers shipping custom
        (salted) profiles are isolated from the shared cache unless they
        explicitly opt in.

        Before fan-out, the parent derives every such cell's per-action
        energy table in **one config-axis batched pass per layer**
        (:meth:`PerActionEnergyCache.derive_many`) and ships the table in
        the cell's payload in place of its distributions, so a worker
        scores it without profiling or deriving, however long after the
        pool forked the table was derived.
        """
        from repro.core.model import CiMLoopModel

        layers = list(network)
        num_layers = len(layers)
        tables: List[Optional[List[Dict[str, float]]]] = [None] * len(configs)
        if use_distributions and (default_profiled or distributions is None):
            points = [
                point for point, config in enumerate(configs)
                if isinstance(config, CiMMacroConfig)
            ]
            if points:
                derived = _process_energy_cache.derive_many(
                    [configs[point] for point in points], layers,
                    distributions=distributions,
                )
                for point, row in zip(points, derived):
                    tables[point] = row
        payloads = []
        for point, config in enumerate(configs):
            for index, layer in enumerate(layers):
                table = tables[point][index] if tables[point] is not None else None
                payloads.append((
                    config,
                    layer,
                    distributions.get(layer.name) if distributions and table is None else None,
                    use_distributions,
                    index == 0,
                    index == num_layers - 1,
                    table,
                ))
        cells = self._map(_evaluate_grid_cell, payloads)

        from repro.core.config_batch import area_config_batch
        from repro.core.evaluation import EvaluationResult

        # Macro-only points get their area breakdowns from one config-axis
        # batched pass (duplicate configs share a row) instead of a full
        # per-point macro construction; system points keep the scalar path
        # (their area includes the memory hierarchy).
        macro_rows: Dict[CiMMacroConfig, int] = {}
        for config in configs:
            if isinstance(config, CiMMacroConfig) and config not in macro_rows:
                macro_rows[config] = len(macro_rows)
        area_batch = area_config_batch(list(macro_rows)) if macro_rows else None

        results = []
        for point, config in enumerate(configs):
            if isinstance(config, CiMMacroConfig):
                target = config.name
                area = area_batch.breakdown(macro_rows[config])
            else:
                model = CiMLoopModel(config, use_distributions=use_distributions)
                target = f"system({model.macro_config.name})"
                area = model.area_breakdown_um2()
            results.append(
                EvaluationResult(
                    workload_name=network.name,
                    target_name=target,
                    layers=cells[point * num_layers:(point + 1) * num_layers],
                    area_breakdown_um2=area,
                )
            )
        return results

    def run_points(
        self,
        configs: Sequence[Union[CiMMacroConfig, SystemConfig]],
        network,
        distributions: Optional[Dict[str, LayerDistributions]] = None,
        use_distributions: bool = True,
        default_profiled: bool = False,
    ) -> List:
        """Evaluate one workload under many configs.

        Alias of :meth:`run_grid`: points are expanded into the joint
        (point x layer) product before hitting the pool.
        """
        return self.run_grid(
            configs, network, distributions=distributions,
            use_distributions=use_distributions,
            default_profiled=default_profiled,
        )

    def mapping_search(
        self,
        config: CiMMacroConfig,
        layers: Sequence[Layer],
        num_mappings: int,
        distributions: Optional[Dict[str, LayerDistributions]] = None,
        energy_cache: Optional[PerActionEnergyCache] = None,
    ) -> List[AmortizedSearchResult]:
        """Batch-evaluate many layers' mapping spaces, one layer per worker.

        Per-action energies are resolved in the parent through
        ``energy_cache`` and shipped in the payloads, so repeated searches
        over the same (config, layer) pairs — e.g. Table II's x1 and x5000
        rows sharing one cache — derive them once per process instead of
        once per worker invocation.  The default cache is the process-wide
        one only when no explicit ``distributions`` are supplied; custom
        distributions get a fresh per-call cache (the process cache keys on
        (config, layer) alone, so serving it custom-profiled energies would
        poison later default-profiled runs — the same guard as
        :meth:`repro.core.model.CiMLoopModel.evaluate_mappings`).  Callers
        repeating searches with the same explicit distributions can pass
        their own ``energy_cache`` to keep the reuse.
        """
        if energy_cache is not None:
            cache = energy_cache
        elif distributions is None:
            cache = _process_energy_cache
        else:
            cache = PerActionEnergyCache()
        # One config-axis batched pass fills every missing (config, layer)
        # table instead of a scalar derivation per layer.
        tables = cache.derive_many([config], layers, distributions=distributions)[0]
        payloads = []
        for layer, per_action in zip(layers, tables):
            layer_distributions = distributions.get(layer.name) if distributions else None
            payloads.append((config, layer, num_mappings, layer_distributions, per_action))
        return self._map(_evaluate_layer_mappings, payloads)
