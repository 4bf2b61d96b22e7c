"""The fast statistical modeling pipeline.

CiMLoop's speed comes from amortisation (paper Sec. III-D and Algorithm 1):

1. *Per-layer* — operand distributions are profiled once per layer,
   independent of how many architectures or mappings are evaluated.
2. *Per (layer, architecture)* — the average energy of each action of each
   component is computed once from those distributions
   (:class:`PerActionEnergyCache`).
3. *Per mapping* — evaluating a mapping only multiplies cached per-action
   energies by that mapping's action counts, so thousands of mappings cost
   barely more than one (:class:`AmortizedEvaluator`).

The evaluator is the machinery behind the paper's Table II: time per
mapping drops by orders of magnitude once the per-action energies are
amortised across a large mapping search.  The per-candidate arithmetic is
vectorized by :mod:`repro.core.batch`; the scalar loop survives as
:meth:`AmortizedEvaluator.evaluate_mappings_scalar`, the reference oracle
the batch engine is tested against.

Derivation batching & the cache
-------------------------------
Step 2 above — deriving the per-action energy table itself — is batched
over the *config axis* by :mod:`repro.core.config_batch`: a family of
configs sharing one layer resolves through
:meth:`PerActionEnergyCache.derive_many`, which fills every missing entry
of the grid in a few NumPy passes instead of one scalar macro walk per
config (the scalar :meth:`CiMMacro.per_action_energies` stays as the
tested oracle).  The cache is held in process memory, keyed by the full
frozen config + layer fingerprint; only a miss derives.  Pool workers
never consult it for the work they are shipped:
:class:`~repro.core.batch.BatchRunner` resolves every table in the
parent and sends it in the payload.

Alongside the full-table entries, the cache carries **term-granular
entries** (:mod:`repro.core.terms`): each component term — one circuit
formula's value, keyed by the config *sub-tuple* that formula actually
reads instead of the full frozen config — is cached by the
:class:`~repro.core.terms.TermCache` attached to the cache (``terms``;
the process-wide cache of :mod:`repro.core.batch` always has one).  An
energy term key reads ``term|v2|<term>|<context>|<sub-tuple repr>``:
the context is ``pure`` for entries shared across layers and modes, or
``dist|`` plus a 128-bit digest of the layer fingerprint, rendered once
per family derivation, so a key stays short however large the
fingerprint.  A cold *full-config* miss then rarely pays full price:
:meth:`PerActionEnergyCache.derive_many` hands the term cache to the
config-axis deriver, which re-derives only the terms the new configs
actually changed and assembles the rest from cached terms.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.architecture.macro import CiMMacro, CiMMacroConfig, MacroLayerCounts
from repro.core.terms import TermCache
from repro.utils.errors import EvaluationError
from repro.workloads.distributions import LayerDistributions, profile_layer
from repro.workloads.layer import Layer

#: Cache key: the full frozen macro config plus the layer fingerprint.
CacheKey = Tuple[CiMMacroConfig, tuple]


@dataclass
class PerActionEnergyCache:
    """Cache of per-action energies keyed by full config and layer identity.

    The cache embodies the paper's mapping-invariance assumption
    (Sec. III-D3): per-action energy depends on the layer's operand
    distributions and the architecture, but not on the mapping, so one
    entry serves every mapping of that layer onto that macro.

    Keying contract
    ---------------
    Entries are keyed by the *entire frozen* :class:`CiMMacroConfig` plus
    the layer's :meth:`~repro.workloads.layer.Layer.fingerprint` (einsum
    shape, projections, precisions, and distribution seed inputs) — never
    by bare names.  Two swept configs that share a name, or two same-named
    layers with different shapes, therefore get distinct entries instead
    of silently reusing stale energies.  Two caveats remain outside the
    key: a custom ``cell_library`` handed to :class:`CiMMacro`, and
    explicitly supplied non-default ``distributions``; callers varying
    either should use separate caches (or :meth:`invalidate`).

    Access is serialised by a lock so a cache can be shared by concurrent
    sweep threads with exact hit/miss accounting.

    Every miss derives its table exactly once, so ``misses`` also counts
    the energy-model computations.

    When a term-granular cache (``terms``) is attached, bulk derivations
    that miss the full-table entries still reuse per-component terms
    across configs and families: :meth:`derive_many` hands the
    term cache to the config-axis deriver, which re-derives only the
    terms the missing configs actually changed.
    """

    _entries: Dict[CacheKey, Dict[str, float]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    terms: Optional[TermCache] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @staticmethod
    def key_for(macro: CiMMacro, layer: Layer) -> CacheKey:
        """The cache key used for a (macro, layer) pair."""
        return (macro.config, layer.fingerprint())

    def get(
        self,
        macro: CiMMacro,
        layer: Layer,
        distributions: Optional[LayerDistributions] = None,
    ) -> Dict[str, float]:
        """Per-action energies for (macro, layer), computing them on first use."""
        key = self.key_for(macro, layer)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            if distributions is None:
                distributions = profile_layer(layer)
            context = macro.operand_context(distributions)
            energies = macro.per_action_energies(context)
            self._entries[key] = energies
            return energies

    def derive_many(
        self,
        configs: Sequence[CiMMacroConfig],
        layers: Sequence[Layer],
        distributions: Optional[Dict[str, LayerDistributions]] = None,
        cell_library=None,
    ) -> List[List[Dict[str, float]]]:
        """Bulk-populate the cache for a ``configs x layers`` grid.

        For each layer, entries already present count as ``hits``; the
        remaining configs are derived in **one config-axis batched pass**
        (:func:`repro.core.config_batch.derive_config_batch`) instead of
        one scalar macro walk per config, then stored exactly like
        :meth:`get` derivations.  Accounting matches the scalar path entry
        for entry: every returned table was either a hit or a miss.

        ``distributions`` maps layer names to profiles (as
        ``profile_network`` produces); absent layers are profiled with
        defaults, which is the contract a shared cache requires.  Returns
        ``tables[config_index][layer_index]``, each table identical (to
        well within 1e-9 relative error) to what :meth:`get` would have
        derived.
        """
        from repro.core.config_batch import derive_config_batch

        configs = list(configs)
        layers = list(layers)
        tables: List[List[Optional[Dict[str, float]]]] = [
            [None] * len(layers) for _ in configs
        ]
        with self._lock:
            for column, layer in enumerate(layers):
                fingerprint = layer.fingerprint()
                remaining: List[int] = []
                # Duplicate configs in the grid derive once, not per slot;
                # a duplicate slot counts as a hit, exactly as a
                # sequential get() loop would record it.
                unique: Dict[CiMMacroConfig, int] = {}
                for row, config in enumerate(configs):
                    entry = self._entries.get((config, fingerprint))
                    if entry is not None:
                        self.hits += 1
                        tables[row][column] = entry
                        continue
                    if config in unique:
                        self.hits += 1
                    else:
                        self.misses += 1
                        unique[config] = len(unique)
                    remaining.append(row)
                if not remaining:
                    continue
                layer_distributions = (
                    distributions.get(layer.name) if distributions else None
                )
                batch = derive_config_batch(
                    list(unique),
                    layer,
                    distributions=layer_distributions,
                    cell_library=cell_library,
                    term_cache=self.terms,
                )
                derived = [batch.per_action(position) for position in range(len(unique))]
                for config, position in unique.items():
                    self._entries[(config, fingerprint)] = derived[position]
                for row in remaining:
                    tables[row][column] = derived[unique[configs[row]]]
        return tables

    def seed(self, macro: CiMMacro, layer: Layer, energies: Dict[str, float]) -> None:
        """Pre-insert per-action energies computed elsewhere.

        Used by the parallel runner's mapping-search workers: the parent
        derives (or cache-hits) the energies once per (config, layer) and
        ships them, and each worker seeds a throwaway cache instead of
        re-deriving.
        """
        key = self.key_for(macro, layer)
        with self._lock:
            self._entries[key] = energies

    def stats(self) -> Dict[str, object]:
        """Counters of the cache and its term entries, for
        health/observability — what the service ``/healthz`` endpoint
        reports."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "term_tier": self.terms.stats() if self.terms is not None else None,
            }

    def invalidate(self) -> None:
        """Drop every cached entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            if self.terms is not None:
                self.terms.invalidate()

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class MappingEvaluation:
    """Result of evaluating one candidate mapping."""

    counts: MacroLayerCounts
    energy_breakdown: Dict[str, float]
    total_energy: float
    latency_s: float


@dataclass(frozen=True)
class AmortizedSearchResult:
    """Result of an amortised multi-mapping evaluation."""

    layer_name: str
    evaluations: int
    best: MappingEvaluation
    elapsed_s: float

    @property
    def mappings_per_second(self) -> float:
        """Evaluation throughput (mappings x layers per second)."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.evaluations / self.elapsed_s


class AmortizedEvaluator:
    """Evaluate many candidate mappings of a layer with cached energies.

    The candidate mappings of the analytical macro model are variations of
    the array tiling (how many row/column tiles, which fold factor), which
    is where a mapper would spend its search.  Because per-action energy is
    cached, each additional candidate only costs the count arithmetic.
    """

    def __init__(self, macro: CiMMacro, cache: Optional[PerActionEnergyCache] = None):
        self.macro = macro
        # An empty cache is falsy (len == 0), so check identity, not truth.
        self.cache = cache if cache is not None else PerActionEnergyCache()

    def candidate_counts(self, layer: Layer, num_candidates: int) -> List[MacroLayerCounts]:
        """Generate candidate mappings by perturbing the baseline tiling.

        Real mappers explore loop permutations and tilings; for the
        analytical macro the degrees of freedom are the tile counts, so the
        candidates scale row/column tiles by small factors.  Candidate 0 is
        always the baseline (best) mapping.
        """
        if num_candidates < 1:
            raise EvaluationError("need at least one candidate mapping")
        base = self.macro.map_layer(layer)
        candidates = [base]
        scale = 1
        while len(candidates) < num_candidates:
            scale += 1
            for row_scale, col_scale in ((scale, 1), (1, scale), (scale, scale)):
                if len(candidates) >= num_candidates:
                    break
                candidates.append(self._scaled_counts(base, row_scale, col_scale))
        return candidates[:num_candidates]

    @staticmethod
    def _scaled_counts(base: MacroLayerCounts, row_scale: int, col_scale: int) -> MacroLayerCounts:
        """A pessimised candidate using more row/column tiles than necessary."""
        factor = row_scale * col_scale
        return MacroLayerCounts(
            total_macs=base.total_macs,
            reduction_size=base.reduction_size,
            output_channels=base.output_channels,
            input_vectors=base.input_vectors,
            weight_slices=base.weight_slices,
            weight_lanes=base.weight_lanes,
            input_lanes=base.input_lanes,
            input_steps=base.input_steps,
            row_tiles=base.row_tiles * row_scale,
            col_tiles=base.col_tiles * col_scale,
            outputs_per_activation=base.outputs_per_activation,
            row_utilization=base.row_utilization / row_scale,
            col_utilization=base.col_utilization / col_scale,
            array_activations=base.array_activations * factor,
            cell_ops=base.cell_ops,
            cell_writes=base.cell_writes,
            dac_converts=base.dac_converts * col_scale,
            adc_converts=base.adc_converts * row_scale,
            row_driver_ops=base.row_driver_ops * col_scale,
            column_mux_ops=base.column_mux_ops * row_scale,
            analog_adder_ops=base.analog_adder_ops * row_scale,
            analog_accumulator_ops=base.analog_accumulator_ops * row_scale,
            analog_mac_ops=base.analog_mac_ops * row_scale,
            shift_add_ops=base.shift_add_ops * row_scale,
            digital_accumulate_ops=base.digital_accumulate_ops * row_scale,
            digital_mac_ops=base.digital_mac_ops,
            input_buffer_reads=base.input_buffer_reads * col_scale,
            input_buffer_writes=base.input_buffer_writes,
            output_buffer_updates=base.output_buffer_updates * row_scale,
            output_buffer_reads=base.output_buffer_reads,
        )

    def evaluate_mappings(
        self,
        layer: Layer,
        num_mappings: int = 1,
        distributions: Optional[LayerDistributions] = None,
    ) -> AmortizedSearchResult:
        """Evaluate ``num_mappings`` candidates and return the best.

        The per-action energies are fetched from the cache once and the
        whole candidate batch is evaluated in one vectorized matrix
        product (:class:`repro.core.batch.BatchEvaluator`), so thousands
        of mappings cost barely more than one — the amortisation the
        paper measures in Table II, without even a per-candidate Python
        loop.
        """
        from repro.core.batch import BatchEvaluator

        if num_mappings < 1:
            raise EvaluationError("need at least one candidate mapping")
        batch = BatchEvaluator(self.macro, cache=self.cache)
        return batch.evaluate_mappings(layer, num_mappings, distributions=distributions)

    def evaluate_mappings_scalar(
        self,
        layer: Layer,
        num_mappings: int = 1,
        distributions: Optional[LayerDistributions] = None,
    ) -> AmortizedSearchResult:
        """Reference oracle: the original per-candidate Python loop.

        Kept (and tested) as the ground truth the vectorized batch engine
        must match to within float rounding; also the baseline the
        amortization benchmark measures the batch speedup against.
        """
        start = time.perf_counter()
        per_action = self.cache.get(self.macro, layer, distributions)
        best: Optional[MappingEvaluation] = None
        evaluated = 0
        for counts in self.candidate_counts(layer, num_mappings):
            breakdown = self.macro.energy_breakdown(counts, per_action)
            total = sum(breakdown.values())
            latency = self.macro.latency_seconds(counts)
            evaluation = MappingEvaluation(
                counts=counts,
                energy_breakdown=breakdown,
                total_energy=total,
                latency_s=latency,
            )
            evaluated += 1
            if best is None or total < best.total_energy:
                best = evaluation
        elapsed = time.perf_counter() - start
        assert best is not None
        return AmortizedSearchResult(
            layer_name=layer.name,
            evaluations=evaluated,
            best=best,
            elapsed_s=elapsed,
        )
