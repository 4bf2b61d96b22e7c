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

Derivation batching & cache tiers
---------------------------------
Step 2 above — deriving the per-action energy table itself — is batched
over the *config axis* by :mod:`repro.core.config_batch`: a family of
configs sharing one layer resolves through
:meth:`PerActionEnergyCache.derive_many`, which fills every missing entry
of the grid in a few NumPy passes instead of one scalar macro walk per
config (the scalar :meth:`CiMMacro.per_action_energies` stays as the
tested oracle).  Around the derivation sit two cache tiers, consulted
in order:

1. **Process tier** — the in-memory map below, keyed by the full frozen
   config + layer fingerprint.  Pool workers never consult it for the
   work they are shipped: :class:`~repro.core.batch.BatchRunner` resolves
   every table in the parent and sends it in the payload.
2. **Disk tier** (:class:`DiskEnergyCache`, opt-in via
   ``REPRO_ENERGY_CACHE_DIR``) — cross-process *and* cross-run reuse,
   with LRU size/entry bounds so the store cannot grow without limit.

Only a miss in both tiers derives; the result is written back through
every enabled tier.

Alongside the full-table entries, the same tiers carry **term-granular
entries** (:mod:`repro.core.terms`): each component term — one circuit
formula's value, keyed by the config *sub-tuple* that formula actually
reads instead of the full frozen config — is cached by the
:class:`~repro.core.terms.TermCache` attached to the process cache
(``terms``) and persisted as ``energy-*.json`` files in the same disk
directory (term keys start with ``term|``/``areaterm|``, so the two
entry kinds can never collide).  An energy term key reads
``term|v2|<term>|<context>|<sub-tuple repr>``: the context is ``pure``
for entries shared across layers and modes, or ``dist|`` plus a 128-bit
digest of the layer fingerprint, rendered once per family derivation,
so a key stays short however large the fingerprint.
A cold *full-config* miss in every tier then rarely pays full price:
:meth:`PerActionEnergyCache.derive_many` hands the term cache to the
config-axis deriver, which re-derives only the terms the new configs
actually changed and assembles the rest from cached terms.  The
``REPRO_TERM_CACHE`` env knob (default on; ``0``/``false`` disables)
gates term granularity without touching the full-table tiers.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.architecture.macro import CiMMacro, CiMMacroConfig, MacroLayerCounts
from repro.core.terms import TermCache
from repro.utils.diskstore import atomic_write_json, evict_lru_files
from repro.utils.env import env_positive_int
from repro.utils.errors import EvaluationError
from repro.workloads.distributions import LayerDistributions, profile_layer
from repro.workloads.layer import Layer

#: Cache key: the full frozen macro config plus the layer fingerprint.
CacheKey = Tuple[CiMMacroConfig, tuple]

#: Environment variable naming the directory of the opt-in disk cache.
ENERGY_CACHE_DIR_ENV = "REPRO_ENERGY_CACHE_DIR"

#: Environment variables bounding the disk cache (LRU eviction).
ENERGY_CACHE_MAX_ENTRIES_ENV = "REPRO_ENERGY_CACHE_MAX_ENTRIES"
ENERGY_CACHE_MAX_BYTES_ENV = "REPRO_ENERGY_CACHE_MAX_BYTES"


class DiskEnergyCache:
    """Disk-backed store of per-action energies for cross-process reuse.

    Entries are JSON files named by the SHA-256 of the *canonical key
    string* — the full frozen macro config repr plus the layer
    fingerprint repr, the same identity the in-memory
    :class:`PerActionEnergyCache` keys on.  Any config or layer change
    therefore lands on a different file, so stale entries can never be
    served after a design change (fingerprint invalidation for free).
    The stored key string is verified on load, which also guards against
    hash collisions.

    Robustness: a missing, truncated, corrupted, version-skewed, or
    mismatched file is treated as a miss (counted in ``load_failures``)
    and the energies are recomputed and rewritten; genuinely corrupt
    entries are additionally quarantined — renamed to ``*.corrupt`` on
    the first failed parse (counted in ``quarantined``), so every later
    lookup of the key is a clean miss.  Writes go through a
    temporary file + ``os.replace`` so concurrent workers never observe a
    half-written entry.

    Bounds: ``max_entries`` / ``max_bytes`` cap the store with LRU
    eviction — every load refreshes its entry's mtime, and after each
    store the oldest entries beyond either limit are unlinked (counted in
    ``evictions``).  Unbounded by default; the environment variables
    ``REPRO_ENERGY_CACHE_MAX_ENTRIES`` / ``REPRO_ENERGY_CACHE_MAX_BYTES``
    bound the opt-in cache without code changes.

    Like the in-memory cache, entries assume default-profiled
    distributions; callers with custom profiles must use a separate
    directory (or no disk cache at all).
    """

    VERSION = 1

    def __init__(
        self,
        directory: Union[str, Path],
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.loads = 0
        self.load_failures = 0
        self.quarantined = 0
        self.evictions = 0

    @classmethod
    def from_env(cls, variable: str = ENERGY_CACHE_DIR_ENV) -> Optional["DiskEnergyCache"]:
        """The cache named by the environment, or None when unset/empty.

        An unusable directory (unwritable parent, permission denied)
        disables the opt-in cache with a warning instead of raising —
        this runs at import time of the batch engine, and a broken env
        var must not take the whole package down.
        """
        directory = os.environ.get(variable, "").strip()
        if not directory:
            return None
        try:
            return cls(
                directory,
                max_entries=env_positive_int(ENERGY_CACHE_MAX_ENTRIES_ENV),
                max_bytes=env_positive_int(ENERGY_CACHE_MAX_BYTES_ENV),
            )
        except OSError as error:
            import sys

            print(
                f"warning: {variable}={directory!r} is unusable ({error}); "
                "disk energy cache disabled",
                file=sys.stderr,
            )
            return None

    @staticmethod
    def canonical_key(key: CacheKey) -> str:
        """Deterministic string identity of a cache key: the full frozen
        config repr and the layer fingerprint repr."""
        config, fingerprint = key
        return f"{config!r}|{fingerprint!r}"

    def path_for(self, key: CacheKey) -> Path:
        """The entry file a key maps to."""
        return self._path_for_string(self.canonical_key(key))

    def _path_for_string(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.directory / f"energy-{digest}.json"

    def load(self, key: CacheKey) -> Optional[Dict[str, float]]:
        """The stored energies of a key, or None on any kind of miss."""
        return self.load_canonical(self.canonical_key(key))

    def load_canonical(self, key: str) -> Optional[Dict[str, float]]:
        """Load an entry by its canonical key string.

        The string-keyed face of the store, used directly by the
        term-granular cache (:class:`repro.core.terms.TermCache`), whose
        keys are canonical strings rather than ``(config, fingerprint)``
        pairs; term and full-table entries share the directory, the LRU
        bounds, and the robustness guarantees.
        """
        path = self._path_for_string(key)
        try:
            payload = json.loads(path.read_text())
            if payload["version"] != self.VERSION:
                raise ValueError(f"version {payload['version']}")
            if payload["key"] != key:
                raise ValueError("key mismatch")
            energies = {
                str(action): float(value)
                for action, value in payload["energies"].items()
            }
        except FileNotFoundError:
            return None
        except OSError:
            # I/O trouble (permissions, dying disk) says nothing about
            # the entry's content; treat as a plain miss.
            self.load_failures += 1
            return None
        except (ValueError, KeyError, TypeError, AttributeError):
            # The entry itself is corrupt and stays corrupt: quarantine
            # it once so later hits on this key miss cleanly instead of
            # re-attempting the parse on every lookup.
            self.load_failures += 1
            self._quarantine(path)
            return None
        self.loads += 1
        if self.max_entries is not None or self.max_bytes is not None:
            try:
                os.utime(path)  # refresh recency so eviction is LRU, not FIFO
            except OSError:
                pass
        return energies

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the ``energy-*.json`` namespace.

        Renamed to ``energy-<digest>.corrupt`` so loads, eviction scans,
        and entry counts no longer see it, while the bytes stay around
        for post-mortems.  Losing a rename race to a concurrent reader
        is harmless — the entry is gone either way.
        """
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            return
        self.quarantined += 1

    def store(self, key: CacheKey, energies: Dict[str, float]) -> None:
        """Atomically persist one entry (last writer wins).

        Disk trouble only costs the persistence, never the run — the
        caller already holds the energies in memory (see
        :func:`repro.utils.diskstore.atomic_write_json`, shared with the
        service result store).
        """
        self.store_canonical(self.canonical_key(key), energies)

    def store_canonical(self, key: str, energies: Dict[str, float]) -> None:
        """Atomically persist one entry by its canonical key string."""
        path = self._path_for_string(key)
        payload = {
            "version": self.VERSION,
            "key": key,
            "energies": dict(energies),
        }
        if atomic_write_json(path, payload, "energy cache entry"):
            self._evict()

    def _evict(self) -> None:
        """LRU-unlink entries beyond the configured bounds (newest kept;
        see :func:`repro.utils.diskstore.evict_lru_files`)."""
        self.evictions += evict_lru_files(
            self.directory, "energy-*.json", self.max_entries, self.max_bytes
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("energy-*.json"))


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

    Persistence
    -----------
    The optional **disk tier** (:class:`DiskEnergyCache`) backs the
    in-memory map on a memory miss and persists entries across processes
    and runs; fresh derivations are written through it.  ``derivations``
    counts *actual* energy-model computations — a fully warm tier stack
    leaves it at zero — while ``misses`` keeps counting memory misses
    whether or not the disk served them (``disk_hits`` says it did).

    When a term-granular cache (``terms``) is attached, bulk derivations
    that miss every full-table tier still reuse per-component terms
    across configs, families, and runs: :meth:`derive_many` hands the
    term cache to the config-axis deriver, which re-derives only the
    terms the missing configs actually changed.
    """

    _entries: Dict[CacheKey, Dict[str, float]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    disk: Optional[DiskEnergyCache] = None
    disk_hits: int = 0
    derivations: int = 0
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
            served = self._load_from_disk(key)
            if served is not None:
                return served
            self.derivations += 1
            if distributions is None:
                distributions = profile_layer(layer)
            context = macro.operand_context(distributions)
            energies = macro.per_action_energies(context)
            self._store(key, energies)
            return energies

    def _load_from_disk(self, key: CacheKey) -> Optional[Dict[str, float]]:
        """Resolve a memory miss through the disk tier."""
        if self.disk is None:
            return None
        stored = self.disk.load(key)
        if stored is not None:
            self.disk_hits += 1
            self._entries[key] = stored
        return stored

    def _store(self, key: CacheKey, energies: Dict[str, float]) -> None:
        """Insert a fresh derivation and write it through the disk tier."""
        self._entries[key] = energies
        if self.disk is not None:
            self.disk.store(key, energies)

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
        one scalar macro walk per config, then written through the disk
        tier exactly like :meth:`get` derivations.  Accounting matches the
        scalar path entry for entry: every returned table was either a
        hit, a disk hit, or a derivation.

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
                pending: set = set()
                for row, config in enumerate(configs):
                    key = (config, fingerprint)
                    if key in self._entries or config in pending:
                        # Duplicate grid slots count as hits, exactly as a
                        # sequential get() loop would record them.
                        self.hits += 1
                        if key in self._entries:
                            tables[row][column] = self._entries[key]
                        else:
                            remaining.append(row)
                        continue
                    self.misses += 1
                    served = self._load_from_disk(key)
                    if served is not None:
                        tables[row][column] = served
                    else:
                        remaining.append(row)
                        pending.add(config)
                if not remaining:
                    continue
                layer_distributions = (
                    distributions.get(layer.name) if distributions else None
                )
                # Duplicate configs in the grid derive once, not per slot.
                unique: Dict[CiMMacroConfig, int] = {}
                for row in remaining:
                    unique.setdefault(configs[row], len(unique))
                batch = derive_config_batch(
                    list(unique),
                    layer,
                    distributions=layer_distributions,
                    cell_library=cell_library,
                    term_cache=self.terms,
                )
                self.derivations += len(unique)
                derived = [batch.per_action(position) for position in range(len(unique))]
                for config, position in unique.items():
                    self._store((config, fingerprint), derived[position])
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
        """Counters of the whole tier stack, for health/observability —
        what the service ``/healthz`` endpoint reports."""
        with self._lock:
            payload: Dict[str, object] = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "derivations": self.derivations,
                "term_tier": self.terms.stats() if self.terms is not None else None,
                "disk_tier": None,
            }
            if self.disk is not None:
                payload["disk_tier"] = {
                    "directory": str(self.disk.directory),
                    "loads": self.disk.loads,
                    "load_failures": self.disk.load_failures,
                    "quarantined": self.disk.quarantined,
                    "evictions": self.disk.evictions,
                }
            return payload

    def invalidate(self) -> None:
        """Drop every cached in-memory entry (disk entries are left
        alone: their keys embed the full config, so they can never serve
        a changed design)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.derivations = 0
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
