"""Component terms: the factored units of config-axis energy derivation.

The analytical CiM model composes per-action energies from *independent*
per-component circuit formulas (paper Sec. III-C): the ADC conversion
energy reads the ADC resolution and the output statistics, the buffer
access energy reads only the buffer geometry, and so on.  A config family
that sweeps one axis therefore recomputes most formulas on identical
inputs.  This module factors the derivation around that independence:

* A :class:`TermSpec` binds a group of derived actions to the component
  model that produces them, the :class:`CiMMacroConfig` fields the
  formula reads (declared by the model itself via the
  ``TERM_CONFIG_FIELDS`` / ``TERM_STAT_ROLES`` protocol of
  :class:`repro.circuits.interface.ComponentEnergyModel`), and the
  operand roles whose statistics enter the formula.
* :func:`term_key` evaluates the *effective* sub-tuple on one config —
  the declared fields plus the fields that shape the consumed roles'
  statistics (the encoding subkeys of ``_batch_operand_stats``).  Two
  configs with equal term keys produce bitwise-equal term values, so the
  batched deriver (:mod:`repro.core.config_batch`) evaluates each unique
  ``(term, key)`` once per family and broadcasts.
* :class:`TermCache` stores derived term values across families,
  requests, and runs — in memory and through the disk tier — so a warm
  near-duplicate family assembles its
  ``(configs, actions)`` table from cached terms and derives only the
  terms its perturbed axis actually changed.

Caching contract: like the full-table tiers, term entries assume the
default cell library and default-profiled distributions; the deriver only
engages the cache under that contract (custom libraries bypass it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.circuits.adc import ADCModel
from repro.circuits.analog import AnalogAccumulator, AnalogAdder, AnalogMACUnit
from repro.circuits.buffers import SRAMBuffer
from repro.circuits.dac import DACModel
from repro.circuits.digital import DigitalAccumulator, DigitalMACUnit, ShiftAdd
from repro.circuits.drivers import ColumnMux, RowDriver
from repro.circuits.interface import term_config_key
from repro.devices.cells import MemoryCell
from repro.workloads.einsum import TensorRole

#: Environment variable gating the term-granular derivation cache on the
#: process-wide energy cache ("0"/"false"/"off"/"no" disables it).
TERM_CACHE_ENV = "REPRO_TERM_CACHE"

#: Config fields that shape one operand role's statistics — the encoding
#: subkeys of ``_batch_operand_stats``.  Output statistics are derived
#: from the input and weight statistics, so the output subkey is their
#: union.
ROLE_SUBKEY_FIELDS: Dict[TensorRole, Tuple[str, ...]] = {
    TensorRole.INPUTS: ("input_encoding", "input_bits", "dac_resolution"),
    TensorRole.WEIGHTS: ("weight_encoding", "weight_bits", "bits_per_cell"),
    TensorRole.OUTPUTS: (
        "input_encoding",
        "input_bits",
        "dac_resolution",
        "weight_encoding",
        "weight_bits",
        "bits_per_cell",
    ),
}


@dataclass(frozen=True)
class TermSpec:
    """One component term of the derivation.

    ``actions`` are the :data:`~repro.core.config_batch.DERIVED_ACTIONS`
    (or :data:`~repro.core.config_batch.AREA_COMPONENTS`) entries the term
    produces; ``fields`` is the config sub-tuple the formula reads
    directly (mirroring the producing model's ``TERM_CONFIG_FIELDS``
    declaration); ``roles`` are the operand roles whose statistics enter
    the formula (mirroring ``TERM_STAT_ROLES``).
    """

    name: str
    actions: Tuple[str, ...]
    model: type
    fields: Tuple[str, ...]
    roles: Tuple[TensorRole, ...] = ()

    def __post_init__(self) -> None:
        seen = list(self.fields)
        for role in self.roles:
            for field_name in ROLE_SUBKEY_FIELDS[role]:
                if field_name not in seen:
                    seen.append(field_name)
        object.__setattr__(self, "_effective", tuple(seen))

    def effective_fields(self) -> Tuple[str, ...]:
        """Declared fields plus the consumed roles' statistic subkeys.

        This is the complete set of config fields that can change the
        term's value — the contract the perturbation test suite validates
        against the scalar oracle.
        """
        return self._effective


def term_key(spec: TermSpec, config) -> tuple:
    """The effective config sub-tuple of one term on one config."""
    return term_config_key(config, spec.effective_fields())


#: Energy terms, in :data:`~repro.core.config_batch.DERIVED_ACTIONS`
#: order.  The two cell actions are separate terms because programming
#: energy is data-independent: a ``cell_write`` term survives encoding
#: changes that invalidate the ``cell_compute`` term.  The two buffer
#: sides share one model class with per-side field declarations.
ENERGY_TERMS: Tuple[TermSpec, ...] = (
    TermSpec(
        "cell_compute",
        ("cell_compute",),
        MemoryCell,
        MemoryCell.TERM_CONFIG_FIELDS,
        (TensorRole.INPUTS, TensorRole.WEIGHTS),
    ),
    TermSpec("cell_write", ("cell_write",), MemoryCell, MemoryCell.TERM_CONFIG_FIELDS),
    TermSpec(
        "dac",
        ("dac_convert",),
        DACModel,
        DACModel.TERM_CONFIG_FIELDS,
        DACModel.TERM_STAT_ROLES,
    ),
    TermSpec(
        "adc",
        ("adc_convert",),
        ADCModel,
        ADCModel.TERM_CONFIG_FIELDS,
        ADCModel.TERM_STAT_ROLES,
    ),
    TermSpec(
        "row_driver",
        ("row_drive",),
        RowDriver,
        RowDriver.TERM_CONFIG_FIELDS,
        RowDriver.TERM_STAT_ROLES,
    ),
    TermSpec(
        "column_mux",
        ("column_mux",),
        ColumnMux,
        ColumnMux.TERM_CONFIG_FIELDS,
        ColumnMux.TERM_STAT_ROLES,
    ),
    TermSpec(
        "analog_adder",
        ("analog_add",),
        AnalogAdder,
        AnalogAdder.TERM_CONFIG_FIELDS,
        AnalogAdder.TERM_STAT_ROLES,
    ),
    TermSpec(
        "analog_accumulator",
        ("analog_accumulate",),
        AnalogAccumulator,
        AnalogAccumulator.TERM_CONFIG_FIELDS,
        AnalogAccumulator.TERM_STAT_ROLES,
    ),
    TermSpec(
        "analog_mac",
        ("analog_mac",),
        AnalogMACUnit,
        AnalogMACUnit.TERM_CONFIG_FIELDS,
        AnalogMACUnit.TERM_STAT_ROLES,
    ),
    TermSpec(
        "shift_add",
        ("shift_add",),
        ShiftAdd,
        ShiftAdd.TERM_CONFIG_FIELDS,
        ShiftAdd.TERM_STAT_ROLES,
    ),
    TermSpec(
        "digital_accumulator",
        ("digital_accumulate",),
        DigitalAccumulator,
        DigitalAccumulator.TERM_CONFIG_FIELDS,
        DigitalAccumulator.TERM_STAT_ROLES,
    ),
    TermSpec(
        "digital_mac",
        ("digital_mac",),
        DigitalMACUnit,
        DigitalMACUnit.TERM_CONFIG_FIELDS,
        DigitalMACUnit.TERM_STAT_ROLES,
    ),
    TermSpec(
        "input_buffer",
        ("input_buffer_read", "input_buffer_write"),
        SRAMBuffer,
        SRAMBuffer.TERM_CONFIG_FIELDS_INPUT,
    ),
    TermSpec(
        "output_buffer",
        ("output_buffer_update", "output_buffer_read"),
        SRAMBuffer,
        SRAMBuffer.TERM_CONFIG_FIELDS_OUTPUT,
    ),
)

#: action name -> the energy term producing it.
ACTION_TERMS: Dict[str, TermSpec] = {
    action: spec for spec in ENERGY_TERMS for action in spec.actions
}

#: Area terms, in :data:`~repro.core.config_batch.AREA_COMPONENTS` order
#: (minus ``misc``, which is assembled per config from the subtotal and
#: ``misc_area_fraction``; the global ``area_scale`` is likewise applied
#: at assembly).  Area is a pure function of the config — no operand
#: roles, no layer — so area terms are reusable everywhere.
AREA_TERMS: Tuple[TermSpec, ...] = (
    TermSpec(
        "array_area",
        ("array",),
        MemoryCell,
        ("device", "bits_per_cell", "technology", "rows", "cols"),
    ),
    TermSpec("dac_area", ("dac",), DACModel, ("dac_resolution", "technology", "rows")),
    TermSpec(
        "adc_area",
        ("adc",),
        ADCModel,
        (
            "adc_resolution",
            "cycle_time_ns",
            "cols",
            "columns_per_adc",
            "output_reuse_style",
            "technology",
        ),
    ),
    TermSpec("row_driver_area", ("row_drivers",), RowDriver, ("rows", "cols", "technology")),
    TermSpec(
        "column_mux_area",
        ("column_mux",),
        ColumnMux,
        ("cols", "columns_per_adc", "technology"),
    ),
    TermSpec(
        "analog_adder_area",
        ("analog_adder",),
        AnalogAdder,
        (
            "analog_adder_operands",
            "cols",
            "columns_per_adc",
            "output_reuse_style",
            "technology",
        ),
    ),
    TermSpec(
        "analog_accumulator_area",
        ("analog_accumulator",),
        AnalogAccumulator,
        ("cols", "columns_per_adc", "output_reuse_style", "technology"),
    ),
    TermSpec(
        "analog_mac_area",
        ("analog_mac",),
        AnalogMACUnit,
        ("weight_bits", "cols", "columns_per_adc", "output_reuse_style", "technology"),
    ),
    TermSpec(
        "digital_mac_area",
        ("digital_mac",),
        DigitalMACUnit,
        ("weight_bits", "cols", "output_reuse_style", "technology"),
    ),
    TermSpec(
        "digital_postprocessing_area",
        ("digital_postprocessing",),
        ShiftAdd,
        ("output_bits", "cols", "columns_per_adc", "technology"),
    ),
    TermSpec(
        "input_buffer_area",
        ("input_buffer",),
        SRAMBuffer,
        ("input_buffer_kib", "technology"),
    ),
    TermSpec(
        "output_buffer_area",
        ("output_buffer",),
        SRAMBuffer,
        ("output_buffer_kib", "technology"),
    ),
)


# ----------------------------------------------------------------------
# Canonical term-cache keys
# ----------------------------------------------------------------------
def energy_term_cache_key(
    spec: TermSpec,
    key: tuple,
    use_distributions: bool,
    fingerprint: tuple,
) -> str:
    """Deterministic string identity of one energy term entry.

    Terms that consume no operand statistics — and every term in nominal
    (fixed-energy) mode, where statistics are constants — are pure
    functions of the config sub-tuple: their entries carry the ``pure``
    context and are shared across layers *and* modes.  Statistic-consuming
    terms under profiled distributions embed the layer fingerprint, so two
    layers can never trade statistics-dependent terms.
    """
    if spec.roles and use_distributions:
        context = f"dist|{fingerprint!r}"
    else:
        context = "pure"
    return f"term|v1|{spec.name}|{context}|{key!r}"


def area_term_cache_key(spec: TermSpec, key: tuple) -> str:
    """Deterministic string identity of one area term entry."""
    return f"areaterm|v1|{spec.name}|{key!r}"


# ----------------------------------------------------------------------
# The term-granular cache
# ----------------------------------------------------------------------
class TermCache:
    """Cache of derived component-term values, with optional tier backing.

    Entries map a canonical term key string to the term's per-action
    values (a ``{action: value}`` dict — the same payload shape the
    full-table tiers move, so the disk store serves term entries without
    any new machinery).  A memory miss falls through to the disk tier,
    exactly like :class:`~repro.core.fast_pipeline.PerActionEnergyCache`;
    fresh derivations (recorded by the deriver via
    :meth:`record_derivations`) are written back through it.

    Access is lock-serialised so the process-wide instance can be shared
    by concurrent sweep threads and the service dispatcher with exact
    hit/miss accounting.
    """

    def __init__(self, disk=None):
        self._entries: Dict[str, Dict[str, float]] = {}
        self._operand_stats: Dict[tuple, Dict[tuple, object]] = {}
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.derivations = 0
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls, disk=None) -> Optional["TermCache"]:
        """A cache honouring ``REPRO_TERM_CACHE`` (None when disabled)."""
        import os

        flag = os.environ.get(TERM_CACHE_ENV, "").strip().lower()
        if flag in ("0", "false", "off", "no"):
            return None
        return cls(disk=disk)

    def lookup(self, key: str) -> Optional[Dict[str, float]]:
        """One entry's values, falling through the tiers; None on a miss."""
        with self._lock:
            values = self._entries.get(key)
            if values is not None:
                self.hits += 1
                return values
            self.misses += 1
            if self.disk is not None:
                stored = self.disk.load_canonical(key)
                if stored is not None:
                    self.disk_hits += 1
                    self._entries[key] = stored
                    return stored
            return None

    def store(self, key: str, values: Dict[str, float]) -> None:
        """Insert one freshly derived entry and write it through the disk."""
        with self._lock:
            self._entries[key] = values
            if self.disk is not None:
                self.disk.store_canonical(key, values)

    def operand_stats_memo(self, fingerprint, role: str) -> Dict[tuple, object]:
        """The per-(layer, role) encoding-subkey -> OperandStats memo.

        Encode-and-slice statistics propagation is the dominant fixed
        cost of a family derivation; under the cache's default-profile
        contract the stats are a pure function of (layer fingerprint,
        encoding subkey), so warm families skip it entirely.
        """
        with self._lock:
            return self._operand_stats.setdefault((fingerprint, role), {})

    def record_derivations(self, count: int) -> None:
        """Count term-formula evaluations the deriver actually performed."""
        with self._lock:
            self.derivations += count

    def stats(self) -> Dict[str, object]:
        """Counters for health/observability (service ``/healthz``)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "derivations": self.derivations,
                "hit_ratio": (self.hits / lookups) if lookups else 0.0,
            }

    def invalidate(self) -> None:
        """Drop the in-memory entries and reset the counters (tier entries
        are left alone: their keys embed the full sub-tuples)."""
        with self._lock:
            self._entries.clear()
            self._operand_stats.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.derivations = 0

    def __len__(self) -> int:
        return len(self._entries)
