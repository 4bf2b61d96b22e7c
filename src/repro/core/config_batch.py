"""Config-axis batched per-action energy derivation.

The fast pipeline amortises per-action energies across *mappings*
(paper Sec. III-D), and :mod:`repro.core.batch` vectorized everything
downstream of an energy table — but deriving the table itself was still a
scalar cold-start: every sweep point built a full :class:`CiMMacro`
object graph and walked its circuit models one config at a time.  This
module batches that derivation over the **config axis**: given a family
of :class:`CiMMacroConfig` sharing one workload layer (and therefore one
:class:`~repro.workloads.distributions.LayerDistributions`), it emits the
whole ``(configs, actions)`` energy matrix in a few NumPy passes.

How the batching wins
---------------------
* Operand statistics are deduplicated by *encoding subkey*: the input
  stats depend only on ``(input_encoding, input_bits, dac_resolution)``
  and the weight stats only on ``(weight_encoding, weight_bits,
  bits_per_cell)``, so a 96-config grid that sweeps ADC resolution,
  supply voltage, or calibration scales runs the expensive
  encode-and-slice PMF propagation once, not 96 times.
* Every circuit energy formula (ADC, DAC, cell array, drivers, analog
  and digital post-processing, buffers) is evaluated as a NumPy
  expression over a ``(configs,)`` leading axis instead of per-config
  Python object construction and method dispatch.
* Memory-cell device models stay pluggable: per unique ``(device,
  bits_per_cell, technology)`` the cell is instantiated once through the
  (possibly custom) :class:`~repro.devices.nvmexplorer.CellLibrary`, its
  technology-scaled base energies are shared across the batch, and its
  ``_data_dependence`` hook is honoured per config so subclasses with
  custom data dependence (e.g. ReRAM conductance floors) stay exact.

Term-factored derivation
------------------------
Each energy/area formula above reads only a small *sub-tuple* of the
config — the fields its component model declares through the term-key
protocol (:mod:`repro.core.terms`).  When a :class:`TermCache` is passed,
both derivers factor the work around those terms: every unique
``(term, sub-tuple)`` in the family is resolved through the cache, the
formula battery runs only on a set of *representative* configs (the first
occurrence of each unresolved sub-tuple), and the ``(configs, actions)``
matrix is assembled by broadcasting term values back over the family.
Because every formula is elementwise over the config axis, the
representative-row evaluation is bitwise identical to the full-batch
evaluation — the term path changes how many rows the formulas see, never
what they compute.  A warm near-duplicate family (one axis perturbed)
therefore derives only the terms that axis actually touches.

The scalar :meth:`CiMMacro.per_action_energies` remains the tested
oracle: :func:`max_scalar_relative_error` is the equivalence gate used by
the test suite and the ``bench-config-derivation`` benchmark (max
relative error <= 1e-9, identical action ordering).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.architecture.macro import CiMMacro, CiMMacroConfig
from repro.circuits.adc import ADCModel
from repro.circuits.analog import AnalogAccumulator, AnalogAdder, AnalogMACUnit
from repro.circuits.buffers import SRAMBuffer
from repro.circuits.dac import DACModel, DACType
from repro.circuits.digital import DigitalAccumulator, DigitalMACUnit, ShiftAdd
from repro.circuits.drivers import ColumnMux, RowDriver
from repro.circuits.interface import OperandStats
from repro.core.terms import (
    AREA_TERMS,
    ENERGY_TERMS,
    TermCache,
    TermSpec,
    area_term_cache_key,
    energy_term_cache_key,
    layer_term_context,
)
from repro.devices.nvmexplorer import CellLibrary, default_cell_library
from repro.devices.technology import REFERENCE_NODE, scale_energy
from repro.representation.encoding import get_encoding
from repro.representation.slicing import encode_and_slice
from repro.utils.errors import EvaluationError, ValidationError
from repro.workloads.distributions import LayerDistributions, profile_layer
from repro.workloads.einsum import TensorRole
from repro.workloads.layer import Layer

#: Per-action energy keys in the exact insertion order of the scalar
#: :meth:`CiMMacro.per_action_energies` dict — the "identical action
#: ordering" contract of the equivalence gate.
DERIVED_ACTIONS: Tuple[str, ...] = (
    "cell_compute",
    "cell_write",
    "dac_convert",
    "adc_convert",
    "row_drive",
    "column_mux",
    "analog_add",
    "analog_accumulate",
    "analog_mac",
    "shift_add",
    "digital_accumulate",
    "digital_mac",
    "input_buffer_read",
    "input_buffer_write",
    "output_buffer_update",
    "output_buffer_read",
)


@dataclass(frozen=True)
class ConfigBatchResult:
    """The ``(configs, actions)`` per-action energy matrix of one family.

    ``energies[i, k]`` is the average energy (J) of action
    ``actions[k]`` on ``configs[i]`` for the family's layer; ``actions``
    follows :data:`DERIVED_ACTIONS`, the scalar dict's insertion order.
    """

    configs: Tuple[CiMMacroConfig, ...]
    actions: Tuple[str, ...]
    energies: np.ndarray

    def __len__(self) -> int:
        return len(self.configs)

    def per_action(self, index: int) -> Dict[str, float]:
        """One config's energies as the scalar-path per-action dict."""
        row = self.energies[index]
        return {action: float(row[k]) for k, action in enumerate(self.actions)}

    def tables(self) -> List[Dict[str, float]]:
        """Every config's per-action dict, in config order."""
        return [self.per_action(index) for index in range(len(self))]


# ----------------------------------------------------------------------
# Operand statistics over the config axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _RoleStats:
    """One tensor role's operand statistics as arrays over configs."""

    mean: np.ndarray
    mean_square: np.ndarray
    density: np.ndarray
    toggle: np.ndarray


def _gather(stats: Sequence[OperandStats]) -> _RoleStats:
    return _RoleStats(
        mean=np.array([s.mean for s in stats], dtype=np.float64),
        mean_square=np.array([s.mean_square for s in stats], dtype=np.float64),
        density=np.array([s.density for s in stats], dtype=np.float64),
        toggle=np.array([s.toggle_rate for s in stats], dtype=np.float64),
    )


def _batch_operand_stats(
    configs: Sequence[CiMMacroConfig],
    distributions: Optional[LayerDistributions],
    input_cache: Optional[Dict[tuple, OperandStats]] = None,
    weight_cache: Optional[Dict[tuple, OperandStats]] = None,
) -> Tuple[_RoleStats, _RoleStats, _RoleStats]:
    """(inputs, weights, outputs) statistics arrays, one row per config.

    Mirrors :meth:`CiMMacro.operand_context` exactly: without
    distributions every role carries nominal statistics (fixed-energy
    mode); with distributions the input/weight stats come from the
    encode-and-slice propagation — computed once per unique encoding
    subkey, not once per config — and the output stats follow the same
    clipped product formula, vectorized.

    ``input_cache`` / ``weight_cache`` optionally carry the per-subkey
    memo across calls (the term-cached path hands in per-fingerprint
    memos so warm families skip the encode-and-slice entirely); by
    default the memo lives and dies with one family.
    """
    n = len(configs)
    if distributions is None:
        nominal = [OperandStats.nominal()] * n
        role = _gather(nominal)
        return role, role, role

    input_pmf = distributions.pmf(TensorRole.INPUTS)
    weight_pmf = distributions.pmf(TensorRole.WEIGHTS)
    input_cache = {} if input_cache is None else input_cache
    weight_cache = {} if weight_cache is None else weight_cache
    input_stats: List[OperandStats] = []
    weight_stats: List[OperandStats] = []
    for config in configs:
        in_key = (config.input_encoding, config.input_bits, config.dac_resolution)
        if in_key not in input_cache:
            encoding = get_encoding(config.input_encoding, config.input_bits)
            sliced = encode_and_slice(input_pmf, encoding, config.dac_resolution)
            input_cache[in_key] = OperandStats.from_sliced(sliced)
        input_stats.append(input_cache[in_key])
        w_key = (config.weight_encoding, config.weight_bits, config.bits_per_cell)
        if w_key not in weight_cache:
            encoding = get_encoding(config.weight_encoding, config.weight_bits)
            sliced = encode_and_slice(weight_pmf, encoding, config.bits_per_cell)
            weight_cache[w_key] = OperandStats.from_sliced(sliced)
        weight_stats.append(weight_cache[w_key])

    inputs = _gather(input_stats)
    weights = _gather(weight_stats)
    out_mean = np.minimum(inputs.mean * weights.mean * 4.0, 1.0)
    out_mean_sq = np.minimum(out_mean * out_mean * 1.5, 1.0)
    out_density = np.minimum(inputs.density + 0.2, 1.0)
    out_toggle = np.minimum(0.5 * (out_mean + inputs.density), 1.0)
    outputs = _RoleStats(
        mean=out_mean, mean_square=out_mean_sq, density=out_density, toggle=out_toggle
    )
    return inputs, weights, outputs


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def _validate_family(configs: Sequence[CiMMacroConfig]) -> None:
    """Reject configs the scalar macro constructor would reject.

    :class:`CiMMacroConfig` validates its own fields, but a few limits
    live on the component models and only surface when :class:`CiMMacro`
    instantiates them; the batched path re-checks those so an invalid
    config fails identically on both paths instead of silently producing
    numbers here.
    """
    for config in configs:
        if not isinstance(config, CiMMacroConfig):
            raise EvaluationError(
                f"config batch expects CiMMacroConfig entries, got {type(config).__name__}"
            )
        if not 1 <= config.adc_resolution <= 14:
            raise ValidationError(
                f"ADC resolution must be in [1, 14] bits, got {config.adc_resolution}"
            )
        if not 1 <= config.dac_resolution <= 12:
            raise ValidationError(
                f"DAC resolution must be in [1, 12] bits, got {config.dac_resolution}"
            )
        if not 1 <= config.weight_bits <= 16:
            raise ValidationError("analog MAC weight bits must be in [1, 16]")
        if config.input_buffer_kib < 1 or config.output_buffer_kib < 1:
            raise ValidationError("buffer capacity must be positive")
        for scale in ("adc_energy_scale", "dac_energy_scale", "digital_energy_scale"):
            if getattr(config, scale) <= 0:
                raise ValidationError("calibration scales must be positive")


def _energy_action_columns(
    configs: Tuple[CiMMacroConfig, ...],
    inputs: _RoleStats,
    weights: _RoleStats,
    outputs: _RoleStats,
    cell_library: Optional[CellLibrary],
) -> Dict[str, np.ndarray]:
    """The formula battery: every derived action's energy column.

    Evaluates each component formula as a NumPy expression over the
    ``(configs,)`` leading axis and returns ``{action: column}`` for all
    of :data:`DERIVED_ACTIONS`.  Every formula is elementwise over the
    config axis, so evaluating a sub-sequence of configs yields bitwise
    the same values those rows get in a full-family evaluation — the
    property the term-factored path relies on.
    """
    ref_factor = REFERENCE_NODE.energy_factor
    energy_factor = np.array(
        [c.technology.energy_factor for c in configs], dtype=np.float64
    ) / ref_factor
    vdd = np.array([c.technology.vdd for c in configs], dtype=np.float64)

    def farray(attribute: str) -> np.ndarray:
        return np.array([getattr(c, attribute) for c in configs], dtype=np.float64)

    rows = farray("rows")
    cols = farray("cols")
    adc_bits = farray("adc_resolution")
    dac_levels = np.array([1 << c.dac_resolution for c in configs], dtype=np.float64)
    adc_levels = np.array([1 << c.adc_resolution for c in configs], dtype=np.float64)
    weight_bits = farray("weight_bits")
    output_bits = farray("output_bits")
    adder_operands = np.maximum(farray("analog_adder_operands"), 1.0)
    pulse_dac = np.array(
        [c.dac_type is DACType.PULSE for c in configs], dtype=bool
    )
    value_aware = np.array([c.value_aware_adc for c in configs], dtype=bool)

    cell_scale = farray("cell_energy_scale")
    dac_scale = farray("dac_energy_scale")
    adc_scale = farray("adc_energy_scale")
    analog_scale = farray("analog_energy_scale")
    digital_scale = farray("digital_energy_scale")
    driver_scale = farray("driver_energy_scale")
    buffer_scale = farray("buffer_energy_scale")

    # -- memory cells: one instantiation per unique device point ---------
    library = cell_library or default_cell_library()
    cell_cache: Dict[tuple, tuple] = {}
    compute_base = np.empty(len(configs), dtype=np.float64)
    write_base = np.empty(len(configs), dtype=np.float64)
    data_factor = np.empty(len(configs), dtype=np.float64)
    for i, config in enumerate(configs):
        cell_key = (config.device.lower(), config.bits_per_cell, config.technology)
        if cell_key not in cell_cache:
            cell = library.create(config.device, config.technology, config.bits_per_cell)
            cell_cache[cell_key] = (
                cell,
                scale_energy(cell.base_compute_energy(), REFERENCE_NODE, config.technology),
                scale_energy(cell.base_write_energy(), REFERENCE_NODE, config.technology),
            )
        cell, scaled_compute, scaled_write = cell_cache[cell_key]
        compute_base[i] = scaled_compute
        write_base[i] = scaled_write
        # The data-dependence hook is a cheap pure function, called per
        # config so cells with custom dependence models stay exact.
        data_factor[i] = cell._data_dependence(
            min(float(inputs.mean_square[i]), 1.0),
            min(float(weights.mean[i]), 1.0),
        )

    cell_compute = compute_base * data_factor * cell_scale
    cell_write = write_base * cell_scale

    # -- DAC (repro.circuits.dac.DACModel.energy) ------------------------
    dac_dynamic = DACModel._ENERGY_PER_LEVEL_FJ * dac_levels + np.where(
        pulse_dac, DACModel._ENERGY_PER_LEVEL_SQ_FJ * dac_levels * dac_levels, 0.0
    )
    dac_static = np.where(
        pulse_dac,
        DACModel._ENERGY_STATIC_FJ * inputs.density,
        DACModel._ENERGY_STATIC_FJ,
    )
    dac_value = np.where(pulse_dac, inputs.mean, 0.25 + 0.75 * inputs.toggle)
    dac_convert = (dac_static + dac_dynamic * dac_value) * 1e-15 * dac_scale * energy_factor

    # -- ADC (repro.circuits.adc.ADCModel.energy) ------------------------
    adc_full = (
        (ADCModel._ENERGY_PER_LEVEL_FJ * adc_levels + ADCModel._ENERGY_PER_BIT_FJ * adc_bits)
        * 1e-15 * adc_scale * energy_factor
    )
    adc_convert = np.where(value_aware, adc_full * (0.3 + 0.7 * outputs.mean), adc_full)

    # -- array drivers (repro.circuits.drivers) — no node scaling, the
    # C * V^2 formula already carries the operating point ----------------
    row_drive = (
        (RowDriver._CAP_PER_CELL_FF * 1e-15 * cols)
        * vdd * vdd
        * (inputs.density * (0.3 + 0.7 * inputs.mean_square))
        * driver_scale
    )
    column_mux = (
        (ColumnMux._CAP_PER_ROW_FF * 1e-15 * rows)
        * vdd * vdd
        * (0.3 + 0.7 * outputs.mean_square)
        * driver_scale
    )

    # -- analog post-processing (repro.circuits.analog) ------------------
    signal_factor = 0.15 + (1.0 - 0.15) * outputs.mean_square
    analog_add = (
        (AnalogAdder._ENERGY_PER_OPERAND_FJ * adder_operands * analog_scale)
        * 1e-15 * signal_factor * energy_factor
    )
    analog_accumulate = (
        AnalogAccumulator._ENERGY_PER_ACCUMULATE_FJ * 1e-15
        * analog_scale * signal_factor * energy_factor
    )
    mac_factor = 0.2 + (1.0 - 0.2) * inputs.mean * weights.mean
    analog_mac = (
        (AnalogMACUnit._ENERGY_PER_BIT_FJ * weight_bits * analog_scale)
        * 1e-15 * mac_factor * energy_factor
    )

    # -- digital post-processing (repro.circuits.digital) ----------------
    out_toggle_factor = 0.2 + (1.0 - 0.2) * outputs.toggle
    shift_add = (
        (ShiftAdd._ENERGY_PER_BIT_FJ * output_bits * digital_scale)
        * 1e-15 * out_toggle_factor * energy_factor
    )
    digital_accumulate = (
        (DigitalAccumulator._ENERGY_PER_BIT_FJ * output_bits * digital_scale)
        * 1e-15 * out_toggle_factor * energy_factor
    )
    in_toggle_factor = 0.2 + (1.0 - 0.2) * inputs.toggle
    w_toggle_factor = 0.2 + (1.0 - 0.2) * weights.toggle
    digital_mac = (
        (DigitalMACUnit._ENERGY_PER_BIT_FJ * weight_bits * digital_scale)
        * 1e-15
        * (0.5 * (in_toggle_factor + w_toggle_factor))
        * energy_factor
    )

    # -- staging buffers (repro.circuits.buffers.SRAMBuffer) -------------
    input_capacity = farray("input_buffer_kib") * 1024.0
    output_capacity = farray("output_buffer_kib") * 1024.0
    input_bits = farray("input_bits")
    input_access = (
        SRAMBuffer._REF_ACCESS_PJ
        * np.sqrt(input_capacity / SRAMBuffer._REF_CAPACITY_BYTES)
        * (input_bits / SRAMBuffer._REF_WIDTH_BITS)
        * 1e-12
        * buffer_scale
        * energy_factor
    )
    output_access = (
        SRAMBuffer._REF_ACCESS_PJ
        * np.sqrt(output_capacity / SRAMBuffer._REF_CAPACITY_BYTES)
        * (output_bits / SRAMBuffer._REF_WIDTH_BITS)
        * 1e-12
        * buffer_scale
        * energy_factor
    )

    return {
        "cell_compute": cell_compute,
        "cell_write": cell_write,
        "dac_convert": dac_convert,
        "adc_convert": adc_convert,
        "row_drive": row_drive,
        "column_mux": column_mux,
        "analog_add": analog_add,
        "analog_accumulate": analog_accumulate,
        "analog_mac": analog_mac,
        "shift_add": shift_add,
        "digital_accumulate": digital_accumulate,
        "digital_mac": digital_mac,
        "input_buffer_read": input_access,
        "input_buffer_write": input_access * 1.1,
        "output_buffer_update": output_access * 2.0,
        "output_buffer_read": output_access,
    }


def _family_term_keys(
    configs: Tuple[CiMMacroConfig, ...],
    specs: Tuple[TermSpec, ...],
    cache_key,
) -> List[List[str]]:
    """Per-spec canonical cache-key strings, one per config.

    ``cache_key(spec, sub_tuple)`` builds the canonical string; the
    sub-tuple -> string rendering is memoised per spec because families
    repeat sub-tuples heavily (that repetition is the whole point).
    Field values are read once per family and shared across the specs
    that declare them, mirroring :func:`term_config_key` (including its
    ``device`` case-normalisation) column-wise instead of config-wise.
    """
    columns: Dict[str, list] = {}

    def column(field: str) -> list:
        values = columns.get(field)
        if values is None:
            values = [getattr(config, field) for config in configs]
            if field == "device":
                values = [value.lower() for value in values]
            columns[field] = values
        return values

    per_spec: List[List[str]] = []
    for spec in specs:
        spec_columns = [column(field) for field in spec.effective_fields()]
        rendered: Dict[tuple, str] = {}
        keys: List[str] = []
        subs = zip(*spec_columns) if spec_columns else [()] * len(configs)
        for sub in subs:
            key = rendered.get(sub)
            if key is None:
                key = cache_key(spec, sub)
                rendered[sub] = key
            keys.append(key)
        per_spec.append(keys)
    return per_spec


def _resolve_terms(
    term_cache: TermCache,
    specs: Tuple[TermSpec, ...],
    spec_keys: List[List[str]],
    derive_columns,
) -> Dict[str, Dict[str, float]]:
    """Resolve every unique term entry of a family through the cache.

    Unresolved entries are derived by running ``derive_columns`` on the
    *representative rows* — the first config row where each missing
    sub-tuple occurs — and the fresh values are stored back through the
    cache (and its tiers).  Returns ``{cache key: {action: value}}``
    covering every key in ``spec_keys``.
    """
    resolved: Dict[str, Dict[str, float]] = {}
    pending: Dict[str, Tuple[TermSpec, int]] = {}
    for spec, keys in zip(specs, spec_keys):
        for row, key in enumerate(keys):
            if key in resolved or key in pending:
                continue
            values = term_cache.lookup(key)
            if values is not None:
                resolved[key] = values
            else:
                pending[key] = (spec, row)
    if pending:
        rep_rows = sorted({row for _, row in pending.values()})
        position = {row: p for p, row in enumerate(rep_rows)}
        columns = derive_columns(rep_rows)
        for key, (spec, row) in pending.items():
            p = position[row]
            values = {action: float(columns[action][p]) for action in spec.actions}
            resolved[key] = values
            term_cache.store(key, values)
        term_cache.record_derivations(len(pending))
    return resolved


def _assemble_matrix(
    actions: Tuple[str, ...],
    specs: Tuple[TermSpec, ...],
    spec_keys: List[List[str]],
    resolved: Dict[str, Dict[str, float]],
    num_configs: int,
) -> np.ndarray:
    """Broadcast resolved term values into the ``(configs, actions)`` matrix."""
    action_col = {action: k for k, action in enumerate(actions)}
    # Filled as Python lists and converted once: a NumPy scalar store per
    # element costs several times a list store.
    rows = [[0.0] * len(actions) for _ in range(num_configs)]
    for spec, keys in zip(specs, spec_keys):
        columns = [action_col[action] for action in spec.actions]
        for row, key in zip(rows, keys):
            values = resolved[key]
            for action, col in zip(spec.actions, columns):
                row[col] = values[action]
    return np.array(rows, dtype=np.float64).reshape(num_configs, len(actions))


def derive_config_batch(
    configs: Sequence[CiMMacroConfig],
    layer: Layer,
    distributions: Optional[LayerDistributions] = None,
    use_distributions: bool = True,
    cell_library: Optional[CellLibrary] = None,
    term_cache: Optional[TermCache] = None,
) -> ConfigBatchResult:
    """Derive the per-action energies of a config family in batched passes.

    Parameters mirror the scalar path: ``distributions=None`` with
    ``use_distributions=True`` profiles the layer with the default
    synthetic profile (exactly what :meth:`PerActionEnergyCache.get`
    does); ``use_distributions=False`` is fixed-energy mode (nominal
    operand statistics, matching ``CiMMacro.operand_context(None)``).

    With a ``term_cache`` the derivation is term-factored: each unique
    ``(component term, config sub-tuple)`` is resolved through the cache
    and the formula battery runs only on the representative rows of the
    still-missing terms, so warm near-duplicate families assemble their
    matrices almost entirely from cached terms.  The cache contract
    matches the full-table tiers: entries assume the default cell library
    (a custom ``cell_library`` bypasses the cache) and default-profiled
    distributions (callers supplying genuinely non-default
    ``distributions`` must use a separate cache or none).

    Returns the full ``(configs, actions)`` matrix; each row agrees with
    ``CiMMacro(config).per_action_energies(...)`` to well within 1e-9
    relative error, with the identical action ordering.
    """
    configs = tuple(configs)
    if not configs:
        raise EvaluationError("config batch needs at least one config")
    _validate_family(configs)
    if cell_library is not None:
        term_cache = None  # cache entries assume the default cell library
    if use_distributions and distributions is None:
        distributions = profile_layer(layer)
    active = distributions if use_distributions else None

    if term_cache is None:
        inputs, weights, outputs = _batch_operand_stats(configs, active)
        columns = _energy_action_columns(configs, inputs, weights, outputs, cell_library)
        energies = np.stack([columns[action] for action in DERIVED_ACTIONS], axis=1)
        return ConfigBatchResult(
            configs=configs, actions=DERIVED_ACTIONS, energies=energies
        )

    fingerprint = layer.fingerprint() if use_distributions else None
    layer_context = layer_term_context(fingerprint) if use_distributions else None
    spec_keys = _family_term_keys(
        configs,
        ENERGY_TERMS,
        lambda spec, sub: energy_term_cache_key(spec, sub, layer_context),
    )

    def derive_columns(rep_rows: List[int]) -> Dict[str, np.ndarray]:
        reps = tuple(configs[row] for row in rep_rows)
        inputs, weights, outputs = _batch_operand_stats(
            reps,
            active,
            input_cache=term_cache.operand_stats_memo(fingerprint, "inputs"),
            weight_cache=term_cache.operand_stats_memo(fingerprint, "weights"),
        )
        return _energy_action_columns(reps, inputs, weights, outputs, cell_library)

    resolved = _resolve_terms(term_cache, ENERGY_TERMS, spec_keys, derive_columns)
    energies = _assemble_matrix(
        DERIVED_ACTIONS, ENERGY_TERMS, spec_keys, resolved, len(configs)
    )
    return ConfigBatchResult(configs=configs, actions=DERIVED_ACTIONS, energies=energies)


# ----------------------------------------------------------------------
# Config-axis batched area model
# ----------------------------------------------------------------------
#: Breakdown component keys in the exact insertion order of the scalar
#: :meth:`CiMMacro.area_breakdown_um2` dict.
AREA_COMPONENTS: Tuple[str, ...] = (
    "array",
    "dac",
    "adc",
    "row_drivers",
    "column_mux",
    "analog_adder",
    "analog_accumulator",
    "analog_mac",
    "digital_mac",
    "digital_postprocessing",
    "input_buffer",
    "output_buffer",
    "misc",
)


@dataclass(frozen=True)
class AreaBatchResult:
    """The ``(configs, components)`` area matrix of one config family.

    ``areas[i, k]`` is the area (um^2) of component ``components[k]`` on
    ``configs[i]``; ``components`` follows :data:`AREA_COMPONENTS`, the
    scalar dict's insertion order.  Unlike the energy batch, area needs no
    layer or distributions: it is a pure function of the config.
    """

    configs: Tuple[CiMMacroConfig, ...]
    components: Tuple[str, ...]
    areas: np.ndarray

    def __len__(self) -> int:
        return len(self.configs)

    def breakdown(self, index: int) -> Dict[str, float]:
        """One config's areas as the scalar-path breakdown dict."""
        row = self.areas[index]
        return {name: float(row[k]) for k, name in enumerate(self.components)}

    def totals_um2(self) -> np.ndarray:
        """Per-config total area (um^2), shape ``(configs,)``."""
        return self.areas.sum(axis=1)


def _area_component_columns(
    configs: Tuple[CiMMacroConfig, ...],
    cell_library: Optional[CellLibrary],
) -> Dict[str, np.ndarray]:
    """The area formula battery: every component's pre-scale area column.

    Returns ``{component: column}`` for the first twelve
    :data:`AREA_COMPONENTS` (``misc`` and the global ``area_scale`` are
    per-config assembly steps, not component terms).  Elementwise over the
    config axis, like :func:`_energy_action_columns`.
    """
    from repro.circuits.digital import DigitalAccumulator as _Acc
    from repro.circuits.digital import DigitalMACUnit as _Mac
    from repro.circuits.digital import ShiftAdd as _Shift
    from repro.architecture.macro import OutputReuseStyle

    ref_area = REFERENCE_NODE.area_factor
    area_factor = np.array(
        [c.technology.area_factor for c in configs], dtype=np.float64
    ) / ref_area

    def farray(attribute: str) -> np.ndarray:
        return np.array([getattr(c, attribute) for c in configs], dtype=np.float64)

    def style_is(style: "OutputReuseStyle") -> np.ndarray:
        return np.array(
            [c.output_reuse_style is style for c in configs], dtype=np.float64
        )

    rows = farray("rows")
    cols = farray("cols")
    adc_columns = np.maximum(
        np.array([c.cols // c.columns_per_adc for c in configs], dtype=np.float64), 1.0
    )
    dac_levels = np.array([1 << c.dac_resolution for c in configs], dtype=np.float64)
    adc_levels = np.array([1 << c.adc_resolution for c in configs], dtype=np.float64)
    weight_bits = farray("weight_bits")
    output_bits = farray("output_bits")
    digital = style_is(OutputReuseStyle.DIGITAL)

    # -- memory cells: one instantiation per unique device point ---------
    library = cell_library or default_cell_library()
    cell_cache: Dict[tuple, float] = {}
    cell_area = np.empty(len(configs), dtype=np.float64)
    for i, config in enumerate(configs):
        cell_key = (config.device.lower(), config.bits_per_cell, config.technology)
        if cell_key not in cell_cache:
            cell = library.create(config.device, config.technology, config.bits_per_cell)
            cell_cache[cell_key] = cell.area_um2()
        cell_area[i] = cell_cache[cell_key]
    array = cell_area * rows * cols

    # -- converters (repro.circuits.dac / adc) ---------------------------
    dac = (DACModel._AREA_BASE_UM2 + DACModel._AREA_PER_LEVEL_UM2 * dac_levels) \
        * area_factor * rows
    throughput_msps = 1e3 / farray("cycle_time_ns")
    speed_factor = np.sqrt(np.maximum(throughput_msps / 100.0, 1.0))
    adc = (
        (ADCModel._AREA_BASE_UM2 + ADCModel._AREA_PER_LEVEL_UM2 * adc_levels)
        * speed_factor * area_factor * adc_columns
    ) * (1.0 - digital)  # digital CiM has no ADC at all

    # -- array peripherals (repro.circuits.drivers) ----------------------
    row_drivers = (
        (RowDriver._DRIVER_AREA_UM2 + RowDriver._AREA_PER_CELL_UM2 * cols)
        * area_factor * rows
    )
    column_mux = (
        ColumnMux._AREA_PER_WAY_UM2 * farray("columns_per_adc")
        * area_factor * adc_columns
    )

    # -- style-gated analog/digital compute (repro.circuits.analog/digital)
    analog_adder = (
        (
            AnalogAdder._AREA_BASE_UM2
            + AnalogAdder._AREA_PER_OPERAND_UM2 * np.maximum(farray("analog_adder_operands"), 1.0)
        )
        * area_factor * adc_columns
    ) * style_is(OutputReuseStyle.ANALOG_ADDER)
    analog_accumulator = (
        AnalogAccumulator._AREA_UM2 * area_factor * adc_columns
    ) * style_is(OutputReuseStyle.ANALOG_ACCUMULATOR)
    analog_mac = (
        (AnalogMACUnit._AREA_BASE_UM2 + AnalogMACUnit._AREA_PER_BIT_UM2 * weight_bits)
        * area_factor * adc_columns
    ) * style_is(OutputReuseStyle.ANALOG_MAC)
    digital_mac = (_Mac._AREA_PER_BIT_UM2 * weight_bits * area_factor * cols) * digital
    digital_postprocessing = (
        _Shift._AREA_PER_BIT_UM2 + _Acc._AREA_PER_BIT_UM2
    ) * output_bits * area_factor * adc_columns

    # -- staging buffers (repro.circuits.buffers.SRAMBuffer) -------------
    def buffer_area(capacity_kib: np.ndarray) -> np.ndarray:
        bits = capacity_kib * 1024.0 * 8.0
        return bits * SRAMBuffer._AREA_PER_BIT_UM2 * SRAMBuffer._PERIPHERY_FACTOR \
            * area_factor

    input_buffer = buffer_area(farray("input_buffer_kib"))
    output_buffer = buffer_area(farray("output_buffer_kib"))

    return {
        "array": array,
        "dac": dac,
        "adc": adc,
        "row_drivers": row_drivers,
        "column_mux": column_mux,
        "analog_adder": analog_adder,
        "analog_accumulator": analog_accumulator,
        "analog_mac": analog_mac,
        "digital_mac": digital_mac,
        "digital_postprocessing": digital_postprocessing,
        "input_buffer": input_buffer,
        "output_buffer": output_buffer,
    }


def _assemble_areas(
    configs: Tuple[CiMMacroConfig, ...],
    columns: List[np.ndarray],
) -> np.ndarray:
    """Append the derived ``misc`` column and apply the global area scale.

    Shared by the cold and term-factored paths so both produce the exact
    same summation order (and therefore bitwise-identical matrices for
    identical component columns).  The columns are added one after the
    other, left to right, as the scalar oracle's ``sum(breakdown.values())``
    does.  ``np.sum(columns, axis=0)`` would not do this for every batch
    size: with one config it reduces the stacked column as one contiguous
    run, pairwise, and a config's area would then depend on how many
    configs shared its batch.
    """
    subtotal = functools.reduce(np.add, columns)
    misc = subtotal * np.array(
        [c.misc_area_fraction for c in configs], dtype=np.float64
    )
    area_scale = np.array([c.area_scale for c in configs], dtype=np.float64)
    return np.stack(columns + [misc], axis=1) * area_scale[:, None]


def area_config_batch(
    configs: Sequence[CiMMacroConfig],
    cell_library: Optional[CellLibrary] = None,
    term_cache: Optional[TermCache] = None,
) -> AreaBatchResult:
    """Derive the area breakdowns of a config family in batched passes.

    Vectorized twin of :meth:`CiMMacro.area_breakdown_um2`: every circuit
    area formula is evaluated as a NumPy expression over a ``(configs,)``
    leading axis, and memory-cell devices are instantiated once per unique
    ``(device, bits_per_cell, technology)`` point — so fig10-style area
    sweeps and service requests with ``objective="area"`` never construct
    a per-config macro object graph.  With a ``term_cache`` the
    component columns are term-factored exactly like the energy batch
    (area terms are pure functions of the config, so they are reusable
    across every family and run); a custom ``cell_library`` bypasses the
    cache.  Each row agrees with the scalar breakdown to well within
    1e-9 relative error with identical component ordering
    (:func:`max_scalar_area_relative_error` is the gate).
    """
    configs = tuple(configs)
    if not configs:
        raise EvaluationError("area batch needs at least one config")
    _validate_family(configs)
    if cell_library is not None:
        term_cache = None  # cache entries assume the default cell library

    if term_cache is None:
        columns = _area_component_columns(configs, cell_library)
        areas = _assemble_areas(
            configs, [columns[name] for name in AREA_COMPONENTS[:-1]]
        )
        return AreaBatchResult(configs=configs, components=AREA_COMPONENTS, areas=areas)

    spec_keys = _family_term_keys(configs, AREA_TERMS, area_term_cache_key)

    def derive_columns(rep_rows: List[int]) -> Dict[str, np.ndarray]:
        reps = tuple(configs[row] for row in rep_rows)
        return _area_component_columns(reps, cell_library)

    resolved = _resolve_terms(term_cache, AREA_TERMS, spec_keys, derive_columns)
    matrix = _assemble_matrix(
        AREA_COMPONENTS[:-1], AREA_TERMS, spec_keys, resolved, len(configs)
    )
    areas = _assemble_areas(configs, [matrix[:, k] for k in range(matrix.shape[1])])
    return AreaBatchResult(configs=configs, components=AREA_COMPONENTS, areas=areas)


def max_scalar_area_relative_error(
    result: AreaBatchResult,
    cell_library: Optional[CellLibrary] = None,
) -> float:
    """Worst relative error of an area batch vs the scalar oracle.

    Re-derives every config's breakdown through the scalar
    :meth:`CiMMacro.area_breakdown_um2` and compares element-wise, also
    asserting the component *ordering* matches the scalar dict's.  The
    test suite requires the returned value to be <= 1e-9.
    """
    worst = 0.0
    for index, config in enumerate(result.configs):
        macro = CiMMacro(config, cell_library=cell_library)
        expected = macro.area_breakdown_um2()
        if tuple(expected) != result.components:
            raise EvaluationError(
                "batched area component ordering diverged from the scalar oracle: "
                f"{result.components} vs {tuple(expected)}"
            )
        got = result.breakdown(index)
        for component, reference in expected.items():
            scale = max(abs(reference), 1e-30)
            worst = max(worst, abs(got[component] - reference) / scale)
    return worst


# ----------------------------------------------------------------------
# Equivalence gate
# ----------------------------------------------------------------------
def max_scalar_relative_error(
    result: ConfigBatchResult,
    layer: Layer,
    distributions: Optional[LayerDistributions] = None,
    use_distributions: bool = True,
    cell_library: Optional[CellLibrary] = None,
) -> float:
    """Worst relative error of a batch vs the scalar oracle, over all
    configs and actions.

    Re-derives every config's table through the scalar
    :meth:`CiMMacro.per_action_energies` and compares element-wise (also
    asserting the action *ordering* matches the scalar dict's).  The test
    suite and the ``bench-config-derivation`` gate require the returned
    value to be <= 1e-9.
    """
    if use_distributions and distributions is None:
        distributions = profile_layer(layer)
    worst = 0.0
    for index, config in enumerate(result.configs):
        macro = CiMMacro(config, cell_library=cell_library)
        context = macro.operand_context(distributions if use_distributions else None)
        expected = macro.per_action_energies(context)
        if tuple(expected) != result.actions:
            raise EvaluationError(
                "batched action ordering diverged from the scalar oracle: "
                f"{result.actions} vs {tuple(expected)}"
            )
        got = result.per_action(index)
        for action, reference in expected.items():
            scale = max(abs(reference), 1e-30)
            worst = max(worst, abs(got[action] - reference) / scale)
    return worst
