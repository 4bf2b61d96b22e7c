"""The parameterised analytical CiM macro model.

A *macro* is an array of memory cells plus the components needed to
compute full MAC operations (paper Sec. II-A): DACs supplying inputs to
rows, the cell array computing analog MACs, ADCs reading column outputs,
and the peripheral analog/digital circuits that implement each published
macro's ADC-energy-reducing strategy (paper Fig. 3).

:class:`CiMMacroConfig` captures the design decisions the paper's case
studies sweep — array geometry, device, operand precisions, DAC/ADC
resolution, encodings, and the output-reuse strategy — plus calibration
scales used to match published silicon.  :class:`CiMMacro` turns a config
into component energy models, maps layers onto the array analytically, and
produces per-layer energy/area/throughput results with per-component
breakdowns.

The mapping model is weight-stationary (the paper's default dataflow):
weights are programmed into the array, input vectors stream through DACs
one input bit-slice per array activation, and outputs are read by ADCs and
combined digitally.  Action-count formulas and the utilisation model are
documented on :meth:`CiMMacro.map_layer`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.circuits.adc import ADCModel
from repro.circuits.analog import AnalogAccumulator, AnalogAdder, AnalogMACUnit
from repro.circuits.buffers import SRAMBuffer
from repro.circuits.dac import DACModel, DACType
from repro.circuits.digital import DigitalAccumulator, DigitalAdder, DigitalMACUnit, ShiftAdd
from repro.circuits.drivers import ColumnMux, RowDriver
from repro.circuits.interface import Action, OperandContext, OperandStats
from repro.devices.nvmexplorer import CellLibrary, default_cell_library
from repro.devices.technology import TechnologyNode
from repro.representation.encoding import get_encoding
from repro.representation.slicing import encode_and_slice
from repro.utils.errors import ValidationError
from repro.workloads.distributions import LayerDistributions, profile_layer
from repro.workloads.einsum import TensorRole
from repro.workloads.layer import Layer


class OutputReuseStyle(str, Enum):
    """How a macro reuses (sums) analog outputs before/instead of the ADC.

    Mirrors the strategies of the paper's Fig. 3:

    * ``NONE`` — base macro: every active column is converted individually.
    * ``WIRE`` — Macro A: outputs of adjacent column groups are summed on
      wires, folding more of the reduction into one conversion at the cost
      of input reuse (different columns need different inputs).
    * ``ANALOG_ADDER`` — Macro B: an analog adder sums the weight-bit-slice
      columns of the same weight before a single conversion.
    * ``ANALOG_ACCUMULATOR`` — Macro C: partial sums for successive input
      bit-slices are accumulated in the analog domain across cycles.
    * ``ANALOG_MAC`` — Macro D: a C-2C ladder MAC unit combines all weight
      bits internally, producing one analog output per MAC group.
    * ``DIGITAL`` — Digital CiM: outputs are combined by digital adder
      trees and no ADC is needed.
    """

    NONE = "none"
    WIRE = "wire"
    ANALOG_ADDER = "analog_adder"
    ANALOG_ACCUMULATOR = "analog_accumulator"
    ANALOG_MAC = "analog_mac"
    DIGITAL = "digital"


# ----------------------------------------------------------------------
# Canonical action layout.
#
# One table links the three vocabularies the energy model moves between:
# the count field on :class:`MacroLayerCounts`, the per-action energy key
# produced by :meth:`CiMMacro.per_action_energies`, and the component name
# under which the energy is reported in a breakdown.  The table's order
# defines the layout of the action *vector* used by the batch evaluation
# engine (:mod:`repro.core.batch`), so the scalar and vectorized paths
# cannot drift apart: both are generated from this single source of truth.
# ----------------------------------------------------------------------
ACTION_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("cell_ops", "cell_compute", "array"),
    ("dac_converts", "dac_convert", "dac"),
    ("adc_converts", "adc_convert", "adc"),
    ("row_driver_ops", "row_drive", "row_drivers"),
    ("column_mux_ops", "column_mux", "column_mux"),
    ("analog_adder_ops", "analog_add", "analog_adder"),
    ("analog_accumulator_ops", "analog_accumulate", "analog_accumulator"),
    ("analog_mac_ops", "analog_mac", "analog_mac"),
    ("shift_add_ops", "shift_add", "shift_add"),
    ("digital_accumulate_ops", "digital_accumulate", "digital_accumulate"),
    ("digital_mac_ops", "digital_mac", "digital_mac"),
    ("input_buffer_reads", "input_buffer_read", "input_buffer"),
    ("input_buffer_writes", "input_buffer_write", "input_buffer"),
    ("output_buffer_updates", "output_buffer_update", "output_buffer"),
    ("output_buffer_reads", "output_buffer_read", "output_buffer"),
)

#: Array programming is charged only when ``include_programming`` is set,
#: so it lives outside :data:`ACTION_TABLE` and is appended on demand.
PROGRAMMING_ACTION: Tuple[str, str, str] = ("cell_writes", "cell_write", "programming")

#: Per-action energy keys in canonical vector order.
ACTION_KINDS: Tuple[str, ...] = tuple(action for _, action, _ in ACTION_TABLE)

#: Breakdown component names in reporting order (``misc`` is derived).
ENERGY_COMPONENTS: Tuple[str, ...] = tuple(
    dict.fromkeys(component for _, _, component in ACTION_TABLE)
)


def _action_table(include_programming: bool) -> Tuple[Tuple[str, str, str], ...]:
    if include_programming:
        return ACTION_TABLE + (PROGRAMMING_ACTION,)
    return ACTION_TABLE


def per_action_energy_vector(
    per_action: Mapping[str, float], include_programming: bool = False
) -> np.ndarray:
    """Per-action energies as a vector in canonical :data:`ACTION_KINDS` order."""
    table = _action_table(include_programming)
    return np.array([per_action[action] for _, action, _ in table], dtype=np.float64)


def action_component_matrix(include_programming: bool = False) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """0/1 aggregation matrix folding action energies into components.

    Returns ``(matrix, components)`` where ``matrix`` has shape
    ``(actions, components)`` and a batch of action energies ``E`` (shape
    ``candidates x actions``) aggregates to component energies ``E @ matrix``.
    """
    table = _action_table(include_programming)
    components = tuple(dict.fromkeys(component for _, _, component in table))
    index = {name: i for i, name in enumerate(components)}
    matrix = np.zeros((len(table), len(components)), dtype=np.float64)
    for row, (_, _, component) in enumerate(table):
        matrix[row, index[component]] = 1.0
    return matrix, components


@dataclass(frozen=True)
class CiMMacroConfig:
    """Complete parameterisation of a CiM macro.

    Attributes mirror Table III of the paper plus the data-movement
    strategy knobs its case studies sweep.  Calibration scales default to 1
    and are set by the pre-built macro models to match published
    energy/area.
    """

    name: str = "macro"
    technology: TechnologyNode = field(default_factory=lambda: TechnologyNode(65))
    rows: int = 256
    cols: int = 256
    device: str = "sram"
    bits_per_cell: int = 1

    input_bits: int = 8
    weight_bits: int = 8
    output_bits: int = 16
    input_encoding: str = "unsigned"
    weight_encoding: str = "offset"

    dac_resolution: int = 1
    dac_type: DACType = DACType.CAPACITIVE
    adc_resolution: int = 8
    value_aware_adc: bool = False
    columns_per_adc: int = 8

    output_reuse_style: OutputReuseStyle = OutputReuseStyle.NONE
    output_reuse_columns: int = 1
    analog_adder_operands: int = 1
    temporal_accumulation_cycles: int = 1
    rows_active_per_cycle: Optional[int] = None

    cycle_time_ns: float = 10.0
    input_buffer_kib: int = 16
    output_buffer_kib: int = 16

    # Calibration multipliers (dimensionless) used when matching silicon.
    cell_energy_scale: float = 1.0
    dac_energy_scale: float = 1.0
    adc_energy_scale: float = 1.0
    analog_energy_scale: float = 1.0
    digital_energy_scale: float = 1.0
    driver_energy_scale: float = 1.0
    buffer_energy_scale: float = 0.3
    area_scale: float = 1.0
    misc_energy_fraction: float = 0.05
    misc_area_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("array must have at least one row and one column")
        for label in ("input_bits", "weight_bits", "output_bits"):
            bits = getattr(self, label)
            if not 1 <= bits <= 32:
                raise ValidationError(f"{label} must be in [1, 32], got {bits}")
        if not 1 <= self.dac_resolution <= self.input_bits:
            raise ValidationError("dac_resolution must be in [1, input_bits]")
        if not 1 <= self.adc_resolution <= ADCModel.MAX_RESOLUTION_BITS:
            raise ValidationError(
                f"adc_resolution must be in [1, {ADCModel.MAX_RESOLUTION_BITS}], "
                f"got {self.adc_resolution}"
            )
        if not 1 <= self.bits_per_cell <= 8:
            raise ValidationError("bits_per_cell must be in [1, 8]")
        if self.columns_per_adc < 1:
            raise ValidationError("columns_per_adc must be at least 1")
        if self.output_reuse_columns < 1:
            raise ValidationError("output_reuse_columns must be at least 1")
        if self.analog_adder_operands < 1:
            raise ValidationError("analog_adder_operands must be at least 1")
        if self.temporal_accumulation_cycles < 1:
            raise ValidationError("temporal_accumulation_cycles must be at least 1")
        if self.rows_active_per_cycle is not None and not (
            1 <= self.rows_active_per_cycle <= self.rows
        ):
            raise ValidationError("rows_active_per_cycle must be in [1, rows]")
        if self.cycle_time_ns <= 0:
            raise ValidationError("cycle_time_ns must be positive")

    # ------------------------------------------------------------------
    @property
    def active_rows(self) -> int:
        """Rows activated per array access (defaults to all rows)."""
        return self.rows_active_per_cycle or self.rows

    def with_updates(self, **overrides) -> "CiMMacroConfig":
        """Copy of the config with some fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class MacroLayerCounts:
    """Per-layer action counts of every macro component (one full layer)."""

    total_macs: int
    reduction_size: int
    output_channels: int
    input_vectors: int
    weight_slices: int
    weight_lanes: int
    input_lanes: int
    input_steps: int
    row_tiles: int
    col_tiles: int
    outputs_per_activation: int
    row_utilization: float
    col_utilization: float
    array_activations: int
    cell_ops: int
    cell_writes: int
    dac_converts: int
    adc_converts: int
    row_driver_ops: int
    column_mux_ops: int
    analog_adder_ops: int
    analog_accumulator_ops: int
    analog_mac_ops: int
    shift_add_ops: int
    digital_accumulate_ops: int
    digital_mac_ops: int
    input_buffer_reads: int
    input_buffer_writes: int
    output_buffer_updates: int
    output_buffer_reads: int

    @property
    def utilization(self) -> float:
        """Average fraction of array cells doing useful work."""
        return self.row_utilization * self.col_utilization

    def action_vector(self, include_programming: bool = False) -> np.ndarray:
        """Action counts as a vector in canonical :data:`ACTION_KINDS` order.

        The dot product of this vector with the matching per-action energy
        vector is the layer's total energy before the ``misc`` overhead;
        stacking many of these rows is how the batch engine evaluates
        thousands of candidate mappings in one matrix product.
        """
        table = _action_table(include_programming)
        return np.array([getattr(self, count) for count, _, _ in table], dtype=np.float64)


@dataclass(frozen=True)
class MacroLayerResult:
    """Energy/latency result of running one layer on one macro."""

    layer_name: str
    counts: MacroLayerCounts
    energy_breakdown: Dict[str, float]
    latency_s: float

    @property
    def total_energy(self) -> float:
        """Total macro energy for the layer in joules."""
        return sum(self.energy_breakdown.values())

    @property
    def energy_per_mac(self) -> float:
        """Energy per full-precision MAC in joules."""
        return self.total_energy / max(self.counts.total_macs, 1)

    @property
    def tops_per_watt(self) -> float:
        """Energy efficiency in TOPS/W (2 operations per MAC)."""
        return 2.0 / self.energy_per_mac / 1e12

    @property
    def gops(self) -> float:
        """Throughput in GOPS (2 operations per MAC)."""
        if self.latency_s <= 0:
            return 0.0
        return 2.0 * self.counts.total_macs / self.latency_s / 1e9


class CiMMacro:
    """An instantiated CiM macro: component models + analytical mapping."""

    def __init__(self, config: CiMMacroConfig, cell_library: Optional[CellLibrary] = None):
        self.config = config
        library = cell_library or default_cell_library()
        tech = config.technology

        self.cell = library.create(config.device, tech, config.bits_per_cell)
        self.input_encoding = get_encoding(config.input_encoding, config.input_bits)
        self.weight_encoding = get_encoding(config.weight_encoding, config.weight_bits)

        self.weight_slices = math.ceil(
            self.weight_encoding.code_bits() / config.bits_per_cell
        )
        self.weight_lanes = self.weight_encoding.lanes
        self.input_lanes = self.input_encoding.lanes
        self.input_steps_per_lane = math.ceil(
            self.input_encoding.code_bits() / config.dac_resolution
        )

        # One physical ADC serves `columns_per_adc` multiplexed columns.
        adc_columns = max(config.cols // config.columns_per_adc, 1)
        self.dac_bank = DACModel(
            resolution_bits=config.dac_resolution,
            count=config.rows,
            dac_type=config.dac_type,
            technology=tech,
            energy_scale=config.dac_energy_scale,
        )
        self.adc_bank = ADCModel(
            resolution_bits=config.adc_resolution,
            throughput_msps=1e3 / config.cycle_time_ns,
            count=adc_columns,
            technology=tech,
            value_aware=config.value_aware_adc,
            energy_scale=config.adc_energy_scale,
        )
        self.row_drivers = RowDriver(
            columns=config.cols,
            count=config.rows,
            technology=tech,
            energy_scale=config.driver_energy_scale,
        )
        self.column_mux = ColumnMux(
            ways=config.columns_per_adc,
            rows=config.rows,
            count=adc_columns,
            technology=tech,
            energy_scale=config.driver_energy_scale,
        )
        self.analog_adder = AnalogAdder(
            operands=max(config.analog_adder_operands, 1),
            count=adc_columns,
            technology=tech,
            energy_scale=config.analog_energy_scale,
        )
        self.analog_accumulator = AnalogAccumulator(
            count=adc_columns,
            technology=tech,
            energy_scale=config.analog_energy_scale,
        )
        self.analog_mac = AnalogMACUnit(
            weight_bits=config.weight_bits,
            count=adc_columns,
            technology=tech,
            energy_scale=config.analog_energy_scale,
        )
        self.shift_add = ShiftAdd(
            bits=config.output_bits,
            count=adc_columns,
            technology=tech,
            energy_scale=config.digital_energy_scale,
        )
        self.digital_accumulator = DigitalAccumulator(
            bits=config.output_bits,
            count=adc_columns,
            technology=tech,
            energy_scale=config.digital_energy_scale,
        )
        self.digital_mac = DigitalMACUnit(
            bits=config.weight_bits,
            count=config.cols,
            technology=tech,
            energy_scale=config.digital_energy_scale,
        )
        self.digital_adder = DigitalAdder(
            bits=config.output_bits,
            count=config.cols,
            technology=tech,
            energy_scale=config.digital_energy_scale,
        )
        # Macro-local input/output staging is register-file / latch based in
        # the published designs rather than a full SRAM bank, so the
        # CACTI-style buffer energy is derated by `buffer_energy_scale`
        # (default 0.3), which macros also use as a calibration knob.
        self.input_buffer = SRAMBuffer(
            capacity_bytes=config.input_buffer_kib * 1024,
            access_width_bits=config.input_bits,
            technology=tech,
            energy_scale=config.buffer_energy_scale,
        )
        self.output_buffer = SRAMBuffer(
            capacity_bytes=config.output_buffer_kib * 1024,
            access_width_bits=config.output_bits,
            technology=tech,
            energy_scale=config.buffer_energy_scale,
        )

    # ------------------------------------------------------------------
    # Capacity and throughput
    # ------------------------------------------------------------------
    @property
    def cells_per_weight(self) -> int:
        """Memory cells needed to store one full-precision weight."""
        return self.weight_slices * self.weight_lanes

    @property
    def input_steps(self) -> int:
        """Array activations needed to stream one full-precision input."""
        return self.input_steps_per_lane * self.input_lanes

    def weight_capacity(self) -> int:
        """Full-precision weights the array can hold at once."""
        return (self.config.rows * self.config.cols) // self.cells_per_weight

    def reduction_columns(self) -> int:
        """Columns over which one output's reduction is folded (WIRE style)."""
        if self.config.output_reuse_style is OutputReuseStyle.WIRE:
            return self.config.output_reuse_columns
        return 1

    def spatial_fanout_budget(self) -> int:
        """Spatial-fanout budget implied by the macro's geometry.

        The array offers one parallel compute group per column group that
        produces an independent output — the same
        ``cols // (cells_per_weight x reduction fold)`` arithmetic
        :meth:`map_layer` uses for ``outputs_per_activation``.  This is
        the default budget the loop-nest map space
        (:meth:`repro.core.model.CiMLoopModel.layer_mapspace`) grants the
        array level, so the mapper's spatial split is bounded by what the
        hardware actually fans out instead of a caller-chosen constant.
        """
        columns_per_output = self.cells_per_weight * self.reduction_columns()
        return max(self.config.cols // columns_per_output, 1)

    def slice_merge_factor(self) -> int:
        """Weight-slice conversions merged into one ADC read."""
        style = self.config.output_reuse_style
        if style is OutputReuseStyle.ANALOG_ADDER:
            return min(self.config.analog_adder_operands, self.cells_per_weight)
        if style is OutputReuseStyle.ANALOG_MAC:
            return self.cells_per_weight
        return 1

    def peak_macs_per_second(self) -> float:
        """Peak MAC rate with a fully-utilised array."""
        cfg = self.config
        macs_per_activation = (cfg.active_rows * cfg.cols) / self.cells_per_weight
        return macs_per_activation / (self.effective_cycle_seconds() * self.input_steps)

    # ------------------------------------------------------------------
    # Operand contexts
    # ------------------------------------------------------------------
    def operand_context(self, distributions: Optional[LayerDistributions]) -> OperandContext:
        """Encode + slice layer distributions into per-tensor statistics.

        Without distributions (fixed-energy mode) nominal statistics are
        used, which is exactly the paper's non-data-value-dependent
        baseline behaviour.
        """
        if distributions is None:
            return OperandContext.nominal()
        cfg = self.config
        sliced = {
            TensorRole.INPUTS: encode_and_slice(
                distributions.pmf(TensorRole.INPUTS), self.input_encoding, cfg.dac_resolution
            ),
            TensorRole.WEIGHTS: encode_and_slice(
                distributions.pmf(TensorRole.WEIGHTS), self.weight_encoding, cfg.bits_per_cell
            ),
        }
        stats = {role: OperandStats.from_sliced(dist) for role, dist in sliced.items()}
        # Analog column output magnitude tracks the product of mean input
        # and mean weight slice values times the fraction of active rows.
        input_stats = stats[TensorRole.INPUTS]
        weight_stats = stats[TensorRole.WEIGHTS]
        output_mean = min(input_stats.mean * weight_stats.mean * 4.0, 1.0)
        output_mean_sq = min(output_mean * output_mean * 1.5, 1.0)
        stats[TensorRole.OUTPUTS] = OperandStats(
            mean=output_mean,
            mean_square=output_mean_sq,
            density=min(input_stats.density + 0.2, 1.0),
            toggle_rate=min(0.5 * (output_mean + input_stats.density), 1.0),
        )
        return OperandContext(stats=stats)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_layer(self, layer: Layer) -> MacroLayerCounts:
        """Analytically map one layer onto the macro and count actions.

        The layer's einsum is viewed as a ``K x M`` weight matrix applied to
        ``V`` input vectors (K = reduction size, M = weight elements / K,
        V = MACs / (K*M)).  Weights are stationary; the array is tiled into
        ``row_tiles x col_tiles`` programmings when the matrix exceeds the
        array, and each input streams through the DACs one slice per
        activation.  Utilisation captures the ceil-division waste of both
        tilings, which is what drives the paper's array-size explorations
        (Figs. 2a, 12, 14).
        """
        cfg = self.config
        einsum = layer.einsum
        total_macs = einsum.total_macs
        reduction = einsum.reduction_size()
        weight_elements = einsum.tensor_size(TensorRole.WEIGHTS)
        output_channels = max(weight_elements // max(reduction, 1), 1)
        input_vectors = max(total_macs // max(reduction * output_channels, 1), 1)

        cells_per_weight = self.cells_per_weight
        fold = self.reduction_columns()
        active_rows = cfg.active_rows

        columns_per_output = cells_per_weight * fold
        outputs_per_activation = max(cfg.cols // columns_per_output, 1)
        reduction_capacity = active_rows * fold

        row_tiles = math.ceil(reduction / reduction_capacity)
        col_tiles = math.ceil(output_channels / outputs_per_activation)
        row_utilization = reduction / (row_tiles * reduction_capacity)
        col_utilization = output_channels / (col_tiles * outputs_per_activation)

        input_steps = self.input_steps
        accumulation = min(cfg.temporal_accumulation_cycles, input_steps)
        slice_merge = self.slice_merge_factor()

        activations = input_vectors * row_tiles * col_tiles * input_steps

        # DACs cannot coalesce: every input slice step re-converts the row
        # inputs, once per column tile.  The whole DAC bank of the active
        # rows fires on every activation (rows holding no useful weights are
        # not gated, matching NeuroSim-style array operation), so an
        # underutilised array wastes DAC and row-driver energy — the effect
        # behind the paper's Fig. 2b co-design observation.
        rows_driven_per_pass = row_tiles * reduction_capacity
        dac_converts = input_vectors * col_tiles * input_steps * rows_driven_per_pass
        row_driver_ops = dac_converts

        # ADC conversions: per output, per input vector, one conversion per
        # (weight-slice group) x (row tile) x (input step group).
        if cfg.output_reuse_style is OutputReuseStyle.DIGITAL:
            adc_converts = 0
        else:
            adc_converts = (
                input_vectors
                * output_channels
                * (cells_per_weight // slice_merge)
                * row_tiles
                * math.ceil(input_steps / accumulation)
            )
        column_mux_ops = adc_converts

        # Cell operations: each useful MAC touches every weight slice/lane
        # once per input step; underutilised columns/rows are not activated.
        cell_ops = total_macs * cells_per_weight * input_steps
        cell_writes = weight_elements * cells_per_weight  # programming, once per layer

        analog_adder_ops = 0
        analog_accumulator_ops = 0
        analog_mac_ops = 0
        digital_mac_ops = 0
        if cfg.output_reuse_style is OutputReuseStyle.ANALOG_ADDER:
            analog_adder_ops = adc_converts
        elif cfg.output_reuse_style is OutputReuseStyle.ANALOG_ACCUMULATOR:
            analog_accumulator_ops = adc_converts * accumulation
        elif cfg.output_reuse_style is OutputReuseStyle.ANALOG_MAC:
            analog_mac_ops = input_vectors * output_channels * row_tiles * input_steps
        elif cfg.output_reuse_style is OutputReuseStyle.DIGITAL:
            digital_mac_ops = cell_ops

        # Digital post-processing: every ADC result is shifted into place
        # and accumulated into the running output.
        if cfg.output_reuse_style is OutputReuseStyle.DIGITAL:
            shift_add_ops = cell_ops // max(cfg.active_rows, 1)
            digital_accumulate_ops = input_vectors * output_channels * row_tiles * input_steps
        else:
            shift_add_ops = adc_converts
            digital_accumulate_ops = adc_converts

        # Buffer traffic is per tensor *element*: the bit-serial re-reads of
        # the same element across input steps are served by small latches
        # inside the DAC bank, not by the SRAM buffer, so the buffer sees
        # one read per element per column tile (inputs are not retained
        # across column tiles) and one partial-sum RMW per output per row
        # tile plus one final read.
        input_buffer_reads = input_vectors * reduction * col_tiles
        input_buffer_writes = input_vectors * reduction
        output_buffer_updates = input_vectors * output_channels * row_tiles
        output_buffer_reads = input_vectors * output_channels

        return MacroLayerCounts(
            total_macs=total_macs,
            reduction_size=reduction,
            output_channels=output_channels,
            input_vectors=input_vectors,
            weight_slices=self.weight_slices,
            weight_lanes=self.weight_lanes,
            input_lanes=self.input_lanes,
            input_steps=input_steps,
            row_tiles=row_tiles,
            col_tiles=col_tiles,
            outputs_per_activation=outputs_per_activation,
            row_utilization=row_utilization,
            col_utilization=col_utilization,
            array_activations=activations,
            cell_ops=cell_ops,
            cell_writes=cell_writes,
            dac_converts=dac_converts,
            adc_converts=adc_converts,
            row_driver_ops=row_driver_ops,
            column_mux_ops=column_mux_ops,
            analog_adder_ops=analog_adder_ops,
            analog_accumulator_ops=analog_accumulator_ops,
            analog_mac_ops=analog_mac_ops,
            shift_add_ops=shift_add_ops,
            digital_accumulate_ops=digital_accumulate_ops,
            digital_mac_ops=digital_mac_ops,
            input_buffer_reads=input_buffer_reads,
            input_buffer_writes=input_buffer_writes,
            output_buffer_updates=output_buffer_updates,
            output_buffer_reads=output_buffer_reads,
        )

    # ------------------------------------------------------------------
    # Energy / latency / area
    # ------------------------------------------------------------------
    def per_action_energies(self, context: OperandContext) -> Dict[str, float]:
        """Average energy per action of every macro component.

        This is the quantity the fast statistical pipeline computes once
        per (layer, architecture) and amortises over all mappings.
        """
        cfg = self.config
        input_stats = context.for_tensor(TensorRole.INPUTS)
        weight_stats = context.for_tensor(TensorRole.WEIGHTS)
        cell_energy = self.cell.compute_energy(
            input_value_fraction=min(input_stats.mean_square, 1.0),
            weight_value_fraction=min(weight_stats.mean, 1.0),
        ) * cfg.cell_energy_scale
        return {
            "cell_compute": cell_energy,
            "cell_write": self.cell.write_energy() * cfg.cell_energy_scale,
            "dac_convert": self.dac_bank.energy(Action.CONVERT, context),
            "adc_convert": self.adc_bank.energy(Action.CONVERT, context),
            "row_drive": self.row_drivers.energy(Action.DRIVE, context),
            "column_mux": self.column_mux.energy(Action.TRANSFER, context),
            "analog_add": self.analog_adder.energy(Action.ADD, context),
            "analog_accumulate": self.analog_accumulator.energy(Action.ACCUMULATE, context),
            "analog_mac": self.analog_mac.energy(Action.COMPUTE, context),
            "shift_add": self.shift_add.energy(Action.ACCUMULATE, context),
            "digital_accumulate": self.digital_accumulator.energy(Action.ACCUMULATE, context),
            "digital_mac": self.digital_mac.energy(Action.COMPUTE, context),
            "input_buffer_read": self.input_buffer.energy(Action.READ, context),
            "input_buffer_write": self.input_buffer.energy(Action.WRITE, context),
            "output_buffer_update": self.output_buffer.energy(Action.UPDATE, context),
            "output_buffer_read": self.output_buffer.energy(Action.READ, context),
        }

    def energy_breakdown(
        self,
        counts: MacroLayerCounts,
        per_action: Mapping[str, float],
        include_programming: bool = False,
    ) -> Dict[str, float]:
        """Total per-component energy of one layer from counts x per-action energy.

        Generated from :data:`ACTION_TABLE` so that this scalar path and
        the vectorized batch path (:mod:`repro.core.batch`) charge exactly
        the same actions to the same components.
        """
        breakdown: Dict[str, float] = {}
        for count, action, component in _action_table(include_programming):
            energy = getattr(counts, count) * per_action[action]
            breakdown[component] = breakdown.get(component, 0.0) + energy
        subtotal = sum(breakdown.values())
        breakdown["misc"] = subtotal * self.config.misc_energy_fraction
        return breakdown

    def effective_cycle_seconds(self) -> float:
        """Cycle time in seconds after supply-voltage delay scaling.

        Single source of the cycle-time math shared by the scalar
        :meth:`latency_seconds` and the batch engine's vectorized latency
        model, so the two paths cannot drift.
        """
        cfg = self.config
        nominal = TechnologyNode(cfg.technology.node_nm)
        slowdown = cfg.technology.delay_factor / nominal.delay_factor
        return cfg.cycle_time_ns * 1e-9 * slowdown

    def latency_seconds(self, counts: MacroLayerCounts) -> float:
        """Layer latency in seconds.

        Each array activation takes one cycle, but the layer can also be
        ADC-throughput-limited: with ``N`` physical ADCs, at most ``N``
        conversions complete per cycle, so a layer needing more conversions
        per activation than ADCs serialises.  This is what penalises wide
        analog adders that are underutilised by low-precision weights
        (paper Fig. 13) — they do not reduce the conversion count, yet
        still pay their area.  The cycle time is scaled by the supply
        voltage's delay factor (alpha-power model).
        """
        cycle_s = self.effective_cycle_seconds()
        adc_limited_cycles = counts.adc_converts / max(self.adc_bank.count, 1)
        cycles = max(counts.array_activations, adc_limited_cycles)
        return cycles * cycle_s

    def evaluate_layer(
        self,
        layer: Layer,
        distributions: Optional[LayerDistributions] = None,
        include_programming: bool = False,
        auto_profile: bool = True,
        per_action: Optional[Mapping[str, float]] = None,
    ) -> MacroLayerResult:
        """Map + evaluate one layer: counts, energy breakdown, latency.

        ``per_action`` short-circuits the operand-context derivation with
        energies computed elsewhere (e.g. a
        :class:`~repro.core.fast_pipeline.PerActionEnergyCache` hit) —
        the caller is responsible for having derived them from the same
        distributions this call would have used.
        """
        if per_action is None:
            if distributions is None and auto_profile:
                distributions = profile_layer(layer)
            context = self.operand_context(distributions)
            per_action = self.per_action_energies(context)
        counts = self.map_layer(layer)
        breakdown = self.energy_breakdown(counts, per_action, include_programming)
        return MacroLayerResult(
            layer_name=layer.name,
            counts=counts,
            energy_breakdown=breakdown,
            latency_s=self.latency_seconds(counts),
        )

    # ------------------------------------------------------------------
    def area_breakdown_um2(self) -> Dict[str, float]:
        """Per-component area of the macro in square micrometres."""
        cfg = self.config
        style = cfg.output_reuse_style
        breakdown = {
            "array": self.cell.area_um2() * cfg.rows * cfg.cols,
            "dac": self.dac_bank.area_um2(),
            "adc": 0.0 if style is OutputReuseStyle.DIGITAL else self.adc_bank.area_um2(),
            "row_drivers": self.row_drivers.area_um2(),
            "column_mux": self.column_mux.area_um2(),
            "analog_adder": self.analog_adder.area_um2() if style is OutputReuseStyle.ANALOG_ADDER else 0.0,
            "analog_accumulator": self.analog_accumulator.area_um2()
            if style is OutputReuseStyle.ANALOG_ACCUMULATOR else 0.0,
            "analog_mac": self.analog_mac.area_um2() if style is OutputReuseStyle.ANALOG_MAC else 0.0,
            "digital_mac": self.digital_mac.area_um2() if style is OutputReuseStyle.DIGITAL else 0.0,
            "digital_postprocessing": self.shift_add.area_um2() + self.digital_accumulator.area_um2(),
            "input_buffer": self.input_buffer.area_um2(),
            "output_buffer": self.output_buffer.area_um2(),
        }
        subtotal = sum(breakdown.values())
        breakdown["misc"] = subtotal * cfg.misc_area_fraction
        return {name: area * cfg.area_scale for name, area in breakdown.items()}

    def total_area_mm2(self) -> float:
        """Total macro area in square millimetres."""
        return sum(self.area_breakdown_um2().values()) / 1e6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"CiMMacro({cfg.name!r}, {cfg.rows}x{cfg.cols} {cfg.device}, "
            f"{cfg.technology.node_nm:g}nm)"
        )


@functools.lru_cache(maxsize=256)
def macro_for(config: CiMMacroConfig) -> CiMMacro:
    """Process-wide memo of default-library :class:`CiMMacro` instances.

    A macro is a pure function of its frozen config — component models
    hold no mutable state — so instances can be shared freely.  Repeated
    evaluations of the same design (grid cells, figure sweeps, breakdown
    reports) skip rebuilding the component object graph.  Only valid for
    the default cell library; callers with a custom library must
    construct :class:`CiMMacro` directly.
    """
    return CiMMacro(config)
