"""Regression-based ADC model.

The paper's ADC plug-in fits regressions over published ADC survey data
(Murmann's ADC survey) to predict the energy and area of an ADC meeting a
required resolution, throughput, and count.  This module implements an
analytical model with the same structure:

* Energy per conversion follows the classic SAR/thermal-noise trade-off:
  an exponential term in resolution (comparator + capacitive DAC switching
  grows ~2x per bit at high resolution) plus a linear term (digital logic),
  scaled by the technology node and the square of the supply voltage.
* Area grows with resolution and with the required sample rate (faster
  ADCs need larger capacitors/flash stages), and a bank of ADCs multiplies
  both.
* Some ADC designs spend less energy converting small analog values (the
  paper cites bit-level-sparsity-aware SAR ADCs); the model exposes this
  through an optional value-dependence factor driven by the output operand
  statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.interface import Action, ComponentEnergyModel, OperandContext
from repro.devices.technology import REFERENCE_NODE, TechnologyNode, scale_area, scale_energy
from repro.utils.errors import ValidationError
from repro.workloads.einsum import TensorRole


@dataclass(frozen=True)
class ADCModel(ComponentEnergyModel):
    """An ADC (or bank of identical ADCs) converting analog column outputs.

    Parameters
    ----------
    resolution_bits:
        Output resolution of each conversion.
    throughput_msps:
        Required per-ADC sample rate in mega-samples per second.
    count:
        Number of ADCs in the bank (area and leakage scale with this;
        per-conversion energy does not).
    technology:
        Technology node and supply voltage.
    value_aware:
        If True, conversion energy scales with the magnitude of the value
        being converted (bit-sparsity-aware SAR behaviour); if False, every
        conversion costs the full-scale energy.
    energy_scale / area_scale:
        Calibration multipliers used when matching a published macro.
    """

    resolution_bits: int = 8
    throughput_msps: float = 100.0
    count: int = 1
    technology: TechnologyNode = field(default_factory=lambda: REFERENCE_NODE)
    value_aware: bool = False
    energy_scale: float = 1.0
    area_scale: float = 1.0

    component_class = "adc"

    #: Highest resolution the regression is calibrated for; macro configs
    #: check their ``adc_resolution`` against it too.
    MAX_RESOLUTION_BITS = 14

    #: Config fields the conversion-energy formula reads (term-key protocol).
    TERM_CONFIG_FIELDS = (
        "adc_resolution",
        "value_aware_adc",
        "adc_energy_scale",
        "technology",
    )
    TERM_STAT_ROLES = (TensorRole.OUTPUTS,)

    # Regression constants (65 nm reference).  The exponential term models
    # comparator + CDAC energy, the linear term models SAR logic.
    _ENERGY_PER_LEVEL_FJ = 0.75   # fJ per quantisation level (2^bits)
    _ENERGY_PER_BIT_FJ = 18.0     # fJ per resolved bit
    _AREA_PER_LEVEL_UM2 = 1.4     # um^2 per quantisation level
    _AREA_BASE_UM2 = 400.0        # fixed overhead per ADC instance

    def __post_init__(self) -> None:
        if not 1 <= self.resolution_bits <= self.MAX_RESOLUTION_BITS:
            raise ValidationError(
                f"ADC resolution must be in [1, {self.MAX_RESOLUTION_BITS}] bits, "
                f"got {self.resolution_bits}"
            )
        if self.throughput_msps <= 0:
            raise ValidationError("ADC throughput must be positive")
        if self.count < 1:
            raise ValidationError("ADC count must be at least 1")
        if self.energy_scale <= 0 or self.area_scale <= 0:
            raise ValidationError("calibration scales must be positive")

    # ------------------------------------------------------------------
    def actions(self) -> tuple[str, ...]:
        return (Action.CONVERT,)

    def full_scale_energy(self) -> float:
        """Energy (J) of converting a full-scale value at the operating point."""
        levels = 1 << self.resolution_bits
        base_fj = (
            self._ENERGY_PER_LEVEL_FJ * levels
            + self._ENERGY_PER_BIT_FJ * self.resolution_bits
        )
        base_j = base_fj * 1e-15 * self.energy_scale
        return scale_energy(base_j, REFERENCE_NODE, self.technology)

    def energy(self, action: str, context: OperandContext) -> float:
        self._require_action(action)
        full_scale = self.full_scale_energy()
        if not self.value_aware:
            return full_scale
        stats = context.for_tensor(TensorRole.OUTPUTS)
        # A value-aware SAR resolves fewer capacitor switches for small
        # values; keep a floor of 30% for the comparator and logic that run
        # regardless of the converted value.
        value_factor = 0.3 + 0.7 * stats.mean
        return full_scale * value_factor

    def area_um2(self) -> float:
        levels = 1 << self.resolution_bits
        # Faster ADCs interleave or enlarge stages: sub-linear growth in
        # sample rate beyond a 100 MS/s baseline.
        speed_factor = max(self.throughput_msps / 100.0, 1.0) ** 0.5
        per_adc = (self._AREA_BASE_UM2 + self._AREA_PER_LEVEL_UM2 * levels) * speed_factor
        per_adc *= self.area_scale
        scaled = scale_area(per_adc, REFERENCE_NODE, self.technology)
        return scaled * self.count

    def leakage_power_w(self) -> float:
        # Leakage roughly proportional to area; 5 nW per 1000 um^2 at 65 nm.
        return 5e-9 * self.area_um2() / 1000.0

    def conversions_per_second(self) -> float:
        """Aggregate conversion rate of the whole bank."""
        return self.throughput_msps * 1e6 * self.count
