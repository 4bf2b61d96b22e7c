"""Term-key soundness: perturbation testing against the scalar oracle.

The term-factored deriver (:mod:`repro.core.config_batch`) is exact only
if every component declares the *complete* config sub-tuple its formula
reads (the ``TERM_CONFIG_FIELDS`` / ``TERM_STAT_ROLES`` protocol of
:mod:`repro.circuits.interface`, collected into
:data:`repro.core.terms.ENERGY_TERMS` / :data:`~repro.core.terms.AREA_TERMS`).
These tests validate the declarations against the scalar oracle by
perturbation: every :class:`CiMMacroConfig` field is changed on every
published Table III macro, in both distribution and nominal modes, and

* a per-action energy (:meth:`CiMMacro.per_action_energies`) may change
  only if the field is in the producing term's *effective* sub-tuple
  (declared fields plus the consumed roles' statistic subkeys);
* an area component (:meth:`CiMMacro.area_breakdown_um2`) may change only
  if the field is in the area term's sub-tuple or is one of the assembly
  fields (``area_scale`` scales every component, ``misc_area_fraction``
  shapes only the derived ``misc`` entry);
* a term key changes *iff* the field is in the term's effective
  sub-tuple — an undeclared field can never split cache entries, a
  declared field always does.

An undeclared-but-read field would surface here as an energy change
without a key change (a stale-cache-entry bug); an over-declared field
surfaces as a key change without any energy change on any macro (a
cache-fragmentation smell, asserted structurally for the fields known to
be derivation-irrelevant).

:class:`TestTermCacheKeys` checks the key strings themselves: stable
across processes, of bounded length, split by layer exactly where a term
consumes the layer's statistics, and never changing a derived matrix.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.architecture.macro import CiMMacro, CiMMacroConfig, OutputReuseStyle
from repro.circuits.dac import DACType
from repro.core.config_batch import AREA_COMPONENTS, DERIVED_ACTIONS, derive_config_batch
from repro.core.terms import (
    ACTION_TERMS,
    AREA_TERMS,
    ENERGY_TERMS,
    TermCache,
    energy_term_cache_key,
    layer_term_context,
    term_key,
)
from repro.macros.definitions import (
    base_macro,
    digital_cim_macro,
    macro_a,
    macro_b,
    macro_c,
    macro_d,
)
from repro.workloads.distributions import profile_layer
from repro.workloads.layer import ActivationStyle, conv2d_layer, matmul_layer
from repro.workloads.networks import matrix_vector_workload

#: Every published macro of the paper's Table III plus the digital CiM.
PUBLISHED = {
    "base_macro": base_macro(),
    "macro_a": macro_a(),
    "macro_b": macro_b(),
    "macro_c": macro_c(),
    "macro_d": macro_d(),
    "digital_cim": digital_cim_macro(),
}

#: area component name -> the term producing it (``misc`` is assembled).
AREA_COMPONENT_TERMS = {spec.actions[0]: spec for spec in AREA_TERMS}

#: Fields applied at table-assembly time rather than inside a term.
AREA_ASSEMBLY_FIELDS = {"area_scale", "misc_area_fraction"}

#: Fields no energy or area formula reads: mapping/counting knobs (how
#: many actions happen, never how much one action costs) and labels.
DERIVATION_IRRELEVANT_FIELDS = {
    "name",
    "output_reuse_columns",
    "temporal_accumulation_cycles",
    "rows_active_per_cycle",
    "misc_energy_fraction",
}


def _flip_style(config):
    if config.output_reuse_style is OutputReuseStyle.WIRE:
        return OutputReuseStyle.NONE
    return OutputReuseStyle.WIRE


#: One validity-aware perturbation per config field.  Each entry maps the
#: field to a new value differing from the macro's current one while
#: respecting the config's validation envelope (``dac_resolution`` within
#: ``[1, input_bits]``, ``bits_per_cell`` within ``[1, 8]``, ...).
PERTURBATIONS = {
    "name": lambda c: c.name + "_perturbed",
    "technology": lambda c: c.technology.with_vdd(c.technology.vdd * 1.1),
    "rows": lambda c: c.rows * 2,
    "cols": lambda c: c.cols * 2,
    "device": lambda c: "reram" if c.device != "reram" else "sram",
    "bits_per_cell": lambda c: c.bits_per_cell + 1 if c.bits_per_cell < 8 else 7,
    "input_bits": lambda c: c.input_bits + 1,
    "weight_bits": lambda c: c.weight_bits + 1,
    "output_bits": lambda c: c.output_bits + 1,
    "input_encoding": lambda c: (
        "twos_complement" if c.input_encoding != "twos_complement" else "unsigned"
    ),
    "weight_encoding": lambda c: (
        "twos_complement" if c.weight_encoding != "twos_complement" else "offset"
    ),
    "dac_resolution": lambda c: (
        c.dac_resolution + 1 if c.dac_resolution < c.input_bits else c.dac_resolution - 1
    ),
    "dac_type": lambda c: (
        DACType.PULSE if c.dac_type != DACType.PULSE else DACType.CAPACITIVE
    ),
    "adc_resolution": lambda c: (
        c.adc_resolution + 1 if c.adc_resolution < 12 else c.adc_resolution - 1
    ),
    "value_aware_adc": lambda c: not c.value_aware_adc,
    "columns_per_adc": lambda c: c.columns_per_adc * 2,
    "output_reuse_style": _flip_style,
    "output_reuse_columns": lambda c: c.output_reuse_columns + 1,
    "analog_adder_operands": lambda c: c.analog_adder_operands + 1,
    "temporal_accumulation_cycles": lambda c: c.temporal_accumulation_cycles + 1,
    "rows_active_per_cycle": lambda c: (
        max(c.rows // 2, 1)
        if c.rows_active_per_cycle is None
        else (c.rows_active_per_cycle // 2 or 2)
    ),
    "cycle_time_ns": lambda c: c.cycle_time_ns * 2.0,
    "input_buffer_kib": lambda c: c.input_buffer_kib * 2,
    "output_buffer_kib": lambda c: c.output_buffer_kib * 2,
    "cell_energy_scale": lambda c: c.cell_energy_scale * 1.5,
    "dac_energy_scale": lambda c: c.dac_energy_scale * 1.5,
    "adc_energy_scale": lambda c: c.adc_energy_scale * 1.5,
    "analog_energy_scale": lambda c: c.analog_energy_scale * 1.5,
    "digital_energy_scale": lambda c: c.digital_energy_scale * 1.5,
    "driver_energy_scale": lambda c: c.driver_energy_scale * 1.5,
    "buffer_energy_scale": lambda c: c.buffer_energy_scale * 1.5,
    "area_scale": lambda c: c.area_scale * 1.5,
    "misc_energy_fraction": lambda c: c.misc_energy_fraction + 0.01,
    "misc_area_fraction": lambda c: c.misc_area_fraction + 0.01,
}


@pytest.fixture(scope="module")
def layer():
    return matrix_vector_workload(64, 64, repeats=4).layers[0]


@pytest.fixture(scope="module")
def distributions(layer):
    return profile_layer(layer)


def _perturbed(config, field_name):
    """A valid config differing from ``config`` only in ``field_name``."""
    value = PERTURBATIONS[field_name](config)
    assert value != getattr(config, field_name), (
        f"perturbation of {field_name} produced an identical value"
    )
    return config.with_updates(**{field_name: value})


def _scalar_energies(config, distributions):
    macro = CiMMacro(config)
    return macro.per_action_energies(macro.operand_context(distributions))


class TestProtocolStructure:
    def test_perturbations_cover_every_config_field(self):
        """A new CiMMacroConfig field must get a perturbation entry (and
        therefore a declaration review) before it can ship."""
        fields = {f.name for f in dataclasses.fields(CiMMacroConfig)}
        assert fields == set(PERTURBATIONS)

    def test_every_derived_action_has_exactly_one_term(self):
        assert set(ACTION_TERMS) == set(DERIVED_ACTIONS)
        spec_actions = [a for spec in ENERGY_TERMS for a in spec.actions]
        assert len(spec_actions) == len(set(spec_actions))

    def test_area_terms_cover_components_in_order(self):
        """One term per area component, in table order; ``misc`` is
        assembled from the subtotal, not derived."""
        assert tuple(s.actions[0] for s in AREA_TERMS) == AREA_COMPONENTS[:-1]

    def test_effective_fields_extend_declared_fields(self):
        for spec in ENERGY_TERMS + AREA_TERMS:
            effective = spec.effective_fields()
            assert effective[: len(spec.fields)] == spec.fields
            assert len(effective) == len(set(effective))


class TestTermKeySoundness:
    """A term key changes iff the perturbed field is in the sub-tuple."""

    @pytest.mark.parametrize("macro_name", sorted(PUBLISHED))
    def test_energy_term_keys(self, macro_name):
        config = PUBLISHED[macro_name]
        for field_name in PERTURBATIONS:
            perturbed = _perturbed(config, field_name)
            for spec in ENERGY_TERMS:
                changed = term_key(spec, perturbed) != term_key(spec, config)
                declared = field_name in spec.effective_fields()
                assert changed == declared, (
                    f"{macro_name}: term {spec.name!r} key "
                    f"{'changed' if changed else 'held'} under {field_name!r} "
                    f"but the field is {'' if declared else 'not '}declared"
                )

    @pytest.mark.parametrize("macro_name", sorted(PUBLISHED))
    def test_area_term_keys(self, macro_name):
        config = PUBLISHED[macro_name]
        for field_name in PERTURBATIONS:
            perturbed = _perturbed(config, field_name)
            for spec in AREA_TERMS:
                changed = term_key(spec, perturbed) != term_key(spec, config)
                assert changed == (field_name in spec.effective_fields())


class TestScalarPerturbation:
    """Energies/areas move only when the term's sub-tuple does.

    Together with the key-soundness tests above this closes the loop:
    value changed => field declared => key changed => no stale reuse.
    """

    @pytest.mark.parametrize("macro_name", sorted(PUBLISHED))
    @pytest.mark.parametrize("mode", ["distributions", "nominal"])
    def test_energy_changes_imply_declared_fields(
        self, macro_name, mode, layer, distributions
    ):
        config = PUBLISHED[macro_name]
        dists = distributions if mode == "distributions" else None
        baseline = _scalar_energies(config, dists)
        assert tuple(baseline) == DERIVED_ACTIONS
        for field_name in PERTURBATIONS:
            after = _scalar_energies(_perturbed(config, field_name), dists)
            for action in DERIVED_ACTIONS:
                if after[action] == baseline[action]:
                    continue
                effective = ACTION_TERMS[action].effective_fields()
                assert field_name in effective, (
                    f"{macro_name}/{mode}: {action!r} moved "
                    f"{baseline[action]:.3e} -> {after[action]:.3e} under "
                    f"{field_name!r}, which term "
                    f"{ACTION_TERMS[action].name!r} does not declare"
                )

    @pytest.mark.parametrize("macro_name", sorted(PUBLISHED))
    def test_area_changes_imply_declared_fields(self, macro_name):
        config = PUBLISHED[macro_name]
        baseline = CiMMacro(config).area_breakdown_um2()
        for field_name in PERTURBATIONS:
            after = CiMMacro(_perturbed(config, field_name)).area_breakdown_um2()
            assert set(after) == set(baseline)
            component_moved = False
            for component, spec in AREA_COMPONENT_TERMS.items():
                if after[component] == baseline[component]:
                    continue
                component_moved = True
                assert field_name in spec.effective_fields() or field_name == "area_scale", (
                    f"{macro_name}: area component {component!r} moved under "
                    f"undeclared field {field_name!r}"
                )
            if after["misc"] != baseline["misc"]:
                assert component_moved or field_name in AREA_ASSEMBLY_FIELDS, (
                    f"{macro_name}: misc area moved under {field_name!r} with "
                    "no component change"
                )

    @pytest.mark.parametrize("macro_name", sorted(PUBLISHED))
    def test_irrelevant_fields_hold_everything_fixed(
        self, macro_name, layer, distributions
    ):
        """Mapping knobs and labels change no per-action energy, no area
        component, and no term key — warm families sweeping them assemble
        entirely from cache."""
        config = PUBLISHED[macro_name]
        energies = _scalar_energies(config, distributions)
        areas = CiMMacro(config).area_breakdown_um2()
        for field_name in sorted(DERIVATION_IRRELEVANT_FIELDS):
            perturbed = _perturbed(config, field_name)
            assert _scalar_energies(perturbed, distributions) == energies
            assert CiMMacro(perturbed).area_breakdown_um2() == areas
            for spec in ENERGY_TERMS + AREA_TERMS:
                assert term_key(spec, perturbed) == term_key(spec, config)


# ----------------------------------------------------------------------
# Canonical cache keys
# ----------------------------------------------------------------------
#: Renders every energy term key of one config on one layer, in both
#: modes; run in this process and in a fresh interpreter.
KEY_PROBE = """
from repro.core.terms import ENERGY_TERMS, energy_term_cache_key, layer_term_context, term_key
from repro.macros.definitions import macro_b
from repro.workloads.networks import matrix_vector_workload

layer = matrix_vector_workload(64, 64, repeats=4).layers[0]
config = macro_b()
keys = [
    energy_term_cache_key(spec, term_key(spec, config), context)
    for context in (layer_term_context(layer.fingerprint()), None)
    for spec in ENERGY_TERMS
]
"""


def _probe_keys():
    namespace = {}
    exec(KEY_PROBE, namespace)
    return namespace["keys"]


def _distinct_layers():
    """Layers whose fingerprints differ, each in one respect."""
    base = matrix_vector_workload(64, 64, repeats=4).layers[0]
    return {
        "base": base,
        "same_name_other_shape": matrix_vector_workload(64, 64, repeats=8).layers[0],
        "other_geometry": matrix_vector_workload(64, 128, repeats=4).layers[0],
        "input_bits": base.with_bits(input_bits=4),
        "weight_bits": base.with_bits(weight_bits=4),
        "activation_style": dataclasses.replace(
            base, activation_style=ActivationStyle.TRANSFORMER_DENSE_SIGNED
        ),
        "weight_sparsity": dataclasses.replace(base, weight_sparsity=0.5),
        "conv": conv2d_layer("conv", 16, 32, 8, 8, 3),
    }


def _family():
    """A sweep-like family: several axes, repeated sub-tuples."""
    return [
        base_macro(rows=32, cols=32).with_updates(
            adc_resolution=adc, columns_per_adc=columns, input_bits=bits
        )
        for adc in (4, 6)
        for columns in (1, 2)
        for bits in (4, 8)
    ]


class TestTermCacheKeys:
    """``term|v2|`` keys: stable strings of bounded length, split by layer
    exactly where a term consumes the layer's statistics."""

    def test_keys_are_stable_across_calls_and_processes(self):
        keys = _probe_keys()
        assert _probe_keys() == keys
        assert all(key.startswith("term|v2|") for key in keys)
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONHASHSEED"] = "12345"  # a hash()- or id()-based key would move
        probe = subprocess.run(
            [sys.executable, "-c", "import json\n" + KEY_PROBE + "print(json.dumps(keys))\n"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(probe.stdout) == keys

    def test_different_fingerprints_never_share_a_statistic_key(self):
        layers = _distinct_layers()
        contexts = {layer_term_context(layer.fingerprint()) for layer in layers.values()}
        assert len(contexts) == len(layers)
        config = base_macro()
        for spec in ENERGY_TERMS:
            if not spec.roles:
                continue
            sub = term_key(spec, config)
            keys = {energy_term_cache_key(spec, sub, context) for context in contexts}
            assert len(keys) == len(layers), spec.name
        # Through one shared cache, every layer still gets its own numbers.
        cache = TermCache()
        configs = _family()
        for layer in layers.values():
            shared = derive_config_batch(configs, layer, term_cache=cache)
            alone = derive_config_batch(configs, layer, term_cache=None)
            assert shared.energies.tobytes() == alone.energies.tobytes()

    def test_pure_keys_are_shared_across_layers_and_modes(self):
        layers = _distinct_layers()
        contexts = [None] + [
            layer_term_context(layer.fingerprint()) for layer in layers.values()
        ]
        config = base_macro()
        for spec in ENERGY_TERMS:
            sub = term_key(spec, config)
            pure = f"term|v2|{spec.name}|pure|{sub!r}"
            keys = [energy_term_cache_key(spec, sub, context) for context in contexts]
            assert keys[0] == pure  # nominal mode: statistics are constants
            if not spec.roles:
                assert set(keys) == {pure}
        # A second layer re-derives only the statistic-consuming terms, and
        # nominal mode on any layer re-derives nothing the first nominal
        # family derived.
        configs = _family()
        first, second = layers["base"], layers["conv"]
        cache = TermCache()
        derive_config_batch(configs, first, term_cache=cache)
        before = cache.derivations
        derive_config_batch(configs, second, term_cache=cache)
        statistic_keys = {
            (spec.name, term_key(spec, config))
            for spec in ENERGY_TERMS if spec.roles for config in configs
        }
        assert cache.derivations - before == len(statistic_keys)
        derive_config_batch(configs, first, use_distributions=False, term_cache=cache)
        before = cache.derivations
        derive_config_batch(configs, second, use_distributions=False, term_cache=cache)
        assert cache.derivations == before

    def test_key_length_does_not_grow_with_the_fingerprint(self):
        short = matmul_layer("m", m=4, k=4, n=4)
        long = matmul_layer("m" * 4000, m=4, k=4, n=4)
        assert len(repr(long.fingerprint())) > len(repr(short.fingerprint())) + 3900
        short_context = layer_term_context(short.fingerprint())
        long_context = layer_term_context(long.fingerprint())
        assert len(short_context) == len(long_context) == len("dist|") + 32
        assert short_context != long_context
        config = base_macro()
        for spec in ENERGY_TERMS:
            sub = term_key(spec, config)
            assert len(energy_term_cache_key(spec, sub, short_context)) == len(
                energy_term_cache_key(spec, sub, long_context)
            )

    def test_a_key_rebuilt_from_spec_config_and_layer_finds_the_stored_term(self):
        """The deriver stores each term under the key the spec, one config
        and the layer alone rebuild."""
        layer = _distinct_layers()["base"]
        configs = _family()
        cache = TermCache()
        derive_config_batch(configs, layer, term_cache=cache)
        context = layer_term_context(layer.fingerprint())
        hits = cache.hits
        for spec in ENERGY_TERMS:
            key = energy_term_cache_key(spec, term_key(spec, configs[0]), context)
            assert cache.lookup(key) is not None, key
        assert cache.hits - hits == len(ENERGY_TERMS)

    @pytest.mark.parametrize("use_distributions", [True, False])
    def test_matrices_are_bitwise_equal_off_cold_and_warm(self, use_distributions):
        configs = _family()
        cache = TermCache()
        for layer in _distinct_layers().values():
            off = derive_config_batch(
                configs, layer, use_distributions=use_distributions, term_cache=None
            )
            cold = derive_config_batch(
                configs, layer, use_distributions=use_distributions, term_cache=cache
            )
            warm = derive_config_batch(
                configs, layer, use_distributions=use_distributions, term_cache=cache
            )
            assert off.energies.tobytes() == cold.energies.tobytes()
            assert off.energies.tobytes() == warm.energies.tobytes()
