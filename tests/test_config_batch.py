"""Equivalence and accounting tests for config-axis batched derivation.

The batched deriver must reproduce the scalar
:meth:`CiMMacro.per_action_energies` oracle — every published macro
(Table III), every action, identical ordering, max relative error
<= 1e-9 — and :meth:`PerActionEnergyCache.derive_many` must account for
hits, tier hits, and derivations exactly like the scalar ``get`` path.
"""

import pytest

from repro.architecture.macro import CiMMacro
from repro.core.config_batch import (
    AREA_COMPONENTS,
    DERIVED_ACTIONS,
    area_config_batch,
    derive_config_batch,
    max_scalar_area_relative_error,
    max_scalar_relative_error,
)
from repro.core.fast_pipeline import PerActionEnergyCache
from repro.macros.definitions import (
    base_macro,
    digital_cim_macro,
    macro_a,
    macro_b,
    macro_c,
    macro_d,
)
from repro.utils.errors import EvaluationError, ValidationError
from repro.workloads.distributions import profile_layer
from repro.workloads.networks import matrix_vector_workload

GATE = 1e-9

#: Every published macro of the paper's Table III plus the digital CiM.
PUBLISHED = {
    "base_macro": base_macro(),
    "macro_a": macro_a(),
    "macro_b": macro_b(),
    "macro_c": macro_c(),
    "macro_d": macro_d(),
    "digital_cim": digital_cim_macro(),
}


def _layer(rows=64, cols=64, repeats=4):
    return matrix_vector_workload(rows, cols, repeats=repeats).layers[0]


class TestScalarEquivalence:
    def test_published_macros_match_scalar_oracle(self):
        """One heterogeneous family spanning every Table III macro —
        different devices, encodings, nodes, reuse styles — agrees with
        the scalar oracle on every action of every config."""
        layer = _layer()
        distributions = profile_layer(layer)
        result = derive_config_batch(
            tuple(PUBLISHED.values()), layer, distributions
        )
        assert result.actions == DERIVED_ACTIONS
        assert max_scalar_relative_error(result, layer, distributions) <= GATE

    def test_default_profile_path_matches_cache_get(self):
        """distributions=None profiles the layer with defaults, exactly
        like PerActionEnergyCache.get."""
        layer = _layer()
        config = macro_b()
        result = derive_config_batch([config], layer)
        expected = PerActionEnergyCache().get(CiMMacro(config), layer)
        got = result.per_action(0)
        assert tuple(got) == tuple(expected)
        for action, reference in expected.items():
            assert got[action] == pytest.approx(reference, rel=GATE)

    def test_nominal_mode_matches_fixed_energy_scalar(self):
        """use_distributions=False mirrors operand_context(None)."""
        layer = _layer()
        result = derive_config_batch(
            tuple(PUBLISHED.values()), layer, use_distributions=False
        )
        assert max_scalar_relative_error(
            result, layer, use_distributions=False
        ) <= GATE

    def test_dse_grid_matches_scalar_oracle(self):
        """A realistic sweep family (ADC bits x voltage x value-awareness)
        sharing one encoding subkey stays exact."""
        seed = base_macro(rows=64, cols=64)
        grid = [
            seed.with_updates(
                adc_resolution=bits,
                value_aware_adc=aware,
                technology=seed.technology.with_vdd(vdd),
            )
            for bits in (4, 6, 8)
            for vdd in (0.8, 1.0)
            for aware in (False, True)
        ]
        layer = _layer()
        distributions = profile_layer(layer)
        result = derive_config_batch(grid, layer, distributions)
        assert len(result) == len(grid)
        assert max_scalar_relative_error(result, layer, distributions) <= GATE

    def test_tables_round_trip(self):
        layer = _layer()
        result = derive_config_batch([macro_b(), macro_d()], layer)
        tables = result.tables()
        assert len(tables) == 2
        assert tables[0] == result.per_action(0)
        assert all(tuple(table) == DERIVED_ACTIONS for table in tables)

    def test_empty_family_rejected(self):
        with pytest.raises(EvaluationError, match="at least one"):
            derive_config_batch([], _layer())

    def test_invalid_config_fails_like_the_scalar_path(self):
        """Limits that live on the component models (not the config) are
        re-checked, so both paths reject the same designs."""
        rejected = [
            base_macro().with_updates(input_bits=20, weight_bits=20),
            base_macro().with_updates(input_buffer_kib=0),
            base_macro().with_updates(adc_energy_scale=0.0),
        ]
        for bad in rejected:
            with pytest.raises(ValidationError):
                CiMMacro(bad)  # the oracle rejects it...
            with pytest.raises(ValidationError):
                derive_config_batch([bad], _layer())  # ...and so does the batch


class TestDeriveMany:
    def test_cold_grid_accounting(self):
        """A cold (configs x layers) grid: one miss and one derivation per
        cell, tables identical to the scalar get path."""
        cache = PerActionEnergyCache()
        configs = [macro_b(), macro_b().with_updates(adc_resolution=6)]
        layers = [_layer(), _layer(repeats=8)]
        tables = cache.derive_many(configs, layers)
        assert cache.misses == 4 and cache.derivations == 4 and cache.hits == 0
        assert len(cache) == 4
        scalar = PerActionEnergyCache()
        for row, config in enumerate(configs):
            macro = CiMMacro(config)
            for column, layer in enumerate(layers):
                expected = scalar.get(macro, layer)
                got = tables[row][column]
                assert tuple(got) == tuple(expected)
                for action, reference in expected.items():
                    assert got[action] == pytest.approx(reference, rel=GATE)

    def test_warm_grid_is_all_hits(self):
        cache = PerActionEnergyCache()
        configs = [macro_b(), macro_d()]
        layers = [_layer()]
        first = cache.derive_many(configs, layers)
        baseline = cache.derivations
        second = cache.derive_many(configs, layers)
        assert cache.derivations == baseline  # warm: zero new derivations
        assert cache.hits == 2
        assert second[0][0] is first[0][0]  # the cached dicts themselves

    def test_partial_overlap_derives_only_the_gap(self):
        cache = PerActionEnergyCache()
        layer = _layer()
        cache.get(CiMMacro(macro_b()), layer)  # scalar-derived entry
        tables = cache.derive_many([macro_b(), macro_d()], [layer])
        assert cache.hits == 1 and cache.derivations == 2  # 1 scalar + 1 batched
        assert tables[0][0] is cache.get(CiMMacro(macro_b()), layer)

    def test_duplicate_configs_derive_once(self):
        """Duplicate grid slots account like a sequential get() loop:
        one miss + one derivation, every later slot a hit."""
        cache = PerActionEnergyCache()
        config = macro_b()
        tables = cache.derive_many([config, config], [_layer()])
        assert cache.derivations == 1
        assert cache.misses == 1 and cache.hits == 1
        assert tables[0][0] is tables[1][0]

    def test_mixed_get_and_derive_many_share_entries(self):
        """A derive_many-filled entry is a plain cache entry: later scalar
        gets hit it, and vice versa."""
        cache = PerActionEnergyCache()
        layer = _layer()
        [[table]] = cache.derive_many([macro_d()], [layer])
        assert cache.get(CiMMacro(macro_d()), layer) is table
        assert cache.hits == 1 and cache.derivations == 1


class TestAreaBatch:
    def test_published_macros_match_scalar_area_oracle(self):
        """One heterogeneous family spanning every Table III macro — every
        reuse style (and therefore every style-gated component) — agrees
        with the scalar area breakdown on every component."""
        result = area_config_batch(tuple(PUBLISHED.values()))
        assert result.components == AREA_COMPONENTS
        assert max_scalar_area_relative_error(result) <= GATE

    def test_fig10_style_sweep_matches_scalar(self):
        """A DSE-shaped grid (array geometry x ADC resolution x node)
        sharing one seed config matches the scalar oracle per config."""
        seed = base_macro()
        grid = [
            seed.with_updates(
                rows=rows, cols=rows, adc_resolution=adc,
                technology=seed.technology.with_vdd(vdd),
            )
            for rows in (64, 128, 256)
            for adc in (4, 6, 8)
            for vdd in (0.9, 1.0)
        ]
        result = area_config_batch(grid)
        assert max_scalar_area_relative_error(result) <= GATE
        totals = result.totals_um2()
        for index, config in enumerate(grid):
            assert totals[index] == pytest.approx(
                sum(CiMMacro(config).area_breakdown_um2().values()), rel=GATE
            )

    def test_empty_family_is_rejected(self):
        with pytest.raises(EvaluationError):
            area_config_batch([])

    def test_run_grid_reports_batched_areas(self):
        """The sweep runner's per-point area breakdowns come from the
        batched pass and equal the scalar model's."""
        from repro.core.batch import BatchRunner
        from repro.core.model import CiMLoopModel

        network = matrix_vector_workload(32, 32, repeats=2)
        configs = [base_macro(rows=64, cols=64), macro_b()]
        results = BatchRunner(workers=1).run_grid(configs, network)
        for result, config in zip(results, configs):
            expected = CiMLoopModel(config).area_breakdown_um2()
            assert result.target_name == config.name
            assert set(result.area_breakdown_um2) == set(expected)
            for component, reference in expected.items():
                assert result.area_breakdown_um2[component] == pytest.approx(
                    reference, rel=GATE
                )
