"""Tests for the per-action energy cache and its term tier.

Term entries must be reused across families (a warm family derives
nothing, a perturbed one only the terms its axis changed) and shared
with the area model.  The process-wide cache must keep serving repeated
parallel runs without re-deriving, and it stays in memory with its term
tier on whatever ``REPRO_*`` variables the environment holds.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from repro.core import batch
from repro.core.batch import BatchRunner
from repro.core.config_batch import area_config_batch, derive_config_batch
from repro.core.fast_pipeline import PerActionEnergyCache
from repro.core.terms import ENERGY_TERMS, TermCache, term_key
from repro.macros.definitions import base_macro, macro_b
from repro.workloads.networks import matrix_vector_workload


def _layer(repeats=2):
    return matrix_vector_workload(32, 32, repeats=repeats).layers[0]


class TestTermTier:
    """The term-granular cache: per-component terms keyed by config
    sub-tuples, reused across families and shared with the area model."""

    def _grid(self, bits=(4, 5, 6)):
        return [
            base_macro(rows=32, cols=32).with_updates(adc_resolution=b)
            for b in bits
        ]

    def test_warm_identical_family_derives_nothing(self):
        layer = _layer()
        cache = TermCache()
        configs = self._grid()
        cold = derive_config_batch(configs, layer, term_cache=cache)
        derivations = cache.derivations
        assert derivations > 0
        warm = derive_config_batch(configs, layer, term_cache=cache)
        assert cache.derivations == derivations  # warm: zero new terms
        assert np.array_equal(warm.energies, cold.energies)

    def test_perturbed_family_derives_only_changed_terms(self):
        """One axis perturbed: only the terms whose declared sub-tuple the
        axis touches re-derive; the result stays scalar-path identical."""
        layer = _layer()
        cache = TermCache()
        configs = self._grid()
        derive_config_batch(configs, layer, term_cache=cache)
        perturbed = [c.with_updates(adc_energy_scale=1.5) for c in configs]
        adc_spec = next(spec for spec in ENERGY_TERMS if spec.name == "adc")
        changed = len({term_key(adc_spec, config) for config in perturbed})
        before = cache.derivations
        warm = derive_config_batch(perturbed, layer, term_cache=cache)
        assert cache.derivations - before == changed
        reference = derive_config_batch(perturbed, layer, term_cache=None)
        assert np.array_equal(warm.energies, reference.energies)

    def test_area_terms_share_the_cache(self):
        cache = TermCache()
        configs = self._grid()
        cold = area_config_batch(configs, term_cache=cache)
        derivations = cache.derivations
        assert derivations > 0
        warm = area_config_batch(configs, term_cache=cache)
        assert cache.derivations == derivations
        assert np.array_equal(warm.areas, cold.areas)

    def test_custom_cell_library_bypasses_the_term_cache(self):
        """Term entries assume the default cell library; an explicit
        library must leave the cache untouched."""
        from repro.devices.nvmexplorer import default_cell_library

        cache = TermCache()
        derive_config_batch(
            self._grid(), _layer(),
            cell_library=default_cell_library(), term_cache=cache,
        )
        assert len(cache) == 0 and cache.derivations == 0

    def test_cache_stats_surface_the_term_tier(self):
        cache = PerActionEnergyCache(terms=TermCache())
        cache.derive_many(self._grid(), [_layer()])
        stats = cache.stats()
        assert stats["term_tier"] is not None
        assert stats["term_tier"]["entries"] > 0
        assert stats["term_tier"]["derivations"] > 0
        cache.invalidate()
        assert cache.stats()["term_tier"]["entries"] == 0


class TestWorkerPersistentCache:
    def test_repeated_mapping_search_derives_once(self):
        """Default-profiled mapping searches resolve through the process
        cache: the warm second run adds zero derivations."""
        layer = _layer()
        shared = batch.process_energy_cache()
        runner = BatchRunner(workers=1)
        runner.mapping_search(macro_b(), [layer], 4)
        baseline = shared.misses
        runner.mapping_search(macro_b(), [layer], 4)
        assert shared.misses == baseline  # warm: zero new derivations

    def test_repeated_grid_runs_derive_once(self):
        """Macro-only grid cells share the process cache, so re-running the
        same grid re-derives nothing."""
        from repro.workloads.networks import Network

        layer = _layer()
        network = Network(name="single", layers=(layer,))
        shared = batch.process_energy_cache()
        configs = [macro_b(), macro_b().with_updates(adc_resolution=6)]
        first = BatchRunner(workers=1).run_grid(configs, network)
        baseline = shared.misses
        second = BatchRunner(workers=1).run_grid(configs, network)
        assert shared.misses == baseline
        for a, b in zip(first, second):
            assert a.total_energy == b.total_energy

    def test_grid_cache_matches_uncached_model_path(self):
        """The cached grid-cell fast path must equal CiMLoopModel's serial
        evaluation bit for bit."""
        from repro.core.model import CiMLoopModel
        from repro.workloads.networks import Network

        layer = _layer(repeats=3)
        network = Network(name="single", layers=(layer,))
        config = base_macro(rows=32, cols=32)
        grid = BatchRunner(workers=1).run_grid([config], network)
        expected = CiMLoopModel(config).evaluate(network)
        assert grid[0].total_energy == expected.total_energy


#: Run in a fresh interpreter: the process-wide cache is built when
#: ``repro.core.batch`` is imported, so the environment must be set first.
_DERIVE_IN_A_FRESH_PROCESS = textwrap.dedent("""
    import json

    from repro.core.batch import process_energy_cache
    from repro.macros.definitions import base_macro
    from repro.workloads.networks import matrix_vector_workload

    cache = process_energy_cache()
    layer = matrix_vector_workload(32, 32, repeats=2).layers[0]
    configs = [
        base_macro(rows=32, cols=32).with_updates(adc_resolution=bits)
        for bits in (4, 5)
    ]
    cache.derive_many(configs, [layer])
    print(json.dumps({
        "term_tier": cache.terms is not None,
        "misses": cache.misses,
    }))
""")


def test_removed_energy_cache_knobs_are_inert(tmp_path):
    """``REPRO_ENERGY_CACHE_*`` and ``REPRO_TERM_CACHE`` are no longer
    read: the process cache keeps its term tier and writes no file."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        REPRO_ENERGY_CACHE_DIR=str(tmp_path / "energy"),
        REPRO_ENERGY_CACHE_MAX_ENTRIES="1",
        REPRO_ENERGY_CACHE_MAX_BYTES="1",
        REPRO_TERM_CACHE="0",
    )
    probe = subprocess.run(
        [sys.executable, "-c", _DERIVE_IN_A_FRESH_PROCESS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    written = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*"))
    report = json.loads(probe.stdout)
    assert (report, written) == ({"term_tier": True, "misses": 2}, [])
