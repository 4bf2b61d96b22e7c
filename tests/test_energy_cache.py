"""Persistence tests for the per-action energy caches.

The disk-backed :class:`DiskEnergyCache` must round-trip energies across
cache instances (zero derivations on a warm run), key on the full frozen
config + layer fingerprint (any design change lands on a different
entry), and recover from corrupted files by recomputing.  The
process-wide cache must keep serving repeated parallel runs without
re-deriving.
"""

import json

import numpy as np
import pytest

from repro.architecture.macro import CiMMacro
from repro.core import batch
from repro.core.batch import BatchRunner
from repro.core.config_batch import area_config_batch, derive_config_batch
from repro.core.fast_pipeline import DiskEnergyCache, PerActionEnergyCache
from repro.core.terms import ENERGY_TERMS, TermCache, term_key
from repro.macros.definitions import base_macro, macro_b
from repro.workloads.networks import matrix_vector_workload


def _layer(repeats=2):
    return matrix_vector_workload(32, 32, repeats=repeats).layers[0]


class TestDiskEnergyCache:
    def test_round_trip_is_derivation_free(self, tmp_path):
        macro = CiMMacro(base_macro(rows=32, cols=32))
        layer = _layer()
        cold = PerActionEnergyCache(disk=DiskEnergyCache(tmp_path))
        first = cold.get(macro, layer)
        assert cold.derivations == 1 and cold.disk_hits == 0

        warm = PerActionEnergyCache(disk=DiskEnergyCache(tmp_path))
        second = warm.get(macro, layer)
        assert warm.derivations == 0  # acceptance: zero derivations when warm
        assert warm.disk_hits == 1 and warm.misses == 1
        assert second == pytest.approx(first)
        # And a repeat get is now a pure memory hit.
        warm.get(macro, layer)
        assert warm.hits == 1 and warm.derivations == 0

    def test_config_change_invalidates_by_fingerprint(self, tmp_path):
        layer = _layer()
        first = PerActionEnergyCache(disk=DiskEnergyCache(tmp_path))
        first.get(CiMMacro(base_macro(rows=32, cols=32)), layer)

        changed = PerActionEnergyCache(disk=DiskEnergyCache(tmp_path))
        changed.get(
            CiMMacro(base_macro(rows=32, cols=32).with_updates(adc_resolution=6)),
            layer,
        )
        assert changed.derivations == 1  # different config: not served stale
        assert len(DiskEnergyCache(tmp_path)) == 2  # distinct entries on disk

        relayered = PerActionEnergyCache(disk=DiskEnergyCache(tmp_path))
        relayered.get(CiMMacro(base_macro(rows=32, cols=32)), _layer(repeats=3))
        assert relayered.derivations == 1  # different layer fingerprint too

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        macro = CiMMacro(base_macro(rows=32, cols=32))
        layer = _layer()
        disk = DiskEnergyCache(tmp_path)
        seeded = PerActionEnergyCache(disk=disk)
        original = seeded.get(macro, layer)

        path = disk.path_for(PerActionEnergyCache.key_for(macro, layer))
        path.write_text("{not json")
        repaired = PerActionEnergyCache(disk=DiskEnergyCache(tmp_path))
        energies = repaired.get(macro, layer)
        assert repaired.derivations == 1  # corrupted entry: recomputed
        assert repaired.disk.load_failures == 1
        assert energies == pytest.approx(original)
        # The recompute rewrote a valid entry for the next process.
        assert json.loads(path.read_text())["energies"]

    def test_version_and_key_mismatches_are_misses(self, tmp_path):
        macro = CiMMacro(base_macro(rows=32, cols=32))
        layer = _layer()
        disk = DiskEnergyCache(tmp_path)
        key = PerActionEnergyCache.key_for(macro, layer)
        PerActionEnergyCache(disk=disk).get(macro, layer)

        payload = json.loads(disk.path_for(key).read_text())
        payload["version"] = 999
        disk.path_for(key).write_text(json.dumps(payload))
        assert DiskEnergyCache(tmp_path).load(key) is None

        payload["version"] = DiskEnergyCache.VERSION
        payload["key"] = "someone-else"
        disk.path_for(key).write_text(json.dumps(payload))
        assert DiskEnergyCache(tmp_path).load(key) is None

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ENERGY_CACHE_DIR", raising=False)
        assert DiskEnergyCache.from_env() is None
        monkeypatch.setenv("REPRO_ENERGY_CACHE_DIR", str(tmp_path / "store"))
        cache = DiskEnergyCache.from_env()
        assert cache is not None and cache.directory.is_dir()

    def test_from_env_reads_bounds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENERGY_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_ENERGY_CACHE_MAX_ENTRIES", "7")
        monkeypatch.setenv("REPRO_ENERGY_CACHE_MAX_BYTES", "bogus")  # ignored
        cache = DiskEnergyCache.from_env()
        assert cache.max_entries == 7 and cache.max_bytes is None


class TestDiskEnergyCacheEviction:
    def _fill(self, disk, count):
        """Store ``count`` distinct entries (distinct configs) in order."""
        layer = _layer()
        keys = []
        for index in range(count):
            macro = CiMMacro(base_macro(rows=32, cols=32).with_updates(
                adc_resolution=4 + index
            ))
            PerActionEnergyCache(disk=disk).get(macro, layer)
            keys.append(PerActionEnergyCache.key_for(macro, layer))
        return keys

    def test_entry_bound_evicts_least_recently_used(self, tmp_path):
        disk = DiskEnergyCache(tmp_path, max_entries=2)
        import time

        layer = _layer()
        keys = []
        for index in range(2):
            macro = CiMMacro(base_macro(rows=32, cols=32).with_updates(
                adc_resolution=4 + index
            ))
            PerActionEnergyCache(disk=disk).get(macro, layer)
            keys.append(PerActionEnergyCache.key_for(macro, layer))
            time.sleep(0.01)  # keep mtimes ordered on coarse filesystems
        # Touch the older entry so the *newer* one becomes the LRU victim.
        assert disk.load(keys[0]) is not None
        time.sleep(0.01)
        third_macro = CiMMacro(base_macro(rows=32, cols=32).with_updates(
            adc_resolution=9
        ))
        PerActionEnergyCache(disk=disk).get(third_macro, layer)

        assert len(disk) == 2 and disk.evictions == 1
        assert disk.load(keys[0]) is not None  # recently used: kept
        assert disk.load(keys[1]) is None  # LRU: evicted
        assert disk.load(PerActionEnergyCache.key_for(third_macro, layer)) is not None

    def test_byte_bound_keeps_newest_entries(self, tmp_path):
        probe = DiskEnergyCache(tmp_path / "probe")
        self._fill(probe, 1)
        entry_bytes = next(probe.directory.glob("energy-*.json")).stat().st_size

        disk = DiskEnergyCache(tmp_path / "bounded", max_bytes=int(entry_bytes * 2.5))
        self._fill(disk, 4)
        assert len(disk) == 2  # 2.5 entries of budget -> 2 newest survive
        assert disk.evictions == 2

    def test_newest_entry_survives_an_impossible_byte_budget(self, tmp_path):
        disk = DiskEnergyCache(tmp_path, max_bytes=1)
        self._fill(disk, 2)
        assert len(disk) == 1  # the just-written entry is never evicted

    def test_unbounded_cache_never_evicts(self, tmp_path):
        disk = DiskEnergyCache(tmp_path)
        self._fill(disk, 3)
        assert len(disk) == 3 and disk.evictions == 0

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskEnergyCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            DiskEnergyCache(tmp_path, max_bytes=0)


class TestTermTier:
    """The term-granular cache: per-component terms keyed by config
    sub-tuples, reused across families, shared with the area model, and
    persisted through the disk tier."""

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

    def test_disk_tier_round_trips_terms(self, tmp_path):
        layer = _layer()
        configs = self._grid()
        cold_cache = TermCache(disk=DiskEnergyCache(tmp_path))
        cold = derive_config_batch(configs, layer, term_cache=cold_cache)
        assert cold_cache.derivations > 0

        fresh = TermCache(disk=DiskEnergyCache(tmp_path))
        warm = derive_config_batch(configs, layer, term_cache=fresh)
        assert fresh.derivations == 0  # every term served from disk
        assert fresh.disk_hits > 0
        assert np.array_equal(warm.energies, cold.energies)

    def test_area_terms_share_the_cache(self):
        cache = TermCache()
        configs = self._grid()
        cold = area_config_batch(configs, term_cache=cache)
        derivations = cache.derivations
        assert derivations > 0
        warm = area_config_batch(configs, term_cache=cache)
        assert cache.derivations == derivations
        assert np.array_equal(warm.areas, cold.areas)

    def test_from_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERM_CACHE", "0")
        assert TermCache.from_env() is None
        monkeypatch.delenv("REPRO_TERM_CACHE", raising=False)
        assert TermCache.from_env() is not None

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
        baseline = shared.derivations
        runner.mapping_search(macro_b(), [layer], 4)
        assert shared.derivations == baseline  # warm: zero new derivations

    def test_repeated_grid_runs_derive_once(self):
        """Macro-only grid cells share the process cache, so re-running the
        same grid re-derives nothing."""
        from repro.workloads.networks import Network

        layer = _layer()
        network = Network(name="single", layers=(layer,))
        shared = batch.process_energy_cache()
        configs = [macro_b(), macro_b().with_updates(adc_resolution=6)]
        first = BatchRunner(workers=1).run_grid(configs, network)
        baseline = shared.derivations
        second = BatchRunner(workers=1).run_grid(configs, network)
        assert shared.derivations == baseline
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