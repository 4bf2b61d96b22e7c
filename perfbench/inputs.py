"""Deterministic request bodies for the perfbench workloads.

Standard library only, and never imports ``repro``: the inputs are a pure
function of the workload seed, so no change under ``src/`` can change
what the benchmark sends.  The server only ever sees the encoded bodies.

Workloads
---------
``hot_single`` / ``fleet_hot``
    A pool of :data:`HOT_POOL_SIZE` unique ``energy`` requests on
    ``base_macro`` over three single-layer MVM workloads, drawn
    Zipf-style: pool rank ``r`` has weight ``1 / (r + 1)``.  The same
    seed gives the same pool and ranking on both workloads, so their
    results can be compared key by key.
``sweep_fresh``
    Batches of :data:`SWEEP_BATCH` design points crossing the six
    :data:`AXES`.  Each batch holds 21 unique ``energy`` points, 3 unique
    ``mappings`` points and 8 in-batch duplicates (7 energy, 1
    mappings), shuffled; no design point repeats across batches.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List, Tuple

MACRO = "base_macro"

#: Config-override axes of every generated design point.
AXES: Tuple[Tuple[str, Tuple], ...] = (
    ("adc_resolution", (3, 4, 5, 6, 7, 8)),
    ("vdd", (0.8, 0.9, 1.0, 1.1, 1.2)),
    ("columns_per_adc", (2, 4, 8, 16, 32)),
    ("input_bits", (4, 5, 6, 7, 8)),
    ("weight_bits", (4, 5, 6, 7, 8)),
    ("rows", (64, 128, 256, 512)),
)

HOT_WORKLOADS = ("mvm_64x64", "mvm_96x96", "mvm_64x128")
HOT_POOL_SIZE = 400
FLEET_BATCH = 32

SWEEP_ENERGY_WORKLOADS = ("resnet18", "conv_16x16x64", "mvm_128x128", "mvm_64x256")
SWEEP_MAPPINGS_WORKLOAD = "conv_16x16x64"
SWEEP_NUM_MAPPINGS = 2000
SWEEP_BATCH = 32
SWEEP_UNIQUE_ENERGY = 21
SWEEP_UNIQUE_MAPPINGS = 3
SWEEP_DUPLICATE_ENERGY = 7
SWEEP_DUPLICATE_MAPPINGS = 1


def encode(payload: Dict) -> bytes:
    """The wire form of one request object (compact, sorted keys)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _configs(rng: random.Random) -> List[Dict]:
    """Every axis combination, in a seed-shuffled order."""
    names = [name for name, _ in AXES]
    grid = [dict(zip(names, values))
            for values in itertools.product(*(values for _, values in AXES))]
    rng.shuffle(grid)
    return grid


def energy_request(workload: str, overrides: Dict) -> Dict:
    return {"macro": MACRO, "objective": "energy", "workload": workload,
            "overrides": dict(overrides)}


def mappings_request(overrides: Dict) -> Dict:
    return {"macro": MACRO, "objective": "mappings",
            "workload": SWEEP_MAPPINGS_WORKLOAD,
            "num_mappings": SWEEP_NUM_MAPPINGS, "overrides": dict(overrides)}


def hot_pool(seed: int) -> List[Dict]:
    """The unique hot requests, in popularity-rank order (rank 0 first)."""
    rng = random.Random(f"hot-pool/{seed}")
    configs = _configs(rng)
    return [energy_request(HOT_WORKLOADS[index % len(HOT_WORKLOADS)], configs[index])
            for index in range(HOT_POOL_SIZE)]


def zipf_weights(size: int) -> List[float]:
    return [1.0 / (rank + 1) for rank in range(size)]


def hot_draws(seed: int, count: int, stream: str) -> List[int]:
    """``count`` Zipf-distributed pool indices; ``stream`` names the use."""
    rng = random.Random(f"hot-draws/{stream}/{seed}")
    return rng.choices(range(HOT_POOL_SIZE), weights=zipf_weights(HOT_POOL_SIZE), k=count)


def fleet_batches(seed: int, count: int) -> List[List[int]]:
    """``count`` batches of :data:`FLEET_BATCH` pool indices each."""
    draws = hot_draws(seed, count * FLEET_BATCH, "fleet")
    return [draws[start:start + FLEET_BATCH]
            for start in range(0, len(draws), FLEET_BATCH)]


def sweep_batches(seed: int, count: int) -> List[List[Dict]]:
    """``count`` sweep batches; no design point repeats across batches."""
    rng = random.Random(f"sweep/{seed}")
    energy_configs = iter(_configs(rng))
    mapping_configs = iter(_configs(rng))
    # Every batch gets the same workload mix, so batches cost alike.
    mix = [SWEEP_ENERGY_WORKLOADS[slot % len(SWEEP_ENERGY_WORKLOADS)]
           for slot in range(SWEEP_UNIQUE_ENERGY)]
    batches = []
    for _ in range(count):
        energy = [energy_request(workload, next(energy_configs)) for workload in mix]
        mappings = [mappings_request(next(mapping_configs))
                    for _ in range(SWEEP_UNIQUE_MAPPINGS)]
        batch = (energy + mappings
                 + [rng.choice(energy) for _ in range(SWEEP_DUPLICATE_ENERGY)]
                 + [rng.choice(mappings) for _ in range(SWEEP_DUPLICATE_MAPPINGS)])
        rng.shuffle(batch)
        batches.append(batch)
    return batches

