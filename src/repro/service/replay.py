"""Trace generation and replay drivers for the evaluation service.

A *trace* is a JSONL file of request payloads — the service's unit of
offline benchmarking.  :func:`generate_trace` synthesises one with the
statistical shape of real service traffic (a bounded pool of unique
requests sampled with heavy repetition, spread over several config
families); :func:`replay_coalesced` pushes a trace through the
coalescing scheduler in arrival windows, and :func:`replay_serial` is
the baseline it is measured against: the pre-service workflow of
importing the library and evaluating each request independently, with
nothing shared between requests.

Both replays return per-request result payloads in trace order, so a
benchmark can assert the coalesced path returns the same energies as
the serial one while being several times faster (``BENCH_service.json``).
"""

from __future__ import annotations

import json
import math
import random
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.service.requests import EvaluationRequest
from repro.service.scheduler import EvaluationScheduler
from repro.service.settings import ServiceSettings
from repro.service.store import ResultStore

#: Workloads the synthetic trace spreads its families over (distinct
#: single-layer MVM geometries -> distinct scheduler families).
_TRACE_WORKLOADS = ("mvm_48x48", "mvm_64x64", "mvm_96x96", "mvm_64x128")

#: Arrival shapes :func:`generate_trace` can synthesise.  All shapes
#: share the same unique-request pool (so ``duplicate_fraction`` stays
#: exact by construction); they differ in *which* uniques fill the
#: duplicate slots and in arrival order:
#:
#: * ``uniform`` — duplicates drawn uniformly, fully shuffled (the
#:   original shape).
#: * ``hotspot`` — Zipf-like popularity: a few requests dominate the
#:   duplicate mass, stressing one shard's store and in-flight dedup.
#: * ``bursty`` — duplicates arrive as contiguous runs of the same
#:   request, stressing window-level coalescing.
#: * ``diurnal`` — the trace is phased; each phase's traffic leans
#:   heavily on one config family, modelling load that migrates over a
#:   day, stressing cross-shard store sharing as phases hand over.
TRACE_SHAPES = ("uniform", "diurnal", "bursty", "hotspot")

#: Config-override axes of the synthetic trace's unique-request pool
#: (their product, times the family count, bounds the pool size).
_TRACE_ADC_BITS = (4, 5, 6, 7, 8)
_TRACE_VDD = (0.9, 1.0, 1.1)
_TRACE_COLUMNS_PER_ADC = (4, 8, 16)
_TRACE_INPUT_BITS = (8, 6, 4)


def generate_trace(
    num_requests: int = 1000,
    duplicate_fraction: float = 0.6,
    families: int = 3,
    seed: int = 0,
    path: Optional[Union[str, Path]] = None,
    shape: str = "uniform",
) -> List[Dict]:
    """Synthesise a service trace: repetitive requests over few families.

    The trace holds ``num_requests`` payloads drawn from a unique pool of
    ``~num_requests * (1 - duplicate_fraction)`` requests spread
    round-robin over ``families`` config families (distinct workloads),
    each family sweeping ADC resolution x supply voltage.  Every unique
    request appears at least once, so the duplicate fraction is exact by
    construction regardless of ``shape`` (one of :data:`TRACE_SHAPES`),
    which controls arrival order and duplicate popularity.  When ``path``
    is given the trace is also written as JSONL (one request object per
    line).
    """
    if not 1 <= families <= len(_TRACE_WORKLOADS):
        raise ValueError(f"families must be in [1, {len(_TRACE_WORKLOADS)}]")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1)")
    if shape not in TRACE_SHAPES:
        raise ValueError(
            f"unknown trace shape {shape!r}; available: {', '.join(TRACE_SHAPES)}"
        )
    unique_count = max(int(num_requests * (1.0 - duplicate_fraction)), 1)
    unique: List[Dict] = []
    unique_family: List[int] = []
    # Walk the override grid family-round-robin so every family gets its
    # share of the pool; the pool is genuinely duplicate-free, so the
    # requested duplicate fraction is met exactly (or exceeded when the
    # grid is smaller than the requested pool).
    grid = [
        (workload_index, adc, vdd, ways, bits)
        for bits in _TRACE_INPUT_BITS
        for ways in _TRACE_COLUMNS_PER_ADC
        for vdd in _TRACE_VDD
        for adc in _TRACE_ADC_BITS
        for workload_index in range(families)
    ]
    for workload_index, adc, vdd, ways, bits in grid[:unique_count]:
        request = EvaluationRequest(
            macro="base_macro",
            overrides={
                "adc_resolution": adc,
                "vdd": vdd,
                "columns_per_adc": ways,
                "input_bits": bits,
            },
            workload=_TRACE_WORKLOADS[workload_index],
            objective="energy",
        )
        unique.append(request.to_dict())
        unique_family.append(workload_index)
    rng = random.Random(seed)
    fills = max(num_requests - len(unique), 0)
    if shape == "uniform":
        trace = list(unique) + [rng.choice(unique) for _ in range(fills)]
        rng.shuffle(trace)
    elif shape == "hotspot":
        # Zipf-ish popularity over a seed-shuffled ranking: rank r gets
        # weight 1/(r+1), so the top few uniques absorb most duplicates.
        ranked = list(unique)
        rng.shuffle(ranked)
        weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
        trace = list(unique) + rng.choices(ranked, weights=weights, k=fills)
        rng.shuffle(trace)
    elif shape == "bursty":
        trace = list(unique)
        rng.shuffle(trace)
        while fills > 0:
            # A burst: the same request arriving back to back, spliced
            # into the timeline at a random point.
            run = min(rng.randint(2, 16), fills)
            position = rng.randrange(len(trace) + 1)
            trace[position:position] = [rng.choice(unique)] * run
            fills -= run
    else:  # diurnal
        # One phase per family; each phase's traffic is ~80% its own
        # (hot) family, so the dominant load migrates across families
        # over the trace the way real traffic migrates over a day.
        by_family: List[List[Dict]] = [[] for _ in range(families)]
        for payload, family in zip(unique, unique_family):
            by_family[family].append(payload)
        base, remainder = divmod(fills, families)
        phases: List[List[Dict]] = []
        for family in range(families):
            hot = by_family[family] or unique
            phase = list(by_family[family])
            for _ in range(base + (1 if family < remainder else 0)):
                pool = hot if rng.random() < 0.8 else unique
                phase.append(rng.choice(pool))
            rng.shuffle(phase)
            phases.append(phase)
        trace = [entry for phase in phases for entry in phase]
    trace = trace[:num_requests]
    if path is not None:
        Path(path).write_text(
            "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in trace)
        )
    return trace


def load_trace(path: Union[str, Path]) -> List[Dict]:
    """Read a JSONL trace back into request payloads."""
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


def trace_profile(trace: Sequence[Dict]) -> Dict[str, object]:
    """Shape statistics of a trace (duplication, family spread)."""
    requests = [EvaluationRequest.from_dict(entry) for entry in trace]
    hashes = [request.content_hash() for request in requests]
    families = {request.family_key() for request in requests}
    unique = len(set(hashes))
    return {
        "requests": len(requests),
        "unique_requests": unique,
        "duplicate_fraction": 1.0 - unique / max(len(requests), 1),
        "families": len(families),
    }


def latency_percentiles(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 of per-request latencies, reported in milliseconds.

    Nearest-rank percentiles over the full population (no
    interpolation), so small benchmark runs report latencies that were
    actually observed.
    """
    if not latencies_s:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    ordered = sorted(latencies_s)

    def rank(q: float) -> float:
        index = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
        return ordered[index] * 1000.0

    return {"p50_ms": rank(50), "p95_ms": rank(95), "p99_ms": rank(99)}


def _windowed(requests: Sequence[EvaluationRequest], window: int):
    step = max(window, 1)
    for begin in range(0, len(requests), step):
        yield begin, requests[begin:begin + step]


def replay_coalesced(
    trace: Sequence[Dict],
    window: int = 128,
    store: Optional[ResultStore] = None,
    chaos=None,
) -> Tuple[List[Dict], float, EvaluationScheduler, List[float]]:
    """Replay a trace through the coalescing scheduler.

    Requests arrive in windows of ``window`` (modelling concurrent
    in-flight traffic): duplicates inside a window coalesce onto one
    pending slot, duplicates across windows hit the result store, and
    each window's survivors dispatch in one family-batched tick.
    ``chaos`` (a :class:`~repro.service.chaos.ChaosConfig` or
    :class:`~repro.service.chaos.ChaosInjector`) replays the trace under
    deterministic store-entry corruption — the results must still be
    correct, which is exactly what the chaos benchmark asserts.
    Returns ``(results in trace order, elapsed seconds, scheduler,
    per-request latencies in seconds)``; each latency runs from the
    request's arrival (its window starting to submit) to its future
    resolving, feeding :func:`latency_percentiles`.
    """
    scheduler = EvaluationScheduler(store=store, chaos=chaos)
    requests = [EvaluationRequest.from_dict(entry) for entry in trace]
    latencies: List[float] = [0.0] * len(requests)
    start = time.perf_counter()
    results: List[Dict] = []
    for begin, chunk in _windowed(requests, window):
        arrival = time.perf_counter()
        futures = []
        for offset, request in enumerate(chunk):
            future = scheduler.submit(request)
            future.add_done_callback(
                lambda done, i=begin + offset, t=arrival:
                    latencies.__setitem__(i, time.perf_counter() - t)
            )
            futures.append(future)
        scheduler.run_pending()
        results.extend(future.result() for future in futures)
    elapsed = time.perf_counter() - start
    return results, elapsed, scheduler, latencies


def replay_sharded(
    trace: Sequence[Dict],
    shards: int = 4,
    window: int = 128,
    store_dir: Optional[Union[str, Path]] = None,
    cold_start: bool = True,
    fleet=None,
    supervise: bool = True,
    fleet_chaos=None,
) -> Tuple[List[Dict], float, Dict, List[float]]:
    """Replay a trace through a shard fleet (the parallel counterpart).

    Each window reaches the fleet in one ``submit_many`` call: duplicates
    of a hash already in flight stop at the front end, the rest route by
    content hash across ``shards`` worker processes (one frame per
    shard), which coalesce/dedup/store-hit independently and share one
    disk result tier (a temporary directory when ``store_dir``
    is not given).  ``cold_start`` makes each worker invalidate its
    fork-inherited energy cache, so a benchmark compares cold fleet
    against cold single scheduler.  Pass an existing ``fleet`` to reuse
    one (the caller then owns its lifecycle).  Returns ``(results in
    trace order, elapsed seconds, final fleet health, per-request
    latencies in seconds)``.

    ``supervise`` attaches a :class:`FleetSupervisor` to a replay-owned
    fleet: heartbeat failure detection, crash recovery, in-flight
    re-dispatch, and respawns — a SIGKILLed shard costs latency, never
    results.  ``fleet_chaos`` (a :class:`~repro.service.chaos.ChaosConfig`
    or ready-made :class:`~repro.service.chaos.ChaosInjector`) arms the
    fleet-fabric faults during the replay: scheduled shard SIGKILLs and
    frame corruption.  The final health payload then carries a
    ``fleet_chaos`` stats block.
    """
    from repro.service.chaos import ChaosConfig, ChaosInjector
    from repro.service.shard.frontend import FleetSupervisor
    from repro.service.shard.worker import ShardFleet

    requests = [EvaluationRequest.from_dict(entry) for entry in trace]
    injector = None
    if fleet_chaos is not None:
        injector = (
            ChaosInjector(fleet_chaos, trace_len=len(requests))
            if isinstance(fleet_chaos, ChaosConfig) else fleet_chaos
        )
    own_fleet = fleet is None
    tempdir: Optional[tempfile.TemporaryDirectory] = None
    supervisor = None
    if own_fleet:
        if store_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-shard-replay-")
            store_dir = tempdir.name
        fleet = ShardFleet(shards=shards, cold_start=cold_start, settings=replace(
            ServiceSettings.from_env(), store_dir=str(store_dir)))
        if supervise:
            supervisor = FleetSupervisor(fleet).start()
    if injector is not None:
        injector.install(fleet)
    latencies: List[float] = [0.0] * len(requests)
    try:
        start = time.perf_counter()
        results: List[Dict] = []
        for begin, chunk in _windowed(requests, window):
            arrival = time.perf_counter()
            # A window reaches the fleet in one call, unless a scheduled
            # kill falls inside it: the kill then fires between two calls,
            # while the members before it are in flight.
            cuts = sorted(
                index - begin for index in (injector.kill_at if injector else ())
                if begin < index < begin + len(chunk)
            )
            futures = []
            for low, high in zip([0] + cuts, cuts + [len(chunk)]):
                if injector is not None:
                    injector.on_request(begin + low)
                for offset, outcome in enumerate(
                    fleet.submit_many(chunk[low:high]), start=low
                ):
                    if isinstance(outcome, Exception):
                        raise outcome
                    outcome.add_done_callback(
                        lambda done, i=begin + offset, t=arrival:
                            latencies.__setitem__(i, time.perf_counter() - t)
                    )
                    futures.append(outcome)
            results.extend(future.result() for future in futures)
        elapsed = time.perf_counter() - start
        if injector is not None:
            # Disarm before the health sweep + drain: teardown traffic
            # must not be corrupted into fake crashes.
            injector.uninstall()
        health = fleet.health()
        if injector is not None:
            health["fleet_chaos"] = injector.stats()
    finally:
        if injector is not None:
            injector.uninstall()
        if own_fleet:
            fleet.close()
        if tempdir is not None:
            tempdir.cleanup()
    return results, elapsed, health, latencies


def evaluate_serial(request: EvaluationRequest) -> Dict:
    """Evaluate one request the pre-service way: a fresh model, no sharing.

    This is the baseline the coalescing scheduler is measured against —
    exactly what "import the library and call it" costs per request,
    with no result store, no in-flight dedup, no config-axis batching,
    and no cache reuse across requests.  The implementation lives in the
    scheduler module (:func:`~repro.service.scheduler.evaluate_scalar`)
    because the same oracle path doubles as the scheduler's last-resort
    per-request fallback; this alias keeps the replay-facing name.
    """
    from repro.service.scheduler import evaluate_scalar

    return evaluate_scalar(request)


def replay_serial(trace: Sequence[Dict]) -> Tuple[List[Dict], float]:
    """Replay a trace one request at a time with no sharing at all."""
    requests = [EvaluationRequest.from_dict(entry) for entry in trace]
    start = time.perf_counter()
    results = [evaluate_serial(request) for request in requests]
    elapsed = time.perf_counter() - start
    return results, elapsed
