"""Benchmark: the 1k-request service trace replayed under fault injection.

The acceptance gate of the fault-handling layer (`repro.service.faults`
/ `repro.service.chaos`): the same 1000-request trace the throughput
benchmark replays must complete under the standard chaos preset, whose
in-process fault site is corrupted store entries, with **100% correct
results** (request for request, equal to the fault-free replay), no
hung futures, and bounded work amplification (evaluated slot-attempts
— dispatches, isolations and oracle rescues — <= 1.5x the requests
actually dispatched).  At full size the faults must also cost time:
the chaos rounds may not beat the fault-free reference.  The full run
writes a ``BENCH_service_chaos.json`` resilience record at the repo
root.

``SERVICE_CHAOS_REQUESTS`` overrides the trace length (CI smoke runs use
a short one, which asserts correctness-under-faults on every push
without timing the loaded runner; injection-count and quarantine asserts
apply at full size only, where their expectations are far from zero).
"""

import os

from conftest import emit, write_record

from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.replay import generate_trace, replay_coalesced, trace_profile
from repro.service.store import ResultStore

DEFAULT_REQUESTS = 1000
NUM_REQUESTS = int(os.environ.get("SERVICE_CHAOS_REQUESTS", str(DEFAULT_REQUESTS)))
FULL_SIZE = NUM_REQUESTS >= DEFAULT_REQUESTS

#: Smaller arrival windows than the throughput benchmark: more windows
#: means more duplicates arrive after their twin was stored (and maybe
#: corrupted), instead of coalescing onto it in flight.
WINDOW = 32


def test_service_chaos_replay(benchmark, tmp_path):
    trace = generate_trace(
        num_requests=NUM_REQUESTS, duplicate_fraction=0.6, families=3, seed=0
    )
    profile = trace_profile(trace)

    # Fault-free reference replay (same window, cold cache).
    from repro.core.batch import process_energy_cache

    process_energy_cache().invalidate()
    clean_results, clean_s, _, _ = replay_coalesced(trace, window=WINDOW)

    state = {}

    def _chaos():
        # Fresh everything per round: the injector's RNG stream, the
        # disk-backed store (so corrupt-entry injection walks the full
        # quarantine-and-recompute path), and a cold energy cache.
        process_energy_cache().invalidate()
        chaos = ChaosInjector(ChaosConfig.preset(seed=0))
        directory = tmp_path / f"store-{state.get('round', 0)}"
        state["round"] = state.get("round", 0) + 1
        store = ResultStore(directory=directory)
        results, elapsed, scheduler, _ = replay_coalesced(
            trace, window=WINDOW, store=store, chaos=chaos
        )
        state.update(chaos=chaos, store=store, scheduler=scheduler)
        return results, elapsed

    chaos_results, chaos_s = benchmark(_chaos)
    chaos, store, scheduler = state["chaos"], state["store"], state["scheduler"]
    stats = scheduler.stats
    injected = chaos.stats()

    # Gate 1: 100% correct results.  Every recompute and every isolated
    # re-dispatch goes through the same batched machinery, so unless a
    # request drifted onto the scalar oracle the payloads are *equal*,
    # not merely close.
    assert len(chaos_results) == len(clean_results) == len(trace)
    worst = 0.0
    exact = 0
    for chaos_result, clean_result in zip(chaos_results, clean_results):
        assert chaos_result["request_hash"] == clean_result["request_hash"]
        exact += chaos_result == clean_result
        reference = clean_result["summary"]["total_energy_j"]
        delta = abs(chaos_result["summary"]["total_energy_j"] - reference)
        worst = max(worst, delta / reference)
    assert worst <= 1e-9
    if stats.scalar_fallbacks == 0:
        assert exact == len(trace)

    # Gate 2: no hung futures, no failed requests.
    assert not scheduler._pending and not scheduler._inflight
    assert stats.errors == 0

    # Gate 3: bounded work amplification — fault handling may not blow
    # up the work done per request actually dispatched.
    amplification = (
        stats.dispatched_requests + stats.fallbacks + stats.scalar_fallbacks
    ) / max(stats.dispatched_requests, 1)
    assert amplification <= 1.5

    # Gate 4 (full size): the chaos actually happened — injections fired
    # and corrupted store entries were quarantined and recomputed.
    total_injected = sum(injected.values())
    assert total_injected > 0
    if FULL_SIZE:
        assert injected["injected_corruptions"] > 0
        assert store.corrupt_entries > 0

    # Gate 5 (full size): both sides are cold, so the quarantines and
    # recomputes the corruptions cause may only cost time.  A chaos round
    # beating the clean reference means one side's timed window is wrong.
    slowdown = chaos_s / clean_s
    if FULL_SIZE:
        assert slowdown >= 1.0

    record = {
        "benchmark": "service_chaos",
        "requests": len(trace),
        "unique_requests": profile["unique_requests"],
        "families": profile["families"],
        "clean_wall_s": clean_s,
        "chaos_wall_s": chaos_s,
        "chaos_requests_per_s": len(trace) / chaos_s,
        "slowdown_vs_clean": slowdown,
        "eventually_correct_fraction": 1.0,
        "exact_result_fraction": exact / len(trace),
        "max_rel_energy_error": worst,
        "work_amplification": amplification,
        "injections": injected,
        "fallbacks": stats.fallbacks,
        "scalar_fallbacks": stats.scalar_fallbacks,
        "deadline_expired": stats.deadline_expired,
        "errors": stats.errors,
        "store_corrupt_entries": store.corrupt_entries,
    }
    if FULL_SIZE:
        write_record("BENCH_service_chaos.json", record)
    emit(
        "Service chaos replay: fault injection vs fault-free baseline",
        [
            f"trace     {len(trace):5d} requests "
            f"({profile['unique_requests']} unique, {profile['families']} families)",
            f"injected  {injected['injected_corruptions']} store-entry corruptions",
            f"healed    {stats.fallbacks} isolations, "
            f"{stats.scalar_fallbacks} oracle rescues, "
            f"{store.corrupt_entries} quarantined entries",
            f"chaos     {len(trace) / chaos_s:10.1f} requests/s "
            f"({slowdown:.2f}x clean wall time)",
            f"correct   {exact}/{len(trace)} exact, "
            f"max rel energy error {worst:.2e} (gate: 1e-9)",
            f"amplification {amplification:.3f}x (gate: <= 1.5x)",
        ],
    )
