"""Benchmark: a sharded replay surviving shard SIGKILLs mid-flight.

The acceptance gate of the self-healing fleet (`repro.service.shard` +
`FleetSupervisor`): a 4k-request hotspot trace replayed through 4 shard
workers, with whole shard processes SIGKILLed at scheduled points
mid-replay (plus a low rate of frame corruption), must complete
**4000/4000 results bitwise-identical to the fault-free sharded
replay** — zero lost requests, zero hung futures, every crashed shard's
in-flight work re-dispatched to survivors and the shard respawned back
onto the ring.  Re-dispatch amplification (extra dispatches per traced
request) must stay under 1.5x.  The full run writes a
``BENCH_service_fleet_chaos.json`` resilience record at the repo root.

``SERVICE_FLEET_CHAOS_REQUESTS`` / ``_SHARDS`` / ``_KILLS`` override the
scale (CI smoke replays a short trace through 2 shards with 1 kill,
asserting the zero-loss contract on every push without the full-size
timing).
"""

import json
import os
from pathlib import Path

from conftest import emit

from repro.service.chaos import ChaosConfig
from repro.service.replay import generate_trace, replay_sharded, trace_profile

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_REQUESTS = 4000
NUM_REQUESTS = int(
    os.environ.get("SERVICE_FLEET_CHAOS_REQUESTS", str(DEFAULT_REQUESTS))
)
SHARDS = int(os.environ.get("SERVICE_FLEET_CHAOS_SHARDS", "4"))
KILLS = int(os.environ.get("SERVICE_FLEET_CHAOS_KILLS", "2"))
FULL_SIZE = NUM_REQUESTS >= DEFAULT_REQUESTS

#: Small arrival windows: many windows in flight across the kill points,
#: so every scheduled SIGKILL lands on a shard with real in-flight work.
WINDOW = 64


def test_service_fleet_chaos_replay(benchmark, tmp_path):
    trace = generate_trace(
        num_requests=NUM_REQUESTS, duplicate_fraction=0.6, families=4,
        seed=0, shape="hotspot",
    )
    profile = trace_profile(trace)

    # Fault-free reference replay: same shards, same windows, cold
    # workers, its own store directory.
    clean_results, clean_s, clean_health, _ = replay_sharded(
        trace, shards=SHARDS, window=WINDOW,
        store_dir=tmp_path / "store-clean",
    )
    assert clean_health["status"] == "ok"

    state = {"round": 0}

    def _chaos():
        # Fresh per round: the kill schedule, the injector RNG stream,
        # and the shared disk tier (so recovery is never served by a
        # previous round's results).
        chaos = ChaosConfig.preset(seed=0, kills=KILLS)
        directory = tmp_path / f"store-{state['round']}"
        state["round"] += 1
        results, elapsed, health, _ = replay_sharded(
            trace, shards=SHARDS, window=WINDOW, store_dir=directory,
            fleet_chaos=chaos,
        )
        state.update(health=health)
        return results, elapsed

    chaos_results, chaos_s = benchmark(_chaos)
    health = state["health"]
    supervisor = health["supervisor"]
    injected = health["fleet_chaos"]

    # Gate 1: zero lost requests, bitwise-identical results.  Evaluation
    # is deterministic and every re-dispatch runs the same batched
    # machinery against the same shared store, so the payloads must be
    # *equal* — not merely numerically close.
    assert len(chaos_results) == len(clean_results) == len(trace)
    worst = 0.0
    exact = 0
    for chaos_result, clean_result in zip(chaos_results, clean_results):
        assert chaos_result["request_hash"] == clean_result["request_hash"]
        exact += chaos_result == clean_result
        reference = clean_result["summary"]["total_energy_j"]
        delta = abs(chaos_result["summary"]["total_energy_j"] - reference)
        worst = max(worst, delta / reference)
    assert exact == len(trace)
    assert worst == 0.0

    # Gate 2: the chaos actually happened and was detected by the
    # heartbeat detector / EOF path — at least every scheduled kill.
    assert injected["injected_shard_kills"] >= min(KILLS, 1)
    assert injected["scheduled_kills_remaining"] == 0
    assert supervisor["detected_failures"] >= injected["injected_shard_kills"]

    # Gate 3: zero hung futures, zero unrecovered ops, and the fleet
    # healed — every crash re-dispatched and respawned, membership
    # restored, nothing lost, status back to ok.
    assert supervisor["failed_redispatches"] == 0
    assert health["lost"] == []
    assert health["status"] == "ok"
    assert len(health["members"]) == SHARDS
    assert supervisor["restarts_used"] == supervisor["detected_failures"]

    # Gate 4: bounded re-dispatch amplification — recovery re-runs only
    # what was in flight on the dead shard, never the whole trace.
    amplification = (
        len(trace) + supervisor["redispatched_ops"]
    ) / len(trace)
    assert amplification <= 1.5

    record = {
        "benchmark": "service_fleet_chaos",
        "requests": len(trace),
        "unique_requests": profile["unique_requests"],
        "families": profile["families"],
        "shards": SHARDS,
        "scheduled_kills": KILLS,
        "clean_wall_s": clean_s,
        "chaos_wall_s": chaos_s,
        "chaos_requests_per_s": len(trace) / chaos_s,
        "slowdown_vs_clean": chaos_s / clean_s,
        "completed_results": len(chaos_results),
        "exact_result_fraction": exact / len(trace),
        "max_rel_energy_error": worst,
        "redispatch_amplification": amplification,
        "injections": injected,
        "detected_failures": supervisor["detected_failures"],
        "redispatched_ops": supervisor["redispatched_ops"],
        "failed_redispatches": supervisor["failed_redispatches"],
        "restarts_used": supervisor["restarts_used"],
        "dropped_replies": health["dropped_replies"],
        "crashed_shards": len(health["crashed_shards"]),
        "fleet_status": health["status"],
    }
    if FULL_SIZE:
        (REPO_ROOT / "BENCH_service_fleet_chaos.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
    emit(
        "Service fleet chaos: shard SIGKILLs mid-replay vs fault-free fleet",
        [
            f"trace     {len(trace):5d} requests "
            f"({profile['unique_requests']} unique, hotspot) "
            f"through {SHARDS} shards",
            f"injected  {injected['injected_shard_kills']} shard SIGKILLs, "
            f"{injected['injected_frame_corruptions']} corrupted frames",
            f"healed    {supervisor['detected_failures']} detections, "
            f"{supervisor['redispatched_ops']} ops re-dispatched, "
            f"{supervisor['restarts_used']} respawns, "
            f"{len(health['members'])}/{SHARDS} members restored",
            f"chaos     {len(trace) / chaos_s:10.1f} requests/s "
            f"({chaos_s / clean_s:.2f}x clean wall time)",
            f"correct   {exact}/{len(trace)} bitwise-identical, "
            f"max rel energy error {worst:.1e} (gate: 0.0)",
            f"amplification {amplification:.3f}x (gate: <= 1.5x)",
        ],
    )
