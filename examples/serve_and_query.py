#!/usr/bin/env python3
"""Serve the model over HTTP, query it, then replay a trace.

The tour of the evaluation service:

1. start the HTTP service on an ephemeral port (its event loop on a
   daemon thread here; ``python -m repro.service serve`` in production),
2. POST evaluation requests — duplicates coalesce, results are
   content-addressed,
3. fetch a stored result by hash and read the health counters,
4. replay a synthetic 200-request trace through the coalescing
   scheduler and compare against the serial library-call baseline.

Run with::

    PYTHONPATH=src python examples/serve_and_query.py
"""

import json
import urllib.request

from repro.service import EvaluationScheduler
from repro.service.http import serve
from repro.service.replay import (
    generate_trace,
    replay_coalesced,
    replay_serial,
    trace_profile,
)


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


def main() -> None:
    # 1. Serve: ephemeral port, background dispatcher, one worker; the
    #    front end's loop runs on a daemon thread and keeps connections
    #    alive.
    scheduler = EvaluationScheduler()
    frontend = serve("127.0.0.1", 0, scheduler=scheduler).start()
    host, port = frontend.address
    base = f"http://{host}:{port}"
    print(f"serving on {base}")

    # 2. Query: an energy evaluation and an area breakdown of Macro B.
    energy = post(base, "/evaluate", {
        "macro": "macro_b",
        "workload": "mvm_64x64",
        "overrides": {"adc_resolution": 6},
    })
    print(f"\nmacro_b on mvm_64x64 (6-bit ADC):"
          f"  {energy['summary']['energy_per_mac_fj']:.1f} fJ/MAC,"
          f"  {energy['summary']['tops_per_watt']:.0f} TOPS/W")
    area = post(base, "/evaluate", {"macro": "macro_b", "objective": "area"})
    print(f"macro_b area: {area['total_area_mm2']:.3f} mm^2")

    # 3. Content addressing: the result is retrievable by request hash,
    #    and a duplicate batch costs nothing (see the store counters).
    stored = get(base, f"/result/{energy['request_hash']}")
    assert stored == energy
    batch = post(base, "/evaluate/batch", {"requests": [
        {"macro": "macro_b", "workload": "mvm_64x64",
         "overrides": {"adc_resolution": 6}},
    ] * 8})
    assert all(r == batch["results"][0] for r in batch["results"])
    health = get(base, "/healthz")
    print(f"health: store hits {health['store']['hits']}, "
          f"scheduler {health['scheduler']}")

    scheduler.close()
    frontend.shutdown()

    # 4. Replay: 200 requests, 60% duplicates, 3 config families —
    #    coalesced through the scheduler vs the serial library baseline.
    trace = generate_trace(num_requests=200, duplicate_fraction=0.6, families=3)
    print(f"\nreplaying trace: {trace_profile(trace)}")
    results, coalesced_s, replay_scheduler, _ = replay_coalesced(trace, window=64)
    serial_results, serial_s = replay_serial(trace[:40])  # sampled: it is slow
    serial_s *= len(trace) / 40  # scale the sample to the full trace
    print(f"  coalesced: {len(trace) / coalesced_s:7.1f} requests/s "
          f"({replay_scheduler.stats.as_dict()})")
    print(f"  serial   : {len(trace) / serial_s:7.1f} requests/s (estimated)")
    print(f"  speedup  : {serial_s / coalesced_s:.1f}x")
    serial_by_hash = {r["request_hash"]: r for r in serial_results}
    for result in results:
        serial = serial_by_hash.get(result["request_hash"])
        if serial is not None:
            coalesced_j = result["summary"]["total_energy_j"]
            serial_j = serial["summary"]["total_energy_j"]
            assert abs(coalesced_j - serial_j) <= 1e-9 * serial_j
    print("  energies : identical between coalesced and serial paths")


if __name__ == "__main__":
    main()
