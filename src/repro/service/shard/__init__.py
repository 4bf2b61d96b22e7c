"""repro.service.shard — the evaluation service as a fleet.

The single-process service (:mod:`repro.service`) is one coalescing
scheduler behind the async HTTP front end; this package puts N of them,
each in its own process, behind that same front end:

* :mod:`repro.service.shard.ring` — deterministic consistent-hash
  routing of request content hashes to shards, bounded remap on
  membership change.
* :mod:`repro.service.shard.protocol` — length-prefixed JSON framing
  between the front end and its workers, with the fault taxonomy
  crossing the channel by type name.
* :mod:`repro.service.shard.worker` — the shard worker process (one
  full scheduler each, fleet-shared disk result store), the parent-side
  :class:`ShardClient`, and the :class:`ShardFleet` with live
  add/drain, a memory-only parent tier that answers the front end's
  hits before routing, and a ``submit_many`` that coalesces in-flight
  duplicates and sends each shard one frame per call.
* :mod:`repro.service.shard.frontend` — the fleet-management routes
  (:class:`FleetServiceHandler`, served by the same selectors front end
  as the single process, :class:`repro.service.http.AsyncFrontend`: one
  thread, keep-alive connections, one fault table) and the
  :class:`FleetSupervisor`: heartbeat failure detection, crash recovery
  with in-flight re-dispatch, respawns under a restart budget, and
  quorum-based :class:`FleetDegradedError` admission.

Quickstart::

    from repro.service import EvaluationRequest
    from repro.service.shard import ShardFleet

    fleet = ShardFleet(shards=4, store_dir="/tmp/results")
    future = fleet.submit(EvaluationRequest(
        macro="macro_b", workload="mvm_64x64", objective="energy",
    ))
    print(future.result()["summary"]["energy_per_mac_fj"])
    fleet.close()  # drains every shard; no request is dropped
"""

from repro.service.faults import FleetDegradedError
from repro.service.shard.frontend import (
    AsyncFrontend,
    FleetServiceHandler,
    FleetSupervisor,
    serve_sharded,
)
from repro.service.shard.protocol import (
    HEARTBEAT_ID,
    READY_ID,
    FrameDecoder,
    ProtocolError,
    RemoteFault,
    encode_frame,
    heartbeat_message,
)
from repro.service.shard.ring import (
    DEFAULT_REPLICAS,
    HashRing,
    RingEmptyError,
    key_point,
    shard_point,
)
from repro.service.shard.worker import (
    ShardClient,
    ShardFleet,
    merge_health,
)

__all__ = [
    "AsyncFrontend",
    "FleetServiceHandler",
    "FleetSupervisor",
    "FleetDegradedError",
    "serve_sharded",
    "HEARTBEAT_ID",
    "READY_ID",
    "heartbeat_message",
    "HashRing",
    "RingEmptyError",
    "DEFAULT_REPLICAS",
    "key_point",
    "shard_point",
    "ShardClient",
    "ShardFleet",
    "merge_health",
    "FrameDecoder",
    "ProtocolError",
    "RemoteFault",
    "encode_frame",
]
