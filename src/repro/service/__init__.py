"""repro.service — the coalescing evaluation service over the batched core.

PRs 1-4 made single evaluations fast; this package makes them *servable*:
many small, highly redundant requests are deduplicated against a
content-addressed result store, coalesced while in flight, grouped into
config families, and dispatched through the batched core
(:meth:`~repro.core.batch.BatchRunner.run_grid`,
:meth:`~repro.core.fast_pipeline.PerActionEnergyCache.derive_many`,
:func:`~repro.core.config_batch.area_config_batch`) — one batched call
per family per tick instead of one evaluation per request.

Layers (one module each):

* :mod:`repro.service.requests` — the versioned JSON request schema with
  a canonical content hash.
* :mod:`repro.service.store` — the content-addressed result store
  (in-memory LRU + optional disk tier).
* :mod:`repro.service.scheduler` — the coalescing batch scheduler.
* :mod:`repro.service.http` — the one HTTP front end of both
  deployments (``POST /evaluate``, ``POST /evaluate/batch``,
  ``GET /result/<hash>``, ``GET /healthz``): a single-threaded selectors
  loop that keeps connections alive, over a backend that is either the
  in-process scheduler or the shard fleet.
* :mod:`repro.service.faults` — the service's own failures (missed
  deadline, shutdown, shed queue, fleet below quorum).
* :mod:`repro.service.chaos` — deterministic, seedable fault injection
  at the real fault sites (corrupt store entries, shard kills, corrupt
  frames).
* :mod:`repro.service.replay` — trace synthesis (uniform / diurnal /
  bursty / hotspot arrival shapes) and replay drivers (including
  ``--chaos`` and ``--shards`` replays).
* :mod:`repro.service.shard` — the sharded deployment: the same front
  end routing request hashes over a consistent-hash ring to N scheduler
  worker processes that share one disk result tier, with live shard
  add/drain.
* :mod:`repro.service.cli` — ``python -m repro.service``
  serve / submit / trace / replay (``serve --shards N`` serves the
  fleet).

Quickstart::

    from repro.service import EvaluationRequest, EvaluationScheduler

    scheduler = EvaluationScheduler()
    result = scheduler.evaluate(EvaluationRequest(
        macro="macro_b", workload="mvm_64x64", objective="energy",
    ))
    print(result["summary"]["energy_per_mac_fj"])
"""

from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.faults import (
    DeadlineExceeded,
    FaultError,
    QueueFullError,
    ShutdownError,
)
from repro.service.requests import (
    MACRO_REGISTRY,
    OBJECTIVES,
    REQUEST_VERSION,
    EvaluationRequest,
    ServiceError,
)
from repro.service.scheduler import EvaluationScheduler, SchedulerStats
from repro.service.store import ResultStore

__all__ = [
    "EvaluationRequest",
    "EvaluationScheduler",
    "SchedulerStats",
    "ResultStore",
    "ServiceError",
    "FaultError",
    "DeadlineExceeded",
    "ShutdownError",
    "QueueFullError",
    "ChaosConfig",
    "ChaosInjector",
    "MACRO_REGISTRY",
    "OBJECTIVES",
    "REQUEST_VERSION",
]
