"""Coalescing batch scheduler: many small requests, few batched dispatches.

The service's traffic is many small, highly redundant evaluation requests.
This scheduler turns that stream back into the shapes the batched core is
fast at:

1. **Store short-circuit** — a request whose content hash is already in
   the :class:`~repro.service.store.ResultStore` resolves immediately;
   nothing is recomputed, and nothing is resolved either.  The HTTP
   front end does not even submit a hit: it asks :meth:`stored` for the
   stored reply bytes by hash and submits only the misses.
2. **In-flight coalescing** — concurrent requests with the same hash
   attach to one pending slot; N duplicates cost one evaluation and the
   result fans out to every waiter's future.
3. **Whole-call admission** — :meth:`submit_many` is the one submission
   path (:meth:`submit` is its one-member call).  It resolves every miss
   of a call first, so a request the model cannot evaluate is refused
   alone at submission, then queues all of the call's misses under one
   lock acquisition with one wake-up: a call's members always share a
   dispatch tick, even when resolving them outlasts the coalescing
   window.
4. **Family batching** — each tick drains the pending set, groups it by
   :meth:`~repro.service.requests.EvaluationRequest.family_key` (same
   workload + objective, configs differ), and dispatches **one batched
   call per family**: ``energy`` families go through one
   :meth:`~repro.core.batch.BatchRunner.run_grid` (whose parent-side
   :meth:`~repro.core.fast_pipeline.PerActionEnergyCache.derive_many`
   pass derives the whole config family's energy tables at once),
   ``area`` families through one
   :func:`~repro.core.config_batch.area_config_batch` pass, and
   ``mappings`` families warm their per-action energies with one
   ``derive_many`` before searching.

Failure handling (the service's own faults are in
:mod:`repro.service.faults`):

* A family dispatch is attempted once: the evaluation is deterministic,
  so a failed dispatch would fail the same way again.  A failed family
  goes straight to **per-request isolation**: each member is
  re-dispatched *alone through the same batched machinery* — config-axis
  derivation is elementwise per config, so a healthy member's solo
  result is bitwise-identical to its row in the family result — and a
  member that still fails falls back to the **scalar oracle**
  (:func:`evaluate_scalar`) before its future is failed.  One poisoned
  request therefore fails alone; its siblings complete.
* Requests carry optional **deadlines** (``deadline_ms``, hash-invariant)
  — a slot past its deadline fails fast with
  :class:`~repro.service.faults.DeadlineExceeded` instead of occupying a
  dispatch.
* A bounded pending queue (``max_pending``) sheds load at submission
  with :class:`~repro.service.faults.QueueFullError` (HTTP 429).

Two consumption styles share the machinery: :meth:`submit` +
:meth:`run_pending` give explicit control (the replay driver and tests
tick by hand), while :meth:`start` runs a background dispatcher thread
with a small coalescing window — the HTTP front end submits from its
event loop and replies when the returned future resolves, reaching the
scheduler only through :meth:`stored`, :meth:`submit`,
:meth:`submit_many`, :meth:`result_lookup` and :meth:`health`, the same
backend interface a shard fleet offers.
:meth:`close` drains the dispatcher and fails any still-unresolved
future with :class:`~repro.service.faults.ShutdownError`; no waiter is
ever left blocked.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import BatchRunner, process_energy_cache
from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.faults import (
    MAX_PENDING_ENV,
    DeadlineExceeded,
    QueueFullError,
    ShutdownError,
)
from repro.service.requests import EvaluationRequest
from repro.service.store import ResultStore
from repro.utils.env import env_positive_int

#: Seconds the background dispatcher waits after the first pending request
#: so concurrent arrivals coalesce into the same tick.
DEFAULT_COALESCE_WINDOW_S = 0.005


@dataclass
class SchedulerStats:
    """Counters describing how much work coalescing saved — and how much
    fault handling cost.

    ``submitted`` counts every request seen; of those, ``store_hits``
    were answered from the result store, ``coalesced`` attached to an
    already-pending duplicate, ``queue_sheds`` were rejected by the
    bounded queue, and ``dispatched_requests`` were actually evaluated —
    in ``dispatched_batches`` family-batched calls over ``ticks``
    scheduler ticks.  (Over HTTP, the hits the front end answers from
    :meth:`EvaluationScheduler.stored` are never submitted; ``GET
    /healthz`` adds them to ``submitted`` and ``store_hits``.)

    Failure-path counters: ``fallbacks`` counts slots isolated into solo
    batched dispatches after their family failed, ``scalar_fallbacks``
    counts slots rescued (or attempted) on the scalar oracle,
    ``deadline_expired`` counts slots failed for missing their deadline,
    and ``errors`` counts slots whose futures ultimately resolved with an
    exception.

    ``term_hits`` / ``term_misses`` / ``term_derivations`` attribute the
    traffic of the process-wide cache's term tier (:mod:`repro.core.terms`,
    always on, in memory) to scheduler dispatches: how many per-component
    term lookups the ticks' family batches resolved from cache versus had
    to derive.  A fleet of near-duplicate families shows a high
    ``term_hit_ratio`` even when every full-config key was cold.
    """

    submitted: int = 0
    store_hits: int = 0
    coalesced: int = 0
    dispatched_requests: int = 0
    dispatched_batches: int = 0
    ticks: int = 0
    errors: int = 0
    fallbacks: int = 0
    scalar_fallbacks: int = 0
    deadline_expired: int = 0
    queue_sheds: int = 0
    term_hits: int = 0
    term_misses: int = 0
    term_derivations: int = 0

    @property
    def term_hit_ratio(self) -> float:
        lookups = self.term_hits + self.term_misses
        return (self.term_hits / lookups) if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "store_hits": self.store_hits,
            "coalesced": self.coalesced,
            "dispatched_requests": self.dispatched_requests,
            "dispatched_batches": self.dispatched_batches,
            "ticks": self.ticks,
            "errors": self.errors,
            "fallbacks": self.fallbacks,
            "scalar_fallbacks": self.scalar_fallbacks,
            "deadline_expired": self.deadline_expired,
            "queue_sheds": self.queue_sheds,
            "term_hits": self.term_hits,
            "term_misses": self.term_misses,
            "term_derivations": self.term_derivations,
            "term_hit_ratio": self.term_hit_ratio,
        }


def _term_counters() -> Tuple[int, int, int]:
    """(hits, misses, derivations) of the process-wide term cache.

    Snapshotted around each family dispatch so the scheduler can
    attribute term-cache traffic to its own batches.
    """
    terms = process_energy_cache().terms
    return (terms.hits, terms.misses, terms.derivations)


@dataclass
class _Pending:
    """One unique in-flight request and everyone waiting on it.

    ``deadline`` is the most permissive (latest, or None for unbounded)
    monotonic deadline of every coalesced waiter — a duplicate must never
    make the shared evaluation *stricter* than an earlier waiter asked.
    ``completed`` makes completion exactly-once under races between a
    dispatching thread and :meth:`EvaluationScheduler.close`.
    """

    request: EvaluationRequest
    request_hash: str
    futures: List[Future] = field(default_factory=list)
    deadline: Optional[float] = None
    completed: bool = False

    def merge_hints(self, request: EvaluationRequest) -> None:
        """Fold a coalescing duplicate's deadline into the slot."""
        if request.deadline_ms is None:
            self.deadline = None
        elif self.deadline is not None:
            self.deadline = max(
                self.deadline, time.monotonic() + request.deadline_ms / 1000.0
            )


# ----------------------------------------------------------------------
# Result payload formats — shared by the batched dispatchers here and the
# scalar oracle (:func:`evaluate_scalar`), so the two paths can never
# drift apart field-by-field.
# ----------------------------------------------------------------------
def energy_payload(request_hash: str, evaluation) -> Dict:
    """The ``energy`` objective's result payload."""
    return {
        "objective": "energy",
        "request_hash": request_hash,
        "macro": evaluation.target_name,
        "workload": evaluation.workload_name,
        "summary": evaluation.summary(),
        "energy_breakdown_j": evaluation.energy_breakdown(),
        "per_layer_energy_j": evaluation.per_layer_energy(),
    }


def area_payload(request_hash: str, macro_name: str, breakdown: Dict[str, float]) -> Dict:
    """The ``area`` objective's result payload."""
    return {
        "objective": "area",
        "request_hash": request_hash,
        "macro": macro_name,
        "area_breakdown_um2": dict(breakdown),
        "total_area_mm2": sum(breakdown.values()) / 1e6,
    }


def mappings_payload(request_hash: str, macro_name: str, layer_name: str, search) -> Dict:
    """The ``mappings`` objective's result payload."""
    return {
        "objective": "mappings",
        "request_hash": request_hash,
        "macro": macro_name,
        "workload": layer_name,
        "best_energy_j": search.best_cost,
        "mappings_evaluated": search.mappings_evaluated,
        "mappings_attempted": search.mappings_attempted,
        "best_mapping": repr(search.best_mapping),
    }


def evaluate_scalar(request: EvaluationRequest) -> Dict:
    """Evaluate one request the pre-service way: a fresh model, no sharing.

    This is both the serial baseline the coalescing scheduler is measured
    against (see :func:`repro.service.replay.evaluate_serial`) and the
    scheduler's *last-resort per-request fallback*: when a request's
    batched dispatch fails even in isolation, this oracle path — no
    shared cache, no batched derivation — gets one chance to serve it
    before the failure is surfaced.  Payload shapes match the batched
    dispatchers so results are directly comparable.
    """
    from repro.core.model import CiMLoopModel

    config = request.config()
    request_hash = request.content_hash()
    model = CiMLoopModel(config, use_distributions=request.use_distributions)
    if request.objective == "area":
        return area_payload(request_hash, config.name, model.area_breakdown_um2())
    network = request.network()
    if request.objective == "mappings":
        search = model.search_layer_mappings(
            network.layers[0],
            num_mappings=request.num_mappings,
            seed=request.seed,
            objective="energy",
        )
        return mappings_payload(
            request_hash, config.name, network.layers[0].name, search
        )
    return energy_payload(request_hash, model.evaluate(network))


class EvaluationScheduler:
    """Dedup, coalesce, and batch-dispatch evaluation requests."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        coalesce_window_s: float = DEFAULT_COALESCE_WINDOW_S,
        max_pending: Optional[int] = None,
        chaos: Optional[object] = None,
    ):
        # The default store honours the REPRO_RESULT_STORE_* environment
        # knobs (disk tier, LRU bound).
        self.store = store if store is not None else ResultStore.from_env()
        # Evaluation runs in this process: scale-out across processes is
        # the shard fleet's job (repro.service.shard), not a pool's.
        self.runner = BatchRunner(workers=1)
        self.stats = SchedulerStats()
        self.coalesce_window_s = coalesce_window_s
        # Admission bound: the explicit argument wins, then the
        # REPRO_SERVICE_MAX_PENDING environment knob (unbounded without).
        self.max_pending = (
            max_pending if max_pending is not None else env_positive_int(MAX_PENDING_ENV)
        )
        # The last-resort per-request rescue path; an instance attribute
        # so tests (and future shards) can substitute their own oracle.
        self.scalar_fallback = evaluate_scalar
        if chaos is None:
            chaos = ChaosInjector.from_env()
        elif isinstance(chaos, ChaosConfig):
            chaos = ChaosInjector(chaos)
        self.chaos: Optional[ChaosInjector] = chaos
        self._pending: "Dict[str, _Pending]" = {}
        # Slots drained from _pending but not yet completed: duplicates
        # arriving while their twin is *being evaluated* attach here, so
        # the one-evaluation-per-hash contract holds across the whole
        # evaluation, not just until the tick drains the queue.
        self._inflight: "Dict[str, _Pending]" = {}
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # Operand-distribution memo keyed by layer fingerprint: profiling
        # is layer-only (paper Sec. III-D1) and by far the most expensive
        # per-cell step, so one profile serves every config, dispatch, and
        # request that ever touches the layer.
        self._profiles: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: EvaluationRequest) -> "Future":
        """Enqueue one request (a one-member :meth:`submit_many`); the
        future resolves to its result dict.

        Raises what refused the request: :class:`ShutdownError` after
        :meth:`close`, :class:`QueueFullError` when the bounded pending
        queue is full, or the :class:`~repro.service.requests.ServiceError`
        of a request that does not resolve.
        """
        [outcome] = self.submit_many([request])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def submit_many(self, requests: Sequence[EvaluationRequest]) -> List:
        """Admit one call's requests; the one submission path.

        Returns one item per request, in order: its future, or the
        exception that refused it, so one refused member never sinks the
        others.  The call runs in four steps:

        1. a request whose hash is already queued or being evaluated
           attaches to that slot (coalescing);
        2. the rest are looked up in the store, once per distinct hash,
           and hits resolve immediately;
        3. every remaining miss is resolved (:meth:`EvaluationRequest.
           resolve`): a request the model cannot evaluate fails alone
           with its error, before anything is queued;
        4. the misses are queued under one lock acquisition with one
           wake-up, so a call's members always share a dispatch tick,
           however long step 3 took.  Duplicates within the call share
           one slot.

        Store hits and coalescing duplicates are never shed, because
        they cost no evaluation; a new slot beyond ``max_pending``
        unique pending requests is refused with :class:`QueueFullError`
        (carrying a ``retry_after_s`` hint), and everything is refused
        with :class:`ShutdownError` after :meth:`close`.
        """
        hashes = [request.content_hash() for request in requests]
        outcomes: List = [Future() for _ in requests]
        misses: "Dict[str, List[int]]" = {}
        with self._lock:
            self.stats.submitted += len(requests)
            if self._closed:
                return [self._shut_down()] * len(requests)
            for index, request in enumerate(requests):
                if not self._attach(hashes[index], request, outcomes[index]):
                    misses.setdefault(hashes[index], []).append(index)
        if not misses:
            return outcomes

        unresolved: "Dict[str, List[int]]" = {}
        for request_hash, indices in misses.items():
            cached = self.store.get(request_hash)
            if cached is None:
                unresolved[request_hash] = indices
                continue
            with self._lock:
                self.stats.store_hits += len(indices)
            for index in indices:
                outcomes[index].set_result(cached)

        queued: "Dict[str, List[int]]" = {}
        for request_hash, indices in unresolved.items():
            try:
                requests[indices[0]].resolve()
            except Exception as error:  # noqa: BLE001 - answered per member
                for index in indices:
                    outcomes[index] = error
                continue
            queued[request_hash] = indices
        if not queued:
            return outcomes

        with self._lock:
            for request_hash, indices in queued.items():
                first = requests[indices[0]]
                # The hash may have been queued by another caller while
                # this one looked up the store and resolved.
                if not self._attach(request_hash, first, outcomes[indices[0]]):
                    refusal = (
                        self._shut_down() if self._closed
                        else self._admit(request_hash, first, outcomes[indices[0]])
                    )
                    if refusal is not None:
                        if isinstance(refusal, QueueFullError):
                            self.stats.queue_sheds += len(indices)
                        for index in indices:
                            outcomes[index] = refusal
                        continue
                for index in indices[1:]:
                    self._attach(request_hash, requests[index], outcomes[index])
            self._wakeup.notify_all()
        return outcomes

    def _attach(self, request_hash: str, request: EvaluationRequest,
                future: Future) -> bool:
        """Under the lock: join an existing queued/in-flight slot."""
        slot = self._pending.get(request_hash) or self._inflight.get(request_hash)
        if slot is None:
            return False
        self.stats.coalesced += 1
        slot.futures.append(future)
        slot.merge_hints(request)
        return True

    def _admit(self, request_hash: str, request: EvaluationRequest,
               future: Future) -> Optional[BaseException]:
        """Under the lock: queue a new slot, or return why it was shed."""
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            return QueueFullError(
                f"pending queue is full ({self.max_pending} unique requests); "
                "retry shortly",
                retry_after_s=max(self.coalesce_window_s * 10, 0.05),
            )
        self._pending[request_hash] = _Pending(
            request=request,
            request_hash=request_hash,
            futures=[future],
            deadline=(
                time.monotonic() + request.deadline_ms / 1000.0
                if request.deadline_ms is not None else None
            ),
        )
        return None

    @staticmethod
    def _shut_down() -> ShutdownError:
        return ShutdownError("scheduler is shut down; request not accepted")

    def stored(self, request_hash: str) -> Optional[bytes]:
        """The stored result's reply bytes by content hash, or None.

        The front end answers a hit from these bytes without building a
        future or resolving anything, and submits only the misses (the
        store's memory tier answers here; a result only on disk is found
        by the submission).  After :meth:`close` nothing is answered
        here, so every request meets :meth:`submit`'s
        :class:`ShutdownError`.
        """
        if self._closed:
            return None
        return self.store.reply(request_hash)

    def result_lookup(self, request_hash: str) -> "Future":
        """The stored result of a hash (None if never computed), as a
        resolved future: the front end's backend interface."""
        future: Future = Future()
        future.set_result(self.store.get(request_hash))
        return future

    def evaluate(self, request: EvaluationRequest) -> Dict:
        """Submit one request and block for its result (inline dispatch
        when no background dispatcher is running)."""
        future = self.submit(request)
        if self._thread is None:
            self.run_pending()
        return future.result()

    def evaluate_batch(self, requests: Sequence[EvaluationRequest]) -> List[Dict]:
        """Submit a whole batch in one call, dispatch, and return results
        in order (raising the first member's refusal or failure)."""
        outcomes = self.submit_many(requests)
        if self._thread is None:
            self.run_pending()
        results = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome.result())
        return results

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_pending(self) -> int:
        """One tick: drain the pending set in family-batched dispatches.

        Returns the number of unique requests that completed with a
        result.  Safe to call from any thread; the pending set is
        drained atomically, so concurrent tickers never evaluate a slot
        twice.
        """
        with self._lock:
            batch = list(self._pending.values())
            self._pending.clear()
            # Keep drained slots discoverable until completion so late
            # duplicates attach instead of re-evaluating.
            for slot in batch:
                self._inflight[slot.request_hash] = slot
            if batch:
                self.stats.ticks += 1
        if not batch:
            return 0

        families: "Dict[Tuple, List[_Pending]]" = {}
        for slot in batch:
            families.setdefault(slot.request.family_key(), []).append(slot)

        completed = 0
        for family in families.values():
            completed += self._run_family(family)
        return completed

    def _run_family(self, family: List[_Pending]) -> int:
        """Dispatch one family, isolating its members if that fails.

        Returns how many of the family's slots completed with a result.
        """
        family = [slot for slot in family if not self._expire(slot)]
        if not family:
            return 0
        family_error = self._try_batched(family)
        if family_error is None:
            return len(family)

        # Failure isolation: the shared dispatch is dead, but its
        # members stand alone from here.  A healthy member's solo
        # batched dispatch reproduces its family-row result bit-for-bit
        # (config-axis derivation is elementwise per config); a member
        # that still fails gets one scalar-oracle attempt before its
        # future is failed with the error that actually stopped it.
        completed = 0
        for slot in family:
            if self._expire(slot):
                continue
            slot_error = family_error
            if len(family) > 1:
                with self._lock:
                    self.stats.fallbacks += 1
                slot_error = self._try_batched([slot])
                if slot_error is None:
                    completed += 1
                    continue
            if self._scalar_rescue(slot, slot_error):
                completed += 1
        return completed

    def _try_batched(self, family: List[_Pending]) -> Optional[BaseException]:
        """One batched dispatch, attempted once.

        Completes every slot and returns None on success; returns the
        error (without completing anything) on failure, so the caller
        decides between isolation, scalar rescue, and giving up.
        """
        try:
            results = self._dispatch_with_stats(family)
        except Exception as error:  # noqa: BLE001 - answered by the caller
            return error
        for slot, result in zip(family, results):
            self._complete(slot, result=result)
        return None

    def _scalar_rescue(self, slot: _Pending, error: BaseException) -> bool:
        """Last resort: serve one slot from the scalar oracle.

        Shutdown/deadline failures are verdicts about the *request*, not
        the batched engine, so they are surfaced as-is; anything else
        gets one oracle attempt.  When the oracle also fails, the slot is
        failed with the original dispatch error (the more diagnostic of
        the two).
        """
        if isinstance(error, (ShutdownError, DeadlineExceeded)):
            self._complete(slot, error=error)
            return False
        with self._lock:
            self.stats.scalar_fallbacks += 1
        try:
            result = self.scalar_fallback(slot.request)
        except Exception:  # noqa: BLE001 - surface the original error
            self._complete(slot, error=error)
            return False
        self._complete(slot, result=result)
        return True

    def _expire(self, slot: _Pending) -> bool:
        """Fail a slot that has outlived its deadline; True when it did."""
        if slot.deadline is None or time.monotonic() <= slot.deadline:
            return False
        with self._lock:
            self.stats.deadline_expired += 1
        self._complete(slot, error=DeadlineExceeded(
            f"request {slot.request_hash[:12]} missed its deadline"
        ))
        return True

    def _dispatch_with_stats(self, family: List[_Pending]) -> List[Dict]:
        """One family dispatch plus its success-path accounting."""
        before = _term_counters()
        results = self._dispatch_family(family)
        after = _term_counters()
        with self._lock:
            self.stats.dispatched_requests += len(family)
            self.stats.dispatched_batches += 1
            self.stats.term_hits += after[0] - before[0]
            self.stats.term_misses += after[1] - before[1]
            self.stats.term_derivations += after[2] - before[2]
        return results

    def _complete(self, slot: _Pending, result=None, error=None) -> None:
        """Store one slot's outcome and resolve every attached future.

        Exactly-once under the ``completed`` flag: a dispatching thread
        and :meth:`close` may race to complete the same slot, and the
        loser must not touch the futures again.  A store failure (e.g.
        an unserialisable value or a dying disk) must cost the
        persistence, never the request — and never the dispatcher
        thread.  The slot is removed from the in-flight map *under the
        lock, after the store write*, so a concurrent submit either sees
        the stored result or attaches to the slot; the futures snapshot
        taken at removal therefore includes every waiter.
        """
        if error is None:
            try:
                self.store.put(slot.request_hash, result)
            except Exception as store_error:  # noqa: BLE001 - degrade to warning
                import sys

                print(
                    f"warning: could not store result {slot.request_hash[:12]} "
                    f"({store_error}); serving it uncached",
                    file=sys.stderr,
                )
            else:
                if self.chaos is not None:
                    self.chaos.after_store(self.store, slot.request_hash)
        with self._lock:
            if slot.completed:
                return
            slot.completed = True
            if error is not None:
                self.stats.errors += 1
            self._inflight.pop(slot.request_hash, None)
            self._pending.pop(slot.request_hash, None)
            futures = list(slot.futures)
        for future in futures:
            try:
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(result)
            except InvalidStateError:  # pragma: no cover - defensive
                pass

    def _dispatch_family(self, family: List[_Pending]) -> List[Dict]:
        """Evaluate one family with a single batched core call."""
        objective = family[0].request.objective
        if objective == "area":
            return self._dispatch_area(family)
        if objective == "mappings":
            return self._dispatch_mappings(family)
        return self._dispatch_energy(family)

    def _profile(self, layer):
        """Memoized default operand profile of one layer."""
        from repro.workloads.distributions import profile_layer

        key = layer.fingerprint()
        with self._lock:
            cached = self._profiles.get(key)
        if cached is None:
            cached = profile_layer(layer)
            with self._lock:
                self._profiles.setdefault(key, cached)
        return cached

    def _dispatch_energy(self, family: List[_Pending]) -> List[Dict]:
        """One ``run_grid`` over the family's (config x layer) product.

        Layers are profiled once through the scheduler-wide memo and
        passed as ``default_profiled`` distributions, so the family's
        energy tables come from the process cache in one ``derive_many``
        pass and grid cells do no profiling (the same contract as
        :meth:`CiMLoopModel.sweep`).
        """
        first = family[0].request
        network = first.network()
        configs = [slot.request.config() for slot in family]
        distributions = (
            {layer.name: self._profile(layer) for layer in network}
            if first.use_distributions else None
        )
        evaluations = self.runner.run_grid(
            configs, network, distributions=distributions,
            use_distributions=first.use_distributions,
            default_profiled=True,
        )
        return [
            energy_payload(slot.request_hash, evaluation)
            for slot, evaluation in zip(family, evaluations)
        ]

    def _dispatch_area(self, family: List[_Pending]) -> List[Dict]:
        """One config-axis batched area pass for the whole family.

        Area terms are pure functions of the config, so the family's
        breakdowns assemble from the process-wide term cache — a request
        whose config differs from an earlier one on a single axis
        re-derives only the components that axis touches.
        """
        from repro.core.config_batch import area_config_batch

        configs = [slot.request.config() for slot in family]
        batch = area_config_batch(configs, term_cache=process_energy_cache().terms)
        return [
            area_payload(slot.request_hash, configs[index].name, batch.breakdown(index))
            for index, slot in enumerate(family)
        ]

    def _dispatch_mappings(self, family: List[_Pending]) -> List[Dict]:
        """Warm the family's energy tables in one pass, then search.

        The per-action energies of every config in the family are derived
        (or cache-served) through the process-wide cache in one
        ``derive_many`` call before any search runs, so N configs cost one
        config-axis batched derivation, and the searches themselves score
        whole populations against cached vectors.
        """
        from repro.core.model import CiMLoopModel

        first = family[0].request
        layer = first.network().layers[0]
        configs = [slot.request.config() for slot in family]
        cache = process_energy_cache()
        if first.use_distributions:
            cache.derive_many(
                configs, [layer], distributions={layer.name: self._profile(layer)}
            )
        results = []
        for slot, config in zip(family, configs):
            model = CiMLoopModel(config, use_distributions=first.use_distributions)
            model.energy_cache = cache
            search = model.search_layer_mappings(
                layer,
                num_mappings=slot.request.num_mappings,
                seed=slot.request.seed,
                objective="energy",
            )
            results.append(
                mappings_payload(slot.request_hash, config.name, layer.name, search)
            )
        return results

    # ------------------------------------------------------------------
    # Background dispatcher
    # ------------------------------------------------------------------
    def start(self) -> "EvaluationScheduler":
        """Run the dispatcher loop in a daemon thread (HTTP serving mode)."""
        if self._thread is None:
            self._closed = False
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._pending:
                    return
            # Let concurrent arrivals pile into the same tick.
            if self.coalesce_window_s > 0:
                time.sleep(self.coalesce_window_s)
            try:
                self.run_pending()
            except Exception as error:  # noqa: BLE001 - keep the daemon alive
                # Per-family and per-slot failures are already contained;
                # anything escaping here is a scheduler bug, but dying
                # silently would wedge every future client on an
                # undrained queue.  Log and keep serving.
                import sys
                import traceback

                print(
                    f"warning: service dispatch tick failed ({error}); "
                    "dispatcher continues",
                    file=sys.stderr,
                )
                traceback.print_exc()

    def close(self) -> None:
        """Stop the dispatcher; no waiter is ever left blocked.

        Pending requests are drained by the dispatcher's final tick when
        one is running; any future still unresolved afterwards — queued
        with no dispatcher, or orphaned by a dispatcher that could not
        finish — is failed with :class:`ShutdownError` rather than left
        hanging.  Later :meth:`submit` calls also raise
        :class:`ShutdownError`.  Idempotent.
        """
        thread = self._thread
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        if thread is not None:
            thread.join(timeout=30.0)
            self._thread = None
        with self._lock:
            stranded = list(self._pending.values()) + list(self._inflight.values())
            self._pending.clear()
        error = ShutdownError("scheduler closed before the request completed")
        for slot in stranded:
            self._complete(slot, error=error)

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """The health payload served by ``GET /healthz``."""
        with self._lock:
            pending = len(self._pending)
            inflight = len(self._inflight)
            stats = self.stats.as_dict()
        payload: Dict[str, object] = {
            "status": "ok",
            "pending": pending,
            "inflight": inflight,
            "scheduler": stats,
            "store": self.store.stats(),
            "energy_cache": process_energy_cache().stats(),
        }
        if self.chaos is not None:
            payload["chaos"] = self.chaos.stats()
        return payload
