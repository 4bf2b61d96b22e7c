"""Per-layer metrics from the spans a traced run recorded.

Span tuples are ``(name, start, end, span_id, parent_id, thread, request
hash, attrs)``, one list per process (see ``traced_serve.py``).  A span's
self time is its duration minus the time its direct children cover;
children run on the parent's thread, nested inside it, so they never
overlap each other.  ``scheduler.wait`` spans are blocking waits, not
work: they count as children of the span that waited, and as nobody's
self time.

Most metrics cover the timed phase (spans that start inside it).  The
set-up metrics and the fault counters (``profile.*``,
``scheduler.queue_wait_ms``, ``scheduler.tick_ms``, ``scheduler.failed``,
``store.put_us``, ``fleet.redispatched_ops``, ``fleet.restarts``) cover
the whole traced run, warm-up included.  A metric of a layer the workload
never reached reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

NAME, START, END, ID, PARENT, THREAD, HASH, ATTRS = range(8)

WAIT = "scheduler.wait"

#: Frames a worker sends on its own, not in reply to a request.
UNSOLICITED = ("heartbeat", "ready")

#: Scheduler counters whose sum is ``scheduler.failed``.
FAILED_COUNTERS = ("errors", "retries", "fallbacks", "queue_sheds", "deadline_expired")

#: ``(name, unit, better)`` of every per-layer metric, in report order.
METRICS = (
    ("http.requests", "count", "higher"),
    ("http.self_us", "us", "lower"),
    ("http.connects_per_call", "count", "lower"),
    ("frontend.requests", "count", "higher"),
    ("frontend.self_us", "us", "lower"),
    ("requests.validations_per_request", "count", "lower"),
    ("requests.validate_us", "us", "lower"),
    ("requests.hash_us", "us", "lower"),
    ("wire.frames_per_request", "count", "lower"),
    ("wire.bytes_per_request", "bytes", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("fleet.wait_us", "us", "lower"),
    ("ring.route_us", "us", "lower"),
    ("shard.max_share", "ratio", "lower"),
    ("fleet.redispatched_ops", "count", "lower"),
    ("fleet.restarts", "count", "lower"),
    ("scheduler.store_hit_ratio", "ratio", "higher"),
    ("scheduler.coalesced_ratio", "ratio", "higher"),
    ("scheduler.evals_per_unique", "ratio", "lower"),
    ("scheduler.requests_per_dispatch", "ratio", "higher"),
    ("scheduler.queue_wait_ms", "ms", "lower"),
    ("scheduler.tick_ms", "ms", "lower"),
    ("scheduler.failed", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.get_us", "us", "lower"),
    ("store.put_us", "us", "lower"),
    ("grid.cells", "count", "higher"),
    ("grid.cell_us", "us", "lower"),
    ("derive.config_layers", "count", "higher"),
    ("derive.us_per_config_layer", "us", "lower"),
    ("terms.hit_ratio", "ratio", "higher"),
    ("terms.derivations", "count", "lower"),
    ("area.us_per_config", "us", "lower"),
    ("profile.calls", "count", "lower"),
    ("profile.ms", "ms", "lower"),
    ("mapping.candidates", "count", "higher"),
    ("mapping.valid_ratio", "ratio", "higher"),
    ("mapping.us_per_candidate", "us", "lower"),
    ("client.self_us", "us", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


# ----------------------------------------------------------------------
# Interval and self-time arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def subtract(outer: Interval, holes: Sequence[Interval]) -> List[Interval]:
    """``outer`` minus the (non-overlapping) ``holes``."""
    pieces = []
    cursor = outer[0]
    for start, end in sorted(holes):
        start, end = max(start, outer[0]), min(end, outer[1])
        if end <= start:
            continue
        if start > cursor:
            pieces.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < outer[1]:
        pieces.append((cursor, outer[1]))
    return pieces


def children_of(spans: Sequence) -> Dict[int, List]:
    children: Dict[int, List] = {}
    for record in spans:
        children.setdefault(record[PARENT], []).append(record)
    return children


def self_times(spans: Sequence) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = children_of(spans)
    return {
        record[ID]: (record[END] - record[START])
        - sum(child[END] - child[START] for child in children.get(record[ID], ()))
        for record in spans
    }


def self_intervals(spans: Sequence) -> List[Interval]:
    """Wall-clock intervals in which some non-wait span did its own work."""
    children = children_of(spans)
    pieces: List[Interval] = []
    for record in spans:
        if record[NAME].startswith(WAIT):
            continue
        holes = [(child[START], child[END]) for child in children.get(record[ID], ())]
        pieces.extend(subtract((record[START], record[END]), holes))
    return pieces


def root_name(record, by_id: Dict[int, tuple]) -> str:
    while record[PARENT] in by_id:
        record = by_id[record[PARENT]]
    return record[NAME]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(after: Dict, before: Dict, *path) -> float:
    def dig(payload):
        for key in path:
            payload = (payload or {}).get(key)
        return payload or 0

    return dig(after) - dig(before)


def per_layer(
    processes: Sequence[Tuple[int, Sequence]],
    window: Interval,
    requests: int,
    calls: int,
    client_intervals: Sequence[Interval],
    client_connects: int,
    health_before: Dict,
    health_after: Dict,
    traced_rps: float,
    untraced_rps: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``processes`` holds ``(pid, spans)`` of each server process;
    ``window`` is the timed phase; ``requests`` and ``calls`` are what
    the client completed in it; ``client_intervals`` are the client's own
    busy intervals; ``health_before`` / ``health_after`` are ``GET
    /healthz`` payloads taken just before and after the timed phase.
    """
    w0, w1 = window
    every = []  # (record, pid, self time, root span name)
    shard_pids = set()
    for pid, spans in processes:
        by_id = {record[ID]: record for record in spans}
        selfs = self_times(spans)
        for record in spans:
            every.append((record, pid, selfs[record[ID]], root_name(record, by_id)))
            if record[NAME] == "fleet.dispatch":
                shard_pids.add(record[ATTRS]["pid"])
    timed = [entry for entry in every if w0 <= entry[0][START] < w1]

    def named(name, entries=timed):
        return [entry[0] for entry in entries if entry[0][NAME] == name]

    def total_s(records):
        return sum(r[END] - r[START] for r in records)

    def mean_us(name, entries=timed):
        chosen = named(name, entries)
        return _ratio(total_s(chosen) * 1e6, len(chosen))

    def self_sum(name):
        return sum(entry[2] for entry in timed if entry[0][NAME] == name)

    def rooted(name, root):
        return [entry for entry in timed if entry[0][NAME] == name and entry[3] == root]

    def delta(*path):
        return _delta(health_after, health_before, *path)

    metrics: Dict[str, float] = {}
    # service.http
    http_requests = len(rooted("requests.validate", "http.request"))
    metrics["http.requests"] = http_requests
    metrics["http.self_us"] = _ratio(self_sum("http.request") * 1e6, http_requests)
    metrics["http.connects_per_call"] = _ratio(client_connects, calls)
    # service.shard.frontend
    frontend_requests = len(rooted("fleet.submit", "frontend.read"))
    metrics["frontend.requests"] = frontend_requests
    metrics["frontend.self_us"] = _ratio(
        (self_sum("frontend.read") + self_sum("frontend.flush")) * 1e6, frontend_requests)
    # service.requests
    metrics["requests.validations_per_request"] = _ratio(
        len(named("requests.validate")), requests)
    metrics["requests.validate_us"] = mean_us("requests.validate")
    metrics["requests.hash_us"] = mean_us("requests.hash")
    # service.shard.protocol / worker / ring
    frames = [r for r in named("wire.encode") if r[ATTRS]["kind"] not in UNSOLICITED]
    metrics["wire.frames_per_request"] = _ratio(len(frames), requests)
    metrics["wire.bytes_per_request"] = _ratio(
        sum(r[ATTRS]["bytes"] for r in frames), requests)
    metrics["wire.encode_us"] = _ratio(total_s(frames) * 1e6, len(frames))
    decodes = [(r, sum(1 for k in r[ATTRS]["kinds"] if k not in UNSOLICITED))
               for r in named("wire.decode")]
    decodes = [(r, count) for r, count in decodes if count]
    metrics["wire.decode_us"] = _ratio(
        total_s(r for r, _ in decodes) * 1e6, sum(count for _, count in decodes))
    metrics["fleet.wait_us"] = _fleet_wait_us(processes, window)
    metrics["ring.route_us"] = mean_us("ring.route")
    per_shard: Dict[int, int] = {}
    for record, pid, _, _ in timed:
        if record[NAME] == "scheduler.submit" and pid in shard_pids:
            per_shard[pid] = per_shard.get(pid, 0) + 1
    metrics["shard.max_share"] = _ratio(
        max(per_shard.values(), default=0), sum(per_shard.values()))
    supervisor = health_after.get("supervisor") or {}
    metrics["fleet.redispatched_ops"] = supervisor.get("redispatched_ops", 0)
    metrics["fleet.restarts"] = supervisor.get("restarts_used", 0)
    # service.scheduler
    submitted = delta("scheduler", "submitted")
    dispatched = delta("scheduler", "dispatched_requests")
    metrics["scheduler.store_hit_ratio"] = _ratio(delta("scheduler", "store_hits"), submitted)
    metrics["scheduler.coalesced_ratio"] = _ratio(delta("scheduler", "coalesced"), submitted)
    unique = {slot[0] for r in named("scheduler.tick") for slot in r[ATTRS]["slots"]}
    metrics["scheduler.evals_per_unique"] = _ratio(dispatched, len(unique))
    metrics["scheduler.requests_per_dispatch"] = _ratio(
        dispatched, delta("scheduler", "dispatched_batches"))
    all_ticks = [r for r in named("scheduler.tick", every) if r[ATTRS]["slots"]]
    waits = [r[START] - slot[1] for r in all_ticks for slot in r[ATTRS]["slots"]
             if slot[1] is not None]
    metrics["scheduler.queue_wait_ms"] = _ratio(sum(waits) * 1e3, len(waits))
    metrics["scheduler.tick_ms"] = _ratio(total_s(all_ticks) * 1e3, len(all_ticks))
    metrics["scheduler.failed"] = sum(
        (health_after.get("scheduler") or {}).get(key, 0) for key in FAILED_COUNTERS)
    # service.store
    metrics["store.hit_ratio"] = _ratio(
        delta("store", "hits") + delta("store", "disk_hits"),
        delta("store", "hits") + delta("store", "misses"))
    metrics["store.get_us"] = mean_us("store.get")
    metrics["store.put_us"] = mean_us("store.put", every)
    # core.batch
    metrics["grid.cells"] = len(named("grid.cell"))
    metrics["grid.cell_us"] = mean_us("grid.cell")
    # core.fast_pipeline, core.config_batch, core.terms
    derives = named("derive.config_batch")
    config_layers = sum(r[ATTRS]["configs"] for r in derives)
    metrics["derive.config_layers"] = config_layers
    metrics["derive.us_per_config_layer"] = _ratio(total_s(derives) * 1e6, config_layers)
    term_hits = delta("scheduler", "term_hits")
    metrics["terms.hit_ratio"] = _ratio(
        term_hits, term_hits + delta("scheduler", "term_misses"))
    metrics["terms.derivations"] = delta("scheduler", "term_derivations")
    areas = named("area.config_batch")
    metrics["area.us_per_config"] = _ratio(
        total_s(areas) * 1e6, sum(r[ATTRS]["configs"] for r in areas))
    # workloads.distributions
    profiles = named("profile.layer", every)
    metrics["profile.calls"] = len(profiles)
    metrics["profile.ms"] = total_s(profiles) * 1e3
    # mapping
    searches = named("mapping.search")
    attempted = sum(r[ATTRS]["attempted"] for r in searches)
    metrics["mapping.candidates"] = attempted
    metrics["mapping.valid_ratio"] = _ratio(
        sum(r[ATTRS]["evaluated"] for r in searches), attempted)
    metrics["mapping.us_per_candidate"] = _ratio(total_s(searches) * 1e6, attempted)
    # whole run
    metrics["client.self_us"] = _ratio(
        union_length(_clip(client_intervals, window)) * 1e6, calls)
    server_pieces = [piece for _, spans in processes for piece in self_intervals(spans)]
    attributed = union_length(_clip(list(client_intervals) + server_pieces, window))
    metrics["trace.unattributed_share"] = _ratio((w1 - w0) - attributed, w1 - w0)
    metrics["trace.overhead"] = 1.0 - _ratio(traced_rps, untraced_rps)
    return metrics


def _clip(intervals: Iterable[Interval], window: Interval) -> List[Interval]:
    return [(max(a, window[0]), min(b, window[1])) for a, b in intervals
            if b > window[0] and a < window[1]]


def _fleet_wait_us(processes: Sequence[Tuple[int, Sequence]], window: Interval) -> float:
    """Mean (parent send -> reply decoded) minus the worker's handling span.

    Parent side: a ``fleet.dispatch`` span ends when the op frame was
    handed to the socket, and the matching ``fleet.deliver`` starts when
    its reply was decoded.  Worker side: the op was decoded when the
    ``wire.decode`` span that yielded it ended, and handled when the
    ``wire.send`` span carrying its reply ended.
    """
    sent, delivered, received, replied = {}, {}, {}, {}
    for pid, spans in processes:
        for record in spans:
            name, attrs = record[NAME], record[ATTRS]
            if name == "fleet.dispatch" and attrs["op"] == "evaluate":
                sent[(attrs["pid"], attrs["id"])] = record[END]
            elif name == "fleet.deliver":
                delivered[(attrs["pid"], attrs["id"])] = record[START]
            elif name == "wire.decode":
                for correlation in attrs["ops"]:
                    received[(pid, correlation)] = record[END]
            elif name == "wire.send" and attrs["kind"] == "reply":
                replied[(pid, attrs["id"])] = record[END]
    waits = [
        (delivered[key] - start) - (replied[key] - received[key])
        for key, start in sent.items()
        if window[0] <= start < window[1]
        and key in delivered and key in received and key in replied
    ]
    return _ratio(sum(waits) * 1e6, len(waits))
