"""End-to-end benchmark of the evaluation service over real HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_single --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Each run spawns a fresh ``python -m repro.service serve`` (see
``proc.py``), drives it from this one stdlib process over one connection
in a closed loop, and checks every reply against the in-process library
path outside the timed window (``reference.py``).  Workloads, metrics
and their windows are described in ``perfbench/README.md``.

With ``--trace 0`` the run sets up 3 to 5 times (:data:`SETUPS`; spawn
+ warm-up, timed as ``setup_s``; the median is reported), then measures
the last server for ``--seconds``.  With ``--trace 1`` it measures an untraced
server and a traced one (``traced_serve.py``) for half the time each and
reports the per-layer metrics (``layers.py``).  The last line of standard
output is the result JSON; the line before it is the run record (core
count, calibration-loop times, set-up times, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
import layers
from client import Call, Connection, build_request
from proc import Server, ServerError, calibration_ms, nproc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("hot_single", "fleet_hot", "sweep_fresh")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.  The
#: CPU-bound sweep set-up swings more within a run than the hot ones,
#: which mostly wait out the scheduler's coalescing window.
SETUPS = {"hot_single": 3, "fleet_hot": 3, "sweep_fresh": 5}

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: The tail percentile each run records: the highest whose runs leave at
#: least ten calls beyond it (sweep_fresh makes about 75 calls).  It is a
#: diagnostic, not an end-to-end metric: host CPU steal of a few
#: milliseconds moved the hot_single p99 from 1.1 ms to 6.3 ms.
TAIL_PERCENTILE = {"hot_single": 0.99, "fleet_hot": 0.99, "sweep_fresh": 0.80}

#: Calls generated per run; a run that uses them all stops early.
HOT_DRAWS = 60_000
FLEET_CALLS = 4_000
#: The first batch pays every cold start (layer profiles, term cache);
#: three more keep it from being the whole of the sweep's set-up.
SWEEP_WARMUP_BATCHES = 4
SWEEP_CALLS = 400

# One call: the request bytes and the canonical bodies of its members.
Planned = Tuple[bytes, List[str]]


class Plan:
    """Everything one workload sends for one seed, encoded up front."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.bodies: Dict[str, dict] = {}
        if workload == "sweep_fresh":
            batches = [self._members(batch) for batch in
                       inputs.sweep_batches(seed, SWEEP_WARMUP_BATCHES + SWEEP_CALLS)]
            calls = [self._batch_call(batch) for batch in batches]
            self.warmup, self.timed = calls[:SWEEP_WARMUP_BATCHES], calls[SWEEP_WARMUP_BATCHES:]
            first = batches[0]
            # Scalar-oracle sample: the first energy point of each workload
            # and the first mappings point of the sweep.
            seen, self.scalar = set(), []
            for key in first:
                body = self.bodies[key]
                kind = (body["objective"], body["workload"])
                if kind not in seen:
                    seen.add(kind)
                    self.scalar.append(key)
        else:
            pool = self._members(inputs.hot_pool(seed))
            singles = [(build_request("POST", "/evaluate", key.encode()), [key])
                       for key in pool]
            self.warmup = singles
            if workload == "hot_single":
                self.timed = [singles[index] for index in
                              inputs.hot_draws(seed, HOT_DRAWS, "single")]
            else:
                self.timed = [self._batch_call([pool[index] for index in batch])
                              for batch in inputs.fleet_batches(seed, FLEET_CALLS)]
            self.scalar = pool[:4]

    def _members(self, bodies: Sequence[dict]) -> List[str]:
        keys = []
        for body in bodies:
            key = inputs.encode(body).decode()
            self.bodies[key] = body
            keys.append(key)
        return keys

    @staticmethod
    def _batch_call(keys: List[str]) -> Planned:
        body = ('{"requests":[' + ",".join(keys) + "]}").encode()
        return build_request("POST", "/evaluate/batch", body), keys

    def reference_batches(self, timed_sent: int) -> List[List[dict]]:
        """The batches the server evaluated, in the order it saw them."""
        if self.workload == "sweep_fresh":
            sent = self.warmup + self.timed[:timed_sent]
            return [[self.bodies[key] for key in keys] for _, keys in sent]
        return [[self.bodies[keys[0]]] for _, keys in self.warmup]

    def serve_args(self, workdir: str) -> List[str]:
        if self.workload == "fleet_hot":
            store = os.path.join(workdir, f"store-{time.monotonic_ns()}")
            return ["--shards", "2", "--store-dir", store]
        return []


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(fraction * len(ordered) * 1e6)) // 1_000_000))
    return ordered[min(rank, len(ordered)) - 1]


def calls_needed(fraction: float, beyond: int = 10) -> int:
    """Fewest calls that leave ``beyond`` calls above the percentile."""
    return -(-int(round(beyond * 1e6)) // int(round((1.0 - fraction) * 1e6)))


def tail_latency(latencies: Sequence[float], fraction: float) -> Tuple[float, int]:
    """Median over consecutive groups of the group percentile.

    Each group holds at least :func:`calls_needed` calls, so every group
    percentile has ten calls beyond it; returns (value, groups).  With
    fewer calls than that, the single percentile of all calls is returned
    with 0 groups, marking the value as unsupported.
    """
    need = calls_needed(fraction)
    groups = len(latencies) // need
    if groups == 0:
        return percentile(latencies, fraction), 0
    size = len(latencies) // groups
    values = [percentile(latencies[g * size:(g + 1) * size if g < groups - 1 else None],
                         fraction) for g in range(groups)]
    return statistics.median(values), groups


def drive(connection: Connection, planned: Sequence[Planned],
          seconds: Optional[float] = None) -> List[Call]:
    """Closed loop: send each call after the previous reply was read."""
    done: List[Call] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    gc.collect()
    gc.disable()
    try:
        for request, _ in planned:
            call = connection.call(request)
            done.append(call)
            if deadline is not None and call.end >= deadline:
                break
    finally:
        gc.enable()
    return done


def get_json(port: int, path: str) -> Dict:
    connection = Connection("127.0.0.1", port)
    try:
        call = connection.call(build_request("GET", path))
    finally:
        connection.close()
    return json.loads(call.body) if call.status == 200 else {}


class Outcome:
    """Sent calls of one run, checked after measuring."""

    def __init__(self):
        self.phases: List[Tuple[Sequence[Planned], List[Call]]] = []

    def add(self, planned: Sequence[Planned], done: List[Call]) -> None:
        self.phases.append((planned, done))

    def check(self, reference: Dict[str, str]) -> Tuple[int, int]:
        """(attempted, failed): non-200, inline errors and mismatches fail."""
        attempted = failed = 0
        verified = set()
        for planned, done in self.phases:
            for (request, keys), call in zip(planned, done):
                attempted += len(keys)
                single = request.startswith(b"POST /evaluate ")
                if call.status != 200:
                    failed += len(keys)
                    continue
                if single and (keys[0], call.body) in verified:
                    continue
                payload = json.loads(call.body)
                results = [payload] if single else payload.get("results")
                if not isinstance(results, list) or len(results) != len(keys):
                    failed += len(keys)
                    continue
                for key, result in zip(keys, results):
                    if json.dumps(result, sort_keys=True) != reference.get(key):
                        failed += 1
                    elif single:
                        verified.add((key, call.body))
        return attempted, failed


def reference_results(plan: Plan, timed_sent: int, workdir: str) -> Tuple[Dict, Dict]:
    """Run ``reference.py`` in a fresh interpreter; (results, scalar errors)."""
    spec = os.path.join(workdir, "reference-in.json")
    out = os.path.join(workdir, "reference-out.json")
    with open(spec, "w") as handle:
        json.dump({"batches": plan.reference_batches(timed_sent),
                   "scalar": [plan.bodies[key] for key in plan.scalar]}, handle)
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    subprocess.run([sys.executable, os.path.join(HERE, "reference.py"), spec, out],
                   cwd=ROOT, env=env, check=True, timeout=150)
    with open(out) as handle:
        payload = json.load(handle)
    return payload["results"], payload["scalar_rel_error"]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def set_up(plan: Plan, workdir: str, outcome: Outcome, launcher=None) -> Tuple[Server, Connection, float]:
    """Spawn a server and send the warm-up; returns it with its set-up time."""
    server = Server(ROOT, plan.serve_args(workdir), launcher=launcher)
    try:
        connection = Connection("127.0.0.1", server.port)
        outcome.add(plan.warmup, drive(connection, plan.warmup))
    except BaseException:
        server.stop(graceful=False)
        raise
    return server, connection, time.perf_counter() - server.started


def measure(plan: Plan, server: Server, connection: Connection, seconds: float,
            outcome: Outcome) -> Dict:
    """The timed phase on a warmed-up server."""
    cpu_before, connects_before = server.cpu_seconds(), connection.connects
    done = drive(connection, plan.timed, seconds)
    cpu_after = server.cpu_seconds()
    rss = server.peak_rss_mib()
    outcome.add(plan.timed, done)
    requests = sum(len(keys) for _, keys in plan.timed[:len(done)])
    fraction = TAIL_PERCENTILE[plan.workload]
    latencies = [call.latency for call in done]
    tail, groups = tail_latency(latencies, fraction)
    return {
        "calls": len(done),
        "requests": requests,
        "connects": connection.connects - connects_before,
        "exhausted": len(done) == len(plan.timed),
        "window": (done[0].start, done[-1].end),
        "done": done,
        "throughput_rps": requests / (done[-1].end - done[0].start),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "tail": {"percentile": fraction, "value_ms": tail * 1e3, "groups": groups,
                 "calls": len(done)},
        "cpu_ms_per_req": (cpu_after - cpu_before) * 1e3 / requests,
        "peak_rss_mb": rss,
    }


def client_intervals(done: Sequence[Call]) -> List[Tuple[float, float]]:
    """The client's own busy time: everything but waiting for replies."""
    pieces = []
    for index, call in enumerate(done):
        pieces.append((call.start, call.sent))
        pieces.append((call.first_byte, call.end))
        if index + 1 < len(done):
            pieces.append((call.end, done[index + 1].start))
    return pieces


def load_spans(directory: str) -> List[Tuple[int, list]]:
    processes = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                payload = json.load(handle)
            processes.append((payload["pid"], payload["spans"]))
    return processes


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One benchmark run; returns the result and its record."""
    workdir = os.path.join(WORKDIR, f"{workload}-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    record: Dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "nproc": nproc(),
                    "python": sys.version.split()[0]}
    record["calibration_ms_before"] = calibration_ms()
    plan = Plan(workload, seed)
    outcome = Outcome()
    metrics: Dict[str, float] = {}
    try:
        if trace:
            timed_sent, metrics = _traced(plan, seconds, workdir, outcome, record)
        else:
            timed_sent, metrics = _untraced(plan, seconds, workdir, outcome, record)
        reference, scalar = reference_results(plan, timed_sent, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = outcome.check(reference)
    record["scalar_max_rel_error"] = max(scalar.values(), default=0.0)
    record["calibration_ms_after"] = calibration_ms()
    correct = failed == 0 and record["scalar_max_rel_error"] <= 1e-9
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def _untraced(plan, seconds, workdir, outcome, record):
    setups = []
    for repeat in range(SETUPS[plan.workload]):
        server, connection, elapsed = set_up(plan, workdir, outcome)
        setups.append(elapsed)
        if repeat < SETUPS[plan.workload] - 1:
            connection.close()
            server.stop()
    try:
        result = measure(plan, server, connection, seconds, outcome)
    finally:
        connection.close()
        server.stop()
    record.update(setups_s=setups, calls=result["calls"], requests=result["requests"],
                  exhausted=result["exhausted"], tail=result["tail"])
    metrics = {name: result[name] for name, _ in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    return result["calls"], metrics


def _traced(plan, seconds, workdir, outcome, record):
    half = seconds / 2.0
    server, connection, _ = set_up(plan, workdir, outcome)
    try:
        untraced = measure(plan, server, connection, half, outcome)
    finally:
        connection.close()
        server.stop()
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir)
    launcher = [os.path.join(HERE, "traced_serve.py"), span_dir]
    server, connection, _ = set_up(plan, workdir, outcome, launcher=launcher)
    try:
        health_before = get_json(server.port, "/healthz")
        traced = measure(plan, server, connection, half, outcome)
        health_after = get_json(server.port, "/healthz")
    finally:
        connection.close()
        code = server.stop()
    if code != 0:
        raise ServerError(f"traced server exited with {code}:\n" + "".join(server.log[-20:]))
    metrics = layers.per_layer(
        load_spans(span_dir), traced["window"], traced["requests"], traced["calls"],
        client_intervals(traced["done"]), traced["connects"], health_before, health_after,
        traced["throughput_rps"], untraced["throughput_rps"],
    )
    record.update(calls=traced["calls"], requests=traced["requests"],
                  untraced_throughput_rps=untraced["throughput_rps"],
                  traced_throughput_rps=traced["throughput_rps"])
    return max(untraced["calls"], traced["calls"]), metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def metric_units(trace: bool) -> Dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in layers.METRICS}
    return dict(END_TO_END)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM (a timeout, say) unwinds through the blocks that stop each
    # server, instead of leaving its process group running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro", "service")):
        print(f"error: no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units(bool(args.trace))
    results = {name: run_once(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"succeeded={result['attempted'] - result['failed']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:36s} {value:14.6g} {units[metric]}")
        print(json.dumps({"record": result["record"]}, sort_keys=True))
    if args.workload == "all":
        metrics = {f"{name}.{metric}": {"value": value, "unit": units[metric]}
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    else:
        metrics = {metric: {"value": value, "unit": units[metric]}
                   for metric, value in results[args.workload]["metrics"].items()}
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
