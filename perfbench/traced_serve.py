"""Run ``python -m repro.service`` with in-memory span recorders on every layer.

Usage::

    PYTHONPATH=src python perfbench/traced_serve.py SPAN_DIR serve --port 0 ...

Before handing the remaining arguments to the CLI's ``main``, this
launcher wraps the public entry points of each serving layer.  A wrapper
records one span per call: name, start, end, parent span (the innermost
open span on the same thread), the request hash where the call has it
at hand, and a few call-specific counts; a call that raises is recorded
as ``<name>.error`` and its exception passes through untouched.
Functions are patched in every loaded module that binds them, so each
name is replaced where it is looked up; forked shard workers inherit the
wrappers.

Spans stay in memory and are written to ``SPAN_DIR/spans-<pid>.json``
when the process finishes serving.  A forked shard worker leaves through
``os._exit``, where ``atexit`` never runs, so its entry point flushes
explicitly on return.  Nothing under ``src/`` is changed, and untraced
runs load none of this.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Per-process span buffer."""

    def __init__(self, directory: str):
        self.directory = directory
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.ids = itertools.count(1)
        self.local = threading.local()

    def stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def flush(self) -> None:
        path = os.path.join(self.directory, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)
        os.replace(path + ".tmp", path)


RECORDER: Recorder = None  # set in main()


def span(name, attrs=None, request_hash=None, before=None):
    """Decorator factory: record one span per call of the wrapped function.

    ``attrs(args, result)`` returns the span's extra counts;
    ``request_hash(args, result)`` its request hash; ``before(args)``
    runs first and its value is passed to ``attrs`` as ``args[-1]``.
    """

    def decorate(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder = RECORDER
            stack = recorder.stack()
            span_id = next(recorder.ids)
            parent = stack[-1] if stack else 0
            early = before(args) if before is not None else None
            stack.append(span_id)
            start = _clock()
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                end = _clock()
                stack.pop()
                if failed:
                    # Record the time under its own name and let the
                    # exception through untouched.
                    record = (name + ".error", start, end, span_id, parent,
                              threading.get_ident(), None, None)
                else:
                    extra = attrs(args + (early,), result) if attrs is not None else None
                    digest = request_hash(args, result) if request_hash is not None else None
                    record = (name, start, end, span_id, parent,
                              threading.get_ident(), digest, extra)
                recorder.spans.append(record)

        return wrapper

    return decorate


def _timed_wait(future):
    """Wrap one future's ``result`` so the blocking wait is its own span."""
    waiter = span("scheduler.wait")(future.result)
    future.result = waiter
    return future


def _frame_kind(message) -> str:
    if "op" in message:
        return "op:" + str(message["op"])
    correlation = message.get("id")
    if correlation == -2:
        return "heartbeat"
    if correlation == -1:
        return "ready"
    return "reply"


def _patch_function(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _patch_method(owner, attribute, decorator) -> None:
    original = owner.__dict__[attribute]
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(decorator(original.__func__)))
    else:
        setattr(owner, attribute, decorator(original))


def install() -> None:
    """Wrap every layer's entry points (call once, before serving)."""
    import http.server

    import repro.core.batch as batch
    import repro.core.config_batch as config_batch
    import repro.mapping  # noqa: F401 - binds batch_search where it is looked up
    import repro.workloads.distributions as distributions
    from repro.core.fast_pipeline import PerActionEnergyCache
    from repro.service.http import EvaluationServiceHandler
    from repro.service.requests import EvaluationRequest
    from repro.service.scheduler import EvaluationScheduler
    from repro.service.shard import frontend, protocol, ring, worker
    from repro.service.store import ResultStore

    mapping_module = sys.modules["repro.mapping.batch_search"]

    # service.requests
    _patch_method(EvaluationRequest, "from_dict", span("requests.validate"))
    _patch_method(EvaluationRequest, "content_hash",
                  span("requests.hash", request_hash=lambda a, r: r))
    # service.store
    _patch_method(ResultStore, "get", span(
        "store.get", attrs=lambda a, r: {"hit": r is not None},
        request_hash=lambda a, r: a[1]))
    _patch_method(ResultStore, "put", span("store.put", request_hash=lambda a, r: a[1]))

    # service.scheduler: stamp each submit so a tick can measure queue wait.
    original_submit = EvaluationScheduler.__dict__["submit"]

    @span("scheduler.submit")
    def submit(self, request):
        object.__setattr__(request, "_perfbench_submitted", _clock())
        return _timed_wait(original_submit(self, request))

    EvaluationScheduler.submit = submit

    def drained(args):
        scheduler = args[0]
        with scheduler._lock:
            slots = list(scheduler._pending.values())
        return [(slot.request_hash,
                 getattr(slot.request, "_perfbench_submitted", None)) for slot in slots]

    _patch_method(EvaluationScheduler, "run_pending", span(
        "scheduler.tick", before=drained,
        attrs=lambda a, r: {"slots": a[-1]}))

    # core.batch, core.fast_pipeline, core.config_batch
    _patch_method(batch.BatchRunner, "run_grid", span("grid.run"))
    _patch_function(batch._evaluate_grid_cell,
                    span("grid.cell")(batch._evaluate_grid_cell))
    _patch_method(PerActionEnergyCache, "derive_many", span("derive.many"))
    _patch_function(config_batch.derive_config_batch, span(
        "derive.config_batch", attrs=lambda a, r: {"configs": len(r.configs)}
    )(config_batch.derive_config_batch))
    _patch_function(config_batch.area_config_batch, span(
        "area.config_batch", attrs=lambda a, r: {"configs": len(r.configs)}
    )(config_batch.area_config_batch))
    # workloads.distributions
    _patch_function(distributions.profile_layer,
                    span("profile.layer")(distributions.profile_layer))
    # mapping
    _patch_function(mapping_module.batch_search, span(
        "mapping.search", attrs=lambda a, r: {
            "attempted": r.mappings_attempted, "evaluated": r.mappings_evaluated,
        })(mapping_module.batch_search))

    # service.shard.protocol / worker / ring
    _patch_function(protocol.encode_frame, span(
        "wire.encode", attrs=lambda a, r: {"kind": _frame_kind(a[0]), "bytes": len(r)}
    )(protocol.encode_frame))
    _patch_method(protocol.FrameDecoder, "feed", span(
        "wire.decode", attrs=lambda a, r: {
            "kinds": [_frame_kind(m) for m in r],
            "ops": [m.get("id") for m in r if "op" in m],
        }))
    _patch_method(ring.HashRing, "route", span(
        "ring.route", request_hash=lambda a, r: a[1]))
    _patch_method(worker.ShardFleet, "submit", span("fleet.submit"))
    _patch_method(worker.ShardClient, "dispatch", span(
        "fleet.dispatch", before=lambda a: a[0]._next_id,
        attrs=lambda a, r: {"pid": a[0].process.pid, "id": a[-1], "op": a[1].op},
        request_hash=lambda a, r: a[1].request_hash))
    _patch_method(worker.ShardClient, "_deliver", span(
        "fleet.deliver",
        attrs=lambda a, r: {"pid": a[0].process.pid, "id": a[1].get("id")}))
    _patch_method(worker._ReplySender, "send", span(
        "wire.send", attrs=lambda a, r: {"id": a[1].get("id"),
                                         "kind": _frame_kind(a[1])}))

    # service.http and service.shard.frontend
    EvaluationServiceHandler.handle_one_request = span("http.request")(
        http.server.BaseHTTPRequestHandler.handle_one_request)
    _patch_method(frontend.AsyncFrontend, "_readable", span("frontend.read"))
    _patch_method(frontend.AsyncFrontend, "_flush_completed", span("frontend.flush"))

    # Forked shard workers: start with an empty buffer, flush on return.
    original_worker_main = worker._worker_main

    def worker_main(*args, **kwargs):
        RECORDER.reset()
        try:
            return original_worker_main(*args, **kwargs)
        finally:
            RECORDER.flush()

    worker._worker_main = worker_main


def main(argv) -> int:
    global RECORDER
    if len(argv) < 2:
        print("usage: traced_serve.py SPAN_DIR <repro.service args>", file=sys.stderr)
        return 2
    RECORDER = Recorder(argv[0])
    install()
    from repro.service.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        RECORDER.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
