"""Command-line front end: ``python -m repro.service <command>``.

Commands
--------
``serve``
    Run the HTTP evaluation service in one process (``--host``,
    ``--port``; ``--port 0`` picks an ephemeral port and prints it).
    ``--shards N`` serves the sharded deployment instead — the service's
    only multi-process path: the same async front end routing over a
    consistent-hash ring to ``N`` scheduler worker processes.
    ``--store-dir`` names the disk result tier in both modes (shared by
    every worker of a fleet).  ``--max-pending`` and ``--store-dir``
    replace their deployment setting (:mod:`repro.service.settings`); a
    value the settings refuse exits 2.
``submit``
    Send one request to a running service (``--url``) or evaluate it
    in-process (``--local``).  The request comes from ``--file`` (JSON,
    ``-`` for stdin) or is assembled from ``--macro`` / ``--workload`` /
    ``--objective`` / ``--override key=value`` flags.
``trace``
    Synthesise a replay trace (JSONL) with a target duplicate fraction,
    family count, and arrival shape (``--shape uniform|diurnal|bursty|
    hotspot``).
``replay``
    Replay a trace in-process through the coalescing scheduler (default)
    or serially per request (``--serial``), printing throughput,
    latency percentiles, and coalescing statistics as JSON.  ``--chaos``
    replays under the deterministic fault-injection preset
    (``--chaos-seed``) and adds the injector's counters to the report —
    results must be unaffected.  ``--shards N`` replays through a shard
    fleet instead, reporting the merged fleet health; combined with
    ``--chaos`` the faults move up a level (``--chaos-kills`` shard
    SIGKILLs mid-replay plus frame corruption) and the supervised fleet
    must still return every result.  A chaos seed or kill count the
    config refuses (below 0) exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.service.requests import EvaluationRequest, ServiceError


def _parse_override(raw: str):
    """``key=value`` with value coerced to bool/int/float when possible."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"override must be key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    lowered = value.strip().lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    for caster in (int, float):
        try:
            return key, caster(value)
        except ValueError:
            continue
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Coalescing CiM evaluation service",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-pending", type=int, default=None,
                       help="bound the pending queue (at least 1); excess "
                            "requests are shed with HTTP 429 + Retry-After "
                            "(default: REPRO_SERVICE_MAX_PENDING, else unbounded)")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve the sharded deployment: async front end "
                            "+ N scheduler worker processes (0 = the "
                            "single-process service)")
    serve.add_argument("--store-dir", default=None,
                       help="disk result tier (default: "
                            "REPRO_RESULT_STORE_DIR, else memory only); "
                            "with --shards, shared by every worker")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")

    submit = commands.add_parser("submit", help="submit one request")
    submit.add_argument("--url", default="http://127.0.0.1:8080",
                        help="service base URL")
    submit.add_argument("--local", action="store_true",
                        help="evaluate in-process instead of over HTTP")
    submit.add_argument("--file", help="request JSON file ('-' for stdin)")
    submit.add_argument("--macro", default="base_macro")
    submit.add_argument("--workload", default=None)
    submit.add_argument("--objective", default="energy")
    submit.add_argument("--num-mappings", type=int, default=1000)
    submit.add_argument("--override", action="append", type=_parse_override,
                        default=[], metavar="KEY=VALUE")

    trace = commands.add_parser("trace", help="synthesise a replay trace")
    trace.add_argument("--out", required=True, help="JSONL output path")
    trace.add_argument("--requests", type=int, default=1000)
    trace.add_argument("--duplicate-fraction", type=float, default=0.6)
    trace.add_argument("--families", type=int, default=3)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--shape", default="uniform",
                       help="arrival shape: uniform, diurnal, bursty, "
                            "or hotspot")

    replay = commands.add_parser("replay", help="replay a trace in-process")
    replay.add_argument("--trace", required=True, help="JSONL trace path")
    replay.add_argument("--serial", action="store_true",
                        help="per-request baseline instead of coalescing")
    replay.add_argument("--window", type=int, default=128,
                        help="requests per arrival window (coalesced mode)")
    replay.add_argument("--chaos", action="store_true",
                        help="replay under deterministic fault injection "
                             "(corrupt store entries; with --shards, shard "
                             "kills and corrupt frames)")
    replay.add_argument("--chaos-seed", type=int, default=0,
                        help="seed of the chaos injector's RNG")
    replay.add_argument("--chaos-kills", type=int, default=1,
                        help="with --chaos --shards: SIGKILL this many "
                             "shard workers at scheduled points mid-replay "
                             "(the supervisor must recover every one)")
    replay.add_argument("--shards", type=int, default=0,
                        help="replay through a shard fleet of N workers "
                             "(0 = single in-process scheduler)")
    replay.add_argument("--store-dir", default=None,
                        help="shared disk tier of the replay fleet "
                             "(sharded mode; default: a temporary dir)")
    return parser


def _cmd_serve(args) -> int:
    import signal
    from dataclasses import replace

    from repro.service.settings import ServiceSettings

    flags = {"max_pending": args.max_pending, "store_dir": args.store_dir}
    try:
        settings = replace(ServiceSettings.from_env(),
                           **{name: v for name, v in flags.items() if v is not None})
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.shards > 0:
        from repro.service.shard import ShardFleet, serve_sharded

        frontend = serve_sharded(host=args.host, port=args.port,
                                 fleet=ShardFleet(shards=args.shards, settings=settings))
        mode, detail = " (sharded)", f"shards={args.shards}"
    else:
        from repro.service.http import serve
        from repro.service.scheduler import EvaluationScheduler

        frontend = serve(args.host, args.port,
                         scheduler=EvaluationScheduler(settings=settings))
        mode, detail = "", "single process"
    frontend.verbose = args.verbose
    backend = frontend.handler.backend
    host, port = frontend.address
    print(f"repro.service{mode} listening on http://{host}:{port} ({detail})",
          file=sys.stderr)

    # Graceful drain on SIGTERM (the fleet's stop signal): exit the serve
    # loop like Ctrl-C does, then let the backend finish its in-flight
    # work (a closing scheduler fails any leftover waiter with
    # ShutdownError instead of hanging it; a fleet drains every shard),
    # send the replies that produced, and close the sockets.
    def _drain(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _drain)
    try:
        frontend.serve_forever()
    except KeyboardInterrupt:
        print("repro.service: shutdown signal received; draining in-flight "
              "requests", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        backend.close()
        frontend.shutdown()
    return 0


def _load_request(args) -> EvaluationRequest:
    if args.file:
        text = sys.stdin.read() if args.file == "-" else open(args.file).read()
        return EvaluationRequest.from_json(text)
    return EvaluationRequest(
        macro=args.macro,
        workload=args.workload,
        objective=args.objective,
        num_mappings=args.num_mappings,
        overrides=dict(args.override),
    )


def _cmd_submit(args) -> int:
    request = _load_request(args)
    if args.local:
        from repro.service.scheduler import EvaluationScheduler

        result = EvaluationScheduler().evaluate(request)
    else:
        import urllib.error
        import urllib.request

        http_request = urllib.request.Request(
            args.url.rstrip("/") + "/evaluate",
            data=request.canonical_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(http_request) as response:
                result = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            # Surface the server's JSON error envelope, not a traceback.
            body = error.read().decode("utf-8", errors="replace")
            try:
                envelope = json.loads(body)
            except ValueError:
                envelope = {"error": {"type": "HTTPError", "message": body.strip()}}
            print(json.dumps(envelope, indent=2, sort_keys=True), file=sys.stderr)
            return 2
        except urllib.error.URLError as error:
            print(f"error: cannot reach {args.url}: {error.reason}", file=sys.stderr)
            return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args) -> int:
    from repro.service.replay import generate_trace, trace_profile

    trace = generate_trace(
        num_requests=args.requests,
        duplicate_fraction=args.duplicate_fraction,
        families=args.families,
        seed=args.seed,
        path=args.out,
        shape=args.shape,
    )
    profile = dict(trace_profile(trace))
    profile["shape"] = args.shape
    print(json.dumps(profile, indent=2, sort_keys=True))
    return 0


def _cmd_replay(args) -> int:
    from repro.service.replay import (
        latency_percentiles,
        load_trace,
        replay_coalesced,
        replay_serial,
        replay_sharded,
        trace_profile,
    )

    chaos = None
    if args.chaos:
        from repro.service.chaos import ChaosConfig

        try:
            chaos = ChaosConfig.preset(seed=args.chaos_seed, kills=args.chaos_kills)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    trace = load_trace(args.trace)
    report = dict(trace_profile(trace))
    if args.serial:
        _, elapsed = replay_serial(trace)
        report.update(mode="serial", wall_s=elapsed,
                      requests_per_s=len(trace) / elapsed if elapsed else 0.0)
    elif args.shards > 0:
        _, elapsed, health, latencies = replay_sharded(
            trace, shards=args.shards,
            window=args.window, store_dir=args.store_dir,
            fleet_chaos=chaos,
        )
        report.update(mode="sharded", shards=args.shards, wall_s=elapsed,
                      requests_per_s=len(trace) / elapsed if elapsed else 0.0,
                      latency=latency_percentiles(latencies),
                      fleet=health)
    else:
        _, elapsed, scheduler, latencies = replay_coalesced(
            trace, window=args.window, chaos=chaos
        )
        report.update(mode="coalesced", wall_s=elapsed,
                      requests_per_s=len(trace) / elapsed if elapsed else 0.0,
                      latency=latency_percentiles(latencies),
                      scheduler=scheduler.stats.as_dict())
        if chaos is not None:
            report["chaos"] = scheduler.chaos.stats()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return {
            "serve": _cmd_serve,
            "submit": _cmd_submit,
            "trace": _cmd_trace,
            "replay": _cmd_replay,
        }[args.command](args)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
