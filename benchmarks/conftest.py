"""Shared pytest-benchmark configuration for the experiment benchmarks.

Every benchmark regenerates one of the paper's tables or figures and prints
the modelled rows/series so `pytest benchmarks/ --benchmark-only` doubles as
the reproduction report generator.  Benchmarks use reduced sweep sizes where
the full sweep would take minutes; the printed output states the sweep used.

The perf benchmarks' ``BENCH_*.json`` records at the repo root are
written by :func:`write_record`, and only in a session started with
``--benchmark-only`` (every ``make bench*`` target passes it): a plain
test run checks every gate but leaves the tracked records alone.
"""

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_WRITE_RECORDS = False


def pytest_configure(config):
    global _WRITE_RECORDS
    # Benchmarks are about regenerating results, not micro-optimising; a
    # single round per benchmark keeps the whole suite fast.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
    _WRITE_RECORDS = bool(config.getoption("benchmark_only", default=False))


def write_record(name: str, record, sort_keys: bool = False) -> None:
    """Write one perf record (``BENCH_<...>.json``) at the repo root, in
    a ``--benchmark-only`` session only."""
    if _WRITE_RECORDS:
        (REPO_ROOT / name).write_text(json.dumps(record, indent=2, sort_keys=sort_keys) + "\n")


def emit(title: str, lines) -> None:
    """Print a titled block of result lines beneath the benchmark output."""
    print(f"\n=== {title} ===")
    for line in lines:
        print(f"  {line}")
