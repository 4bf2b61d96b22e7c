"""Run the benchmark over many seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 10 --out set1.json
    python3 perfbench/steadiness.py --seeds 10 --out set2.json --compare set1.json

Workloads are interleaved (every workload runs once per seed before the
next seed starts).  For each workload and end-to-end metric the report
gives the median and the quartile spread, ``(q3 - q1) / median`` with
quartiles as ``statistics.quantiles(values, n=4)`` computes them, next to
the metric's bound from ``BENCHMARK.json``.  With ``--compare`` it also
reports how much worse each median got relative to the earlier set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(before: float, after: float, better: str) -> float:
    """Share by which ``after`` is worse than ``before`` (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="JSON file for this set's values")
    parser.add_argument("--compare", default=None, help="an earlier set's JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}\n"
                      f"{completed.stderr[-2000:]}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            failures += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            for name in ("calibration_ms_before", "calibration_ms_after"):
                values[workload].setdefault(name, []).append(record[name])
            print(f"{workload} seed {seed}: calibration_ms="
                  f"{record['calibration_ms_before']:.0f}/{record['calibration_ms_after']:.0f} "
                  + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()),
                flush=True)
    with open(args.out, "w") as handle:
        json.dump(values, handle, indent=1)
    earlier = None
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)
    print(f"{'workload':12s} {'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          + ("  worse_vs_earlier" if earlier else ""))
    for workload in workloads:
        for metric in bench["end_to_end"]:
            series = values[workload].get(metric["name"])
            if not series or len(series) < 2:
                continue
            median = statistics.median(series)
            line = (f"{workload:12s} {metric['name']:34s} {median:12.5g} "
                    f"{spread(series):8.4f} {metric['bound']:6.3f}")
            if earlier and earlier.get(workload, {}).get(metric["name"]):
                before = statistics.median(earlier[workload][metric["name"]])
                if before:
                    line += f"  {worsening(before, median, metric['better']):+.4f}"
            print(line)
    print(f"failed requests or runs: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
