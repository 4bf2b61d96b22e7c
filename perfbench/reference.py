"""Reference results from the in-process library path.

Usage::

    PYTHONPATH=src python perfbench/reference.py IN.json OUT.json

``IN.json`` holds ``{"batches": [[request, ...], ...], "scalar": [request, ...]}``.
Each batch is evaluated the way the server saw it, as one batch through
an in-process :class:`~repro.service.scheduler.EvaluationScheduler`, in
order; ``OUT.json`` maps each request's encoded body to its result,
serialised with sorted keys exactly as the HTTP front ends serialise it,
so a served result is correct only when it is bitwise identical.  The
``scalar`` requests are also evaluated by the scalar oracle
:func:`~repro.service.scheduler.evaluate_scalar`; ``OUT.json`` records
each one's worst relative error against the batched result.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from inputs import encode


def worst_relative_error(expected, got) -> float:
    """Worst relative error over numeric leaves; inf on any structural or
    non-numeric difference."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return float("inf")
        return max((worst_relative_error(expected[k], got[k]) for k in expected),
                   default=0.0)
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return float("inf")
        return max((worst_relative_error(e, g) for e, g in zip(expected, got)),
                   default=0.0)
    numeric = (int, float)
    if (isinstance(expected, numeric) and isinstance(got, numeric)
            and not isinstance(expected, bool) and not isinstance(got, bool)):
        return abs(expected - got) / max(abs(expected), 1e-300)
    return 0.0 if expected == got else float("inf")


def main(argv: List[str]) -> int:
    from repro.service.requests import EvaluationRequest
    from repro.service.scheduler import EvaluationScheduler, evaluate_scalar

    with open(argv[0]) as handle:
        spec = json.load(handle)
    scheduler = EvaluationScheduler()
    results: Dict[str, str] = {}
    for batch in spec["batches"]:
        requests = [EvaluationRequest.from_dict(body) for body in batch]
        for body, result in zip(batch, scheduler.evaluate_batch(requests)):
            results[encode(body).decode()] = json.dumps(result, sort_keys=True)
    scalar = {}
    for body in spec["scalar"]:
        oracle = json.loads(json.dumps(evaluate_scalar(EvaluationRequest.from_dict(body))))
        key = encode(body).decode()
        scalar[key] = worst_relative_error(oracle, json.loads(results[key]))
    scheduler.close()
    with open(argv[1], "w") as handle:
        json.dump({"results": results, "scalar_rel_error": scalar}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
