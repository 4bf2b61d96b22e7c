"""The CiMLoop evaluation engine.

* :mod:`repro.core.model` — :class:`CiMLoopModel`, the user-facing entry
  point: evaluate a macro or full system on a workload, sweep design
  parameters, and run amortised mapping searches.
* :mod:`repro.core.fast_pipeline` — the fast statistical data-value-
  dependent pipeline: per-action energies computed once per (layer,
  architecture) and amortised over arbitrarily many mappings
  (paper Sec. III-D).
* :mod:`repro.core.batch` — the vectorized batch evaluation engine
  (candidate batches as NumPy counts matrices) and the process-pool
  :class:`~repro.core.batch.BatchRunner` for parallel sweeps, which ships
  parent-derived per-action energy tables to its workers in their
  payloads.
* :mod:`repro.core.config_batch` — config-axis batched derivation of the
  per-action energy tables themselves (one NumPy pass per layer for a
  whole config family; the scalar macro walk stays as the oracle).
* :mod:`repro.core.evaluation` — result containers and breakdown helpers.
* :mod:`repro.core.accuracy` — error metrics used to validate against the
  value-level ground truth and published silicon (paper Sec. IV/V).
"""

from repro.core.accuracy import mean_absolute_percent_error, percent_error
from repro.core.batch import (
    BatchEvaluationResult,
    BatchEvaluator,
    BatchRunner,
    MappingCandidateSpace,
    process_energy_cache,
    shared_pool,
    shutdown_shared_pool,
)
from repro.core.config_batch import ConfigBatchResult, derive_config_batch
from repro.core.evaluation import EvaluationResult, LayerEvaluation
from repro.core.fast_pipeline import AmortizedEvaluator, PerActionEnergyCache
from repro.core.model import CiMLoopModel

__all__ = [
    "CiMLoopModel",
    "PerActionEnergyCache",
    "AmortizedEvaluator",
    "ConfigBatchResult",
    "derive_config_batch",
    "BatchEvaluator",
    "BatchEvaluationResult",
    "BatchRunner",
    "MappingCandidateSpace",
    "process_energy_cache",
    "shared_pool",
    "shutdown_shared_pool",
    "EvaluationResult",
    "LayerEvaluation",
    "percent_error",
    "mean_absolute_percent_error",
]
