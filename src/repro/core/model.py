"""CiMLoopModel: the user-facing evaluation entry point.

A :class:`CiMLoopModel` binds a hardware description (a macro config, or a
system config for full-system studies) and exposes the operations the
paper's case studies perform:

* evaluate a single layer or a whole network, with or without operand
  distributions (data-value-dependent vs fixed-energy mode);
* sweep one or more config parameters across a workload;
* run amortised mapping evaluations (the Table II speed experiment);
* report area and energy breakdowns.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.architecture.macro import CiMMacro, CiMMacroConfig
from repro.architecture.system import System, SystemConfig
from repro.core.batch import BatchRunner
from repro.core.evaluation import EvaluationResult, LayerEvaluation
from repro.core.fast_pipeline import AmortizedEvaluator, AmortizedSearchResult, PerActionEnergyCache
from repro.utils.errors import EvaluationError
from repro.workloads.distributions import LayerDistributions, profile_layer, profile_network
from repro.workloads.layer import Layer
from repro.workloads.networks import Network


class CiMLoopModel:
    """Evaluate CiM macros and systems on DNN workloads.

    Parameters
    ----------
    config:
        Either a :class:`CiMMacroConfig` (macro-only studies) or a
        :class:`SystemConfig` (full-system studies including the memory
        hierarchy and off-chip DRAM).
    use_distributions:
        When True (default) the data-value-dependent statistical pipeline
        is used; when False the model falls back to nominal (fixed-energy)
        operand statistics, matching the paper's non-data-value-dependent
        baseline.
    """

    def __init__(
        self,
        config: Union[CiMMacroConfig, SystemConfig],
        use_distributions: bool = True,
    ):
        if isinstance(config, SystemConfig):
            self.system_config: Optional[SystemConfig] = config
            self.macro_config = config.macro
            self.system: Optional[System] = System(config)
            self.macro = self.system.macro
        elif isinstance(config, CiMMacroConfig):
            self.system_config = None
            self.macro_config = config
            self.system = None
            self.macro = CiMMacro(config)
        else:
            raise EvaluationError(
                "config must be a CiMMacroConfig or SystemConfig, "
                f"got {type(config).__name__}"
            )
        self.use_distributions = use_distributions
        self.energy_cache = PerActionEnergyCache()

    # ------------------------------------------------------------------
    @property
    def is_full_system(self) -> bool:
        """True when the model includes the memory hierarchy and DRAM."""
        return self.system is not None

    def _layer_distributions(
        self, layer: Layer, provided: Optional[LayerDistributions]
    ) -> Optional[LayerDistributions]:
        if not self.use_distributions:
            return None
        return provided if provided is not None else profile_layer(layer)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_layer(
        self,
        layer: Layer,
        distributions: Optional[LayerDistributions] = None,
        first_layer: bool = False,
        last_layer: bool = False,
    ) -> LayerEvaluation:
        """Evaluate one layer; returns its energy breakdown and latency."""
        dists = self._layer_distributions(layer, distributions)
        if self.system is not None:
            result = self.system.evaluate_layer(
                layer, dists, first_layer=first_layer, last_layer=last_layer
            )
            return LayerEvaluation(
                layer_name=result.layer_name,
                total_macs=result.total_macs,
                energy_breakdown=dict(result.energy_breakdown),
                latency_s=result.latency_s,
                utilization=result.macro_result.counts.utilization,
            )
        # Self-profiled layers go through the model's persistent energy
        # cache (keyed on config + layer fingerprint, default profiles
        # only) so re-evaluating a layer never re-derives its energies;
        # caller-supplied distributions may be custom, so they bypass it.
        per_action = None
        if distributions is None and dists is not None:
            per_action = self.energy_cache.get(self.macro, layer, dists)
        result = self.macro.evaluate_layer(
            layer, dists, auto_profile=self.use_distributions, per_action=per_action
        )
        return LayerEvaluation.from_macro_result(result)

    def evaluate(
        self,
        workload: Union[Network, Layer],
        distributions: Optional[Mapping[str, LayerDistributions]] = None,
    ) -> EvaluationResult:
        """Evaluate a whole network (or a single layer) end to end."""
        network = self._as_network(workload)
        layer_results: List[LayerEvaluation] = []
        num_layers = len(network)
        for index, layer in enumerate(network):
            provided = distributions.get(layer.name) if distributions else None
            layer_results.append(
                self.evaluate_layer(
                    layer,
                    distributions=provided,
                    first_layer=(index == 0),
                    last_layer=(index == num_layers - 1),
                )
            )

        if self.system is not None:
            area = self.system.area_breakdown_um2()
            target = f"system({self.macro_config.name})"
        else:
            area = self.macro.area_breakdown_um2()
            target = self.macro_config.name
        return EvaluationResult(
            workload_name=network.name,
            target_name=target,
            layers=layer_results,
            area_breakdown_um2=area,
        )

    # ------------------------------------------------------------------
    # Sweeps and mapping search
    # ------------------------------------------------------------------
    def _as_network(self, workload: Union[Network, Layer]) -> Network:
        if isinstance(workload, Layer):
            return Network(name=workload.name, layers=(workload,))
        if isinstance(workload, Network):
            return workload
        raise EvaluationError(
            f"workload must be a Network or Layer, got {type(workload).__name__}"
        )

    def sweep(
        self,
        workload: Union[Network, Layer],
        parameter: str,
        values: Sequence[object],
        workers: int = 1,
    ) -> Dict[object, EvaluationResult]:
        """Evaluate the workload for each value of one macro config parameter.

        Returns a mapping from swept value to evaluation result; the macro
        config is rebuilt per point (``dataclasses.replace``, so system
        fields are carried over wholesale), so any :class:`CiMMacroConfig`
        field can be swept (array size, DAC resolution, encodings, ...).

        Operand distributions are profiled once per layer and shared by
        every sweep point — profiling is layer-only (paper Sec. III-D1) and
        independent of the swept hardware — and the whole sweep's
        per-action energy tables are derived up front in config-axis
        batched passes (:mod:`repro.core.config_batch`), one pass per
        layer for all points at once.  With ``workers > 1`` the joint
        ``(point x layer)`` product is fanned across the process-wide
        shared pool (:func:`repro.core.batch.shared_pool`): the pool is
        created once per process on first use, reused by every later
        sweep/search, and sized by the largest ``workers`` requested.
        Physical core count is a sensible ceiling for ``workers``; cells
        beyond the worker count simply queue.
        """
        network = self._as_network(workload)
        distributions = profile_network(network) if self.use_distributions else None
        configs: List[Union[CiMMacroConfig, SystemConfig]] = []
        for value in values:
            macro_config = self.macro_config.with_updates(**{parameter: value})
            if self.system_config is not None:
                configs.append(replace(self.system_config, macro=macro_config))
            else:
                configs.append(macro_config)
        runner = BatchRunner(workers=workers)
        # The profiles passed here are profile_network defaults, so the
        # grid's energy tables may come from the process energy cache.
        evaluations = runner.run_points(
            configs, network, distributions=distributions,
            use_distributions=self.use_distributions,
            default_profiled=True,
        )
        return dict(zip(values, evaluations))

    def evaluate_mappings(
        self,
        layer: Layer,
        num_mappings: int = 1,
        distributions: Optional[LayerDistributions] = None,
    ) -> AmortizedSearchResult:
        """Amortised evaluation of many candidate mappings of one layer.

        The model's persistent energy cache is keyed by (config, layer
        fingerprint) and assumes default-profiled distributions; when the
        caller supplies custom ``distributions``, a fresh per-call cache is
        used instead so the persistent entries are never computed from (or
        served to) non-default profiles.
        """
        cache = self.energy_cache if distributions is None else PerActionEnergyCache()
        evaluator = AmortizedEvaluator(self.macro, cache=cache)
        dists = self._layer_distributions(layer, distributions)
        return evaluator.evaluate_mappings(layer, num_mappings, distributions=dists)

    def layer_mapspace(
        self,
        layer: Layer,
        spatial_fanout: Optional[int] = None,
        backing_levels: int = 1,
    ):
        """The loop-nest map space of a layer on this hardware.

        Three levels — compute, the CiM array (capacity limited to the
        weights the array can hold at once), and the outer backing store —
        over the layer's einsum iteration space.  The array level's
        spatial-fanout budget (parallel compute groups inside the macro)
        defaults to the macro's *geometry*: one group per independent
        output column group
        (:meth:`~repro.architecture.macro.CiMMacro.spatial_fanout_budget`),
        so the mapper's parallelism is bounded by what the hardware
        actually fans out.  Pass an explicit ``spatial_fanout`` to
        override the budget, or ``spatial_fanout=1`` for a temporal-only
        space.

        ``backing_levels > 1`` inserts intermediate staging levels
        (``stage1``, ``stage2``, ...) between the array and the outermost
        backing store, modelling a deeper buffer hierarchy.  The energy
        lowering charges traffic at those levels at the macro's buffer
        action energies (see :mod:`repro.mapping.energy`), so deeper
        hierarchies stay searchable by the same batched GEMM objective.
        """
        from repro.mapping import MapSpace

        if backing_levels < 1:
            raise EvaluationError("a map space needs at least one backing level")
        if spatial_fanout is None:
            spatial_fanout = self.macro.spatial_fanout_budget()
        spatial_limits = {1: spatial_fanout} if spatial_fanout > 1 else {}
        stages = tuple(f"stage{index}" for index in range(1, backing_levels))
        return MapSpace(
            einsum=layer.einsum,
            level_names=("compute", "array") + stages + ("backing",),
            capacities={1: self.macro.weight_capacity()},
            spatial_limits=spatial_limits,
        )

    def search_layer_mappings(
        self,
        layer: Layer,
        num_mappings: int = 1000,
        seed: int = 0,
        engine: str = "batch",
        objective: str = "energy",
        spatial_fanout: Optional[int] = None,
        backing_levels: int = 1,
    ):
        """Random-search loop-nest mappings of a layer onto this hardware.

        ``engine="batch"`` scores the whole random-tiling population as
        NumPy arrays (:func:`repro.mapping.batch_search.batch_search`);
        ``engine="scalar"`` runs the per-candidate oracle.  Both draw the
        identical population at equal seeds, so they return the same best
        mapping — the scalar path is simply orders of magnitude slower.

        ``objective="energy"`` (the default) ranks candidates by total
        femtojoules against this macro's cached per-action energies — the
        objective the paper's figures report — via
        :func:`repro.mapping.energy.energy_cost`; ``objective="proxy"``
        keeps the weighted access-count proxy.  ``best_cost`` is joules
        for the energy objective and a unitless score for the proxy.
        ``spatial_fanout=None`` uses the geometry-derived array budget,
        and ``backing_levels`` deepens the storage hierarchy above the
        array (see :meth:`layer_mapspace`).
        """
        from repro.mapping import (
            batch_search,
            energy_cost,
            scalar_energy_cost,
            search_mappings,
        )

        space = self.layer_mapspace(
            layer, spatial_fanout=spatial_fanout, backing_levels=backing_levels
        )
        if objective == "proxy":
            batch_cost = scalar_cost = None
        elif objective == "energy":
            per_action = None
            if not self.use_distributions:
                # Nominal (fixed-energy) operation: derive outside the
                # cache, whose entries must stay default-profiled.
                from repro.circuits.interface import OperandContext

                per_action = self.macro.per_action_energies(OperandContext.nominal())
            if engine == "batch":
                batch_cost = energy_cost(
                    self.macro, layer, cache=self.energy_cache, per_action=per_action
                )
            else:
                scalar_cost = scalar_energy_cost(
                    self.macro, layer, cache=self.energy_cache, per_action=per_action
                )
        else:
            raise EvaluationError(f"unknown mapping-search objective {objective!r}")

        if engine == "batch":
            return batch_search(
                space, cost_function=batch_cost, num_mappings=num_mappings, seed=seed
            )
        if engine == "scalar":
            return search_mappings(
                space, cost_function=scalar_cost, num_mappings=num_mappings, seed=seed
            )
        raise EvaluationError(f"unknown mapping-search engine {engine!r}")

    # ------------------------------------------------------------------
    def area_breakdown_um2(self) -> Dict[str, float]:
        """Area breakdown of the evaluated hardware."""
        if self.system is not None:
            return self.system.area_breakdown_um2()
        return self.macro.area_breakdown_um2()

    def profile_workload(self, network: Network) -> Dict[str, LayerDistributions]:
        """Profile operand distributions for every layer of a network."""
        return profile_network(network)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "system" if self.is_full_system else "macro"
        return f"CiMLoopModel({kind}={self.macro_config.name!r})"
