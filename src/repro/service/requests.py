"""The evaluation service's request schema.

An :class:`EvaluationRequest` is the JSON-serializable unit of work the
service accepts: which macro (by registry name, plus config-field
overrides), which workload (by registry name, or one inline layer), what
to compute (an objective), and how hard to try (a mapping budget).  The
schema is *versioned* and *canonically hashable*:

* :meth:`EvaluationRequest.from_dict` validates an incoming payload's
  *syntax* — unknown fields, unknown macros/objectives, non-scalar
  override or inline-layer values, missing inline-layer fields — and
  rejects it with a :class:`ServiceError` carrying a human-readable
  message (the HTTP front end maps these to 400s).
* :meth:`EvaluationRequest.canonical_json` re-serialises the request with
  sorted keys, no whitespace, and all defaults materialised, so two
  requests that differ only in key order, whitespace, or omitted-default
  fields produce byte-identical canonical forms.  A matrix-vector
  workload name is respelled when the request is built (``mvm_032x32``
  and ``mvm_32x32_x1`` become ``mvm_32x32``), so the spellings of one
  workload share one form.
* :meth:`EvaluationRequest.content_hash` is the SHA-256 of that canonical
  form — the identity used by the result store (content addressing), the
  scheduler (in-flight coalescing), and the ``GET /result/<hash>`` route.

What stays eager and what waits: the syntax checks above run when the
request is built, and the canonical form and its hash need nothing more,
so a store hit costs one hash.  Resolving the request onto the core
model — the macro config with its overrides applied (:meth:`config`),
the workload (:meth:`network`), and the ``mappings`` objective's
single-layer check — happens on first use; :meth:`resolve` does all of
it at once.  The scheduler calls it for every store miss before queueing
the miss, so a config the model rejects (``rows: -1``, an
``adc_resolution`` of 15, a non-integral ``bits_per_cell``), an unknown
workload name, or a malformed inline layer surfaces at submission as a
:class:`ServiceError`: still a synchronous 400, or an inline envelope in
a batch, never a dispatch-time failure.  A store hit is never resolved:
only valid requests are ever stored, ``version`` is part of the
canonical form, and the result store's disk entries carry their own
format version, which keeps out entries of builds that checked less.

:meth:`family_key` is the grouping identity the coalescing scheduler
batches by — requests in one family share a workload and an objective
and therefore lower onto one config-axis batched dispatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, Mapping, Optional, Tuple, get_type_hints

from repro.architecture.macro import CiMMacroConfig, OutputReuseStyle
from repro.circuits.dac import DACType
from repro.devices.technology import TechnologyNode
from repro.macros.definitions import (
    base_macro,
    digital_cim_macro,
    macro_a,
    macro_b,
    macro_c,
    macro_d,
)
from repro.utils.errors import CiMLoopError, ValidationError, WorkloadError
from repro.workloads.layer import ActivationStyle, Layer, conv2d_layer, matmul_layer
from repro.workloads.networks import Network, canonical_mvm_name, load_network

#: Schema version accepted by this build of the service.
REQUEST_VERSION = 1

#: Macro registry: request ``macro`` names -> config factories.
MACRO_REGISTRY = {
    "base_macro": base_macro,
    "macro_a": macro_a,
    "macro_b": macro_b,
    "macro_c": macro_c,
    "macro_d": macro_d,
    "digital_cim": digital_cim_macro,
}

#: What a request may ask the service to compute.
OBJECTIVES = ("energy", "area", "mappings")

#: Config-field overrides resolved outside the dataclass: the technology
#: node is a nested object, so requests override it with plain numbers.
_TECHNOLOGY_OVERRIDES = ("node_nm", "vdd")

_CONFIG_FIELDS = frozenset(f.name for f in dataclass_fields(CiMMacroConfig))

#: Config fields that hold whole numbers: an override of one must be an
#: integer (an integral float such as ``6.0`` is one).
_INTEGER_FIELDS = frozenset(
    name for name, hint in get_type_hints(CiMMacroConfig).items()
    if hint in (int, Optional[int])
)

#: The value types a config override may hold; an inline-layer field
#: may also be null.
_SCALARS = (int, float, str, bool)
_LAYER_VALUES = _SCALARS + (type(None),)

#: Inline-layer spec fields shared by both layer kinds.
_LAYER_COMMON = ("input_bits", "weight_bits", "activation_style")

#: Required fields of each inline layer kind, and the optional ones.
_LAYER_REQUIRED = {
    "matmul": ("name", "m", "k", "n"),
    "conv2d": ("name", "in_channels", "out_channels", "height", "width", "kernel"),
}
_LAYER_OPTIONAL = frozenset(_LAYER_COMMON + ("kind", "batch"))


class ServiceError(CiMLoopError):
    """A malformed or unserviceable request (maps to HTTP 400)."""


def _resolution(resolve):
    """Run one resolution step; a bad value becomes a :class:`ServiceError`.

    A value of the wrong type (``TypeError``) reads as a malformed
    request, the message :meth:`EvaluationRequest.from_dict` gives one.
    """
    try:
        return resolve()
    except TypeError as error:
        raise ServiceError(f"malformed request: {error}") from None


def _canonical_number(value):
    """Normalise numbers so 2 and 2.0 hash identically."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@dataclass(frozen=True)
class EvaluationRequest:
    """One versioned, content-addressable evaluation request.

    Attributes
    ----------
    macro:
        Name of a registered macro (:data:`MACRO_REGISTRY`).
    overrides:
        :class:`CiMMacroConfig` field overrides applied on top of the
        registered macro's config, plus the technology shorthands
        ``node_nm`` / ``vdd``.
    workload:
        Name of a registered workload (``resnet18``, ``mvm_64x64``, ...)
        or a parameterised pattern such as
        ``conv_<h>x<w>x<c>[_k<kernel>][_f<filters>]`` — anything
        :func:`repro.workloads.networks.load_network` resolves; an
        ``mvm_`` name is respelled canonically on construction.  Exactly
        one of ``workload`` / ``layer`` must be given, except for the
        ``area`` objective (a pure function of the config).
    layer:
        An inline single-layer workload:
        ``{"kind": "matmul", "name": ..., "m": ..., "k": ..., "n": ...}``
        or ``{"kind": "conv2d", "name": ..., "in_channels": ...,
        "out_channels": ..., "height": ..., "width": ..., "kernel": ...}``
        plus optional precision / activation-style fields.
    objective:
        ``energy`` (evaluate the workload's energy/latency), ``area``
        (area breakdown of the configured macro), or ``mappings``
        (energy-scored loop-nest mapping search of a single layer).
    num_mappings:
        Mapping budget for the ``mappings`` objective.
    seed:
        RNG seed of the mapping search.
    use_distributions:
        Data-value-dependent statistical pipeline on/off.
    deadline_ms:
        Optional completion deadline in milliseconds from submission.
        An *execution hint*: it shapes scheduling (requests past their
        deadline fail fast with
        :class:`~repro.service.faults.DeadlineExceeded`), not the
        result, so it is excluded from the canonical form — two requests
        differing only in deadline share one hash, store entry, and
        in-flight slot.
    """

    macro: str = "base_macro"
    overrides: Mapping[str, object] = field(default_factory=dict)
    workload: Optional[str] = None
    layer: Optional[Mapping[str, object]] = None
    objective: str = "energy"
    num_mappings: int = 1000
    seed: int = 0
    use_distributions: bool = True
    deadline_ms: Optional[float] = None
    version: int = REQUEST_VERSION

    # ------------------------------------------------------------------
    # Validation / serialisation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        # Every message is formatted only when its check fails: validation
        # runs on every request, hits included.
        if self.version != REQUEST_VERSION:
            raise ServiceError(f"unsupported request version {self.version!r} "
                               f"(this service speaks version {REQUEST_VERSION})")
        if self.macro not in MACRO_REGISTRY:
            raise ServiceError(f"unknown macro {self.macro!r}; "
                               f"available: {', '.join(sorted(MACRO_REGISTRY))}")
        if self.objective not in OBJECTIVES:
            raise ServiceError(f"unknown objective {self.objective!r}; "
                               f"available: {', '.join(OBJECTIVES)}")
        if not isinstance(self.overrides, Mapping):
            raise ServiceError("overrides must be an object of config-field values")
        for key, value in self.overrides.items():
            if key not in _CONFIG_FIELDS and key not in _TECHNOLOGY_OVERRIDES:
                raise ServiceError(f"unknown config override {key!r}")
            if not isinstance(value, _SCALARS):
                raise ServiceError(
                    f"override {key!r} must be a JSON scalar, got {type(value).__name__}"
                )
        if self.workload and self.layer:
            raise ServiceError("give either a workload name or an inline layer, not both")
        workload = self.workload
        if isinstance(workload, str) and workload.startswith("mvm_"):
            object.__setattr__(self, "workload", canonical_mvm_name(workload))
        if self.objective != "area" and not (bool(self.workload) or self.layer is not None):
            raise ServiceError(f"objective {self.objective!r} needs a workload or inline layer")
        if self.layer is not None:
            self._check_layer_syntax()
        if not self.num_mappings >= 1:
            raise ServiceError("num_mappings must be at least 1")
        if self.deadline_ms is not None:
            if not (isinstance(self.deadline_ms, (int, float))
                    and not isinstance(self.deadline_ms, bool)
                    and self.deadline_ms > 0):
                raise ServiceError("deadline_ms must be a positive number of milliseconds")
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))
        # The canonical form, its hash, the config and the network are
        # each computed on first use and memoized; a store hit needs only
        # the first two.
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_config", None)
        object.__setattr__(self, "_network", None)

    def _check_layer_syntax(self) -> None:
        layer = self.layer
        if not isinstance(layer, Mapping):
            raise ServiceError("inline layer must be an object")
        kind = layer.get("kind")
        if kind not in ("matmul", "conv2d"):
            raise ServiceError(f"inline layer kind must be 'matmul' or 'conv2d', got {kind!r}")
        required = _LAYER_REQUIRED[kind]
        for spec_field in required:
            if spec_field not in layer:
                raise ServiceError(f"inline {kind} layer is missing {spec_field!r}")
        for spec_field, value in layer.items():
            if spec_field not in required and spec_field not in _LAYER_OPTIONAL:
                raise ServiceError(f"unknown inline layer field {spec_field!r}")
            # The layer's values key its family; a nested value could
            # never be grouped, so it is refused here, with the others.
            if not isinstance(value, _LAYER_VALUES):
                raise ServiceError(
                    f"inline layer field {spec_field!r} must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EvaluationRequest":
        """Check a decoded JSON object's syntax and build a request."""
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        for key in payload:
            if key not in _REQUEST_FIELDS:
                raise ServiceError(f"unknown request field {key!r}")
        try:
            return cls(**payload)
        except TypeError as error:
            raise ServiceError(f"malformed request: {error}") from None

    @classmethod
    def from_json(cls, text: str) -> "EvaluationRequest":
        """Validate and build a request from raw JSON text."""
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ServiceError(f"request is not valid JSON: {error}") from None
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, object]:
        """The request as a plain JSON-ready canonical dict.

        Defaults are materialised and *objective-irrelevant fields are
        normalised away*: the mapping budget and seed do not affect an
        ``energy``/``area`` evaluation, and ``area`` is a pure function
        of the config, so those fields are dropped from the canonical
        form — two requests that mean the same thing hash (and therefore
        store/coalesce) the same.  The execution hint ``deadline_ms``
        shapes *how* the request is scheduled, never *what* it computes,
        so it is excluded too: a deadline-bearing retry of an earlier
        request coalesces with (and is served from the store entry of)
        the original.  Round-tripping through :meth:`from_dict` preserves
        the canonical form.
        """
        payload: Dict[str, object] = {
            "version": self.version,
            "macro": self.macro,
            "overrides": {
                key: _canonical_number(value)
                for key, value in sorted(self.overrides.items())
            },
            "objective": self.objective,
        }
        if self.objective != "area":
            payload["workload"] = self.workload
            payload["layer"] = (
                {key: _canonical_number(value)
                 for key, value in sorted(self.layer.items())}
                if self.layer is not None else None
            )
            payload["use_distributions"] = self.use_distributions
        if self.objective == "mappings":
            payload["num_mappings"] = self.num_mappings
            payload["seed"] = self.seed
        return payload

    def execution_hints(self) -> Dict[str, object]:
        """The execution hints that differ from their defaults.

        Hints are excluded from :meth:`to_dict` (they are not part of the
        request's identity), yet a shard worker's scheduler must still
        honour them, so the fleet ships them beside the canonical form:
        ``from_dict(json.loads(canonical_json()) | execution_hints())``
        is an equal request with the same hash.
        """
        hints: Dict[str, object] = {}
        if self.deadline_ms is not None:
            hints["deadline_ms"] = self.deadline_ms
        return hints

    def canonical_json(self) -> str:
        """Byte-stable serialisation: sorted keys, no whitespace.

        Key order, insignificant whitespace, omitted-default fields, and
        integral floats all collapse to one canonical form, so requests
        that *mean* the same thing hash the same.  Computed once per
        request (a request is an immutable value).
        """
        canonical = self._canonical
        if canonical is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    def content_hash(self) -> str:
        """SHA-256 of the canonical form: the request's service-wide identity."""
        digest = self._hash
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_hash", digest)
        return digest

    # ------------------------------------------------------------------
    # Resolution onto the core model (lazy: a store hit never resolves)
    # ------------------------------------------------------------------
    def resolve(self) -> None:
        """Resolve the config and (unless ``area``) the workload now.

        Raises :class:`ServiceError` for a request the model cannot
        evaluate; the scheduler calls this for every store miss before
        queueing it.  Idempotent: both resolutions are memoized.
        """
        self.config()
        if self.objective != "area":
            self.network()

    def config(self) -> CiMMacroConfig:
        """The fully-resolved macro config this request evaluates."""
        config = self._config
        if config is None:
            config = _resolution(self._resolve_config)
            object.__setattr__(self, "_config", config)
        return config

    def network(self) -> Network:
        """The resolved workload (registry lookup, or the inline layer)."""
        network = self._network
        if network is None:
            network = _resolution(self._resolve_network)
            if self.objective == "mappings" and len(network) != 1:
                raise ServiceError("the mappings objective needs a single-layer workload")
            object.__setattr__(self, "_network", network)
        return network

    def _resolve_config(self) -> CiMMacroConfig:
        config = MACRO_REGISTRY[self.macro]()
        # Canonicalise numeric values exactly as the content hash does
        # (6.0 -> 6): a JSON client sending integral floats must get the
        # same evaluation as one sending ints, not a dispatch-time
        # TypeError from an integer-typed config field.
        overrides = {
            key: _canonical_number(value) for key, value in self.overrides.items()
        }
        for key, value in overrides.items():
            if key in _INTEGER_FIELDS and isinstance(value, float):
                raise ServiceError(
                    f"invalid config overrides: {key} must be an integer, got {value!r}"
                )
        try:
            node_nm = overrides.pop("node_nm", None)
            vdd = overrides.pop("vdd", None)
            if node_nm is not None or vdd is not None:
                technology = TechnologyNode(
                    float(node_nm) if node_nm is not None else config.technology.node_nm,
                    float(vdd) if vdd is not None else 0.0,
                )
                overrides["technology"] = technology
            if "output_reuse_style" in overrides:
                overrides["output_reuse_style"] = OutputReuseStyle(
                    overrides["output_reuse_style"]
                )
            if "dac_type" in overrides:
                overrides["dac_type"] = DACType(overrides["dac_type"])
            return config.with_updates(**overrides)
        except (ValidationError, ValueError, OverflowError) as error:
            raise ServiceError(f"invalid config overrides: {error}") from None

    def _resolve_network(self) -> Network:
        if self.layer is not None:
            return Network(name=str(self.layer["name"]), layers=(self._inline_layer(),))
        try:
            return load_network(self.workload)
        except WorkloadError as error:
            raise ServiceError(str(error)) from None

    def _inline_layer(self) -> Layer:
        spec = dict(self.layer)
        kind = spec.pop("kind")
        try:
            common = {}
            for spec_field in _LAYER_COMMON:
                if spec_field in spec:
                    value = spec.pop(spec_field)
                    common[spec_field] = (
                        ActivationStyle(value) if spec_field == "activation_style"
                        else int(value)
                    )
            if kind == "matmul":
                return matmul_layer(
                    str(spec["name"]), m=int(spec["m"]), k=int(spec["k"]),
                    n=int(spec["n"]), **common,
                )
            return conv2d_layer(
                str(spec["name"]), int(spec["in_channels"]), int(spec["out_channels"]),
                int(spec["height"]), int(spec["width"]), int(spec["kernel"]),
                int(spec.get("batch", 1)), **common,
            )
        except (WorkloadError, ValueError, OverflowError) as error:
            raise ServiceError(f"invalid inline layer: {error}") from None

    def family_key(self) -> Tuple:
        """The coalescing scheduler's grouping identity.

        Requests in one family differ only in their macro config, so the
        scheduler can lower a whole family onto one config-axis batched
        dispatch: an ``area`` family needs no workload at all, and
        ``energy`` / ``mappings`` families share a workload, objective,
        and evaluation-mode flags.
        """
        if self.objective == "area":
            return ("area",)
        workload_key = (
            ("inline",) + tuple(sorted(
                (k, _canonical_number(v)) for k, v in self.layer.items()
            ))
            if self.layer is not None
            else ("named", self.workload)
        )
        if self.objective == "mappings":
            return ("mappings", workload_key, self.use_distributions,
                    self.num_mappings, self.seed)
        return ("energy", workload_key, self.use_distributions)


#: Field names :meth:`EvaluationRequest.from_dict` accepts.
_REQUEST_FIELDS = frozenset(f.name for f in dataclass_fields(EvaluationRequest))
