"""One settings surface: every deployment setting of the evaluation service.

A deployment is one frozen :class:`ServiceSettings`: the pending-queue
bound, the result store, ambient store chaos, and the fleet's heartbeat,
failure-detector timeout, restart budget and quorum.  The scheduler, a
fleet (which ships it to every worker and builds its parent tier and
supervisor from it) and ``serve`` (which applies ``--max-pending`` and
``--store-dir`` with :func:`dataclasses.replace`) take the one object,
and ``GET /healthz`` shows it under ``settings`` on both deployments.

Each field has one rule (:data:`_RULES`; a :class:`ChaosConfig` checks
its own).  An explicit value outside it raises :class:`ValueError`
(``serve`` exits 2); a variable outside it is ignored with one warning
on stderr and the default applies, so a typo in a deployment's
environment is visible but never fatal.  :meth:`ServiceSettings.from_env`
is the only reader of the environment in :mod:`repro`.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, Optional

from repro.service.chaos import PRESET_CORRUPT_ENTRY, ChaosConfig
from repro.service.store import DEFAULT_MAX_ENTRIES

#: Seconds between worker heartbeat frames.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.25
#: An unset detector timeout, in heartbeat intervals (missed beats).
DEFAULT_TIMEOUT_INTERVALS = 8
DEFAULT_RESTART_BUDGET = 16
DEFAULT_MIN_QUORUM = 1


def _integer(minimum: int) -> Callable[[object], bool]:
    return lambda value: isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _seconds(value: object) -> bool:  # NaN compares false: refused
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < math.inf


_POSITIVE = (_integer(1), "a positive integer")
_SECONDS = (_seconds, "a finite number above zero")

#: Each field's variable (parsed by the given type) and its one rule:
#: (accepts, what it expects).  A field whose default is None also
#: accepts None.  ``chaos`` is read from three variables (``from_env``).
_RULES: Dict[str, tuple] = {
    "max_pending": ("REPRO_SERVICE_MAX_PENDING", int, *_POSITIVE),
    "store_dir": ("REPRO_RESULT_STORE_DIR", str,
                  lambda value: isinstance(value, str) and bool(value.strip()),
                  "a non-blank directory path"),
    "store_max_entries": ("REPRO_RESULT_STORE_MAX_ENTRIES", int, *_POSITIVE),
    "store_disk_max_entries": ("REPRO_RESULT_STORE_DISK_MAX_ENTRIES", int, *_POSITIVE),
    "store_disk_max_bytes": ("REPRO_RESULT_STORE_DISK_MAX_BYTES", int, *_POSITIVE),
    "heartbeat_interval_s": ("REPRO_FLEET_HEARTBEAT_INTERVAL_S", float, *_SECONDS),
    "heartbeat_timeout_s": ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", float, *_SECONDS),
    "restart_budget": ("REPRO_FLEET_RESTART_BUDGET", int, _integer(0), "an integer >= 0"),
    "min_quorum": ("REPRO_FLEET_QUORUM", int, *_POSITIVE),
}


def _read(variable: str, build: Callable):
    """``build`` of a variable's text; None when the variable is unset or
    blank, or when ``build`` refuses it (warned with the refusal)."""
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return None
    try:
        return build(raw)
    except ValueError as error:
        print(f"warning: ignoring {variable}={raw!r} ({error})", file=sys.stderr)
        return None


@dataclass(frozen=True)
class ServiceSettings:
    """The settings of one deployment.  None means: no pending bound, a
    memory-only store, no disk bound, no chaos, and a detector timeout of
    :data:`DEFAULT_TIMEOUT_INTERVALS` heartbeat intervals."""

    max_pending: Optional[int] = None
    store_dir: Optional[str] = None
    store_max_entries: int = DEFAULT_MAX_ENTRIES
    store_disk_max_entries: Optional[int] = None
    store_disk_max_bytes: Optional[int] = None
    chaos: Optional[ChaosConfig] = None
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S
    heartbeat_timeout_s: Optional[float] = None
    restart_budget: int = DEFAULT_RESTART_BUDGET
    min_quorum: int = DEFAULT_MIN_QUORUM

    def __post_init__(self) -> None:
        if not isinstance(self.chaos, (ChaosConfig, type(None))):
            raise ValueError(f"chaos must be a ChaosConfig, got {self.chaos!r}")
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name in _RULES and not (value is None and field.default is None):
                _, _, accepts, expected = _RULES[field.name]
                if not accepts(value):
                    raise ValueError(f"{field.name} must be {expected}, got {value!r}")

    @classmethod
    def from_env(cls) -> "ServiceSettings":
        """The settings the ``REPRO_*`` variables describe (the chaos seed
        and rate are read only when ``REPRO_CHAOS`` is on).  Each value is
        built through the constructor, so it meets the explicit rule."""
        values = {}
        for name, (variable, parse, _, _) in _RULES.items():
            value = _read(variable, lambda raw: getattr(cls(**{name: parse(raw)}), name))
            if value is not None:
                values[name] = value
        if os.environ.get("REPRO_CHAOS", "").strip().lower() in {"1", "on", "yes", "true"}:
            seed = _read("REPRO_CHAOS_SEED", lambda raw: ChaosConfig(seed=int(raw)).seed)
            rate = _read("REPRO_CHAOS_CORRUPT_ENTRY",
                         lambda raw: ChaosConfig(corrupt_entry=float(raw)).corrupt_entry)
            values["chaos"] = ChaosConfig(
                seed=seed or 0, corrupt_entry=PRESET_CORRUPT_ENTRY if rate is None else rate
            )
        return cls(**values)

    @property
    def detector_timeout_s(self) -> float:
        """``heartbeat_timeout_s``, else :data:`DEFAULT_TIMEOUT_INTERVALS`
        intervals (so it follows an interval set by ``replace``)."""
        if self.heartbeat_timeout_s is not None:
            return self.heartbeat_timeout_s
        return DEFAULT_TIMEOUT_INTERVALS * self.heartbeat_interval_s

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready values: the ``/healthz`` ``settings`` block."""
        return asdict(self)
