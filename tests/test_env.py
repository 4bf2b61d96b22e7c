"""The one parser behind every numeric ``REPRO_*`` knob.

Each knob is read through its real consumer: a well-formed value is
used, unset or empty means the default, and a malformed or out-of-range
value warns on stderr and falls back to the default.  A restart budget
of 0 is well-formed (recover in-flight work, never respawn).
"""

from types import SimpleNamespace

import pytest

from repro.service.faults import DEFAULT_BACKOFF_BASE_S
from repro.service.scheduler import EvaluationScheduler
from repro.service.shard.frontend import (
    DEFAULT_MIN_QUORUM,
    DEFAULT_RESTART_BUDGET,
    FleetSupervisor,
)


def _scheduler(attribute):
    return lambda: getattr(EvaluationScheduler(), attribute)


def _supervisor(attribute):
    return lambda: getattr(FleetSupervisor(SimpleNamespace(heartbeat_interval_s=0.05)), attribute)


@pytest.mark.parametrize("variable, raw, read, expected, warns", [
    ("REPRO_SERVICE_MAX_PENDING", "12", _scheduler("max_pending"), 12, False),
    ("REPRO_SERVICE_MAX_PENDING", "", _scheduler("max_pending"), None, False),
    ("REPRO_SERVICE_MAX_PENDING", "0", _scheduler("max_pending"), None, True),
    ("REPRO_SERVICE_MAX_PENDING", "2.5", _scheduler("max_pending"), None, True),
    ("REPRO_SERVICE_MAX_PENDING", "many", _scheduler("max_pending"), None, True),
    ("REPRO_SERVICE_BACKOFF_BASE_S", "0.25", _scheduler("backoff_base_s"), 0.25, False),
    ("REPRO_SERVICE_BACKOFF_BASE_S", "0", _scheduler("backoff_base_s"),
     DEFAULT_BACKOFF_BASE_S, True),
    ("REPRO_SERVICE_BACKOFF_BASE_S", "nan", _scheduler("backoff_base_s"),
     DEFAULT_BACKOFF_BASE_S, True),
    ("REPRO_SERVICE_BACKOFF_BASE_S", "soon", _scheduler("backoff_base_s"),
     DEFAULT_BACKOFF_BASE_S, True),
    ("REPRO_FLEET_RESTART_BUDGET", "0", _supervisor("restart_budget"), 0, False),
    ("REPRO_FLEET_RESTART_BUDGET", "3", _supervisor("restart_budget"), 3, False),
    ("REPRO_FLEET_RESTART_BUDGET", "-1", _supervisor("restart_budget"),
     DEFAULT_RESTART_BUDGET, True),
    ("REPRO_FLEET_RESTART_BUDGET", "lots", _supervisor("restart_budget"),
     DEFAULT_RESTART_BUDGET, True),
    ("REPRO_FLEET_QUORUM", "2", _supervisor("min_quorum"), 2, False),
    ("REPRO_FLEET_QUORUM", "0", _supervisor("min_quorum"), DEFAULT_MIN_QUORUM, True),
    ("REPRO_FLEET_QUORUM", "two", _supervisor("min_quorum"), DEFAULT_MIN_QUORUM, True),
])
def test_numeric_env_knobs(monkeypatch, capsys, variable, raw, read, expected, warns):
    monkeypatch.setenv(variable, raw)
    assert read() == expected
    warned = f"warning: ignoring {variable}=" in capsys.readouterr().err
    assert warned == warns
