"""The ``REPRO_*`` knobs: which exist, and the one numeric parser.

The knobs ``src/`` reads are exactly the ones README.md documents by
full name.  Each numeric knob is read through its real consumer: a
well-formed value is used, unset or empty means the default, and a
malformed or out-of-range value warns on stderr and falls back to the
default.  A restart budget of 0 is well-formed (recover in-flight work,
never respawn), and so are a chaos seed of 0 and a chaos probability of
0 or 1.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.service.chaos import PRESET_CORRUPT_ENTRY
from repro.service.scheduler import EvaluationScheduler
from repro.service.shard.frontend import (
    DEFAULT_MIN_QUORUM,
    DEFAULT_RESTART_BUDGET,
    DEFAULT_TIMEOUT_INTERVALS,
    FleetSupervisor,
)
from repro.service.store import DEFAULT_MAX_ENTRIES, ResultStore

_ROOT = Path(__file__).resolve().parents[1]

#: The heartbeat interval of the stub fleet the supervisor reads.
_INTERVAL_S = 0.05
_DEFAULT_TIMEOUT_S = DEFAULT_TIMEOUT_INTERVALS * _INTERVAL_S


def _scheduler(attribute):
    return lambda: getattr(EvaluationScheduler(), attribute)


def _store(attribute):
    return lambda: getattr(ResultStore.from_env(), attribute)


def _supervisor(attribute):
    return lambda: getattr(
        FleetSupervisor(SimpleNamespace(heartbeat_interval_s=_INTERVAL_S)), attribute
    )


@pytest.mark.parametrize("variable, raw, read, expected, warns", [
    ("REPRO_SERVICE_MAX_PENDING", "12", _scheduler("max_pending"), 12, False),
    ("REPRO_SERVICE_MAX_PENDING", "", _scheduler("max_pending"), None, False),
    ("REPRO_SERVICE_MAX_PENDING", "0", _scheduler("max_pending"), None, True),
    ("REPRO_SERVICE_MAX_PENDING", "2.5", _scheduler("max_pending"), None, True),
    ("REPRO_SERVICE_MAX_PENDING", "many", _scheduler("max_pending"), None, True),
    ("REPRO_RESULT_STORE_MAX_ENTRIES", "7", _store("max_entries"), 7, False),
    ("REPRO_RESULT_STORE_MAX_ENTRIES", "0", _store("max_entries"), DEFAULT_MAX_ENTRIES,
     True),
    ("REPRO_RESULT_STORE_DISK_MAX_ENTRIES", "3", _store("disk_max_entries"), 3, False),
    ("REPRO_RESULT_STORE_DISK_MAX_BYTES", "lots", _store("disk_max_bytes"), None, True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "0.25", _supervisor("heartbeat_timeout_s"),
     0.25, False),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "0", _supervisor("heartbeat_timeout_s"),
     _DEFAULT_TIMEOUT_S, True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "nan", _supervisor("heartbeat_timeout_s"),
     _DEFAULT_TIMEOUT_S, True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "soon", _supervisor("heartbeat_timeout_s"),
     _DEFAULT_TIMEOUT_S, True),
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


@pytest.mark.parametrize("variable, raw, attribute, expected, warns", [
    ("REPRO_CHAOS_SEED", "7", "seed", 7, False),
    ("REPRO_CHAOS_SEED", "0", "seed", 0, False),
    ("REPRO_CHAOS_SEED", "abc", "seed", 0, True),
    ("REPRO_CHAOS_SEED", "-1", "seed", 0, True),
    ("REPRO_CHAOS_CORRUPT_ENTRY", "0.5", "corrupt_entry", 0.5, False),
    ("REPRO_CHAOS_CORRUPT_ENTRY", "0", "corrupt_entry", 0.0, False),
    ("REPRO_CHAOS_CORRUPT_ENTRY", "1", "corrupt_entry", 1.0, False),
    ("REPRO_CHAOS_CORRUPT_ENTRY", "lots", "corrupt_entry", PRESET_CORRUPT_ENTRY, True),
    ("REPRO_CHAOS_CORRUPT_ENTRY", "1.5", "corrupt_entry", PRESET_CORRUPT_ENTRY, True),
    ("REPRO_CHAOS_CORRUPT_ENTRY", "nan", "corrupt_entry", PRESET_CORRUPT_ENTRY, True),
])
def test_chaos_env_knobs(monkeypatch, capsys, variable, raw, attribute, expected, warns):
    """The ambient chaos knobs, read by a scheduler built with
    ``REPRO_CHAOS=1``: a malformed one never stops it from starting."""
    monkeypatch.setenv("REPRO_CHAOS", "1")
    monkeypatch.setenv(variable, raw)
    assert getattr(EvaluationScheduler().chaos.config, attribute) == expected
    err = capsys.readouterr().err
    assert err.count(f"warning: ignoring {variable}=") == (1 if warns else 0)


def test_readme_documents_exactly_the_knobs_src_reads():
    """Every ``"REPRO_..."`` literal in ``src/`` is a knob some module
    reads; README.md names each in full.  Wildcards (``REPRO_FLEET_*``)
    and prefixes cut short (``..._DISK_MAX_BYTES``) are not names."""
    read = {
        name
        for path in (_ROOT / "src").rglob("*.py")
        for name in re.findall(r'"(REPRO_[A-Z_]+)"', path.read_text())
    }
    documented = {
        name
        for name in re.findall(r"REPRO_[A-Z_]+\*?", (_ROOT / "README.md").read_text())
        if not name.endswith(("_", "*"))
    }
    assert read == documented
