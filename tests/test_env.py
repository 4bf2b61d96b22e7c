"""The ``REPRO_*`` variables and the one settings surface they feed.

Every variable is read by :meth:`ServiceSettings.from_env`, the only
reader of the environment in ``src/``, and README.md documents exactly
the variables ``src/`` reads.  A well-formed value is used, unset or
empty means the default, and a malformed or out-of-range value warns on
stderr and falls back to the default.  A restart budget of 0 is
well-formed (recover in-flight work, never respawn), and so are a chaos
seed of 0 and a chaos probability of 0 or 1.  Each setting has one
bound: an explicit value outside it (a constructor argument, a ``serve``
flag) is refused instead of taken, and ``serve`` exits 2 on it.  A
``ChaosConfig`` holds the chaos variables' bounds, so an explicit config
(or a ``replay --chaos`` flag, which exits 2) meets the same rule.
"""

import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.service.chaos import PRESET_CORRUPT_ENTRY, ChaosConfig
from repro.service.scheduler import EvaluationScheduler
from repro.service.settings import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_MIN_QUORUM,
    DEFAULT_RESTART_BUDGET,
    DEFAULT_TIMEOUT_INTERVALS,
    ServiceSettings,
)
from repro.service.store import DEFAULT_MAX_ENTRIES

_ROOT = Path(__file__).resolve().parents[1]

#: The heartbeat interval the detector-timeout rows set by replace().
_INTERVAL_S = 0.05
_DEFAULT_TIMEOUT_S = DEFAULT_TIMEOUT_INTERVALS * _INTERVAL_S


def _settings(attribute):
    return lambda: getattr(ServiceSettings.from_env(), attribute)


def _detector_timeout():
    """The failure detector's timeout, with the interval replaced after
    reading: an unset timeout follows the interval."""
    settings = replace(ServiceSettings.from_env(), heartbeat_interval_s=_INTERVAL_S)
    return settings.detector_timeout_s


@pytest.mark.parametrize("variable, raw, read, expected, warns", [
    ("REPRO_SERVICE_MAX_PENDING", "12", _settings("max_pending"), 12, False),
    ("REPRO_SERVICE_MAX_PENDING", "", _settings("max_pending"), None, False),
    ("REPRO_SERVICE_MAX_PENDING", "0", _settings("max_pending"), None, True),
    ("REPRO_SERVICE_MAX_PENDING", "2.5", _settings("max_pending"), None, True),
    ("REPRO_SERVICE_MAX_PENDING", "many", _settings("max_pending"), None, True),
    ("REPRO_RESULT_STORE_MAX_ENTRIES", "7", _settings("store_max_entries"), 7, False),
    ("REPRO_RESULT_STORE_MAX_ENTRIES", "0", _settings("store_max_entries"),
     DEFAULT_MAX_ENTRIES, True),
    ("REPRO_RESULT_STORE_DISK_MAX_ENTRIES", "3", _settings("store_disk_max_entries"), 3,
     False),
    ("REPRO_RESULT_STORE_DISK_MAX_BYTES", "lots", _settings("store_disk_max_bytes"), None,
     True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "0.25", _detector_timeout, 0.25, False),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "0", _detector_timeout, _DEFAULT_TIMEOUT_S, True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "nan", _detector_timeout, _DEFAULT_TIMEOUT_S, True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "soon", _detector_timeout, _DEFAULT_TIMEOUT_S,
     True),
    ("REPRO_FLEET_HEARTBEAT_TIMEOUT_S", "inf", _detector_timeout, _DEFAULT_TIMEOUT_S, True),
    ("REPRO_FLEET_RESTART_BUDGET", "0", _settings("restart_budget"), 0, False),
    ("REPRO_FLEET_RESTART_BUDGET", "3", _settings("restart_budget"), 3, False),
    ("REPRO_FLEET_RESTART_BUDGET", "-1", _settings("restart_budget"),
     DEFAULT_RESTART_BUDGET, True),
    ("REPRO_FLEET_RESTART_BUDGET", "lots", _settings("restart_budget"),
     DEFAULT_RESTART_BUDGET, True),
    ("REPRO_FLEET_QUORUM", "2", _settings("min_quorum"), 2, False),
    ("REPRO_FLEET_QUORUM", "0", _settings("min_quorum"), DEFAULT_MIN_QUORUM, True),
    ("REPRO_FLEET_QUORUM", "two", _settings("min_quorum"), DEFAULT_MIN_QUORUM, True),
    ("REPRO_FLEET_HEARTBEAT_INTERVAL_S", "0.5", _settings("heartbeat_interval_s"), 0.5,
     False),
    ("REPRO_FLEET_HEARTBEAT_INTERVAL_S", "0", _settings("heartbeat_interval_s"),
     DEFAULT_HEARTBEAT_INTERVAL_S, True),
    ("REPRO_FLEET_HEARTBEAT_INTERVAL_S", "inf", _settings("heartbeat_interval_s"),
     DEFAULT_HEARTBEAT_INTERVAL_S, True),
    ("REPRO_RESULT_STORE_DIR", "  ", _settings("store_dir"), None, False),
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
    """The ambient chaos variables, read with ``REPRO_CHAOS=1``: a
    malformed one never stops a service from starting."""
    monkeypatch.setenv("REPRO_CHAOS", "1")
    monkeypatch.setenv(variable, raw)
    assert getattr(ServiceSettings.from_env().chaos, attribute) == expected
    err = capsys.readouterr().err
    assert err.count(f"warning: ignoring {variable}=") == (1 if warns else 0)


def test_a_bare_scheduler_reads_the_environment_once(monkeypatch, capsys):
    """``EvaluationScheduler()`` takes ``ServiceSettings.from_env()``:
    admission bound, store bounds and chaos from one read."""
    monkeypatch.setenv("REPRO_SERVICE_MAX_PENDING", "12")
    monkeypatch.setenv("REPRO_RESULT_STORE_MAX_ENTRIES", "7")
    monkeypatch.setenv("REPRO_CHAOS", "1")
    monkeypatch.setenv("REPRO_FLEET_QUORUM", "two")
    scheduler = EvaluationScheduler()
    assert scheduler.settings == ServiceSettings(
        max_pending=12, store_max_entries=7,
        chaos=ChaosConfig(corrupt_entry=PRESET_CORRUPT_ENTRY),
    )
    assert scheduler.max_pending == 12 and scheduler.store.max_entries == 7
    assert scheduler.chaos.config == scheduler.settings.chaos
    assert scheduler.health()["settings"] == scheduler.settings.as_dict()
    assert capsys.readouterr().err.count("warning: ignoring REPRO_FLEET_QUORUM=") == 1


#: Each field's refused values (the first just outside its bound) and
#: the bound itself.
_BOUNDS = {
    "max_pending": ((0, -3, 2.5, True), 1),
    "store_dir": (("  ", "", 42), "results"),
    "store_max_entries": ((0,), 1),
    "store_disk_max_entries": ((0,), 1),
    "store_disk_max_bytes": ((0,), 1),
    "chaos": (({"corrupt_entry": 0.5},), ChaosConfig()),
    "heartbeat_interval_s": ((0.0, -0.25, float("inf")), 1e-3),
    "heartbeat_timeout_s": ((float("nan"), 0, float("inf")), 1e-3),
    "restart_budget": ((-1,), 0),
    "min_quorum": ((0,), 1),
}


def test_every_field_has_a_bound():
    assert set(_BOUNDS) == {field.name for field in fields(ServiceSettings)}


@pytest.mark.parametrize("name", sorted(_BOUNDS))
def test_an_explicit_value_outside_its_bound_is_refused(name):
    refused, accepted = _BOUNDS[name]
    for value in refused:
        with pytest.raises(ValueError, match=name):
            ServiceSettings(**{name: value})
        with pytest.raises(ValueError, match=name):
            replace(ServiceSettings(), **{name: value})
    assert getattr(ServiceSettings(**{name: accepted}), name) == accepted


#: Each ChaosConfig field's refused values and the bound itself.
_CHAOS_BOUNDS = {
    "seed": ((-1, 2.0, True), 0),
    "corrupt_entry": ((-0.1, 1.5, float("nan"), "0.5"), 1.0),
    "kills": ((-1, 1.5), 0),
    "frame_corrupt": ((2.0, -1e-9), 0.0),
}


def test_every_chaos_field_has_a_bound():
    assert set(_CHAOS_BOUNDS) == {field.name for field in fields(ChaosConfig)}


@pytest.mark.parametrize("name", sorted(_CHAOS_BOUNDS))
def test_an_explicit_chaos_value_outside_its_bound_is_refused(name):
    """The rule the ambient-chaos variables warn on refuses the same
    value in an explicit config, so no ``ServiceSettings`` carries it."""
    refused, accepted = _CHAOS_BOUNDS[name]
    for value in refused:
        with pytest.raises(ValueError, match=f"chaos {name}"):
            ChaosConfig(**{name: value})
    assert getattr(ChaosConfig(**{name: accepted}), name) == accepted


@pytest.mark.parametrize("flags", [["--chaos-seed", "-1"], ["--chaos-kills", "-1"]])
def test_replay_refuses_an_invalid_chaos_flag(tmp_path, capsys, flags):
    from repro.service.cli import main

    trace = tmp_path / "unread.jsonl"
    assert main(["replay", "--trace", str(trace), "--chaos", *flags]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1


def test_the_detector_timeout_follows_the_interval_until_set():
    settings = ServiceSettings(heartbeat_interval_s=0.5)
    assert settings.detector_timeout_s == DEFAULT_TIMEOUT_INTERVALS * 0.5
    assert replace(settings, heartbeat_timeout_s=3.0).detector_timeout_s == 3.0


@pytest.mark.parametrize("flags", [
    ["--max-pending", "0"],
    ["--max-pending", "-1"],
    ["--store-dir", ""],
    ["--shards", "1", "--max-pending", "0"],
])
def test_serve_refuses_an_invalid_flag_value(flags):
    """The parent refuses the value before it serves (or forks a shard):
    exit 2 with one ``error:`` line, well inside 10 s."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0", *flags],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 2
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "listening" not in result.stderr


def test_readme_documents_exactly_the_knobs_src_reads():
    """Every ``"REPRO_..."`` literal in ``src/`` is a variable the
    settings module reads; README.md names each in full.  Wildcards
    (``REPRO_FLEET_*``) and prefixes cut short (``..._DISK_MAX_BYTES``)
    are not names."""
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


def test_only_the_settings_module_reads_the_environment():
    readers = sorted(
        path.relative_to(_ROOT).as_posix()
        for path in (_ROOT / "src").rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text())
    )
    assert readers == ["src/repro/service/settings.py"]
