"""Deterministic fault injection for the evaluation service.

A :class:`ChaosInjector` sits on the scheduler's dispatch path and, with
seeded-RNG probabilities, injects the failures the fault-tolerance layer
claims to survive:

* **transient dispatch exception** — raise a :class:`ChaosError`
  (retryable), exercising backoff-and-retry;
* **corrupt store entry** — after a result is stored, scribble over its
  disk-tier file and drop the in-memory copy, so a later duplicate of
  the same hash walks into the corruption-quarantine path and recomputes;
* **slow dispatch** — sleep before dispatching, modelling a straggler.

All decisions come from one ``random.Random(seed)`` stream, so a chaos
replay is reproducible: the same trace, seed, and probabilities inject
the same faults at the same points.  The injector is wired in three
ways: passed to :class:`~repro.service.scheduler.EvaluationScheduler`
directly, via ``replay --chaos`` on the CLI, or ambiently through the
``REPRO_CHAOS*`` environment knobs (``REPRO_CHAOS=1`` enables injection
in any scheduler that wasn't given an explicit injector — the fleet-wide
"chaos monkey" switch).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.service.faults import RetryableError
from repro.utils.env import env_positive_float

CHAOS_ENV = "REPRO_CHAOS"
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"
CHAOS_TRANSIENT_ENV = "REPRO_CHAOS_TRANSIENT"
CHAOS_CORRUPT_ENTRY_ENV = "REPRO_CHAOS_CORRUPT_ENTRY"
CHAOS_SLOW_DISPATCH_ENV = "REPRO_CHAOS_SLOW_DISPATCH"
CHAOS_SLOW_DISPATCH_S_ENV = "REPRO_CHAOS_SLOW_DISPATCH_S"


class ChaosError(RetryableError):
    """The injected transient dispatch failure (retryable by design)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Injection probabilities (per dispatch / per store write) + seed."""

    seed: int = 0
    transient: float = 0.0
    corrupt_entry: float = 0.0
    slow_dispatch: float = 0.0
    slow_dispatch_s: float = 0.02

    @property
    def enabled(self) -> bool:
        return any(
            p > 0.0 for p in (self.transient, self.corrupt_entry, self.slow_dispatch)
        )

    @classmethod
    def preset(cls, seed: int = 0) -> "ChaosConfig":
        """The standard mixed-fault profile used by ``replay --chaos``
        and the chaos benchmark: every injector enabled at rates that
        fire many times over a 1k-request trace."""
        return cls(
            seed=seed,
            transient=0.08,
            corrupt_entry=0.15,
            slow_dispatch=0.05,
            slow_dispatch_s=0.002,
        )

    @classmethod
    def from_env(cls) -> Optional["ChaosConfig"]:
        """The ambient chaos profile, or None unless ``REPRO_CHAOS`` is on.

        With ``REPRO_CHAOS=1`` and no per-injector knobs set, the
        :meth:`preset` profile applies; each ``REPRO_CHAOS_*`` knob
        overrides its probability individually.
        """
        flag = os.environ.get(CHAOS_ENV, "").strip().lower()
        if flag not in {"1", "on", "yes", "true"}:
            return None
        base = cls.preset(seed=int(os.environ.get(CHAOS_SEED_ENV, "0") or 0))
        return cls(
            seed=base.seed,
            transient=_env_probability(CHAOS_TRANSIENT_ENV, base.transient),
            corrupt_entry=_env_probability(CHAOS_CORRUPT_ENTRY_ENV, base.corrupt_entry),
            slow_dispatch=_env_probability(CHAOS_SLOW_DISPATCH_ENV, base.slow_dispatch),
            slow_dispatch_s=(
                env_positive_float(CHAOS_SLOW_DISPATCH_S_ENV) or base.slow_dispatch_s
            ),
        )


def _env_probability(variable: str, default: float) -> float:
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return default
    try:
        return min(max(float(raw), 0.0), 1.0)
    except ValueError:
        return default


class ChaosInjector:
    """Seeded fault injector hooked into the scheduler's dispatch path."""

    def __init__(self, config: ChaosConfig):
        import random

        self.config = config
        self._rng = random.Random(config.seed)
        self.injected_transients = 0
        self.injected_corruptions = 0
        self.injected_slow_dispatches = 0

    @classmethod
    def from_env(cls) -> Optional["ChaosInjector"]:
        config = ChaosConfig.from_env()
        return cls(config) if config is not None else None

    # ------------------------------------------------------------------
    # Hooks (called by the scheduler)
    # ------------------------------------------------------------------
    def before_dispatch(self, family_size: int) -> None:
        """Runs before every family dispatch; may delay or raise an
        injected transient."""
        if self.config.slow_dispatch > 0.0:
            if self._rng.random() < self.config.slow_dispatch:
                self.injected_slow_dispatches += 1
                time.sleep(self.config.slow_dispatch_s)
        if self.config.transient > 0.0:
            if self._rng.random() < self.config.transient:
                self.injected_transients += 1
                raise ChaosError(
                    f"injected transient dispatch failure "
                    f"#{self.injected_transients} (chaos)"
                )

    def after_store(self, store, request_hash: str) -> None:
        """Runs after a result is written to the store; may corrupt it.

        Drops the in-memory entry and scribbles over the disk-tier file
        (when one exists), so the *next* request with this hash misses
        memory, hits the corrupt file, quarantines it, and recomputes —
        the full degradation path, not just a cache miss.
        """
        if self.config.corrupt_entry <= 0.0:
            return
        if self._rng.random() >= self.config.corrupt_entry:
            return
        self.injected_corruptions += 1
        store.forget(request_hash)
        path = store.path_for(request_hash)
        if path is not None:
            try:
                path.write_text('{"chaos": "this is not a stored result')
            except OSError:
                pass

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "injected_transients": self.injected_transients,
            "injected_corruptions": self.injected_corruptions,
            "injected_slow_dispatches": self.injected_slow_dispatches,
        }


# ----------------------------------------------------------------------
# Fleet-scope chaos
# ----------------------------------------------------------------------
CHAOS_SHARD_KILL_ENV = "REPRO_CHAOS_SHARD_KILL"
CHAOS_SHARD_KILLS_ENV = "REPRO_CHAOS_SHARD_KILLS"
CHAOS_FRAME_CORRUPT_ENV = "REPRO_CHAOS_FRAME_CORRUPT"
CHAOS_HEARTBEAT_DELAY_ENV = "REPRO_CHAOS_HEARTBEAT_DELAY"
CHAOS_HEARTBEAT_DELAY_S_ENV = "REPRO_CHAOS_HEARTBEAT_DELAY_S"


@dataclass(frozen=True)
class FleetChaosConfig:
    """Fleet-level fault profile: faults *between* and *of* shards.

    Where :class:`ChaosConfig` injects below one scheduler (dispatches,
    store entries), this profile attacks the fleet fabric itself:

    * ``kills`` — SIGKILL that many whole shard workers at fixed,
      evenly-spaced request indices mid-replay (deterministic: the same
      trace and seed kill the same victims at the same points);
    * ``shard_kill`` — additionally, a per-replay-window probability of
      killing one random serving shard;
    * ``frame_corrupt`` — per outgoing frame, scribble the length prefix
      so the worker's bounds check trips a typed
      :class:`~repro.service.shard.protocol.ProtocolError` and the
      channel dies (the supervisor then recovers the shard);
    * ``heartbeat_delay`` — worker-side: stall a heartbeat past the
      detector's timeout with this probability, forcing false-positive
      detections (the shard is healthy but silent) — recovery must stay
      correct even when it kills a live shard.
    """

    seed: int = 0
    kills: int = 0
    shard_kill: float = 0.0
    frame_corrupt: float = 0.0
    heartbeat_delay: float = 0.0
    heartbeat_delay_s: float = 3.0

    @property
    def enabled(self) -> bool:
        return (
            self.kills > 0
            or self.shard_kill > 0.0
            or self.frame_corrupt > 0.0
            or self.heartbeat_delay > 0.0
        )

    @classmethod
    def preset(cls, seed: int = 0, kills: int = 1) -> "FleetChaosConfig":
        """The standard fleet-fault profile of ``replay --shards --chaos``
        and the fleet-chaos benchmark: scheduled mid-replay SIGKILLs plus
        a low rate of frame corruption."""
        return cls(seed=seed, kills=kills, frame_corrupt=0.002)

    @classmethod
    def from_env(cls) -> Optional["FleetChaosConfig"]:
        """The ambient fleet profile, or None unless ``REPRO_CHAOS`` is on
        *and* at least one fleet-scope knob is set (so plain
        ``REPRO_CHAOS=1`` keeps its PR 7 single-process meaning)."""
        flag = os.environ.get(CHAOS_ENV, "").strip().lower()
        if flag not in {"1", "on", "yes", "true"}:
            return None
        try:
            kills = int(os.environ.get(CHAOS_SHARD_KILLS_ENV, "0") or 0)
        except ValueError:
            kills = 0
        config = cls(
            seed=int(os.environ.get(CHAOS_SEED_ENV, "0") or 0),
            kills=max(kills, 0),
            shard_kill=_env_probability(CHAOS_SHARD_KILL_ENV, 0.0),
            frame_corrupt=_env_probability(CHAOS_FRAME_CORRUPT_ENV, 0.0),
            heartbeat_delay=_env_probability(CHAOS_HEARTBEAT_DELAY_ENV, 0.0),
            heartbeat_delay_s=(
                env_positive_float(CHAOS_HEARTBEAT_DELAY_S_ENV) or 3.0
            ),
        )
        return config if config.enabled else None


class FleetChaosInjector:
    """Seeded fleet-fabric fault injector for a sharded replay.

    The replay driver calls :meth:`on_request` with the trace index at
    which each of its fleet calls starts (scheduled kills; a kill inside
    a window splits that window's call in two) and :meth:`on_window` once per dispatch
    window (probabilistic kills); :meth:`install` arms per-frame
    corruption on every current and future shard channel.  Worker-side
    heartbeat delay is not injected from here — it rides into the
    workers through :meth:`heartbeat_options` at fleet construction,
    because the delay must happen *inside* the (healthy) worker to
    model a silent-but-alive shard.
    """

    def __init__(self, config: FleetChaosConfig, trace_len: int = 0):
        import random
        import threading

        self.config = config
        self._rng = random.Random(config.seed ^ 0xF1EE7)
        self._lock = threading.Lock()
        self.fleet = None
        # Scheduled kills: evenly spaced through the middle of the trace,
        # never at index 0 — "mid-replay" by construction, identical for
        # every run over the same trace length.
        self.kill_at = (
            {trace_len * (i + 1) // (config.kills + 1) for i in range(config.kills)}
            if config.kills > 0 and trace_len > 0 else set()
        )
        self.injected_shard_kills = 0
        self.injected_frame_corruptions = 0

    def heartbeat_options(self) -> Optional[Dict]:
        """The ``chaos_heartbeat`` dict for :class:`ShardFleet`, if any."""
        if self.config.heartbeat_delay <= 0.0:
            return None
        return {
            "delay": self.config.heartbeat_delay,
            "delay_s": self.config.heartbeat_delay_s,
            "seed": self.config.seed,
        }

    def install(self, fleet) -> None:
        """Arm frame corruption on the fleet's shard channels."""
        self.fleet = fleet
        if self.config.frame_corrupt <= 0.0:
            return
        fleet.frame_corrupt_hook = self._corrupt_frame
        for _, client in fleet.serving_clients():
            client.corrupt_hook = self._corrupt_frame

    def uninstall(self) -> None:
        """Disarm frame corruption (before a clean drain/shutdown, so the
        teardown's shutdown ops are never corrupted into fake crashes)."""
        fleet = self.fleet
        if fleet is None:
            return
        fleet.frame_corrupt_hook = None
        for _, client in fleet.serving_clients():
            client.corrupt_hook = None

    # ------------------------------------------------------------------
    # Hooks (called by the replay driver / dispatch path)
    # ------------------------------------------------------------------
    def on_request(self, index: int) -> None:
        """Fire any kill scheduled at this trace index."""
        if index in self.kill_at:
            self.kill_at.discard(index)
            self._kill_one_shard()

    def on_window(self) -> None:
        """Once per dispatch window: maybe kill one random shard."""
        if self.config.shard_kill <= 0.0:
            return
        with self._lock:
            fire = self._rng.random() < self.config.shard_kill
        if fire:
            self._kill_one_shard()

    def _corrupt_frame(self, blob: bytes) -> bytes:
        with self._lock:
            fire = self._rng.random() < self.config.frame_corrupt
        if not fire:
            return blob
        self.injected_frame_corruptions += 1
        # An absurd length prefix: the receiver's bounds check raises a
        # typed ProtocolError before attempting the read, the channel is
        # declared desynced, and the supervisor recovers the shard.
        return b"\xff\xff\xff\xff" + blob[4:]

    def _kill_one_shard(self) -> None:
        """SIGKILL one serving shard worker — the whole process, no
        warning, no EOF courtesy: exactly what a lost host looks like."""
        fleet = self.fleet
        if fleet is None:
            return
        clients = [c for _, c in fleet.serving_clients() if c.alive]
        if not clients:
            return
        with self._lock:
            victim = clients[self._rng.randrange(len(clients))]
        pid = victim.process.pid
        if pid is None:
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            return
        self.injected_shard_kills += 1

    def stats(self) -> Dict[str, int]:
        return {
            "injected_shard_kills": self.injected_shard_kills,
            "injected_frame_corruptions": self.injected_frame_corruptions,
            "scheduled_kills_remaining": len(self.kill_at),
        }
