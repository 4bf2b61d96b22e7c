"""Deterministic fault injection at the service's real fault sites.

One :class:`ChaosInjector`, configured by one :class:`ChaosConfig`,
injects the failures the service claims to survive:

* **corrupt store entry** (``corrupt_entry``, per store write) — after a
  scheduler stores a result, drop the in-memory copy and scribble over
  its disk-tier file, so a later duplicate of the same hash walks into
  the corruption-quarantine path and recomputes;
* **shard kill** (``kills``) — SIGKILL that many whole shard workers at
  fixed, evenly spaced request indices of a sharded replay (the same
  trace and seed kill the same victims at the same points);
* **frame corruption** (``frame_corrupt``, per outgoing frame) — scribble
  a frame's length prefix, so the worker's bounds check raises a typed
  :class:`~repro.service.shard.protocol.ProtocolError`, the channel dies
  and the supervisor recovers the shard.

A scheduler arms the store site; a sharded replay arms the fleet sites
(:meth:`ChaosInjector.install`).  Each site draws from its own seeded
stream — ``random.Random(seed)`` for store corruption,
``random.Random(seed ^ 0xF1EE7)`` for the fleet fabric — so a chaos
replay is reproducible: the same trace, seed and rates inject the same
faults at the same points.

The injector is wired in three ways: passed to
:class:`~repro.service.scheduler.EvaluationScheduler` or
:func:`~repro.service.replay.replay_sharded` directly, via ``replay
--chaos`` on the CLI, or ambiently: the ``chaos`` field of a
deployment's :class:`~repro.service.settings.ServiceSettings` (the
settings module names its environment variables) arms store corruption
in every scheduler built from those settings, a fleet's workers
included.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import dataclass
from typing import Dict

#: The preset's store-corruption rate (per store write), which ambient
#: chaos also applies unless its settings name another rate.
PRESET_CORRUPT_ENTRY = 0.15


@dataclass(frozen=True)
class ChaosConfig:
    """Injection rates of every fault site, plus the seed.  A negative
    seed or kill count, or a rate outside [0, 1], raises
    :class:`ValueError` (the ambient-chaos variables meet the same rule)."""

    seed: int = 0
    corrupt_entry: float = 0.0
    kills: int = 0
    frame_corrupt: float = 0.0

    def __post_init__(self) -> None:
        # A bool is no number here, and NaN compares false: both refused.
        for name in ("seed", "kills"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"chaos {name} must be an integer >= 0, got {value!r}")
        for name in ("corrupt_entry", "frame_corrupt"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
                raise ValueError(f"chaos {name} must be a probability in [0, 1], got {value!r}")

    @classmethod
    def preset(cls, seed: int = 0, kills: int = 0) -> "ChaosConfig":
        """The standard profile of ``replay --chaos`` and the chaos
        benchmarks: store corruption at a rate that fires many times over
        a 1k-request trace and, on a fleet, ``kills`` scheduled shard
        kills plus a low rate of frame corruption."""
        return cls(
            seed=seed, corrupt_entry=PRESET_CORRUPT_ENTRY, kills=kills, frame_corrupt=0.002
        )


class ChaosInjector:
    """Seeded fault injector over the store and the fleet fabric.

    A scheduler calls :meth:`after_store` after each store write.  A
    sharded replay calls :meth:`install` to arm frame corruption on every
    current and future shard channel, :meth:`on_request` with the trace
    index at which each of its fleet calls starts (scheduled kills; a
    kill inside a window splits that window's call in two), and
    :meth:`uninstall` before its teardown.
    """

    def __init__(self, config: ChaosConfig, trace_len: int = 0):
        self.config = config
        self._rng = random.Random(config.seed)
        self._fleet_rng = random.Random(config.seed ^ 0xF1EE7)
        self._lock = threading.Lock()
        self.fleet = None
        # Scheduled kills: evenly spaced through the middle of the trace,
        # never at index 0 — "mid-replay" by construction, identical for
        # every run over the same trace length.
        self.kill_at = (
            {trace_len * (i + 1) // (config.kills + 1) for i in range(config.kills)}
            if config.kills > 0 and trace_len > 0 else set()
        )
        self.injected_corruptions = 0
        self.injected_shard_kills = 0
        self.injected_frame_corruptions = 0

    # ------------------------------------------------------------------
    # Store site (called by the scheduler)
    # ------------------------------------------------------------------
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
    # Fleet sites (called by replay_sharded)
    # ------------------------------------------------------------------
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

    def on_request(self, index: int) -> None:
        """Fire any kill scheduled at this trace index."""
        if index in self.kill_at:
            self.kill_at.discard(index)
            self._kill_one_shard()

    def _corrupt_frame(self, blob: bytes) -> bytes:
        with self._lock:
            fire = self._fleet_rng.random() < self.config.frame_corrupt
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
            victim = clients[self._fleet_rng.randrange(len(clients))]
        pid = victim.process.pid
        if pid is None:
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            return
        self.injected_shard_kills += 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "injected_corruptions": self.injected_corruptions,
            "injected_shard_kills": self.injected_shard_kills,
            "injected_frame_corruptions": self.injected_frame_corruptions,
            "scheduled_kills_remaining": len(self.kill_at),
        }
