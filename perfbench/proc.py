"""Spawning, measuring and stopping one server process tree (stdlib only).

Every run starts a fresh ``python -m repro.service serve`` in its own
session on ``--port 0``, with every ``REPRO_*`` variable scrubbed from its
environment, and reads back the port it prints.  CPU time and peak RSS
are summed over all processes of the server's process group (the front
end and its forked shard workers).  :meth:`Server.stop` drains the
server with SIGTERM, then kills whatever is left of the group and waits
until none of its processes is alive.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def calibration_ms(rounds: int = 1_000_000) -> float:
    """Wall time of a fixed pure-Python loop: a machine-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for value in range(rounds):
        total += value * value % 7
    return (time.perf_counter() - start) * 1e3


class ServerError(RuntimeError):
    """The server did not start, or died while it was needed."""


class Server:
    """One spawned server process tree."""

    def __init__(self, root: str, args: Sequence[str], launcher: Optional[List[str]] = None,
                 timeout: float = 90.0):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        prefix = launcher if launcher else ["-m", "repro.service"]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *prefix, "serve", "--host", "127.0.0.1", "--port", "0", *args],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        self.pid = self.process.pid
        self.log: List[str] = []
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            ready = self._ready.wait(timeout)
        except BaseException:
            self.stop(graceful=False)
            raise
        if not ready or self.port is None:
            self.stop()
            raise ServerError("server did not report its port:\n" + "".join(self.log[-20:]))

    def _read_stderr(self) -> None:
        for raw in self.process.stderr:
            line = raw.decode("utf-8", errors="replace")
            self.log.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._ready.set()
        self._ready.set()

    # ------------------------------------------------------------------
    def group_pids(self) -> List[int]:
        """Live (non-zombie) processes of the server's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            stat = _read_stat(int(entry))
            if stat is not None and stat[2] == self.pid and stat[0] != "Z":
                pids.append(int(entry))
        return pids

    def cpu_seconds(self) -> float:
        """User + system CPU of every process in the group so far."""
        total = 0
        for pid in self.group_pids():
            stat = _read_stat(pid)
            if stat is not None:
                total += stat[3] + stat[4]
        return total / _TICKS

    def peak_rss_mib(self) -> float:
        """VmHWM summed over the group's processes."""
        total_kib = 0
        for pid in self.group_pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024.0

    def stop(self, graceful: bool = True, timeout: float = 30.0) -> int:
        """Drain (SIGTERM), then kill the group and wait until it is gone."""
        if graceful and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        code = self.process.wait()
        deadline = time.monotonic() + timeout
        while self.group_pids() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._reader.join(timeout=5.0)
        self.process.stderr.close()
        return code


def _read_stat(pid: int):
    """(state, ppid, pgrp, utime, stime) of one process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[2]), int(fields[11]), int(fields[12])

