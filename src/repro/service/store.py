"""Content-addressed result store: identical requests never recompute.

Results are keyed by the request's :meth:`~repro.service.requests.
EvaluationRequest.content_hash`, so the store is *content-addressed*: any
two requests with the same canonical form share one entry, across key
order, whitespace, and omitted defaults.  Two tiers:

* an **in-memory LRU** (bounded by ``max_entries``, gets refresh recency)
  serving the hot working set of a live service process, and
* an optional **disk tier** — entries are JSON files named by the
  content hash, written atomically (tempfile + ``os.replace``, so a
  concurrent reader never sees a half-written entry; a failed write
  costs the persistence with a warning, never the run), verified
  against their stored key on load, quarantined (renamed to
  ``*.corrupt``, counted in ``corrupt_entries``) on the first corrupt
  read so later hits miss cleanly instead of re-parsing, LRU-evicted
  beyond ``disk_max_entries`` / ``disk_max_bytes`` with loads
  refreshing mtime (the newest entry is never evicted) — so results
  survive restarts and are shared by co-located service processes.

A hit served over HTTP needs the result's JSON bytes, not the dict:
:meth:`ResultStore.reply` returns ``json.dumps(result, sort_keys=True)``
— exactly the bytes a reply carries — and memoises them on the entry's
first hit, so every later hit costs one dict lookup and no
serialisation.  The bytes live and die with their entry: a put, an
eviction or a :meth:`ResultStore.forget` of the hash drops them too.
``reply`` reads the memory tier only (the front end's event loop never
waits on the disk for it), and a request it misses is looked up — and
counted — once more, by the submission that follows.

Environment knobs, read by :meth:`ResultStore.from_env`:
``REPRO_RESULT_STORE_DIR`` enables the disk tier (a ``--store-dir``
given to ``serve`` or a fleet takes its place),
``REPRO_RESULT_STORE_MAX_ENTRIES`` bounds the in-memory LRU, and
``REPRO_RESULT_STORE_DISK_MAX_ENTRIES`` /
``REPRO_RESULT_STORE_DISK_MAX_BYTES`` bound the disk tier.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.utils.env import env_positive_int

RESULT_STORE_DIR_ENV = "REPRO_RESULT_STORE_DIR"
RESULT_STORE_MAX_ENTRIES_ENV = "REPRO_RESULT_STORE_MAX_ENTRIES"
RESULT_STORE_DISK_MAX_ENTRIES_ENV = "REPRO_RESULT_STORE_DISK_MAX_ENTRIES"
RESULT_STORE_DISK_MAX_BYTES_ENV = "REPRO_RESULT_STORE_DISK_MAX_BYTES"

DEFAULT_MAX_ENTRIES = 4096


class ResultStore:
    """In-memory LRU + optional disk tier of evaluation results."""

    #: Disk entry format version; an entry of another version is a miss
    #: (counted in ``load_failures``).  Version 2 entries are written only
    #: by builds that resolve every miss before storing it; a version 1
    #: entry may hold the result of a request this build refuses at
    #: submission (``mvm_32x32_x0``, a non-integral ``rows``), and a hit
    #: is never resolved, so such an entry must not be served.
    VERSION = 2

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        directory: Optional[Union[str, Path]] = None,
        disk_max_entries: Optional[int] = None,
        disk_max_bytes: Optional[int] = None,
    ):
        for name, bound in (
            ("max_entries", max_entries),
            ("disk_max_entries", disk_max_entries),
            ("disk_max_bytes", disk_max_bytes),
        ):
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be at least 1")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.disk_max_entries = disk_max_entries
        self.disk_max_bytes = disk_max_bytes
        self._entries: "OrderedDict[str, Dict]" = OrderedDict()
        # Reply bytes of entries hit at least once (see reply()).
        self._replies: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.puts = 0
        self.evictions = 0
        self.disk_evictions = 0
        self.load_failures = 0
        self.corrupt_entries = 0

    @classmethod
    def from_env(cls, directory: Optional[Union[str, Path]] = None) -> "ResultStore":
        """The store configured by the environment (disk tier opt-in).

        A non-empty ``directory`` (a ``--store-dir``) replaces
        ``REPRO_RESULT_STORE_DIR``; the bounds are read from the
        environment either way, so one deployment's store is built the
        same in every process.
        """
        directory = directory or os.environ.get(RESULT_STORE_DIR_ENV, "").strip() or None
        max_entries = env_positive_int(RESULT_STORE_MAX_ENTRIES_ENV)
        try:
            return cls(
                max_entries=max_entries or DEFAULT_MAX_ENTRIES,
                directory=directory,
                disk_max_entries=env_positive_int(RESULT_STORE_DISK_MAX_ENTRIES_ENV),
                disk_max_bytes=env_positive_int(RESULT_STORE_DISK_MAX_BYTES_ENV),
            )
        except OSError as error:
            print(
                f"warning: result store directory {str(directory)!r} is unusable "
                f"({error}); result store disk tier disabled",
                file=sys.stderr,
            )
            return cls(max_entries=max_entries or DEFAULT_MAX_ENTRIES)

    # ------------------------------------------------------------------
    def path_for(self, request_hash: str) -> Optional[Path]:
        """The disk entry a hash maps to (None without a disk tier)."""
        if self.directory is None:
            return None
        return self.directory / f"result-{request_hash}.json"

    def get(self, request_hash: str) -> Optional[Dict]:
        """The stored result of a request hash, or None on a miss.

        The disk-tier read happens *outside* the memory lock — a
        cold-start miss must never stall concurrent in-memory hits (the
        hot path of duplicate-heavy traffic).  Two threads racing the
        same cold hash at worst both read the file and insert identical
        content.
        """
        with self._lock:
            entry = self._entries.get(request_hash)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(request_hash)
                return entry
            self.misses += 1
            if self.directory is None:
                return None
        loaded = self._load_from_disk(request_hash)
        if loaded is not None:
            with self._lock:
                self.disk_hits += 1
                self._insert(request_hash, loaded)
        return loaded

    def reply(self, request_hash: str) -> Optional[bytes]:
        """The stored result's reply bytes, or None.

        ``json.dumps(result, sort_keys=True)`` encoded as UTF-8: the body
        a reply of the result carries (without its trailing newline).
        The first hit of an entry serialises it and keeps the bytes;
        every later hit returns them.  Only the memory tier is consulted
        and only a hit is counted: a caller that misses here goes on to
        :meth:`get` (by submitting the request), which reads the disk
        tier and counts the miss once.
        """
        with self._lock:
            result = self._entries.get(request_hash)
            if result is None:
                return None
            self.hits += 1
            self._entries.move_to_end(request_hash)
            blob = self._replies.get(request_hash)
        if blob is None:
            blob = json.dumps(result, sort_keys=True).encode("utf-8")
            with self._lock:
                # Keep the bytes only while they still describe the entry.
                if self._entries.get(request_hash) is result:
                    self._replies[request_hash] = blob
        return blob

    def put(self, request_hash: str, result: Dict) -> None:
        """Insert one result and write it through the disk tier.

        The disk write (and its eviction scan) happens *outside* the
        memory lock: concurrent handler threads doing pure in-memory
        lookups must never serialise behind another request's disk I/O.
        Writes are content-addressed and atomic, so concurrent writers of
        the same hash are last-writer-wins with identical content.
        """
        with self._lock:
            self.puts += 1
            self._insert(request_hash, result)
        self._store_to_disk(request_hash, result)

    def forget(self, request_hash: str) -> None:
        """Drop one hash from the in-memory tier (disk is left alone).

        Invalidation hook: the next :meth:`get` of the hash falls
        through to disk (or misses outright).  Used by the chaos
        injector to force the disk-corruption path, and safe for any
        caller that wants a hash recomputed.
        """
        with self._lock:
            self._entries.pop(request_hash, None)
            self._replies.pop(request_hash, None)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counters for the service health report."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "puts": self.puts,
                "evictions": self.evictions,
                "disk_evictions": self.disk_evictions,
                "load_failures": self.load_failures,
                "corrupt_entries": self.corrupt_entries,
                "disk_directory": str(self.directory) if self.directory else None,
            }

    # ------------------------------------------------------------------
    # Internals (_insert requires the lock; the disk helpers take it
    # themselves only to update counters)
    # ------------------------------------------------------------------
    def _insert(self, request_hash: str, result: Dict) -> None:
        self._entries[request_hash] = result
        self._entries.move_to_end(request_hash)
        self._replies.pop(request_hash, None)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._replies.pop(evicted, None)
            self.evictions += 1

    def _load_from_disk(self, request_hash: str) -> Optional[Dict]:
        path = self.path_for(request_hash)
        if path is None:
            return None
        try:
            payload = json.loads(path.read_text())
            if payload["version"] != self.VERSION:
                raise ValueError(f"version {payload['version']}")
            if payload["key"] != request_hash:
                raise ValueError("key mismatch")
            result = dict(payload["result"])
        except FileNotFoundError:
            return None
        except OSError:
            # An I/O failure (permissions, dying disk) is not evidence
            # the entry itself is bad; treat as a plain miss.
            with self._lock:
                self.load_failures += 1
            return None
        except (ValueError, KeyError, TypeError):
            # The entry is unreadable and will stay unreadable: move it
            # aside once so every subsequent hit on this hash is a clean
            # miss instead of a repeated parse attempt.
            with self._lock:
                self.load_failures += 1
            self._quarantine(path)
            return None
        if self.disk_max_entries is not None or self.disk_max_bytes is not None:
            try:
                os.utime(path)  # refresh recency so eviction is LRU
            except OSError:
                pass
        return result

    def _quarantine(self, path: Path) -> None:
        """Rename a corrupt disk entry to ``<name>.json.corrupt``.

        The rename keeps the evidence for post-mortems while taking the
        entry out of the ``result-*.json`` namespace (loads, eviction
        scans).  A concurrent quarantiner losing the rename race is
        harmless — the entry is gone either way.
        """
        try:
            path.replace(path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            return
        with self._lock:
            self.corrupt_entries += 1

    def _store_to_disk(self, request_hash: str, result: Dict) -> None:
        """Atomically persist one entry (last writer wins), then evict.

        Disk trouble (full volume, directory removed, permissions) only
        costs the persistence, never the request: the result is already
        in memory, so a failed write is a warning on stderr.
        """
        path = self.path_for(request_hash)
        if path is None:
            return
        payload = {"version": self.VERSION, "key": request_hash, "result": result}
        try:
            handle, scratch = tempfile.mkstemp(
                prefix=path.name, suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(handle, "w") as stream:
                    stream.write(json.dumps(payload, indent=1) + "\n")
                os.replace(scratch, path)
            except BaseException:
                try:
                    os.unlink(scratch)
                except OSError:
                    pass
                raise
        except OSError as error:
            print(
                f"warning: could not persist service result {path.name} "
                f"({error}); continuing without it",
                file=sys.stderr,
            )
            return
        self._evict_disk()

    def _evict_disk(self) -> None:
        """LRU-unlink disk entries beyond the configured bounds.

        Best-effort: a file that vanishes mid-scan (a concurrent evictor)
        is skipped.  The newest entry is always kept, even when it alone
        exceeds the byte budget — evicting the entry just written would
        defeat the tier.  Runs outside the memory lock (see :meth:`put`);
        only the counter update re-takes it, so a concurrent evictor at
        worst double-scans.
        """
        max_entries, max_bytes = self.disk_max_entries, self.disk_max_bytes
        if max_entries is None and max_bytes is None:
            return
        entries = []
        for path in self.directory.glob("result-*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(reverse=True)  # newest first
        total_bytes = 0
        kept = 0
        evicted = 0
        for _, size, path in entries:
            kept += 1
            total_bytes += size
            over_entries = max_entries is not None and kept > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if kept > 1 and (over_entries or over_bytes):
                try:
                    path.unlink()
                except OSError:
                    continue
                evicted += 1
                kept -= 1
                total_bytes -= size
        if evicted:
            with self._lock:
                self.disk_evictions += evicted
