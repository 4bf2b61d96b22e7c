"""Multi-process hammering of the shared disk result tier.

The shard fleet points every worker's :class:`ResultStore` at one
directory, so eviction, mtime refresh, quarantine, and atomic replace
all race across processes.  The contract under that contention is
*degrade to a miss, never raise*: a reader losing a race with an
evictor sees a miss, a reader catching a corrupt entry quarantines it,
and a correct value is the only value a hit can return.

These tests hammer the tier from several processes at once — puts,
gets, LRU eviction (bounds far below the working set), and a dedicated
vandal process writing garbage over live entries — and fail if any
process observes an exception or a wrong value.
"""

import hashlib
import json
import multiprocessing
import os

from repro.service.store import ResultStore

ROUNDS = int(os.environ.get("STORE_HAMMER_ROUNDS", "150"))
WORKERS = 3
KEYS = 24  # working set, deliberately larger than the disk bounds


def _hash_key(index: int) -> str:
    return hashlib.sha256(f"hammer-{index}".encode()).hexdigest()


def _result_store_worker(directory, worker, rounds, failures):
    try:
        # max_entries=1 starves the in-memory tier so nearly every get
        # goes to disk; disk_max_entries far below the key count keeps
        # the evictor running against concurrent readers and writers.
        store = ResultStore(
            max_entries=1, directory=directory, disk_max_entries=6,
        )
        for round_index in range(rounds):
            index = (round_index * (worker + 1)) % KEYS
            key = _hash_key(index)
            store.put(key, {"request_hash": key, "value": index})
            found = store.get(key)
            if found is not None and found.get("value") != index:
                failures.put(
                    f"worker {worker}: wrong value for key {index}: {found}"
                )
                return
    except BaseException as error:  # noqa: BLE001 - the failure signal
        failures.put(f"worker {worker}: {type(error).__name__}: {error}")


def _result_entry_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"result-{_hash_key(index)}.json")


def _vandal(directory, rounds, failures, path_fn):
    """Overwrite live entries with garbage, non-atomically, at full speed."""
    try:
        for round_index in range(rounds):
            path = path_fn(directory, round_index % KEYS)
            try:
                with open(path, "w") as handle:
                    handle.write("{ not json" * (round_index % 3 + 1))
            except OSError:
                continue
    except BaseException as error:  # noqa: BLE001 - the failure signal
        failures.put(f"vandal: {type(error).__name__}: {error}")


def _run_hammer(target, directory, vandal_path_fn=None):
    context = multiprocessing.get_context()
    failures = context.Queue()
    processes = [
        context.Process(target=target, args=(directory, worker, ROUNDS, failures))
        for worker in range(WORKERS)
    ]
    if vandal_path_fn is not None:
        processes.append(context.Process(
            target=_vandal, args=(directory, ROUNDS, failures, vandal_path_fn)
        ))
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=300)
    observed = []
    while not failures.empty():
        observed.append(failures.get())
    exit_codes = [process.exitcode for process in processes]
    assert all(code == 0 for code in exit_codes), (exit_codes, observed)
    assert observed == [], observed


class TestResultStoreConcurrency:
    def test_multiprocess_put_get_evict_never_raises(self, tmp_path):
        _run_hammer(_result_store_worker, str(tmp_path))

    def test_multiprocess_with_corrupting_writer(self, tmp_path):
        _run_hammer(
            _result_store_worker, str(tmp_path),
            vandal_path_fn=_result_entry_path,
        )
        # The vandal's garbage was either overwritten or quarantined;
        # whatever remains on disk never surfaces as a hit.
        store = ResultStore(max_entries=1, directory=tmp_path)
        for index in range(KEYS):
            found = store.get(_hash_key(index))
            if found is not None:
                assert found["value"] == index

    def test_eviction_respects_bounds_eventually(self, tmp_path):
        _run_hammer(_result_store_worker, str(tmp_path))
        live = list(tmp_path.glob("result-*.json"))
        # Bounds are enforced per put; the final put's eviction pass ran
        # against a quiescent directory, so the bound holds (plus a
        # small slack for entries written after the last evictor ran).
        assert len(live) <= 6 + WORKERS


def test_quarantine_keeps_vandalised_entry_out_of_hits(tmp_path):
    """A corrupt entry is renamed aside and never read again."""
    writer = ResultStore(max_entries=1, directory=tmp_path)
    key = _hash_key(0)
    writer.put(key, {"request_hash": key, "value": 0})
    path = writer.path_for(key)
    path.write_text("{ not json")
    # A different process (fresh store) reads the vandalised entry.
    store = ResultStore(max_entries=1, directory=tmp_path)
    assert store.get(key) is None
    assert store.corrupt_entries == 1
    assert not path.exists()
    assert path.with_suffix(path.suffix + ".corrupt").exists()
