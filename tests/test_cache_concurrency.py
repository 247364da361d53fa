"""Concurrent and crash-safety behaviour of the disk cache.

Pool workers, parallel pytest sessions and killed writers all share one
``results/.cache`` tree; these tests hammer the same key from several
processes and assert the atomic-rename protocol never exposes a torn
entry, never leaks temp files, and never raises out of a reader.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments.cache import TELEMETRY, CaseSpec, DiskCache
from repro.experiments.runner import clear_cache, execute_spec

N = 1500


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_cache()
    TELEMETRY.reset()
    yield
    clear_cache()
    TELEMETRY.reset()


def _case():
    spec = CaseSpec(workload="exchange2", preset="tiny", instructions=N)
    return spec, execute_spec(spec)


def _hammer_writer(root, key, fingerprint, payload, rounds, errors):
    """Child: repeatedly write the same entry (atomic-rename race)."""
    try:
        from repro.pipeline.result import SimResult

        cache = DiskCache(root)
        result = SimResult.from_dict(payload)
        for _ in range(rounds):
            cache.put(key, fingerprint, result)
    except BaseException as exc:  # noqa: BLE001 - report to the parent
        errors.put(f"writer: {exc!r}")


def _hammer_reader(root, key, expected_cycles, rounds, errors):
    """Child: repeatedly read; a hit must be valid, a miss must be None."""
    try:
        cache = DiskCache(root)
        for _ in range(rounds):
            result = cache.get(key)
            if result is not None and result.cycles != expected_cycles:
                errors.put(f"reader: wrong cycles {result.cycles}")
                return
    except BaseException as exc:  # noqa: BLE001
        errors.put(f"reader: {exc!r}")


def _hammer_purger(root, rounds, errors):
    """Child: sweep entries and temp files while others read/write."""
    try:
        cache = DiskCache(root)
        for _ in range(rounds):
            cache.sweep_tmp()
            cache.purge()
    except BaseException as exc:  # noqa: BLE001
        errors.put(f"purger: {exc!r}")


def test_concurrent_writers_readers_and_purgers(tmp_path):
    spec, result = _case()
    key = spec.key()
    ctx = multiprocessing.get_context("fork")
    errors = ctx.Queue()
    root = str(tmp_path / "cache")
    payload = result.to_dict()
    children = [
        ctx.Process(
            target=_hammer_writer,
            args=(root, key, spec.fingerprint(), payload, 60, errors),
        )
        for _ in range(2)
    ] + [
        ctx.Process(
            target=_hammer_reader,
            args=(root, key, result.cycles, 120, errors),
        )
        for _ in range(2)
    ] + [
        ctx.Process(target=_hammer_purger, args=(root, 40, errors))
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=60)
    assert all(child.exitcode == 0 for child in children)
    failures = []
    while not errors.empty():
        failures.append(errors.get())
    assert failures == []
    # No temp litter survives the free-for-all.
    cache = DiskCache(root)
    assert list(cache.root.glob("??/*.pkl.tmp*")) == []


def test_corrupt_entry_evicted_under_concurrent_reader(tmp_path):
    """A reader racing a corrupt-entry writer sees misses, never errors."""
    spec, result = _case()
    key = spec.key()
    root = str(tmp_path / "cache")
    cache = DiskCache(root)
    cache.put(key, spec.fingerprint(), result)
    path = cache.path_for(key)

    ctx = multiprocessing.get_context("fork")
    errors = ctx.Queue()
    reader = ctx.Process(
        target=_hammer_reader, args=(root, key, result.cycles, 200, errors)
    )
    reader.start()
    for round_no in range(50):
        path.parent.mkdir(parents=True, exist_ok=True)
        if round_no % 2:
            path.write_bytes(b"\x00torn pickle\x00")
        else:
            cache.put(key, spec.fingerprint(), result)
    reader.join(timeout=60)
    assert reader.exitcode == 0
    assert errors.empty()


def test_sweep_tmp_removes_orphans_only(tmp_path):
    spec, result = _case()
    cache = DiskCache(tmp_path / "cache")
    cache.put(spec.key(), spec.fingerprint(), result)
    shard = cache.path_for(spec.key()).parent
    (shard / "orphan.pkl.tmp12345").write_bytes(b"left by a killed writer")
    (shard / "orphan.pkl.tmp67890").write_bytes(b"and another")

    assert cache.sweep_tmp() == 2
    assert list(cache.root.glob("??/*.pkl.tmp*")) == []
    assert cache.get(spec.key()) is not None, "real entries are untouched"


def test_purge_removes_tmp_files_too(tmp_path):
    spec, result = _case()
    cache = DiskCache(tmp_path / "cache")
    cache.put(spec.key(), spec.fingerprint(), result)
    shard = cache.path_for(spec.key()).parent
    (shard / "orphan.pkl.tmp999").write_bytes(b"x")
    removed = cache.purge()
    assert removed == 1, "purge() reports real entries, not temp litter"
    assert list(cache.root.glob("??/*")) == []
