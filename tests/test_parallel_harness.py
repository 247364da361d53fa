"""The parallel batch scheduler and the persistent result cache.

The hard guarantees pinned here:

* parallel execution is bit-identical to serial execution (every stack
  counter, cycle count and commit count — under both fork and spawn
  start methods);
* a warm disk cache serves a whole experiment with zero simulator
  invocations (asserted through the telemetry counter hook);
* corrupted or stale-schema cache entries degrade to misses, never
  crashes;
* ``clear_cache()`` also purges the on-disk store.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.config.idealize import PERFECT_DCACHE
from repro.experiments import runner
from repro.experiments.cache import TELEMETRY, CaseSpec, Job, get_disk_cache
from repro.experiments.error import figure2_errors
from repro.experiments.parallel import resolve_jobs, run_cases

N = 2500


@pytest.fixture(autouse=True)
def _fresh_harness():
    runner.clear_cache()
    TELEMETRY.reset()
    yield
    runner.clear_cache()
    TELEMETRY.reset()


def _sweep_specs() -> list[CaseSpec]:
    """A small Fig. 2-shaped sweep: baselines plus an idealized rerun."""
    specs = [
        CaseSpec(workload=name, preset="tiny", instructions=N)
        for name in ("mcf", "imagick", "exchange2")
    ]
    specs.append(
        CaseSpec(
            workload="mcf", preset="tiny", instructions=N,
            idealization=PERFECT_DCACHE,
        )
    )
    return specs


def _comparable(result) -> dict:
    """Everything that must be bitwise identical (host timing excluded)."""
    payload = result.to_dict()
    payload.pop("wall_seconds")
    return payload


# ---------------------------------------------------------------------------
# jobs resolution


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(2) == 2, "explicit argument beats the env var"
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ValueError):
        resolve_jobs(None)
    with pytest.raises(ValueError):
        resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(-2)
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def test_resolve_jobs_auto(monkeypatch):
    expected = max(1, (os.cpu_count() or 1) - 1)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs("auto") == expected
    assert resolve_jobs(" AUTO ") == expected, "case/whitespace insensitive"
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs(None) == expected
    assert resolve_jobs(2) == 2, "explicit argument beats env auto"
    monkeypatch.setenv("REPRO_JOBS", "Auto")
    assert resolve_jobs(None) == expected


def test_resolve_jobs_auto_floors_at_one(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert resolve_jobs("auto") == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_jobs("auto") == 1


def test_resolve_jobs_rejects_other_strings(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(ValueError, match="integer or 'auto'"):
        resolve_jobs("fast")
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs(None)


def test_case_spec_needs_exactly_one_machine():
    with pytest.raises(ValueError):
        CaseSpec(workload="mcf")
    from repro.config.presets import tiny_core

    with pytest.raises(ValueError):
        CaseSpec(workload="mcf", preset="tiny", config=tiny_core())


def test_case_key_is_stable_and_discriminating():
    a = CaseSpec(workload="mcf", preset="tiny", instructions=N)
    b = CaseSpec(workload="mcf", preset="tiny", instructions=N)
    assert a.key() == b.key()
    assert a.key() != CaseSpec(
        workload="mcf", preset="tiny", instructions=N + 1
    ).key()
    assert a.key() != CaseSpec(
        workload="mcf", preset="tiny", instructions=N, seed=2
    ).key()
    assert a.key() != CaseSpec(
        workload="mcf", preset="tiny", instructions=N,
        idealization=PERFECT_DCACHE,
    ).key()
    # A preset name and the equivalent explicit config are the same case.
    from repro.config.presets import tiny_core

    explicit = CaseSpec(workload="mcf", config=tiny_core(), instructions=N)
    assert a.key() == explicit.key()


def test_cache_and_checkpoint_keys_are_pinned():
    """Literal keys: a warm cache (and any checkpoint on disk) from an
    older checkout stays addressable only while these never move."""
    mcf = CaseSpec(workload="mcf", preset="tiny")
    topdown = CaseSpec(workload="mcf", preset="tiny", topdown=True)
    noacc = CaseSpec(workload="mcf", preset="tiny", accounting=False)
    assert mcf.key() == (
        "ae3e12f51247640dfbdace2ac5af33466003ae10bfd026620cea24353125444b"
    )
    assert topdown.key() == (
        "14a3c75433dd57e632149ac5b35f77a94025979d84982fb2c149883383be167d"
    )
    assert noacc.key() == (
        "8a4482e7a440ee9a77e0e02f46fc05c02391dd1a4ba1966415a6771a80170b37"
    )
    socket = CaseSpec(workload="exchange2", preset="tiny", cores=2)
    assert socket.key() == (
        "6b5279e355341c19e85ea97a093dbcd7b9b534e72eeb0af870cf97cd474afe7d"
    )
    assert socket.member_key(0) == (
        "c71aefdb7885d609bc447c9faa5d492d12d8d15f1d0bcc008446324e8359ad43"
    )
    assert socket.member_key(1) == (
        "5bd79d47533ff42e6ceef1e7885365fb7f45c86f371c2191dd41e4952a27998c"
    )
    # A content-shared job (two Fig. 4 kernels of one trace) checkpoints
    # under a key derived from its sorted member keys.
    kernels = tuple(
        CaseSpec(workload=name, preset="knl")
        for name in ("gemm-train-1760-knl", "gemm-train-2048-knl")
    )
    assert Job(kernels, names=("sgemm", "sgemm")).key() == (
        "f134490d2232b1f28f8f790ff7e022ad45091824f02bc3f32bbcde0ff5ef2054"
    )
    assert Job((mcf,)).key() == mcf.key()
    assert Job((socket,)).key() == socket.key()


# ---------------------------------------------------------------------------
# batching, dedup, determinism


def test_duplicate_specs_share_one_simulation():
    spec = CaseSpec(workload="exchange2", preset="tiny", instructions=N)
    results = run_cases([spec, spec, spec], jobs=1)
    assert TELEMETRY.sim_invocations == 1
    assert results[0] is results[1] is results[2]
    from repro.experiments.parallel import LAST_BATCH as batch

    assert batch is not None
    assert batch.cases == 3
    assert batch.unique == 1
    assert batch.simulated == 1


def test_batch_matches_run_case_exactly():
    spec = CaseSpec(workload="mcf", preset="tiny", instructions=N)
    (batched,) = run_cases([spec], jobs=1)
    runner.clear_cache()
    direct = runner.run_case("mcf", "tiny", instructions=N)
    assert _comparable(batched) == _comparable(direct)


@pytest.mark.parametrize(
    "method",
    [
        pytest.param("fork"),
        pytest.param("spawn", marks=pytest.mark.slow),
    ],
)
def test_parallel_is_bitwise_identical_to_serial(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    specs = _sweep_specs()
    serial = run_cases(specs, jobs=1)
    assert TELEMETRY.sim_invocations == len(specs)
    runner.clear_cache()
    TELEMETRY.reset()
    parallel = run_cases(specs, jobs=4, mp_start_method=method)
    assert TELEMETRY.sim_invocations == len(specs)
    for serial_result, parallel_result in zip(serial, parallel):
        assert _comparable(serial_result) == _comparable(parallel_result)


def test_second_run_served_entirely_from_disk():
    specs = _sweep_specs()
    first = run_cases(specs, jobs=1)
    # Drop the in-process memo but keep the disk store: a fresh session.
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    second = run_cases(specs, jobs=4)
    assert TELEMETRY.sim_invocations == 0, (
        "warm-cache rerun must not invoke the simulator"
    )
    assert TELEMETRY.disk_hits == len(specs)
    for a, b in zip(first, second):
        # Disk-served results are fully identical, wall clock included.
        assert a.to_dict() == b.to_dict()


def test_figure2_sweep_serial_vs_parallel_and_warm():
    """End-to-end: the real Fig. 2 experiment, serial vs jobs=4 vs warm."""
    kwargs = dict(
        workloads=("mcf", "imagick"), instructions=N, threshold=0.05
    )
    serial = figure2_errors("tiny", jobs=1, **kwargs)
    runner.clear_cache()
    parallel = figure2_errors("tiny", jobs=4, **kwargs)
    assert serial.keys() == parallel.keys()
    for component in serial:
        a_points, b_points = serial[component], parallel[component]
        assert len(a_points) == len(b_points)
        for a, b in zip(a_points, b_points):
            assert a.workload == b.workload
            assert a.actual_delta == b.actual_delta, "bitwise, not approx"
            assert a.predicted == b.predicted
            assert a.errors == b.errors
            assert a.multistage_error == b.multistage_error
    # Warm rerun: everything from disk, zero simulator invocations.
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    warm = figure2_errors("tiny", jobs=4, **kwargs)
    assert TELEMETRY.sim_invocations == 0
    for component in serial:
        for a, b in zip(serial[component], warm[component]):
            assert a.errors == b.errors


# ---------------------------------------------------------------------------
# disk cache robustness


def test_clear_cache_purges_disk_store():
    run_cases(_sweep_specs(), jobs=1)
    cache = get_disk_cache()
    assert len(cache.entries()) == len(_sweep_specs())
    removed = runner.clear_cache()
    assert removed == len(_sweep_specs())
    assert cache.entries() == []


def test_truncated_entry_is_a_miss_and_recomputed():
    spec = CaseSpec(workload="exchange2", preset="tiny", instructions=N)
    (first,) = run_cases([spec], jobs=1)
    cache = get_disk_cache()
    path = cache.path_for(spec.key())
    assert path.is_file()
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])  # truncated pickle
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    (again,) = run_cases([spec], jobs=1)
    assert TELEMETRY.corrupt_entries == 1
    assert TELEMETRY.sim_invocations == 1, "recomputed, not crashed"
    assert _comparable(first) == _comparable(again)
    # The bad entry was replaced by a good one.
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    run_cases([spec], jobs=1)
    assert TELEMETRY.sim_invocations == 0


def test_garbage_entry_is_a_miss():
    spec = CaseSpec(workload="exchange2", preset="tiny", instructions=N)
    cache = get_disk_cache()
    path = cache.path_for(spec.key())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not a pickle at all")
    assert cache.get(spec.key()) is None
    assert not path.exists(), "corrupt entries are evicted"


def test_stale_schema_entry_is_a_miss():
    spec = CaseSpec(workload="exchange2", preset="tiny", instructions=N)
    (result,) = run_cases([spec], jobs=1)
    cache = get_disk_cache()
    path = cache.path_for(spec.key())
    payload = {"schema": -1, "spec": {}, "result": result.to_dict()}
    path.write_bytes(pickle.dumps(payload))
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    run_cases([spec], jobs=1)
    assert TELEMETRY.sim_invocations == 1, "stale schema must recompute"


def test_use_cache_false_bypasses_store():
    spec = CaseSpec(workload="exchange2", preset="tiny", instructions=N)
    run_cases([spec], jobs=1, use_cache=False)
    assert get_disk_cache().entries() == []
    assert TELEMETRY.sim_invocations == 1
    run_cases([spec], jobs=1, use_cache=False)
    assert TELEMETRY.sim_invocations == 2


def test_cache_stats_reports_footprint():
    run_cases(_sweep_specs(), jobs=1)
    stats = get_disk_cache().stats()
    assert stats["entries"] == len(_sweep_specs())
    assert stats["bytes"] > 0
    assert stats["sim_invocations"] == len(_sweep_specs())


def test_multicore_socket_batches_threads():
    from repro.config.presets import tiny_core
    from repro.experiments.multicore import simulate_socket

    config = tiny_core()
    serial = simulate_socket(
        "gemm-train-1760-knl", config, threads=3, instructions=N, jobs=1
    )
    runner.clear_cache()
    parallel = simulate_socket(
        "gemm-train-1760-knl", config, threads=3, instructions=N, jobs=3
    )
    assert serial.commit.counters == parallel.commit.counters
    assert serial.cpi == parallel.cpi
    assert [r.cycles for r in serial.per_thread] == [
        r.cycles for r in parallel.per_thread
    ]
