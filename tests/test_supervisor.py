"""Fault-injection tests for the supervised batch scheduler.

Every supervision path — crash retry, hang deadline, broken-pool rebuild
with serial fallback, partial batches with persisted failure reports and
targeted re-runs — is driven deterministically through the
:data:`repro.experiments.supervisor.fault_plan` hook.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import parallel, runner, supervisor
from repro.experiments.cache import TELEMETRY, CaseSpec, Job, get_disk_cache
from repro.experiments.parallel import run_cases, run_multicore_cases
from repro.experiments.runner import clear_cache
from repro.experiments.supervisor import (
    BatchFailure,
    case_deadline,
    resolve_case_timeout,
)

#: Small enough that a faulted case retries in well under a second.
N = 2000


def _start_method() -> str:
    """Pool start method for these tests (CI runs them under spawn too)."""
    return os.environ.get("REPRO_TEST_START_METHOD", "fork")


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_cache()
    TELEMETRY.reset()
    supervisor.clear_failures()
    supervisor.fault_plan = None
    yield
    supervisor.fault_plan = None
    supervisor.clear_failures()
    clear_cache()
    TELEMETRY.reset()


def _spec(seed: int = 1) -> CaseSpec:
    return CaseSpec(workload="mcf", preset="tiny", instructions=N, seed=seed)


def _comparable(result) -> dict:
    """Everything that must be identical (host timing excluded)."""
    payload = result.to_dict()
    payload.pop("wall_seconds")
    return payload


# ---------------------------------------------------------------------------
# deadlines


def test_case_deadline_scales_with_instructions():
    small = case_deadline(_spec())
    big = case_deadline(
        CaseSpec(workload="mcf", preset="tiny", instructions=10 * N)
    )
    assert big > small > 0
    # spec without explicit instructions: the workload default sizes it
    sized = case_deadline(CaseSpec(workload="mcf", preset="tiny"))
    assert sized > case_deadline(_spec())
    assert case_deadline(_spec(), 7.5) == 7.5, "override wins"


def test_case_timeout_resolution(monkeypatch):
    monkeypatch.delenv(supervisor.ENV_CASE_TIMEOUT, raising=False)
    assert resolve_case_timeout(None) is None
    assert resolve_case_timeout(3.0) == 3.0
    monkeypatch.setenv(supervisor.ENV_CASE_TIMEOUT, "12.5")
    assert resolve_case_timeout(None) == 12.5
    assert resolve_case_timeout(3.0) == 3.0, "explicit argument beats env"
    monkeypatch.setenv(supervisor.ENV_CASE_TIMEOUT, "nope")
    with pytest.raises(ValueError):
        resolve_case_timeout(None)
    monkeypatch.setenv(supervisor.ENV_CASE_TIMEOUT, "-1")
    with pytest.raises(ValueError):
        resolve_case_timeout(None)
    with pytest.raises(ValueError):
        resolve_case_timeout(0.0)


def test_fault_plan_env_parsing(monkeypatch):
    monkeypatch.setenv(
        supervisor.ENV_FAULT_PLAN,
        json.dumps({"mcf@tiny": {"kind": "crash"}}),
    )
    plan = supervisor.get_fault_plan()
    assert plan == {"mcf@tiny": {"kind": "crash"}}
    monkeypatch.setenv(supervisor.ENV_FAULT_PLAN, "{not json")
    with pytest.raises(ValueError):
        supervisor.get_fault_plan()
    monkeypatch.setenv(supervisor.ENV_FAULT_PLAN, '["a-list"]')
    with pytest.raises(ValueError):
        supervisor.get_fault_plan()


# ---------------------------------------------------------------------------
# crash retry and recovery


def test_crash_is_retried_and_recovers_serial():
    clean, = run_cases([_spec()], jobs=1)
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {"mcf@tiny": {"kind": "crash", "times": 1}}
    result, = run_cases([_spec()], jobs=1, retry_backoff=0)
    assert _comparable(result) == _comparable(clean), (
        "a retried case must produce the identical result"
    )
    stats = parallel.LAST_BATCH
    assert stats.retries >= 1 and stats.failures == 0
    assert not supervisor.failed_keys(), "a recovered case leaves no record"


def test_crash_is_retried_and_recovers_pool():
    specs = [_spec(seed) for seed in (1, 2, 3)]
    clean = [_comparable(r) for r in run_cases(specs, jobs=1)]
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {specs[1].key(): {"kind": "crash", "times": 1}}
    results = run_cases(
        specs, jobs=2, mp_start_method=_start_method(), retry_backoff=0
    )
    assert [_comparable(r) for r in results] == clean
    assert parallel.LAST_BATCH.retries == 1
    assert TELEMETRY.sim_invocations == len(specs), (
        "pool-side telemetry must count each successful simulation once"
    )


def test_env_fault_plan_reaches_workers(monkeypatch):
    monkeypatch.setenv(
        supervisor.ENV_FAULT_PLAN,
        json.dumps({"*": {"kind": "crash", "times": 99}}),
    )
    with pytest.raises(BatchFailure):
        run_cases([_spec()], jobs=1, max_attempts=2, retry_backoff=0)
    assert supervisor.failed_keys() == {_spec().key()}


# ---------------------------------------------------------------------------
# hangs and deadlines


def test_serial_hang_hits_deadline():
    supervisor.fault_plan = {"*": {"kind": "hang", "seconds": 30.0,
                                   "times": 9}}
    results = run_cases(
        [_spec()], jobs=1, keep_going=True, case_timeout=0.3,
        max_attempts=1, retry_backoff=0,
    )
    assert results == [None]
    stats = parallel.LAST_BATCH
    assert stats.timeouts == 1 and stats.failures == 1
    report = stats.failure_reports[_spec().key()]
    assert report.classification == "timeout"
    assert report.attempts[-1].executor == "serial"


def test_pool_hang_does_not_stall_batch():
    hung, healthy = _spec(1), _spec(2)
    supervisor.fault_plan = {
        hung.key()[:16]: {"kind": "hang", "seconds": 5.0, "times": 9}
    }
    results = run_cases(
        [hung, healthy], jobs=2, mp_start_method=_start_method(),
        keep_going=True, case_timeout=0.5, max_attempts=1, retry_backoff=0,
    )
    assert results[0] is None, "the hung case times out"
    assert results[1] is not None, "the healthy case still completes"
    assert parallel.LAST_BATCH.timeouts >= 1
    record = supervisor.load_failure(hung.key())
    assert record is not None and record["classification"] == "timeout"


# ---------------------------------------------------------------------------
# broken pools


def test_worker_death_rebuilds_pool_then_falls_back_serial():
    specs = [_spec(seed) for seed in (1, 2)]
    clean = [_comparable(r) for r in run_cases(specs, jobs=1)]
    clear_cache()
    TELEMETRY.reset()
    # Two abort rounds: the first breaks the pool (rebuild), the second
    # breaks the rebuilt pool (fall back to in-process serial, where
    # abort degrades to a plain crash and the third attempt succeeds).
    supervisor.fault_plan = {"*": {"kind": "abort", "times": 2}}
    results = run_cases(
        specs, jobs=2, mp_start_method=_start_method(), retry_backoff=0
    )
    assert [_comparable(r) for r in results] == clean
    stats = parallel.LAST_BATCH
    assert stats.pool_rebuilds >= 1
    assert stats.serial_fallback
    assert stats.failures == 0


def _supervision(pending) -> supervisor._Supervision:
    """Fresh supervision state for driving single pool rounds."""
    return supervisor._Supervision(
        plan=supervisor.get_fault_plan(),
        outcome=supervisor.SupervisionOutcome(),
        use_cache=False,
        timeout_override=None,
        checkpoint_interval=None,
        attempts={key: [] for key, _ in pending},
    )


def test_broken_pool_charges_only_started_jobs():
    """One SIGKILLed worker breaks the pool, which fails every
    uncollected job; only jobs that had started may be charged."""
    specs = [_spec(seed) for seed in (1, 2, 3, 4)]
    supervisor.fault_plan = {
        # The culprit dies as its attempt begins (no checkpoint will
        # land).  The other worker's first job sleeps until the broken
        # pool terminates it, so no later job can start in this round.
        specs[0].key(): {"kind": "sigkill_mid_case", "times": 1},
        specs[1].key(): {"kind": "hang", "seconds": 60, "times": 1},
    }
    pending = [(spec.key(), Job((spec,))) for spec in specs]
    state = _supervision(pending)
    retry, unstarted, broke = state.pool_round(pending, 2, _start_method())
    assert broke
    culprit, sleeper, *never_started = [key for key, _ in pending]
    (attempt,) = state.attempts[culprit]
    assert attempt.classification == "crash"
    assert len(state.attempts[sleeper]) <= 1
    for key in never_started:
        assert state.attempts[key] == [], "a job that never ran was charged"
    assert {key for key, _ in unstarted} >= set(never_started)
    assert culprit in {key for key, _ in retry}


def test_broken_pool_round_joins_its_manager_thread(monkeypatch):
    """A broken pool's manager thread closes the pool's wakeup pipe as it
    exits, racing the interpreter's exit hook that writes to the pipe;
    the round that broke the pool must have joined it."""
    managers = []

    class RecordingPool(ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            managers.append(self._executor_manager_thread)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(supervisor, "ProcessPoolExecutor", RecordingPool)
    spec = _spec()
    supervisor.fault_plan = {
        spec.key(): {"kind": "sigkill_mid_case", "times": 1}
    }
    pending = [(spec.key(), Job((spec,)))]
    _, _, broke = _supervision(pending).pool_round(
        pending, 1, _start_method()
    )
    assert broke
    (manager,) = managers
    assert manager is not None and not manager.is_alive()


# ---------------------------------------------------------------------------
# partial batches and targeted re-runs


def test_keep_going_partial_batch_and_targeted_rerun():
    bad, good = _spec(1), _spec(2)
    supervisor.fault_plan = {
        bad.key()[:16]: {"kind": "crash", "times": 99}
    }
    results = run_cases(
        [bad, good], jobs=1, keep_going=True, max_attempts=2,
        retry_backoff=0,
    )
    assert results[0] is None and results[1] is not None
    record = supervisor.load_failure(bad.key())
    assert record is not None
    assert record["classification"] == "crash"
    assert record["label"] == bad.label()
    assert len(record["attempts"]) == 2
    assert "injected crash" in record["attempts"][0]["error"]
    assert record["spec"]["workload"] == "mcf"

    # Targeted re-run: only the failed key needs recomputing (the good
    # case is served from cache — zero extra simulator invocations).
    supervisor.fault_plan = None
    TELEMETRY.reset()
    assert supervisor.failed_keys() == {bad.key()}
    rerun = run_cases([bad, good], jobs=1)
    assert all(r is not None for r in rerun)
    assert TELEMETRY.sim_invocations == 1
    assert not supervisor.failed_keys(), "success clears the stale record"


def test_batch_failure_raised_without_keep_going():
    supervisor.fault_plan = {"*": {"kind": "crash", "times": 99}}
    with pytest.raises(BatchFailure) as excinfo:
        run_cases([_spec()], jobs=1, max_attempts=2, retry_backoff=0)
    assert "mcf@tiny" in str(excinfo.value)
    assert "crash" in str(excinfo.value)
    assert _spec().key() in excinfo.value.failures


# ---------------------------------------------------------------------------
# corrupted payloads


def test_garbage_payload_classified_corrupt_and_not_cached():
    supervisor.fault_plan = {"*": {"kind": "corrupt", "style": "garbage",
                                   "times": 99}}
    results = run_cases(
        [_spec()], jobs=1, keep_going=True, max_attempts=2, retry_backoff=0
    )
    assert results == [None]
    report = parallel.LAST_BATCH.failure_reports[_spec().key()]
    assert report.classification == "corrupt-payload"
    from repro.experiments.cache import get_disk_cache

    assert get_disk_cache().get(_spec().key()) is None


def test_corrupt_cycles_classified_invariant():
    supervisor.fault_plan = {"*": {"kind": "corrupt", "style": "cycles",
                                   "times": 99}}
    results = run_cases(
        [_spec()], jobs=1, keep_going=True, max_attempts=2, retry_backoff=0
    )
    assert results == [None]
    report = parallel.LAST_BATCH.failure_reports[_spec().key()]
    assert report.classification == "invariant"


def test_corrupt_schema_payload_is_rejected():
    supervisor.fault_plan = {"*": {"kind": "corrupt", "style": "schema",
                                   "times": 1}}
    result, = run_cases([_spec()], jobs=1, retry_backoff=0)
    assert result is not None, "retry after the one corrupted attempt"
    assert parallel.LAST_BATCH.retries >= 1


def _shape_specs(shape: str) -> list[CaseSpec]:
    """The cases of a single-case, fused-pair or 2-core-socket job."""
    if shape == "socket":
        return [CaseSpec(workload="exchange2", preset="tiny",
                         instructions=N, cores=2)]
    specs = [_spec()]
    if shape == "fused":
        specs.append(CaseSpec(workload="mcf", preset="tiny",
                              instructions=N, topdown=True))
    return specs


SHAPES = ("case", "fused", "socket")


@pytest.mark.parametrize("shape", SHAPES)
def test_validate_payload_checks_result_count(shape):
    job = Job(tuple(_shape_specs(shape)))
    results, _ = runner.execute_spec_checkpointed(job, None)
    assert len(results) == {"case": 1, "fused": 2, "socket": 2}[shape]
    members = [result.to_dict() for result in results]
    decoded = supervisor.validate_payload({"members": members}, job)
    assert [result.to_dict() for result in decoded] == members
    for wrong in (members[:-1], members + members[:1]):
        with pytest.raises(supervisor.CorruptPayload):
            supervisor.validate_payload({"members": wrong}, job)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "style, classification",
    [
        ("schema", "corrupt-payload"),
        ("garbage", "corrupt-payload"),
        ("cycles", "invariant"),
    ],
)
def test_corrupt_payload_classified_for_every_shape(
    shape, style, classification
):
    specs = _shape_specs(shape)
    supervisor.fault_plan = {"*": {"kind": "corrupt", "style": style,
                                   "times": 99}}
    run = run_multicore_cases if shape == "socket" else run_cases
    results = run(
        specs, jobs=1, keep_going=True, max_attempts=1, retry_backoff=0
    )
    assert results == [None] * len(specs)
    stats = parallel.LAST_BATCH
    assert stats.fused_groups == (shape == "fused")
    for spec in specs:
        assert stats.failure_reports[spec.key()].classification == (
            classification
        )
        for core in range(spec.cores):
            assert get_disk_cache().get(spec.member_key(core)) is None


# ---------------------------------------------------------------------------
# interrupts


def test_keyboard_interrupt_propagates_and_harness_survives():
    supervisor.fault_plan = {"*": {"kind": "interrupt", "times": 1}}
    with pytest.raises(KeyboardInterrupt):
        run_cases([_spec()], jobs=1, retry_backoff=0)
    supervisor.fault_plan = None
    result, = run_cases([_spec()], jobs=1)
    assert result is not None, "the harness stays usable after Ctrl-C"


# ---------------------------------------------------------------------------
# failure-report store


def test_failure_store_roundtrip_and_clear():
    report = supervisor.FailureReport(
        key="deadbeef" * 8,
        label="mcf@tiny",
        classification="crash",
        attempts=[
            supervisor.Attempt(
                attempt=0, classification="crash", error="boom",
                elapsed_seconds=0.1, executor="pool",
            )
        ],
        spec={"workload": "mcf"},
    )
    supervisor.save_failure(report)
    loaded = supervisor.load_failure(report.key)
    assert loaded is not None
    assert loaded["schema"] == supervisor.FAILURE_SCHEMA
    assert loaded["attempts"][0]["error"] == "boom"
    assert loaded["resumed_from"] is None
    assert [r["key"] for r in supervisor.list_failures()] == [report.key]
    assert supervisor.clear_failures() == 1
    assert supervisor.list_failures() == []
    assert supervisor.load_failure(report.key) is None


@pytest.mark.parametrize(
    "text",
    ["{truncated", json.dumps({"schema": 99, "key": "ab" * 32})],
    ids=["unparseable", "other-schema"],
)
def test_list_failures_skips_unreadable_records(text):
    path = supervisor.failure_path("ab" * 32)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    assert supervisor.list_failures() == []
    assert supervisor.load_failure("ab" * 32) is None


# ---------------------------------------------------------------------------
# spawn parity (CI also runs the whole module under spawn)


@pytest.mark.slow
def test_crash_recovery_under_spawn():
    specs = [_spec(seed) for seed in (1, 2)]
    clean = [_comparable(r) for r in run_cases(specs, jobs=1)]
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {specs[0].key(): {"kind": "crash", "times": 1}}
    results = run_cases(
        specs, jobs=2, mp_start_method="spawn", retry_backoff=0
    )
    assert [_comparable(r) for r in results] == clean
    assert parallel.LAST_BATCH.retries == 1
