"""Runtime invariant guard: accounting identities enforced end to end.

The guard must (a) pass silently on every real experiment, (b) catch a
corrupted result before it reaches the disk cache, and (c) self-heal a
poisoned cache entry by evicting it on read.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config.presets import tiny_core
from repro.core import invariants
from repro.core.invariants import InvariantViolation
from repro.experiments.cache import TELEMETRY, CaseSpec, get_disk_cache
from repro.experiments.error import figure2_errors
from repro.experiments.flops_study import figure5_case
from repro.experiments.idealization import table1_rows
from repro.experiments.multicore import simulate_socket
from repro.experiments.parallel import run_cases
from repro.experiments.runner import clear_cache, execute_spec, store_results

N = 2500


@pytest.fixture(autouse=True)
def _fresh_harness(monkeypatch):
    monkeypatch.delenv(invariants.ENV_STRICT, raising=False)
    invariants.set_strict(None)
    clear_cache()
    TELEMETRY.reset()
    invariants.GUARD.warnings.clear()
    yield
    invariants.set_strict(None)
    invariants.GUARD.warnings.clear()
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
# the guard accepts every real experiment (strict mode is the default)


def test_guard_is_strict_by_default(monkeypatch):
    monkeypatch.delenv(invariants.ENV_STRICT, raising=False)
    assert invariants.strict_enabled()
    monkeypatch.setenv(invariants.ENV_STRICT, "0")
    assert not invariants.strict_enabled()
    invariants.set_strict(True)
    assert invariants.strict_enabled(), "explicit override beats the env"


def test_all_experiments_pass_strict_guard():
    """All four experiment families under the guard, zero violations.

    The guard raises on any violation in strict mode, so merely completing
    is the assertion; the explicit checks document the healthy state.
    """
    assert invariants.strict_enabled()
    table1_rows(instructions=N, jobs=1)
    figure2_errors(
        "tiny", workloads=("mcf", "imagick"), instructions=N, jobs=1
    )
    figure5_case(instructions=N, jobs=1)
    simulate_socket("mcf", tiny_core(), threads=2, instructions=N, jobs=1)
    assert invariants.GUARD.warnings == []


def test_check_result_empty_on_healthy_result():
    result = execute_spec(_spec())
    assert invariants.check_result(result) == []


# ---------------------------------------------------------------------------
# corrupted results are stopped before the disk cache


def _corrupted(spec: CaseSpec):
    result = execute_spec(spec)
    result.cycles += 12_345  # breaks every stack-total identity
    return result


def test_store_result_rejects_corrupt_result_strict():
    spec = _spec()
    bad = _corrupted(spec)
    with pytest.raises(InvariantViolation) as excinfo:
        store_results(spec, spec.key(), [bad])
    assert "mcf@tiny" in str(excinfo.value)
    assert get_disk_cache().get(spec.key()) is None, (
        "a violating result must never reach the disk cache"
    )


def test_store_result_non_strict_warns_but_never_disk_caches():
    spec = _spec()
    bad = _corrupted(spec)
    invariants.set_strict(False)
    with pytest.warns(RuntimeWarning):
        store_results(spec, spec.key(), [bad])
    assert invariants.GUARD.warnings, "the violation is recorded"
    assert get_disk_cache().get(spec.key()) is None, (
        "non-strict mode still refuses to persist a violating result"
    )


def test_violation_messages_name_the_failed_checks():
    bad = _corrupted(_spec())
    checks = {v.check for v in invariants.check_result(bad)}
    assert "stack-total" in checks
    assert "stack-cycles" in checks
    assert "flops-total" in checks


def test_negative_component_detected():
    result = execute_spec(_spec())
    report = result.report
    assert report is not None
    component = next(iter(report.issue.counters))
    report.issue.counters[component] -= 10 * result.cycles
    checks = {v.check for v in invariants.check_result(result)}
    assert "negative-component" in checks


def test_stack_instruction_mismatch_detected():
    result = execute_spec(_spec())
    assert result.report is not None
    result.report.commit.instructions += 7
    checks = {v.check for v in invariants.check_result(result)}
    assert "stack-instructions" in checks


def test_mispredicts_exceeding_lookups_detected():
    result = execute_spec(_spec())
    result.branch_mispredicts = result.branch_lookups + 1
    checks = {v.check for v in invariants.check_result(result)}
    assert "counts" in checks


def test_invariant_violation_pickles():
    exc = InvariantViolation(
        "mcf@tiny", [invariants.Violation("stack-total", "off by 12345")]
    )
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.context == "mcf@tiny"
    assert str(clone) == str(exc)


# ---------------------------------------------------------------------------
# poisoned disk entries self-heal on read


def test_poisoned_disk_entry_evicted_and_recomputed():
    spec = _spec()
    original, = run_cases([spec], jobs=1)
    cache = get_disk_cache()
    path = cache.path_for(spec.key())
    payload = pickle.loads(path.read_bytes())
    payload["result"]["cycles"] += 99_999
    path.write_bytes(pickle.dumps(payload))

    TELEMETRY.reset()
    assert cache.get(spec.key()) is None, "poisoned entry reads as a miss"
    assert TELEMETRY.corrupt_entries == 1
    assert not path.exists(), "the poisoned entry is evicted"

    # A fresh batch recomputes and repopulates transparently.  The memo
    # still holds the healthy original, so drop it to force the disk path.
    clear_cache(disk=False)
    recomputed, = run_cases([spec], jobs=1)
    assert _comparable(recomputed) == _comparable(original)


def test_warm_cache_rerun_is_simulation_free_with_guard():
    specs = [_spec(seed) for seed in (1, 2)]
    run_cases(specs, jobs=1)
    clear_cache(disk=False)  # drop the memo, keep the disk entries
    TELEMETRY.reset()
    rerun = run_cases(specs, jobs=1)
    assert all(r is not None for r in rerun)
    assert TELEMETRY.sim_invocations == 0, (
        "the guard must not break the zero-sims warm-rerun guarantee"
    )


# ---------------------------------------------------------------------------
# the serialization round trip


@pytest.mark.parametrize("field, original, decoded, flagged", [
    ("wrong_path_uops", 0, 1, True),  # a lossy decode
    # NaN != NaN, but the JSON text of both reads alike: not a violation.
    ("wall_seconds", float("nan"), float("nan"), False),
])
def test_round_trip_compares_re_encoded_payload(monkeypatch, field, original,
                                                decoded, flagged):
    result = execute_spec(_spec())
    setattr(result, field, original)
    cls = type(result)
    decode = cls.from_dict.__func__

    def from_dict(klass, data):
        clone = decode(klass, data)
        setattr(clone, field, decoded)
        return clone

    monkeypatch.setattr(cls, "from_dict", classmethod(from_dict))
    checks = {v.check for v in invariants.check_result(result)}
    assert checks == ({"round-trip"} if flagged else set())
