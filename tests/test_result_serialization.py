"""SimResult and everything it transitively holds must round-trip.

Worker processes and the disk cache move results exclusively through
``to_dict``/``from_dict``, so a field silently dropped there corrupts
every parallel or cached experiment.  These tests pin (a) exact
round-trip equality and (b) that the payload covers every dataclass
field, so adding a field without serializing it fails loudly.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.multistage import CollectorSpec, MultiStageReport
from repro.core.stack import CpiStack, FlopsStack
from repro.core.topdown import TopDownReport
from repro.experiments.runner import clear_cache, get_trace
from repro.pipeline.core import simulate
from repro.pipeline.result import ACCOUNTING_SCHEMA_VERSION, SimResult

N = 3000


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def result(tiny_module_config):
    trace = get_trace("gemm-train-1760-knl", N, 1)
    return simulate(
        trace,
        tiny_module_config,
        warmup_instructions=int(len(trace) * 0.3),
        seed=778,
        collector=CollectorSpec(topdown=True),
    )


@pytest.fixture(scope="module")
def tiny_module_config():
    from repro.config.presets import tiny_core

    return tiny_core()


def _assert_payload_covers_fields(obj, payload, *, skip=()):
    """Every dataclass field must appear in the serialized payload."""
    for field in dataclasses.fields(obj):
        if field.name in skip:
            continue
        assert field.name in payload, (
            f"{type(obj).__name__}.{field.name} missing from to_dict() — "
            "serialize it or the cache/workers will drop it"
        )


def test_simresult_payload_covers_every_field(result):
    payload = result.to_dict()
    _assert_payload_covers_fields(result, payload)
    assert payload["schema"] == ACCOUNTING_SCHEMA_VERSION
    report = result.report
    assert report is not None
    _assert_payload_covers_fields(report, payload["report"])
    for stage in ("dispatch", "issue", "commit"):
        _assert_payload_covers_fields(
            getattr(report, stage), payload["report"][stage]
        )
    assert report.flops is not None, "FLOPS workload must produce a stack"
    _assert_payload_covers_fields(report.flops, payload["report"]["flops"])
    assert report.topdown is not None
    _assert_payload_covers_fields(
        report.topdown, payload["report"]["topdown"]
    )


def test_simresult_round_trip_is_lossless(result):
    restored = SimResult.from_dict(result.to_dict())
    assert restored.to_dict() == result.to_dict()
    assert restored.cycles == result.cycles
    assert restored.committed_uops == result.committed_uops
    assert restored.committed_instrs == result.committed_instrs
    assert restored.memory_stats == result.memory_stats
    assert restored.branch_lookups == result.branch_lookups
    assert restored.branch_mispredicts == result.branch_mispredicts
    assert restored.wrong_path_uops == result.wrong_path_uops
    assert restored.wall_seconds == result.wall_seconds
    assert restored.cpi == result.cpi


def test_round_trip_restores_canonical_enum_members(result):
    """Counters must be keyed by the singleton enum members again.

    The accountants use identity hashing (``__hash__ = object.__hash__``),
    so deserialization must map names back onto the canonical members —
    equal-but-distinct enum objects would make every lookup miss.
    """
    restored = SimResult.from_dict(result.to_dict())
    report = restored.report
    assert report is not None
    original = result.report
    assert original is not None
    for stage in ("dispatch", "issue", "commit"):
        got = getattr(report, stage)
        want = getattr(original, stage)
        for component, value in want.counters.items():
            # Identity-based lookup with the canonical member must work.
            assert got.counters[component] == value
        assert got.cpi() == want.cpi()
    assert report.flops is not None and original.flops is not None
    for component, value in original.flops.counters.items():
        assert report.flops.counters[component] == value


def test_stack_round_trips():
    stack = CpiStack(name="w", stage="issue", cycles=100.0, instructions=40)
    from repro.core.components import Component

    stack.add(Component.BASE, 60.0)
    stack.add(Component.DCACHE, 40.0)
    restored = CpiStack.from_dict(stack.to_dict())
    assert restored.to_dict() == stack.to_dict()
    assert restored.component_cpi(Component.DCACHE) == stack.component_cpi(
        Component.DCACHE
    )

    from repro.core.components import FlopsComponent

    flops = FlopsStack(name="w", cycles=100.0, flops=320.0,
                       peak_per_cycle=8.0)
    flops.add(FlopsComponent.BASE, 40.0)
    flops.add(FlopsComponent.MEM, 60.0)
    restored_flops = FlopsStack.from_dict(flops.to_dict())
    assert restored_flops.to_dict() == flops.to_dict()
    assert restored_flops.gflops(2.0) == flops.gflops(2.0)


def test_multistage_report_round_trip_without_optionals(result):
    report = result.report
    assert report is not None
    bare = MultiStageReport(
        name=report.name,
        dispatch=report.dispatch,
        issue=report.issue,
        commit=report.commit,
        flops=None,
        topdown=None,
    )
    restored = MultiStageReport.from_dict(bare.to_dict())
    assert restored.flops is None
    assert restored.topdown is None
    assert restored.to_dict() == bare.to_dict()


def test_topdown_report_round_trip(result):
    report = result.report
    assert report is not None and report.topdown is not None
    topdown = report.topdown
    restored = TopDownReport.from_dict(topdown.to_dict())
    assert restored.to_dict() == topdown.to_dict()
    assert restored.level1_fractions() == topdown.level1_fractions()


def test_simresult_pickles(result):
    """Worker transport and the disk cache both pickle the payload."""
    payload = pickle.loads(pickle.dumps(result.to_dict()))
    restored = SimResult.from_dict(payload)
    assert restored.to_dict() == result.to_dict()


def test_from_dict_rejects_stale_schema(result):
    payload = result.to_dict()
    payload["schema"] = ACCOUNTING_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        SimResult.from_dict(payload)
