"""Skip-engine counters report what happened.

``ff_windows``/``ff_cycles_skipped`` and ``replay_windows``/
``replay_cycles_skipped`` count every window the production path skips,
through the harness entry point as well as the simulator API, and read
0 under ``reference=True``, which simulates every cycle.
"""

from __future__ import annotations

import pytest

from repro.config.presets import broadwell
from repro.experiments import runner
from repro.experiments.cache import CaseSpec
from repro.pipeline.core import CoreSimulator, simulate
from repro.workloads.registry import make_trace

N = 2_000

COUNTERS = (
    "ff_windows", "ff_cycles_skipped",
    "replay_windows", "replay_cycles_skipped",
)


def _canonical(result) -> dict:
    payload = result.to_dict()
    for key in ("wall_seconds", *COUNTERS):
        payload.pop(key)
    return payload


def _reference_result(spec: CaseSpec):
    """``spec`` simulated the way ``execute_spec`` builds it, but with
    ``reference=True``."""
    trace = runner.get_trace(spec.workload, spec.instructions, spec.seed)
    return CoreSimulator(
        trace,
        spec.resolved_config(),
        mode=spec.mode,
        warmup_instructions=int(len(trace) * spec.warmup_fraction),
        seed=spec.simulate_seed,
        collectors=(spec.collector_spec(),),
        reference=True,
    ).run()


@pytest.mark.parametrize(
    "workload, preset, counter",
    [
        ("chase", "bdw", "ff_cycles_skipped"),
        ("spin", "knl", "replay_cycles_skipped"),
    ],
)
def test_execute_spec_counts_skipped_cycles(workload, preset, counter):
    spec = CaseSpec(workload=workload, preset=preset, instructions=N)
    production = runner.execute_spec(spec)
    assert getattr(production, counter) > 0
    reference = _reference_result(spec)
    assert {c: getattr(reference, c) for c in COUNTERS} == dict.fromkeys(
        COUNTERS, 0
    )
    assert _canonical(reference) == _canonical(production)


def test_simulate_passes_reference_through():
    trace = make_trace("spin", N, 1)
    production = simulate(trace, broadwell())
    reference = simulate(trace, broadwell(), reference=True)
    assert production.ff_windows > 0 and production.replay_windows > 0
    assert all(getattr(reference, c) == 0 for c in COUNTERS)
    assert _canonical(reference) == _canonical(production)
