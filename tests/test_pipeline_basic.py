"""Pipeline timing semantics on small hand-built programs."""

import pytest

from repro.core.components import Component
from repro.core.multistage import (
    CollectorSpec,
    FanoutCollector,
    MultiStageCollector,
)
from repro.isa import decoder as asm
from repro.pipeline.core import CoreSimulator, simulate
from repro.pipeline.multicore import MulticoreSimulator
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_trace

from tests.conftest import load_loop, serial_chain, straightline_alu


def test_ilp_code_reaches_ideal_cpi(tiny):
    """Independent ALU work saturates the pipeline: CPI -> 1/W."""
    result = simulate(straightline_alu(2000), tiny,
                      warmup_instructions=200)
    assert result.cpi == pytest.approx(1 / tiny.dispatch_width, rel=0.05)


def test_ideal_cpi_stack_is_all_base(tiny):
    result = simulate(straightline_alu(2000), tiny,
                      warmup_instructions=200)
    report = result.report
    for stack in (report.dispatch, report.issue, report.commit):
        assert stack.get(Component.BASE) / stack.total() > 0.95


def test_serial_alu_chain_runs_one_per_cycle(tiny):
    """A 1-cycle dependence chain executes one op per cycle."""
    result = simulate(serial_chain(1000, "alu"), tiny,
                      warmup_instructions=100)
    assert result.cpi == pytest.approx(1.0, rel=0.05)


def test_serial_mul_chain_costs_full_latency(tiny):
    """A multiply chain is bounded by the multiply latency."""
    latency = tiny.latencies[asm.UopClass.MUL]
    result = simulate(serial_chain(500, "mul"), tiny,
                      warmup_instructions=100)
    assert result.cpi == pytest.approx(latency, rel=0.05)


def test_mul_chain_blamed_to_alu_latency(tiny):
    result = simulate(serial_chain(500, "mul"), tiny)
    issue = result.report.issue
    assert issue.get(Component.ALU_LAT) > 0.5 * issue.total()


def test_unpipelined_divide_serializes(tiny):
    """Independent divides still serialize on the single divide unit."""
    b = TraceBuilder("divs", seed=1)
    for i in range(200):
        b.emit(asm.div(b.pc, dst=2 + i % 8, srcs=(10,)))
    result = simulate(b.program(), tiny)
    latency = tiny.latencies[asm.UopClass.DIV]
    assert result.cpi == pytest.approx(latency, rel=0.1)


def test_commit_count_matches_trace(tiny):
    prog = straightline_alu(777)
    result = simulate(prog, tiny)
    assert result.committed_instrs == len(prog)
    assert result.committed_uops == prog.uop_count


def test_determinism(tiny):
    prog = load_loop(500, lines=64, stride_lines=3)
    a = simulate(prog, tiny, seed=42)
    b = simulate(prog, tiny, seed=42)
    assert a.cycles == b.cycles
    assert a.report.dispatch.counters == b.report.dispatch.counters


def test_accounting_off_gives_same_timing(tiny):
    prog = load_loop(500, lines=64, stride_lines=3)
    with_acct = simulate(prog, tiny, accounting=True)
    without = simulate(prog, tiny, accounting=False)
    assert with_acct.cycles == without.cycles
    assert without.report is None


def test_warmup_excludes_cold_misses(tiny):
    """With warmup covering the first pass, steady-state CPI is lower."""
    prog = load_loop(2000, lines=16)  # 16 lines revisited constantly
    cold = simulate(prog, tiny)
    warm = simulate(prog, tiny, warmup_instructions=500)
    assert warm.cpi <= cold.cpi
    assert warm.cycles < cold.cycles


def test_l1_resident_loads_near_ideal(tiny):
    prog = load_loop(2000, lines=4)
    result = simulate(prog, tiny, warmup_instructions=200)
    # One load port on tiny: loads are port-bound at CPI ~1.
    assert result.cpi == pytest.approx(1.0, rel=0.1)


def test_cold_loads_show_dcache_component(tiny):
    prog = load_loop(400, lines=4096, stride_lines=7)
    result = simulate(prog, tiny)
    commit = result.report.commit
    assert commit.get(Component.DCACHE) > 0.3 * commit.total()


def test_max_cycles_guard(tiny):
    prog = straightline_alu(100)
    with pytest.raises(RuntimeError):
        simulate_with_limit(prog, tiny)


def simulate_with_limit(prog, config):
    from repro.pipeline.core import CoreSimulator

    return CoreSimulator(prog, config).run(max_cycles=3)


def test_requires_memory_hierarchy(tiny):
    from dataclasses import replace

    from repro.pipeline.core import CoreSimulator

    config = replace(tiny, memory=None)
    with pytest.raises(ValueError):
        CoreSimulator(straightline_alu(10), config)


def test_empty_residue_drains(tiny):
    """The simulator terminates once the trace and pipeline drain."""
    b = TraceBuilder("drain", seed=1)
    b.emit(asm.load(b.pc, dst=2, addr=DATA_BASE))
    b.emit(asm.alu(b.pc, dst=3, srcs=(2,)))
    result = simulate(b.program(), tiny)
    assert result.committed_uops == 2
    assert result.cycles > 0


# ---------------------------------------------------------------------------
# accountants attach where measurement starts
# ---------------------------------------------------------------------------


def _timing_and_stacks(result) -> dict:
    """A result without host time and skip-engine telemetry."""
    payload = result.to_dict()
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    return payload


@pytest.mark.parametrize("specs,attached", [
    ((CollectorSpec(),), MultiStageCollector),
    ((CollectorSpec(), CollectorSpec(topdown=True)), FanoutCollector),
    ((CollectorSpec(accounting=False),), type(None)),
])
def test_accountants_attach_at_the_warmup_boundary(knl, specs, attached):
    """Warmup cycles are never measured, so no accountant observes them:
    single, fused and accounting-off runs all attach at the boundary."""
    trace = make_trace("exchange2", 2_000, 1)
    sim = CoreSimulator(trace, knl, warmup_instructions=600,
                        collectors=specs)
    assert sim.collector is None
    assert sim.collectors == [None] * len(specs)
    while not sim._warmed:
        assert sim.collector is None
        sim.step_cycle()
    assert type(sim.collector) is attached
    assert [c is None for c in sim.collectors] == [
        not s.accounting for s in specs
    ]


def test_every_socket_core_attaches_at_the_boundary(knl):
    traces = [make_trace("exchange2", 1_000, seed) for seed in (1, 2)]
    multi = MulticoreSimulator(traces, knl, warmup_instructions=300)
    assert all(core.collector is None for core in multi.cores)
    result = multi.run()
    assert all(core.collector is not None for core in multi.cores)
    assert all(r.report is not None for r in result.per_core)


@pytest.mark.parametrize("workload", ["exchange2", "gemm-train-1760-knl"])
def test_warmup_longer_than_the_trace_accounts_the_whole_run(knl, workload):
    """A warmup the trace never completes keeps the accountants attached
    from the first cycle: the run measures everything, exactly like a run
    without warmup."""
    trace = make_trace(workload, 2_000, 1)
    sim = CoreSimulator(trace, knl, warmup_instructions=len(trace) + 1)
    assert type(sim.collector) is MultiStageCollector
    endless = sim.run()
    assert not sim._warmed
    whole = simulate(trace, knl)
    assert _timing_and_stacks(endless) == _timing_and_stacks(whole)
