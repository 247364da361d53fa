"""Event-driven issue scheduler: differential identity and unit contracts.

The scheduler rewrite (writeback wakeups feeding a seq-ordered ready
structure, pooled ``InflightUop`` records, per-class delivery rows,
signature-batched accounting) must be observationally invisible: every
cell of the workloads x configs x wrong-path-modes x warmup matrix must
produce a ``SimResult`` bit-for-bit identical to the legacy full-RS-scan
scheduler (``legacy_issue_scan=True``, which never fast-forwards or
replays).  The matrix runs once on the production path and once under
``reference=True``, where both schedulers walk the dict-backed memory
and the event scheduler simulates every cycle, so the comparison
isolates the issue phase.
"""

from __future__ import annotations

import pytest

from repro.config.presets import PRESETS, broadwell, knights_landing
from repro.core.commit import CommitAccountant
from repro.core.components import Component
from repro.core.observation import CycleObservation
from repro.core.wrongpath import WrongPathMode
from repro.isa import decoder as asm
from repro.isa.uops import MicroOp, UopClass
from repro.pipeline.core import CoreSimulator
from repro.pipeline.inflight import (
    _IS_VU_NONVFP,
    _OPS_OF,
    _POOL_OF,
    POOL_ALU,
    POOL_LOAD,
    InflightUop,
    UopPool,
)
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_trace

CONFIGS = {"bdw": broadwell, "knl": knights_landing}

#: Cached traces: building one per matrix cell would dominate runtime.
_TRACES: dict[str, object] = {}


def _trace(workload: str, instructions: int = 2500):
    key = f"{workload}:{instructions}"
    if key not in _TRACES:
        _TRACES[key] = make_trace(workload, instructions, 1)
    return _TRACES[key]


def _result_dict(trace, cfg_fn, *, mode, warmup, legacy, reference=False):
    sim = CoreSimulator(
        trace,
        cfg_fn(),
        mode=mode,
        warmup_instructions=warmup,
        legacy_issue_scan=legacy,
        reference=reference,
    )
    data = sim.run().to_dict()
    # Host-side telemetry: the skip engines only arm on the event path,
    # so their counters legitimately differ from legacy runs.
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        data.pop(key, None)
    return data


# ---------------------------------------------------------------------------
# Differential matrix: event scheduler vs legacy full-RS scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["mcf", "exchange2"])
@pytest.mark.parametrize("cfg", ["bdw", "knl"])
@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 600])
@pytest.mark.parametrize("reference", [False, True])
def test_bitwise_identical_to_legacy_scan(workload, cfg, mode, warmup,
                                          reference):
    trace = _trace(workload)
    kwargs = dict(mode=mode, warmup=warmup, reference=reference)
    event = _result_dict(trace, CONFIGS[cfg], legacy=False, **kwargs)
    legacy = _result_dict(trace, CONFIGS[cfg], legacy=True, **kwargs)
    assert event == legacy


@pytest.mark.parametrize("workload", ["bwaves", "povray", "chase"])
@pytest.mark.parametrize("reference", [False, True])
def test_bitwise_identical_additional_workloads(workload, reference):
    """Spot checks widening workload coverage (vector FP, microcode,
    DRAM-latency pointer chase) on the default cell."""
    trace = _trace(workload)
    kwargs = dict(mode=WrongPathMode.EXACT, warmup=0, reference=reference)
    event = _result_dict(trace, broadwell, legacy=False, **kwargs)
    legacy = _result_dict(trace, broadwell, legacy=True, **kwargs)
    assert event == legacy


# ---------------------------------------------------------------------------
# Free-list pooling contracts
# ---------------------------------------------------------------------------

def test_release_clears_edges_then_acquire_resets_classification():
    pool = UopPool()
    load = MicroOp(UopClass.LOAD, srcs=(1,), dst=2, addr=64, size=8)
    rec = pool.acquire(load, None, 0, 0, False, True, False)
    peer = pool.acquire(load, None, 1, 0, False, True, False)
    # Dirty every mutable field a pipeline pass can touch.
    rec.producers.append(peer)
    peer.consumers.append(rec)
    rec.consumers.append(peer)
    rec.waiters = [(1, peer)]
    rec.issued = rec.done = True
    rec.dcache_miss = True
    rec.mispredicted = True
    rec.parked = True

    pool.release(rec)
    assert rec.producers == [] and rec.consumers == []
    assert rec.waiters is None
    assert len(pool) == 1

    alu = MicroOp(UopClass.ALU, srcs=(), dst=3, addr=-1, size=8)
    rec2 = pool.acquire(alu, None, 2, 1, False, False, False)
    assert rec2 is rec  # recycled, not freshly built
    assert rec2.uop is alu and rec2.seq == 2 and rec2.block_id == 1
    # Classification fields all follow the new micro-op's class.
    assert rec2.is_load is False
    assert rec2.is_store is False
    assert rec2.is_branch is False
    assert rec2.multi_cycle is False
    assert rec2.pool == POOL_ALU
    assert rec2.ops == 0
    assert rec2.is_vu_nonvfp is False
    # Execution state is reset; rename assigns deps_left afresh.
    assert rec2.issued is False and rec2.done is False
    assert rec2.squashed is False
    assert rec2.dcache_miss is False
    assert rec2.mispredicted is False
    assert rec2.parked is False
    assert rec2.producers == [] and rec2.consumers == []
    assert rec2.waiters is None


def test_acquire_classifies_load_from_recycled_alu():
    pool = UopPool()
    alu = MicroOp(UopClass.ALU, srcs=(), dst=3, addr=-1, size=8)
    rec = pool.acquire(alu, None, 0, 0, False, True, False)
    pool.release(rec)
    load = MicroOp(UopClass.LOAD, srcs=(1,), dst=2, addr=64, size=8)
    rec2 = pool.acquire(load, None, 1, 0, False, True, False)
    assert rec2 is rec
    assert rec2.is_load is True
    assert rec2.pool == POOL_LOAD
    assert rec2.multi_cycle is True  # loads are always multi-cycle


def test_pool_records_enter_free_list_clean_after_full_run():
    """End-to-end invariant: every record parked in the free list after a
    mispredict-heavy run has severed edges and cleared scheduler state."""
    sim = CoreSimulator(_trace("mcf"), broadwell())
    sim.run()
    free = sim._pool._free
    assert free  # pooling actually engaged
    for rec in free:
        assert rec.producers == []
        assert rec.consumers == []
        assert rec.waiters is None
        assert rec.parked is False


# ---------------------------------------------------------------------------
# Per-class delivery rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_class_rows_match_per_uop_classification(preset):
    """The frontend's per-class rows hold exactly the classification a
    per-instruction decode computed for each micro-op: (is_load,
    is_store, is_branch, multi_cycle, pool, ops, is_vu_nonvfp)."""
    config = PRESETS[preset]()
    b = TraceBuilder("rows", seed=1)
    b.emit(asm.alu(b.pc, dst=2, srcs=(2,)))
    program = b.program()
    rows = CoreSimulator(program, config).frontend._class_rows
    assert len(rows) == len(UopClass)
    for uclass in UopClass:
        is_load = uclass is UopClass.LOAD
        expected = (
            is_load,
            uclass is UopClass.STORE,
            uclass is UopClass.BRANCH,
            (config.latency_of(uclass) > 1) or is_load,
            _POOL_OF[uclass],
            _OPS_OF[uclass],
            _IS_VU_NONVFP[uclass],
        )
        assert rows[uclass] == expected, uclass.name


def test_reused_pc_delivers_the_new_instructions_uops():
    """A different Instruction object at a reused pc delivers its own
    micro-ops: nothing decoded for the first occupant of the pc may
    leak into the second."""
    b = TraceBuilder("pc-reuse", seed=1)
    pc0 = b.pc
    first = asm.alu(pc0, dst=2, srcs=(2,))
    b.at(pc0)
    b.emit(first)
    for _ in range(4):
        b.emit(asm.alu(b.pc, dst=3, srcs=(3,)))
    second = asm.load(pc0, dst=4, addr=DATA_BASE)
    assert second is not first
    b.at(pc0)
    b.emit(second)
    program = b.program()

    fe = CoreSimulator(program, broadwell()).frontend
    # Pre-fill the free list so every record goes through the pooled mint.
    for _ in range(program.uop_count):
        fe._pool.release(
            InflightUop(MicroOp(UopClass.NOP), None, 0, 0)
        )
    delivered = []
    cycle = 0
    while not fe.trace_exhausted:
        fe.deliver(cycle, 64, delivered)
        cycle += 1
    by_instr = {}
    for rec in delivered:
        by_instr.setdefault(id(rec.instr), []).append(rec)
    (old,) = by_instr[id(first)]
    (new,) = by_instr[id(second)]
    assert old.uop is first.uops[0] and not old.is_load
    assert old.pool == POOL_ALU
    assert new.uop is second.uops[0]
    assert new.is_load and new.multi_cycle and new.pool == POOL_LOAD
    assert fe._wp_data_addr == DATA_BASE  # the load published its address

    result = CoreSimulator(program, broadwell()).run()
    assert result.committed_uops == program.uop_count


# ---------------------------------------------------------------------------
# Batched accounting units
# ---------------------------------------------------------------------------

def test_legacy_issue_scan_selects_the_scan_scheduler():
    trace = _trace("exchange2")
    assert CoreSimulator(trace, broadwell())._event is True
    scan = CoreSimulator(trace, broadwell(), legacy_issue_scan=True)
    assert scan._event is False
    # The scan path never fast-forwards or replays.
    assert not scan._fast_forward and scan._replay is None


def test_signature_batching_gated_to_exact_event_mode():
    trace = _trace("exchange2")
    assert CoreSimulator(trace, broadwell())._batch is True
    assert CoreSimulator(
        trace, broadwell(), mode=WrongPathMode.SIMPLE
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), mode=WrongPathMode.SPECULATIVE
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), legacy_issue_scan=True
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), accounting=False
    )._batch is False


def test_commit_observe_repeat_full_width_matches_loop():
    """n == W cycles batch as whole BASE increments (the bulk path the
    signature batcher leans on)."""
    width = 4
    obs = CycleObservation()
    obs.n_commit = width
    bulk, loop = CommitAccountant(width), CommitAccountant(width)
    bulk.observe_repeat(obs, 7)
    for _ in range(7):
        loop.observe(obs)
    assert bulk.stack.to_dict() == loop.stack.to_dict()
    assert bulk.stack.get(Component.BASE) == 7.0


def test_commit_observe_repeat_stall_matches_loop():
    width = 4
    obs = CycleObservation()
    obs.n_commit = 1  # partial commit: falls back to the per-cycle loop
    obs.rob_empty = False
    bulk, loop = CommitAccountant(width), CommitAccountant(width)
    bulk.observe_repeat(obs, 9)
    for _ in range(9):
        loop.observe(obs)
    assert bulk.stack.to_dict() == loop.stack.to_dict()
