"""Event-driven issue scheduler: unit contracts.

The scheduler rewrite (writeback wakeups feeding a seq-ordered ready
structure, pooled ``InflightUop`` records, per-class delivery rows,
signature-batched accounting) must be observationally invisible: the
production-vs-reference matrix in ``test_differential.py`` compares it
bit for bit against the ``reference=True`` full-RS scan.  This file pins
down the pieces: free-list pooling, the per-class delivery rows, the
switches that select the scheduler and batching, and batched accounting.
"""

from __future__ import annotations

import pytest

from repro.config.presets import PRESETS, broadwell
from repro.core.commit import CommitAccountant
from repro.core.components import Component
from repro.core.multistage import CollectorSpec
from repro.core.observation import CycleObservation
from repro.core.wrongpath import WrongPathMode
from repro.isa import decoder as asm
from repro.isa.uops import MicroOp, UopClass
from repro.memory.cache import Cache
from repro.memory.legacy import LegacyCache, LegacyTlb
from repro.memory.tlb import Tlb
from repro.pipeline import core as core_module
from repro.pipeline.core import CoreSimulator
from repro.pipeline.inflight import (
    _IS_VU_NONVFP,
    _OPS_OF,
    _POOL_OF,
    POOL_ALU,
    POOL_LOAD,
    InflightUop,
)
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_trace

#: Cached traces: several tests share one.
_TRACES: dict[str, object] = {}


def _trace(workload: str):
    if workload not in _TRACES:
        _TRACES[workload] = make_trace(workload, 2500, 1)
    return _TRACES[workload]


# ---------------------------------------------------------------------------
# Free-list pooling contracts
# ---------------------------------------------------------------------------

def _minting_frontend(*instrs):
    """A core's frontend over ``instrs`` and a ``mint(n)`` that delivers
    the next ``n`` micro-op records through :meth:`Frontend.deliver`, the
    path that mints every record of a run."""
    b = TraceBuilder("pool", seed=1)
    for make in instrs:
        b.emit(make(b.pc))
    sim = CoreSimulator(b.program(), broadwell())
    frontend = sim.frontend

    def mint(n):
        out = []
        for cycle in range(1000):
            frontend.deliver(cycle, n - len(out), out)
            if len(out) == n:
                return out
        raise AssertionError("the frontend never delivered")

    return sim._pool, mint


def _load(pc):
    return asm.load(pc, dst=2, addr=DATA_BASE, addr_srcs=(1,))


def _alu(pc):
    return asm.alu(pc, dst=3)


def test_release_clears_edges_then_deliver_resets_classification():
    pool, mint = _minting_frontend(_load, _load, _alu)
    rec, peer = mint(2)
    assert rec.is_load and rec.seq == 0 and peer.seq == 1
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

    (rec2,) = mint(1)
    assert rec2 is rec  # recycled, not freshly built
    assert rec2.uop.uclass is UopClass.ALU and rec2.seq == 2
    assert rec2.wrong_path is False and rec2.last_of_instr is True
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


def test_deliver_classifies_load_from_recycled_alu():
    pool, mint = _minting_frontend(_alu, _load)
    (rec,) = mint(1)
    pool.release(rec)
    (rec2,) = mint(1)
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

def test_reference_selects_the_scan_scheduler_and_dict_memory(monkeypatch):
    """``reference=True`` steps the staged scan (``_step``) over the
    dict-backed memory, never the fused event step, and arms neither
    skip engine; the default is the event step over flat arrays."""
    trace = _trace("exchange2")
    fast = CoreSimulator(trace, broadwell())
    assert fast.hierarchy.fast_path and fast._replay is not None
    assert type(fast.hierarchy.l1d) is Cache
    assert type(fast.hierarchy.dtlb) is Tlb
    scan = CoreSimulator(trace, broadwell(), reference=True)
    h = scan.hierarchy
    assert not h.fast_path
    assert type(h.l1d) is LegacyCache and type(h.dtlb) is LegacyTlb
    assert scan._replay is None and scan._batch is False

    def no_event_step(self):
        raise AssertionError("the reference took the event step")

    monkeypatch.setattr(CoreSimulator, "_step_event", no_event_step)
    for _ in range(100):  # the external-stepping hook, then run()
        scan.step_cycle()
    assert scan.cycle == 100
    result = scan.run()
    assert result.ff_windows == result.replay_windows == 0


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
        trace, broadwell(), reference=True
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), collector=CollectorSpec(accounting=False)
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


# ---------------------------------------------------------------------------
# Write-once retained observations
# ---------------------------------------------------------------------------

#: Host-side telemetry: the skip-engine counters legitimately differ.
_TELEMETRY = ("wall_seconds", "ff_windows", "ff_cycles_skipped",
              "replay_windows", "replay_cycles_skipped")


def _comparable(result) -> dict:
    payload = result.to_dict()
    for key in _TELEMETRY:
        payload.pop(key)
    return payload


def _spy_retains(monkeypatch) -> list[tuple[int, int]]:
    """Record ``(len(sig), len(cache) after)`` for every ``_retain``."""
    seen: list[tuple[int, int]] = []
    retain = CoreSimulator._retain

    def spy(self, sig, *args):
        retain(self, sig, *args)
        seen.append((len(sig), len(self._sig_cache)))

    monkeypatch.setattr(CoreSimulator, "_retain", spy)
    return seen


def _clears(seen: list[tuple[int, int]]) -> int:
    """How often the signature cache shrank, i.e. was cleared."""
    return sum(b[1] < a[1] for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("workload,preset,kwargs", [
    pytest.param("spin", "knl", {}, id="spin-knl-replay"),
    pytest.param("mcf", "bdw", {}, id="mcf-bdw-fast-forward"),
    pytest.param("leela", "tiny", {"collector": CollectorSpec(topdown=True)},
                 id="leela-tiny-topdown"),
])
def test_small_signature_cache_equals_reference(workload, preset, kwargs,
                                                monkeypatch):
    """A full signature cache is cleared and refills: with room for four
    signatures the production run clears it, and its buffers
    (still held by the pending batch and the replay engine's recorded
    runs) stay valid, so it matches the per-cycle reference bit for bit."""
    monkeypatch.setattr(core_module, "_SIG_CACHE_CAP", 4)
    seen = _spy_retains(monkeypatch)
    trace = _trace(workload)
    config = PRESETS[preset]
    fast = CoreSimulator(trace, config(), **kwargs)
    result = fast.run()
    expected = CoreSimulator(trace, config(), reference=True, **kwargs).run()
    assert _comparable(result) == _comparable(expected)
    assert _clears(seen) > 0
    assert result.ff_cycles_skipped > 0
    if workload == "spin":
        assert result.replay_windows > 0


def test_small_signature_cache_resume_equals_reference(monkeypatch):
    """A checkpoint drops the signature cache; a run resumed from one,
    with clears of the small cache on both sides of the snapshot, still
    matches the reference."""
    monkeypatch.setattr(core_module, "_SIG_CACHE_CAP", 4)
    seen = _spy_retains(monkeypatch)
    trace = _trace("mcf")
    expected = CoreSimulator(trace, broadwell(), reference=True).run()
    sim = CoreSimulator(trace, broadwell())
    while sim.committed_instrs < len(trace) // 2:
        sim._step_event()
    before = _clears(seen)
    assert before > 0
    resumed = CoreSimulator.from_snapshot(sim.snapshot(), trace)
    assert resumed._sig_cache == {}
    assert _comparable(resumed.run()) == _comparable(expected)
    assert _clears(seen) > before


def test_every_retained_signature_has_one_shape(monkeypatch):
    """Fast-forwarded and stepped cycles build signatures of one length,
    so an equal window of either kind merges into the same batch."""
    seen = _spy_retains(monkeypatch)
    result = CoreSimulator(_trace("mcf"), broadwell()).run()
    assert result.ff_windows > 0
    assert {length for length, _ in seen} == {20}


def test_negative_warmup_is_rejected():
    """The collector is built once, where measurement starts; a negative
    warmup would start it twice."""
    with pytest.raises(ValueError, match="warmup_instructions"):
        CoreSimulator(_trace("mcf"), broadwell(), warmup_instructions=-1)
