"""Quiescent-cycle fast-forward: engagement and unit behaviour.

The engine's contract is that skipping provably-stalled cycles changes
*nothing* observable: every ``SimResult`` field (cycles, stacks, cache
stats, top-down report) must be bit-for-bit identical to the per-cycle
reference (``reference=True``), in every wrong-path mode, with and
without warmup.  The production-vs-reference matrix in
``test_differential.py`` enforces that and checks that the engine
engages in every cell; the tests here pin down the best case, the
per-accountant ``observe_repeat`` equivalence (including the
width-normalizer carry drain and the active-observation fallback) and
the ``next_event`` queries the window bound is built from.
"""

from __future__ import annotations

import math

import pytest

from repro.config.presets import broadwell
from repro.core.commit import CommitAccountant
from repro.core.components import Component
from repro.core.dispatch import DispatchAccountant
from repro.core.flops import FlopsAccountant
from repro.core.issue import IssueAccountant
from repro.core.multistage import CollectorSpec, MultiStageCollector
from repro.core.observation import CycleObservation
from repro.core.topdown import TopDownAccountant
from repro.core.wrongpath import WrongPathMode
from repro.isa import decoder as asm
from repro.pipeline.core import CoreSimulator
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_trace

N = 2_000


def test_memory_bound_trace_skips_most_cycles():
    sim = CoreSimulator(make_trace("chase", N, 1), broadwell())
    result = sim.run()
    # The DRAM-latency pointer chase is the engine's best case: the
    # overwhelming majority of cycles sit inside quiescent windows.
    assert sim.ff_cycles_skipped > 0.9 * result.cycles


def test_windows_keep_the_producer_top_down_reads_under_a_structural_stall():
    """A load parked behind a store that waits on a missing load makes
    every cycle of the miss a structural stall with a non-ready micro-op
    in the RS.  Top-down blames that micro-op's producer (Memory Bound)
    in each of those cycles, skipped or stepped."""
    b = TraceBuilder("parked", seed=1)
    base = b.pc
    for i in range(300):
        b.at(base + (i % 4) * 16)
        b.emit(asm.load(b.pc, dst=2, addr=DATA_BASE + (64 + i) * 4096))
        b.emit(asm.store(b.pc, src=2, addr=DATA_BASE + 64 * (i % 8)))
        b.emit(asm.load(b.pc, dst=3, addr=DATA_BASE + 64 * (i % 8)))
        b.emit(asm.alu(b.pc, dst=4, srcs=(2,)))
    trace = b.program()
    spec = CollectorSpec(topdown=True)
    sim = CoreSimulator(trace, broadwell(), collector=spec)
    result = sim.run()
    expected = CoreSimulator(
        trace, broadwell(), collector=spec, reference=True
    ).run()
    assert sim.ff_cycles_skipped > 0.5 * result.cycles
    assert result.report.topdown.to_dict() == (
        expected.report.topdown.to_dict()
    )


# ---------------------------------------------------------------------------
# observe_repeat(obs, k) == k x observe(obs), per accountant
# ---------------------------------------------------------------------------


class _FakeUop:
    """Minimal BlamableUop for stall observations."""

    def __init__(self, *, is_load=False, dcache_miss=False, issued=False,
                 done=False, multi_cycle=False, block_id=0):
        self.is_load = is_load
        self.dcache_miss = dcache_miss
        self.issued = issued
        self.done = done
        self.multi_cycle = multi_cycle
        self.block_id = block_id
        self.producers: list = []


def _dcache_stall_obs() -> CycleObservation:
    """A pure stall cycle blocked on a missing load at the ROB head."""
    obs = CycleObservation()
    obs.window_full = True
    obs.rob_head = _FakeUop(is_load=True, dcache_miss=True, issued=True)
    miss = _FakeUop(is_load=True, dcache_miss=True, issued=True)
    waiter = _FakeUop()
    waiter.producers = [miss]
    obs.first_nonready_producer = miss
    obs.vfp_in_rs = True
    obs.oldest_vfp_producer = miss
    return obs


def _frontend_stall_obs() -> CycleObservation:
    obs = CycleObservation()
    obs.uop_queue_empty = True
    obs.rs_empty = True
    obs.rob_empty = True
    obs.fe_reason = Component.ICACHE
    return obs


def _active_obs() -> CycleObservation:
    obs = CycleObservation()
    obs.n_dispatch = 3
    obs.n_issue = 2
    obs.n_commit = 1
    obs.flops_issued = 4.0
    obs.n_vfp_issued = 1
    return obs


def _accountants():
    return [
        ("dispatch", lambda: DispatchAccountant(4)),
        ("dispatch-spec",
         lambda: DispatchAccountant(4, WrongPathMode.SPECULATIVE)),
        ("issue", lambda: IssueAccountant(4)),
        ("commit", lambda: CommitAccountant(4)),
        ("flops", lambda: FlopsAccountant(2, 8)),
        ("topdown", lambda: TopDownAccountant(4)),
    ]


def _state(accountant):
    """Comparable accounting state, whatever the accountant type."""
    if isinstance(accountant, TopDownAccountant):
        return (
            accountant._cycles,
            dict(accountant.report.level1),
            dict(accountant.report.frontend_detail),
            dict(accountant.report.backend_detail),
        )
    state = [dict(accountant.stack.counters)]
    norm = getattr(accountant, "norm", None)
    if norm is not None:
        state.append(norm.carry)
    spec = getattr(accountant, "spec", None)
    if spec is not None:
        state.append({
            block: dict(counters)
            for block, counters in spec.pending.items()
        })
    return state


@pytest.mark.parametrize("make_obs", [_dcache_stall_obs, _frontend_stall_obs,
                                      _active_obs])
@pytest.mark.parametrize("name,factory", _accountants())
def test_observe_repeat_equals_k_observes(name, factory, make_obs):
    k = 7
    bulk, loop = factory(), factory()
    obs = make_obs()
    bulk.observe_repeat(obs, k)
    for _ in range(k):
        loop.observe(obs)
    assert _state(bulk) == _state(loop), name


@pytest.mark.parametrize("name,factory", _accountants())
def test_observe_repeat_drains_width_carry(name, factory):
    """A preceding over-wide cycle leaves normalizer carry; the repeat
    path must account the drain cycles one by one before bulk-adding."""
    k = 5
    bulk, loop = factory(), factory()
    wide = _active_obs()
    wide.n_dispatch = wide.n_issue = wide.n_commit = 9  # > width: carry
    stall = _dcache_stall_obs()
    bulk.observe(wide)
    bulk.observe_repeat(stall, k)
    loop.observe(wide)
    for _ in range(k):
        loop.observe(stall)
    assert _state(bulk) == _state(loop), name


def test_collector_observe_repeat_fans_out():
    k = 11
    bulk = MultiStageCollector(4, vector_units=2, vector_lanes=8,
                               topdown=True)
    loop = MultiStageCollector(4, vector_units=2, vector_lanes=8,
                               topdown=True)
    obs = _frontend_stall_obs()
    bulk.observe_repeat(obs, k)
    for _ in range(k):
        loop.observe(obs)
    for attr in ("dispatch", "issue", "commit", "flops", "topdown"):
        assert _state(getattr(bulk, attr)) == _state(getattr(loop, attr)), attr


# ---------------------------------------------------------------------------
# next_event queries
# ---------------------------------------------------------------------------


def test_frontend_next_event_states():
    sim = CoreSimulator(make_trace("mcf", 200, 1), broadwell())
    fe = sim.frontend
    # Actively delivering: no skipping allowed.
    assert fe.next_event(0) == 0.0
    # Stalled: the stall expiry is the next event.
    fe._stall(25, Component.ICACHE)
    assert fe.next_event(10) == 25.0
    assert fe.next_event(30) == 30.0  # stall expired: active again
    # Waiting on a sync release: only the core can wake it.
    fe.waiting_sync = object()
    assert fe.next_event(10) == math.inf
    fe.waiting_sync = None
    # Idle (trace exhausted): never delivers again.
    fe._idx = fe._count
    fe._decoded_idx = fe._decoded_len
    assert fe.next_event(100) == math.inf

