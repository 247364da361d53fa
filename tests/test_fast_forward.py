"""Quiescent-cycle fast-forward: bitwise equivalence and unit behaviour.

The engine's contract is that skipping provably-stalled cycles changes
*nothing* observable: every ``SimResult`` field (cycles, stacks, cache
stats, top-down report) must be bit-for-bit identical to the
per-cycle reference (``reference=True``: no fast-forward, no replay,
dict-backed memory walk), in every wrong-path mode, with and without
warmup.  The differential matrix here enforces that; the unit tests pin
down the
per-accountant ``observe_repeat`` equivalence (including the
width-normalizer carry drain and the active-observation fallback) and
the ``next_event`` queries the window bound is built from.
"""

from __future__ import annotations

import math

import pytest

from repro.config.presets import broadwell, knights_landing
from repro.core.commit import CommitAccountant
from repro.core.components import Component
from repro.core.dispatch import DispatchAccountant
from repro.core.flops import FlopsAccountant
from repro.core.issue import IssueAccountant
from repro.core.multistage import MultiStageCollector
from repro.core.observation import CycleObservation
from repro.core.topdown import TopDownAccountant
from repro.core.wrongpath import WrongPathMode
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

N = 2_000


def _comparable(result) -> dict:
    """Everything that must be identical (host-side telemetry excluded)."""
    payload = result.to_dict()
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    return payload


def _run_pair(workload, config, *, mode=WrongPathMode.EXACT, warmup=0,
              topdown=False, n=N):
    """One production run and one ``reference=True`` run, same kwargs."""
    trace = make_trace(workload, n, 1)
    on = CoreSimulator(trace, config, mode=mode, topdown=topdown,
                       warmup_instructions=warmup)
    off = CoreSimulator(trace, config, mode=mode, topdown=topdown,
                        warmup_instructions=warmup, reference=True)
    return on, on.run(), off, off.run()


# ---------------------------------------------------------------------------
# differential matrix: production == per-cycle reference, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["mcf", "bwaves"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 200])
def test_fast_forward_bitwise_identical(workload, preset, mode, warmup):
    on, res_on, off, res_off = _run_pair(
        workload, preset(), mode=mode, warmup=warmup
    )
    assert _comparable(res_on) == _comparable(res_off)
    assert on.ff_cycles_skipped > 0, "fast-forward never engaged"
    assert off.ff_windows == 0 and off.ff_cycles_skipped == 0


def test_fast_forward_identical_with_topdown():
    _, res_on, _, res_off = _run_pair("mcf", broadwell(), topdown=True)
    assert _comparable(res_on) == _comparable(res_off)
    assert res_on.report is not None and res_on.report.topdown is not None


def test_memory_bound_trace_skips_most_cycles():
    on, res_on, _, res_off = _run_pair("chase", broadwell())
    assert _comparable(res_on) == _comparable(res_off)
    # The DRAM-latency pointer chase is the engine's best case: the
    # overwhelming majority of cycles sit inside quiescent windows.
    assert on.ff_cycles_skipped > 0.9 * res_on.cycles


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


def test_hierarchy_next_event_tracks_fills():
    hierarchy = MemoryHierarchy(broadwell().memory)
    assert hierarchy.next_event(0) == math.inf
    result = hierarchy.dload(0x1000_0000, 0)
    assert not result.l1_hit
    event = hierarchy.next_event(0)
    assert 0 < event <= result.complete
    # Past the last fill, the queue drains back to +inf.
    assert hierarchy.next_event(int(result.complete) + 1_000) == math.inf
