"""Periodic steady-state replay: bitwise equivalence and unit behaviour.

The replay engine's contract mirrors the quiescent-cycle fast-forward
engine's: skipping whole loop iterations changes *nothing* observable.
Every ``SimResult`` field (cycles, stacks, cache stats, predictor stats)
must be bit-for-bit identical to the per-cycle reference
(``reference=True``), in every wrong-path mode, with and without warmup.
The differential matrix here enforces that; the unit tests pin down the trace period analysis and the
state fingerprints the fixed-point check is built from — each
``fingerprint()`` must change whenever the underlying behavioural state
changes, or the engine could jump from a state it never actually
recorded.
"""

from __future__ import annotations

import pytest

from repro.branch.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
)
from repro.config.presets import broadwell, knights_landing
from repro.core.wrongpath import WrongPathMode
from repro.isa.instructions import Program
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.mshr import MshrFile
from repro.memory.prefetcher import StreamPrefetcher
from repro.memory.tlb import Tlb
from repro.pipeline.core import CoreSimulator, simulate
from repro.pipeline.replay import ReplayEngine, find_period
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.result import SimResult
from repro.workloads.registry import make_trace

N = 2_000


def _comparable(result) -> dict:
    """Everything that must be identical (host-side telemetry excluded)."""
    payload = result.to_dict()
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    return payload


def _run_pair(workload, config, *, mode=WrongPathMode.EXACT, warmup=0, n=N):
    """One production run and one ``reference=True`` run, same kwargs."""
    trace = make_trace(workload, n, 1)
    on = CoreSimulator(trace, config, mode=mode,
                       warmup_instructions=warmup)
    off = CoreSimulator(trace, config, mode=mode,
                        warmup_instructions=warmup, reference=True)
    return on, on.run(), off, off.run()


# ---------------------------------------------------------------------------
# differential matrix: production == per-cycle reference, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["exchange2", "spin", "mcf", "bwaves"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 200])
def test_replay_bitwise_identical(workload, preset, mode, warmup):
    on, res_on, off, res_off = _run_pair(
        workload, preset(), mode=mode, warmup=warmup
    )
    assert _comparable(res_on) == _comparable(res_off)
    assert off.replay_windows == 0 and off.replay_cycles_skipped == 0


@pytest.mark.parametrize("workload", ["exchange2", "spin"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
def test_replay_engages_on_periodic_traces(workload, preset):
    """The two designated loop traces must actually take the macro jump
    (EXACT mode; other modes legitimately disengage the engine)."""
    on, res_on, _, _ = _run_pair(workload, preset(), n=4_000)
    assert on.replay_windows > 0, "replay never engaged"
    assert on.replay_cycles_skipped > 0
    assert res_on.replay_windows == on.replay_windows
    assert res_on.replay_cycles_skipped == on.replay_cycles_skipped


def test_replay_identical_with_warmup_boundary_inside_loop():
    """Warmup that ends mid-loop must not perturb the recorded window."""
    for warmup in (50, 96, 150):
        _, res_on, _, res_off = _run_pair(
            "exchange2", broadwell(), warmup=warmup, n=4_000
        )
        assert _comparable(res_on) == _comparable(res_off)


def test_replay_composes_with_fast_forward():
    """Both engines on together must still be bitwise identical."""
    trace = make_trace("spin", 4_000, 1)
    both = simulate(trace, broadwell())
    neither = simulate(trace, broadwell(), reference=True)
    assert both.ff_windows > 0 and both.replay_windows > 0
    assert _comparable(both) == _comparable(neither)


# ---------------------------------------------------------------------------
# folded feed: one flush per recorded buffer when reordering is exact
# ---------------------------------------------------------------------------


def _spy_feeds(monkeypatch) -> list[dict]:
    """Record, per jump, the period count, the recorded runs, whether
    the fold ran, and the ``_apply_batch`` calls the feed made."""
    feeds: list[dict] = []
    current: list[dict] = []
    real_feed = ReplayEngine._feed
    real_fold = ReplayEngine._fold
    real_apply = CoreSimulator._apply_batch

    def feed(self, k):
        rec = {
            "k": k,
            "runs": len(self._runs),
            "buffers": len({id(run[2]) for run in self._runs}),
            "folded": None,
            "calls": 0,
        }
        current.append(rec)
        try:
            real_feed(self, k)
        finally:
            current.pop()
        feeds.append(rec)

    def fold(self, k):
        out = real_fold(self, k)
        current[-1]["folded"] = out is not None
        return out

    def apply_batch(self, buf, k):
        if current:
            current[-1]["calls"] += 1
        real_apply(self, buf, k)

    monkeypatch.setattr(ReplayEngine, "_feed", feed)
    monkeypatch.setattr(ReplayEngine, "_fold", fold)
    monkeypatch.setattr(CoreSimulator, "_apply_batch", apply_batch)
    return feeds


@pytest.mark.parametrize("workload", ["exchange2", "spin"])
def test_replay_feed_folds_repeated_periods(workload, monkeypatch):
    """On the loop traces every jump flushes each distinct recorded
    buffer at most once, plus the pending batch, instead of once per
    period; the result equals the per-cycle reference."""
    feeds = _spy_feeds(monkeypatch)
    _, res_on, _, res_off = _run_pair(workload, knights_landing(), n=4_000)
    assert _comparable(res_on) == _comparable(res_off)
    fed = [f for f in feeds if f["runs"]]
    assert fed, "replay never fed a recorded window"
    for f in fed:
        assert f["folded"], f
        assert f["calls"] <= f["buffers"] + 1, f
    assert any(f["k"] * f["runs"] > f["buffers"] + 1 for f in fed)


def test_replay_feed_stays_sequential_on_over_width_counts(monkeypatch):
    """gemm@knl's over-width issue counts compile to no repeat program
    and leave normalizer carries, so the fold declines and the
    per-period walk runs; the result is still bitwise identical."""
    feeds = _spy_feeds(monkeypatch)
    _, res_on, _, res_off = _run_pair(
        "gemm-train-1760-knl", knights_landing(), n=8_000
    )
    assert _comparable(res_on) == _comparable(res_off)
    fed = [f for f in feeds if f["runs"]]
    assert fed, "replay never fed a recorded window"
    assert any(f["folded"] is False for f in fed)


# ---------------------------------------------------------------------------
# replay inside warmup
# ---------------------------------------------------------------------------

#: Loop traces long enough for replay to engage on KNL.
_WARMUP_TRACES = {"exchange2": 4_000, "spin": 4_000,
                  "gemm-train-1760-knl": 8_000}


def _warmup_counts(trace) -> list[int]:
    """Warmup at 10/30/50% of the trace, plus one count that ends in the
    middle of a replay period."""
    n = len(trace)
    start, period = find_period(trace)
    mid_period = start + (n // 2 // period) * period + period // 2
    assert (mid_period - start) % period
    return [n // 10, 3 * n // 10, n // 2, mid_period]


def _spy_jumps(monkeypatch) -> list[tuple[bool, int, int]]:
    """Record ``(warmed before, committed_instrs after, warmup)`` per jump."""
    jumps = []
    jump = ReplayEngine._jump

    def spy(self, cycle, k, d_cycles, d_idx):
        sim = self._sim
        warmed = sim._warmed
        skipped = jump(self, cycle, k, d_cycles, d_idx)
        jumps.append((warmed, sim.committed_instrs, sim.warmup_instructions))
        return skipped

    monkeypatch.setattr(ReplayEngine, "_jump", spy)
    return jumps


@pytest.mark.parametrize("workload", sorted(_WARMUP_TRACES))
def test_replay_through_warmup_is_bitwise_identical(workload, monkeypatch):
    """Replay may jump during warmup but must never jump across the
    boundary; the result equals the cycle-by-cycle reference (no replay,
    no fast-forward, dict-backed memory walk) at every warmup count."""
    trace = make_trace(workload, _WARMUP_TRACES[workload], 1)
    config = knights_landing()
    jumps = _spy_jumps(monkeypatch)
    early = 0
    for warmup in _warmup_counts(trace):
        jumps.clear()
        replayed = CoreSimulator(
            trace, config, warmup_instructions=warmup
        ).run()
        reference = CoreSimulator(
            trace, config, warmup_instructions=warmup, reference=True,
        ).run()
        assert _comparable(replayed) == _comparable(reference), warmup
        assert jumps, "replay never engaged"
        for warmed, committed, limit in jumps:
            if not warmed:
                assert committed < limit, "a warmup jump crossed the boundary"
                early += 1
    if workload != "gemm-train-1760-knl":
        assert early, "replay never jumped before the warmup boundary"


# ---------------------------------------------------------------------------
# trace period analysis
# ---------------------------------------------------------------------------


def test_find_period_on_static_loop():
    trace = make_trace("spin", 2_000, 1)
    found = find_period(trace)
    assert found is not None
    start, period = found
    assert period == 11  # 8 FMAs + load + alu + branch
    assert start == 0  # static body: periodic from the first instruction
    instrs = trace.instructions
    for i in range(start, len(instrs) - period):
        assert instrs[i] == instrs[i + period]


def test_find_period_on_rotating_loop():
    """exchange2's load rotates through 8 slots: the instruction-level
    period is the 8-iteration super-period, not the loop body length."""
    trace = make_trace("exchange2", 2_000, 1)
    found = find_period(trace)
    assert found is not None
    start, period = found
    instrs = trace.instructions
    for i in range(start, len(instrs) - period):
        assert instrs[i] == instrs[i + period]


def test_find_period_rejects_aperiodic_traces():
    assert find_period(make_trace("chase", 2_000, 1)) is None
    assert find_period(make_trace("mcf", 2_000, 1)) is None


def test_find_period_rejects_short_traces():
    from repro.workloads.micro import spin_like

    assert find_period(spin_like(30)) is None  # < _MIN_TRACE instructions


def test_trace_analyses_run_once_per_program(monkeypatch):
    """The micro-op count and the replay period are memoized on the
    program across simulations, and ``extend()`` drops both memos."""
    from repro.pipeline import replay as replay_mod

    scans = []
    scan = replay_mod._scan_period

    def counting_scan(instrs):
        scans.append(len(instrs))
        return scan(instrs)

    monkeypatch.setattr(replay_mod, "_scan_period", counting_scan)
    base = make_trace("spin", 2_000, 1)
    trace = Program(base.name, list(base.instructions))
    n = len(trace)
    first = simulate(trace, broadwell())
    assert scans == [n]
    assert trace._uop_count == base.uop_count
    # Poison the memo: a recount would overwrite it.
    trace._uop_count = poisoned = base.uop_count + 1
    second = simulate(trace, broadwell())
    assert scans == [n]
    assert trace._uop_count == poisoned
    assert _comparable(first) == _comparable(second)

    tail = base.instructions[:11]
    trace.extend(tail)
    assert trace.uop_count == base.uop_count + sum(len(i.uops) for i in tail)
    simulate(trace, broadwell())
    assert scans == [n, n + 11]


@pytest.mark.parametrize("mode", [WrongPathMode.SPECULATIVE,
                                  WrongPathMode.SIMPLE])
def test_non_batching_accounting_never_arms_replay(mode):
    """Replay needs signature batching to record accounting; SPECULATIVE
    and SIMPLE observe every cycle, so accounting runs in those modes
    never arm it — even while no accountant is attached yet (warmup)."""
    trace = make_trace("spin", 2_000, 1)
    sim = CoreSimulator(trace, broadwell(), mode=mode,
                        warmup_instructions=500)
    assert sim.collector is None
    assert sim._replay is None
    sim.run()
    assert sim.replay_windows == 0
    blind = CoreSimulator(trace, broadwell(), mode=mode, accounting=False)
    assert blind._replay is not None


# ---------------------------------------------------------------------------
# fingerprint sensitivity: every structure's fingerprint must change
# when its behavioural state changes
# ---------------------------------------------------------------------------


def test_cache_fingerprint_tracks_contents():
    config = broadwell().memory
    cache = Cache(config.l1d, "l1d")
    fp0 = cache.fingerprint()
    cache.insert(0x40)
    fp1 = cache.fingerprint()
    assert fp1 != fp0
    # LRU order is behavioural state: a hit reorders and must show.
    cache.insert(0x80)
    fp2 = cache.fingerprint()
    cache.lookup(0x40)  # move 0x40 back to MRU
    assert cache.fingerprint() != fp2
    # Dirty bits are behavioural state (they decide writebacks).
    cache.mark_dirty(0x40)
    assert cache.fingerprint() != fp2


def test_tlb_fingerprint_tracks_entries():
    tlb = Tlb(broadwell().memory.dtlb)
    fp0 = tlb.fingerprint()
    tlb.access(0x1000_0000)
    fp1 = tlb.fingerprint()
    assert fp1 != fp0
    tlb.access(0x2000_0000)
    assert tlb.fingerprint() != fp1


def test_mshr_fingerprint_is_relative_and_ignores_expired():
    mshr = MshrFile(4)
    assert mshr.fingerprint(100.0) == ()
    release = mshr.acquire(100.0)
    assert release > 100.0 or release == 100.0
    # Occupy a slot explicitly.
    mshr._busy.append(150.0)
    fp = mshr.fingerprint(100.0)
    assert 50.0 in fp
    # Shift-invariance: the same state 1000 cycles later fingerprints
    # identically relative to the later now.
    mshr.shift_time(100.0, 1000.0)
    assert mshr.fingerprint(1100.0) == fp
    # Expired slots are behaviourally free and must not show.
    assert mshr.fingerprint(2000.0) == ()


def test_prefetcher_fingerprint_tracks_training():
    config = broadwell().memory
    pf = StreamPrefetcher(config.prefetcher, 64)
    fp0 = pf.fingerprint()
    pf.on_demand_access(100)
    fp1 = pf.fingerprint()
    assert fp1 != fp0
    pf.on_demand_access(101)  # trains direction/confidence
    assert pf.fingerprint() != fp1
    # Same line again: delta == 0 never trains (exchange2 relies on it).
    fp2 = pf.fingerprint()
    pf.on_demand_access(101)
    assert pf.fingerprint() == fp2


def test_dram_fingerprint_shift_invariance():
    dram = DramModel(broadwell().memory.dram)
    assert dram.fingerprint(0.0) == 0.0
    dram.access(100.0)
    fp = dram.fingerprint(100.0)
    dram.shift_time(100.0, 500.0)
    assert dram.fingerprint(600.0) == fp


@pytest.mark.parametrize("factory", [
    lambda: BimodalPredictor(bits=6),
    lambda: GsharePredictor(bits=6),
    lambda: TournamentPredictor(bits=6),
])
def test_direction_predictor_fingerprint_tracks_updates(factory):
    pred = factory()
    fp0 = pred.fingerprint()
    pred.update(0x400, True, 0x800)
    fp1 = pred.fingerprint()
    assert fp1 != fp0
    pred.update(0x400, False, 0x800)  # direction counter steps back
    assert pred.fingerprint() != fp1


def test_btb_fingerprint_tracks_targets():
    pred = AlwaysTakenPredictor(btb_entries=64)
    fp0 = pred.fingerprint()
    pred.btb.update(0x400, 0x800)
    fp1 = pred.fingerprint()
    assert fp1 != fp0
    pred.btb.update(0x400, 0xC00)  # retarget same entry
    assert pred.fingerprint() != fp1


def test_fu_pool_fingerprint_relative_and_ignores_expired():
    pool = FunctionalUnitPool(broadwell())
    fp0 = pool.fingerprint(100)
    assert fp0 == ()
    if pool._mul_busy_until:
        pool._mul_busy_until[0] = 105.0
        fp1 = pool.fingerprint(100)
        assert fp1 == (5.0,)
        pool.shift_time(100, 1000)
        assert pool.fingerprint(1100) == fp1
        assert pool.fingerprint(2000) == ()


def test_frontend_fingerprint_tracks_stall_and_position():
    sim = CoreSimulator(make_trace("spin", 200, 1), broadwell())
    fe = sim.frontend
    fp0 = fe.fingerprint(0)
    # A stall deadline is state, relative to the query cycle.
    fe._stall_until = 25
    assert fe.fingerprint(0) != fp0
    assert fe.fingerprint(30) == fp0  # expired: behaviourally identical
    fe._stall_until = 0


def test_frontend_shift_moves_position_and_deadline():
    sim = CoreSimulator(make_trace("spin", 200, 1), broadwell())
    fe = sim.frontend
    idx, seq, block = fe._idx, fe.seq, fe.block
    fe._stall_until = 50
    fe.shift(10, 1000, 44, 88, 4)
    assert fe._idx == idx + 44
    assert fe.seq == seq + 88
    assert fe.block == block + 4
    assert fe._stall_until == 1050


# ---------------------------------------------------------------------------
# result round trip
# ---------------------------------------------------------------------------


def test_simresult_roundtrip_keeps_telemetry():
    trace = make_trace("spin", 4_000, 1)
    result = simulate(trace, broadwell())
    assert result.replay_windows > 0
    clone = SimResult.from_dict(result.to_dict())
    assert clone.to_dict() == result.to_dict()
    assert clone.replay_windows == result.replay_windows
    assert clone.replay_cycles_skipped == result.replay_cycles_skipped
    assert clone.ff_windows == result.ff_windows
    assert clone.ff_cycles_skipped == result.ff_cycles_skipped


def test_simresult_roundtrip_defaults_missing_telemetry_to_zero():
    trace = make_trace("spin", 1_000, 1)
    payload = simulate(trace, broadwell()).to_dict()
    for key in ("ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    clone = SimResult.from_dict(payload)
    assert clone.replay_windows == 0
    assert clone.ff_cycles_skipped == 0
