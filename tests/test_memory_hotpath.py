"""Allocation-free memory fast path: differential proof vs the legacy walk.

The memory subsystem's common case (TLB hit + L1 hit, flat array-backed
sets) and the machine-level optimizations of the production path
(fast-forward, replay, squashed-completion pruning, the per-signature
accounting delta cache) must be *bitwise invisible*: every architectural
number in a ``SimResult`` — cycles, CPI/FLOPS stacks, cache/TLB/predictor
stats — must match the per-cycle reference (``reference=True``: the
dict-backed memory walk with no skip engines) exactly.

Four layers of evidence:

1. **End-to-end matrix** — workloads × presets × wrong-path modes ×
   warmup × fusion × seeds × issue scheduler, production vs reference,
   bit for bit.
2. **Mid-run checkpoint/resume** — an interrupted production run resumed
   from disk equals the reference uninterrupted run.
3. **Structure-level differential** — randomized op sequences through
   the flat ``Cache``/``Tlb`` and the dict-backed ``LegacyCache``/
   ``LegacyTlb`` oracles, comparing fingerprints and stats at every step.
4. **Edge cases** for queued-MSHR completion ordering and
   :meth:`MemoryHierarchy.probe_latency`, previously only exercised
   indirectly (empty outstanding maps, L3-less configs).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config.cores import (
    CacheConfig,
    DramConfig,
    MemoryConfig,
    PrefetcherConfig,
    TlbConfig,
)
from repro.config.presets import broadwell, knights_landing
from repro.core.multistage import CollectorSpec
from repro.core.wrongpath import WrongPathMode
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.legacy import LegacyCache, LegacyTlb
from repro.memory.tlb import Tlb
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

N = 2_000

WORKLOADS = ["chase", "mcf", "bwaves", "exchange2", "spin"]


@pytest.fixture(autouse=True)
def _clean_checkpoints():
    ckpt.clear_checkpoints()
    yield
    ckpt.clear_checkpoints()


def _comparable(result) -> dict:
    """Everything that must be identical (host-side telemetry excluded).

    The skip-engine window counters legitimately differ: the production
    path fast-forwards and replays where the reference simulates every
    cycle.  Every architectural field must still match bit for bit.
    """
    payload = result.to_dict()
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    return payload


def _pair(workload, config_fn, *, n=N, **kwargs):
    """One production run and one ``reference=True`` run, same kwargs."""
    trace = make_trace(workload, n, 1)
    fast = CoreSimulator(trace, config_fn(), **kwargs).run()
    legacy = CoreSimulator(
        trace, config_fn(), reference=True, **kwargs
    ).run()
    return fast, legacy


# ---------------------------------------------------------------------------
# 1. end-to-end differential matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
@pytest.mark.parametrize("mode", list(WrongPathMode))
def test_fast_path_bitwise_identical(workload, preset, mode):
    fast, legacy = _pair(workload, preset, mode=mode)
    assert _comparable(fast) == _comparable(legacy)


@pytest.mark.parametrize("workload", ["mcf", "bwaves"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
@pytest.mark.parametrize("warmup", [100, 350])
def test_fast_path_identical_with_warmup(workload, preset, warmup):
    fast, legacy = _pair(workload, preset, warmup_instructions=warmup)
    assert _comparable(fast) == _comparable(legacy)


@pytest.mark.parametrize("workload", ["mcf", "spin", "chase"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
def test_fast_path_identical_on_scan_scheduler(workload, preset):
    """The memory representation alone: the scan scheduler never
    fast-forwards or replays, so flat arrays vs the dict-backed walk is
    the only difference between these two runs."""
    fast, legacy = _pair(workload, preset, legacy_issue_scan=True)
    assert fast.ff_windows == 0 and fast.replay_windows == 0
    assert _comparable(fast) == _comparable(legacy)


def test_fast_path_identical_under_fusion():
    """Every member of a fused multi-collector production run equals its
    unfused single-collector reference twin."""
    trace = make_trace("mcf", N, 1)
    specs = (
        CollectorSpec(),
        CollectorSpec(topdown=True),
        CollectorSpec(accounting_width=2),
    )
    fused = CoreSimulator(trace, broadwell(), collectors=specs)
    fused.run()
    for member, spec in zip(fused.fused_results, specs):
        legacy = CoreSimulator(
            trace, broadwell(), reference=True, collectors=(spec,)
        ).run()
        assert _comparable(member) == _comparable(legacy)


def test_fast_path_identical_across_seeds():
    """Wrong-path synthesis consumes the same RNG stream on both paths."""
    for seed in (1, 99, 424242):
        trace = make_trace("mcf", N, 1)
        fast = CoreSimulator(trace, broadwell(), seed=seed).run()
        legacy = CoreSimulator(
            trace, broadwell(), reference=True, seed=seed
        ).run()
        assert _comparable(fast) == _comparable(legacy)


# ---------------------------------------------------------------------------
# 2. mid-run checkpoint/resume
# ---------------------------------------------------------------------------


class _Interrupted(Exception):
    pass


def _interrupted_resumed(trace, config, *, kills=2, **kwargs):
    """Run to the ``kills``-th checkpoint, die, resume the newest file."""
    sim = CoreSimulator(trace, config, **kwargs)
    seen = 0

    def hook(path, instrs):
        nonlocal seen
        seen += 1
        if seen >= kills:
            raise _Interrupted

    try:
        sim.run(
            checkpoint_interval=300,
            checkpoint_key=f"hotpath-{kwargs.get('reference')}",
            on_checkpoint=hook,
        )
    except _Interrupted:
        pass
    files = ckpt.list_case_checkpoints(
        f"hotpath-{kwargs.get('reference')}"
    )
    assert files, "the interrupted run never wrote a checkpoint"
    return CoreSimulator.resume(files[-1], trace).run()


@pytest.mark.parametrize("workload", ["mcf", "exchange2"])
def test_checkpoint_resume_fast_path_equals_legacy(workload):
    trace = make_trace(workload, N, 1)
    resumed = _interrupted_resumed(trace, broadwell(), reference=False)
    legacy = CoreSimulator(trace, broadwell(), reference=True).run()
    assert _comparable(resumed) == _comparable(legacy)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_reference_selects_legacy_representation():
    sim = CoreSimulator(make_trace("mcf", 200, 1), broadwell(),
                        reference=True)
    h = sim.hierarchy
    assert not h.fast_path
    assert type(h.l1d) is LegacyCache and type(h.dtlb) is LegacyTlb
    assert sim._replay is None and not sim._fast_forward
    h = MemoryHierarchy(broadwell().memory)
    assert h.fast_path
    assert type(h.l1d) is Cache and type(h.dtlb) is Tlb


# ---------------------------------------------------------------------------
# 3. structure-level differential: flat arrays vs the dict oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "size,assoc",
    [(1024, 1), (2048, 2), (4096, 4), (8192, 8)],
)
def test_cache_differential_random_ops(size, assoc):
    """Randomized lookup/insert/fill/mark_dirty/invalidate sequences keep
    the flat cache and the dict oracle in lockstep: same hit/miss
    outcome, same eviction victims, same fingerprint, same stats."""
    cfg = CacheConfig(size, assoc, line_bytes=64, latency=2)
    flat, legacy = Cache(cfg, "T"), LegacyCache(cfg, "T")
    rng = random.Random(1234 + size + assoc)
    lines = range(4 * size // 64)
    for step in range(3_000):
        line = rng.choice(lines)
        op = rng.randrange(6)
        if op <= 1:
            assert flat.lookup(line) == legacy.lookup(line), step
        elif op == 2:
            dirty = rng.random() < 0.3
            ev_f = flat.insert(line, dirty=dirty)
            ev_l = legacy.insert(line, dirty=dirty)
            assert (ev_f is None) == (ev_l is None), step
            if ev_f is not None:
                assert (ev_f.line, ev_f.dirty) == (ev_l.line, ev_l.dirty)
        elif op == 3:
            assert flat.fill(line) == legacy.fill(line), step
        elif op == 4:
            flat.mark_dirty(line)
            legacy.mark_dirty(line)
        else:
            flat.invalidate(line)
            legacy.invalidate(line)
        assert flat.fingerprint() == legacy.fingerprint(), step
    assert flat.occupancy == legacy.occupancy
    assert dataclasses.asdict(flat.stats) == dataclasses.asdict(legacy.stats)


def test_cache_differential_insert_streams():
    """Deterministic conflict-heavy insert/probe stream (every set
    overflows repeatedly) — the LRU orders never diverge."""
    cfg = CacheConfig(1024, 2, line_bytes=64, latency=1)
    flat, legacy = Cache(cfg, "T"), LegacyCache(cfg, "T")
    sets = cfg.num_sets
    for i in range(600):
        line = (i * 7) % (8 * sets)
        ev_f = flat.insert(line, dirty=(i % 3 == 0))
        ev_l = legacy.insert(line, dirty=(i % 3 == 0))
        assert (ev_f is None) == (ev_l is None)
        if ev_f is not None:
            assert (ev_f.line, ev_f.dirty) == (ev_l.line, ev_l.dirty)
        assert flat.fingerprint() == legacy.fingerprint()


@pytest.mark.parametrize("entries", [16, 64])
def test_tlb_differential_random_ops(entries):
    cfg = TlbConfig(entries=entries, miss_penalty=9)
    flat, legacy = Tlb(cfg), LegacyTlb(cfg)
    rng = random.Random(entries)
    for step in range(4_000):
        addr = rng.randrange(0, 1 << 24)
        assert flat.access(addr) == legacy.access(addr), step
        if step % 97 == 0:
            assert flat.fingerprint() == legacy.fingerprint(), step
    assert flat.fingerprint() == legacy.fingerprint()
    assert flat.miss_rate == legacy.miss_rate


# ---------------------------------------------------------------------------
# 4. MSHR ordering / probe_latency edge cases
# ---------------------------------------------------------------------------


def small_memory(l2_mshrs=4, prefetch=False):
    return MemoryConfig(
        l1i=CacheConfig(1024, 2, latency=2, mshrs=2),
        l1d=CacheConfig(1024, 2, latency=3, mshrs=4),
        l2=CacheConfig(8 * 1024, 4, latency=10, mshrs=l2_mshrs),
        l3=None,
        dram=DramConfig(latency=100, cycles_per_line=4.0),
        prefetcher=PrefetcherConfig(enabled=prefetch, distance=8, degree=2),
        itlb=TlbConfig(entries=64, miss_penalty=0),
        dtlb=TlbConfig(entries=64, miss_penalty=0),
    )


@pytest.mark.parametrize("fast_path", [True, False])
def test_queued_mshr_completions_stay_ordered(fast_path):
    """With a single L2 MSHR, misses queue behind the busy slot; each
    later miss completes strictly later, and every level's outstanding
    map records each line's completion."""
    h = MemoryHierarchy(small_memory(l2_mshrs=1), fast_path=fast_path)
    addrs = [0x10000 + i * 4096 for i in range(4)]
    results = [h.dload(addr, 0) for addr in addrs]
    completes = [r.complete for r in results]
    assert completes == sorted(completes), "queued completions reordered"
    assert len(set(completes)) == len(completes), "MSHR queue collapsed"
    for level in h._dchain:
        assert [
            level.outstanding[level.cache.line_of(addr)] for addr in addrs
        ] == completes


@pytest.mark.parametrize("fast_path", [True, False])
def test_probe_latency_levels(fast_path):
    """probe_latency walks the chain without mutating: L1 hit at L1
    latency, L2 hit adds L2 latency, full miss adds DRAM, and a pending
    outstanding fill short-circuits to its completion time."""
    h = MemoryHierarchy(small_memory(), fast_path=fast_path)
    mem = h.config
    fp_before = h.fingerprint(0.0)

    # Full miss: every level + DRAM.
    miss = h.probe_latency(0x9000, 50.0)
    assert miss == 50.0 + mem.l1d.latency + mem.l2.latency + mem.dram.latency
    assert h.fingerprint(0.0) == fp_before, "probe mutated state"

    # L1 hit after a demand fill.
    h.dload(0x1000, 0)
    hit = h.probe_latency(0x1000, 1000.0)
    assert hit == 1000.0 + mem.l1d.latency

    # Fills are recorded at request time, so an in-flight demand line
    # already probes as present at L1 latency.
    inflight = h.dload(0x5000, 2000)
    line = h.l1d.line_of(0x5000)
    assert h.probe_latency(0x5000, 2001.0) == 2001.0 + mem.l1d.latency

    # Evicted while the fill is still pending: the outstanding map (not
    # the tags) carries the completion, and the probe returns it.
    h.l1d.invalidate(line)
    h.l2.invalidate(line)
    pending = h.probe_latency(0x5000, 2001.0)
    assert pending == inflight.complete

    # Expired outstanding entries are ignored (lazy deletion): once the
    # fill's time passes, the line simply re-misses to DRAM.
    settled = h.probe_latency(0x5000, inflight.complete + 1)
    assert settled == (
        inflight.complete + 1
        + mem.l1d.latency + mem.l2.latency + mem.dram.latency
    )


def test_probe_latency_perfect_dcache():
    h = MemoryHierarchy(small_memory(), perfect_dcache=True)
    assert h.probe_latency(0xABC0, 7.0) == 7.0 + h.config.l1d.latency
