"""Allocation-free memory fast path: differential proof vs the legacy walk.

The memory subsystem's common case (TLB hit + L1 hit, flat array-backed
sets) must be *bitwise invisible*: every architectural number in a
``SimResult`` must match the per-cycle reference (``reference=True``:
the full-RS scan over the dict-backed memory walk, every cycle stepped).
End to end, the production-vs-reference matrix in
``test_differential.py`` checks that run by run.  Here:

1. **Mid-run checkpoint/resume** — an interrupted production run resumed
   from disk equals the reference uninterrupted run.
2. **Structure-level differential** — randomized op sequences through
   the flat ``Cache``/``Tlb`` and the dict-backed ``LegacyCache``/
   ``LegacyTlb`` oracles, comparing fingerprints and stats at every step,
   on every preset's cache geometry too; and the whole
   ``MemoryHierarchy`` on the fast path against the legacy walk, per
   preset, over conflict, streaming and random address sequences.
3. **Edge cases** for queued-MSHR completion ordering and
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
from repro.config.presets import PRESETS, broadwell
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.legacy import LegacyCache, LegacyTlb
from repro.memory.tlb import Tlb
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

N = 2_000


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


# ---------------------------------------------------------------------------
# 1. mid-run checkpoint/resume
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
# 2. structure-level differential: flat arrays vs the dict oracle
# ---------------------------------------------------------------------------


def _preset_geometries():
    """Every other cache geometry of the machine presets, once (the 20-
    and 11-way L3s are not powers of two)."""
    seen = [(1024, 1), (2048, 2), (4096, 4), (8192, 8)]
    for factory in PRESETS.values():
        memory = factory().memory
        for cfg in (memory.l1i, memory.l1d, memory.l2, memory.l3):
            if cfg and (cfg.size_bytes, cfg.associativity) not in seen:
                seen.append((cfg.size_bytes, cfg.associativity))
    return seen


@pytest.mark.parametrize("size,assoc", _preset_geometries())
def test_cache_differential_random_ops(size, assoc):
    """Randomized lookup/fill/mark_dirty/invalidate sequences keep the
    flat cache and the dict oracle in lockstep: same hit/miss outcome,
    same dirty victims, same fingerprint, same stats.  The lines fall in
    at most 16 sets, four tags per way, so a large cache evicts too."""
    cfg = CacheConfig(size, assoc, line_bytes=64, latency=2)
    flat, legacy = Cache(cfg, "T"), LegacyCache(cfg, "T")
    rng = random.Random(1234 + size + assoc)
    sets = cfg.num_sets
    lines = [s + sets * tag for tag in range(4 * assoc)
             for s in range(min(sets, 16))]
    for step in range(3_000):
        line = rng.choice(lines)
        op = rng.randrange(5)
        if op <= 1:
            assert flat.lookup(line) == legacy.lookup(line), step
        elif op == 2:
            dirty = rng.random() < 0.3
            victim = legacy.insert(line, dirty=dirty)
            expected = victim.line if victim and victim.dirty else -1
            assert flat.fill(line, dirty=dirty) == expected, step
        elif op == 3:
            flat.mark_dirty(line)
            legacy.mark_dirty(line)
        else:
            flat.invalidate(line)
            legacy.invalidate(line)
        assert flat.fingerprint() == legacy.fingerprint(), step
    assert flat.occupancy == legacy.occupancy
    assert dataclasses.asdict(flat.stats) == dataclasses.asdict(legacy.stats)


def test_cache_differential_fill_streams():
    """Deterministic conflict-heavy fill stream (every set overflows
    repeatedly) — the LRU orders never diverge."""
    cfg = CacheConfig(1024, 2, line_bytes=64, latency=1)
    flat, legacy = Cache(cfg, "T"), LegacyCache(cfg, "T")
    sets = cfg.num_sets
    for i in range(600):
        line = (i * 7) % (8 * sets)
        victim = legacy.insert(line, dirty=(i % 3 == 0))
        expected = victim.line if victim and victim.dirty else -1
        assert flat.fill(line, dirty=(i % 3 == 0)) == expected
        assert flat.fingerprint() == legacy.fingerprint()


@pytest.mark.parametrize("entries", [16, 64, 128])
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


def _hierarchy_ops(memory, stream, seed):
    """A seeded access sequence: (op, addr, now) with ``now`` rising by
    0-24 cycles, so fills merge into outstanding misses and queue on
    busy MSHRs."""
    rng = random.Random(seed)
    line = memory.l1d.line_bytes
    if stream == "conflict":
        # One stride maps every address to the same set at every level:
        # each level evicts, and dirty victims write back down the chain.
        caches = [memory.l1i, memory.l1d, memory.l2, memory.l3]
        stride = max(c.num_sets for c in caches if c) * line
        ways = sum(c.associativity for c in caches if c)
        pool = [base * line + stride * k
                for base in (0, 1) for k in range(ways + 4)]
    elif stream == "stream":
        # Unit-stride runs that train the stream prefetcher.
        pool = None
    else:
        pool = [rng.randrange(0, 3 * memory.l1d.size_bytes) & -line
                for _ in range(3 * memory.l1d.size_bytes // line)]
    ops, now, cursor = [], 0.0, 0x40_0000
    for _ in range(4_000):
        if pool is None:
            cursor = (cursor + line if rng.random() < 0.9
                      else rng.randrange(0, 1 << 26) & -line)
            addr = cursor
        else:
            addr = rng.choice(pool) + rng.randrange(line)
        ops.append((rng.choice(("dload", "dload", "dstore", "ifetch",
                                "probe_latency")), addr, now))
        now += rng.randrange(25)
    return ops


@pytest.mark.parametrize(
    "preset,stream,ideal",
    [pytest.param(p, s, None, id=f"{p}-{s}")
     for p in PRESETS for s in ("conflict", "stream", "random")]
    + [pytest.param("bdw", "random", ideal, id=f"bdw-random-{ideal}")
       for ideal in ("perfect_icache", "perfect_dcache")],
)
def test_hierarchy_differential_random_accesses(preset, stream, ideal):
    """The whole hierarchy on the fast path (flat caches and TLBs,
    interned hit results) against the legacy walk over the dict oracles:
    every access returns the same completion, hit flag and serving
    level, wrong-path probes agree, and the full structural state
    (tags, LRU order, MSHRs, outstanding fills, DRAM queue, TLBs,
    prefetcher) and the statistics never diverge."""
    memory = PRESETS[preset]().memory
    kwargs = {ideal: True} if ideal else {}
    fast = MemoryHierarchy(memory, fast_path=True, **kwargs)
    legacy = MemoryHierarchy(memory, fast_path=False, **kwargs)
    for step, (op, addr, now) in enumerate(
        _hierarchy_ops(memory, stream, seed=len(preset) + len(stream))
    ):
        if op == "probe_latency":
            assert fast.probe_latency(addr, now) == legacy.probe_latency(
                addr, now), step
            continue
        got = getattr(fast, op)(addr, now)
        want = getattr(legacy, op)(addr, now)
        assert (got.complete, got.l1_hit, got.level) == (
            want.complete, want.l1_hit, want.level), (step, op)
        if step % 50 == 0:
            assert fast.fingerprint(now) == legacy.fingerprint(now), step
    assert fast.fingerprint(now) == legacy.fingerprint(now)
    assert fast.stats() == legacy.stats()


# ---------------------------------------------------------------------------
# 3. MSHR ordering / probe_latency edge cases
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
