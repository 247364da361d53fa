"""The composed memory hierarchy with analytic, contention-aware timing.

Access timing is computed at request time by walking the hierarchy: each
level either hits (adding its latency), merges into an already outstanding
miss for the same line, or misses — acquiring an MSHR slot (queueing when
the file is full) and recursing to the next level.  The L2 and L3 are
unified: the instruction and data chains share them, so instruction fills
evict data lines and vice versa (the Fig. 3b coupling).

The common case — TLB hit plus L1 hit — runs on an allocation-free fast
path: no ``_access`` recursion, no MSHR probe beyond one dict ``get``, no
heap ops, no per-access string or :class:`Evicted` construction, and the
returned :class:`AccessResult` is a preallocated per-hierarchy object
(every minimum-latency hit is identical except for ``complete``, which is
rewritten in place; callers read results immediately and never retain
them).  ``fast_path=False`` selects the pre-optimization walk over
dict-backed caches (:mod:`repro.memory.legacy`) as a differential
oracle; the simulators choose it under ``reference=True``, their
per-cycle oracle, which also steps every cycle through the full
reservation-station scan.  Both paths are bitwise identical, which
``tests/test_differential.py`` checks run by run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.cores import MemoryConfig
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.legacy import LegacyCache, LegacyTlb
from repro.memory.mshr import MshrFile
from repro.memory.prefetcher import StreamPrefetcher
from repro.memory.tlb import Tlb

@dataclass(slots=True)
class AccessResult:
    """Outcome of one instruction fetch or data access.

    Mutable so the hierarchy can intern one result object per kind of
    minimum-latency hit and rewrite ``complete`` in place (the hit fast
    path).  Callers consume a result before the next access and must not
    retain it.
    """

    #: Absolute cycle at which the data is available.
    complete: float
    #: True if the access was served by the first-level cache with no TLB
    #: miss (i.e. at minimum latency).
    l1_hit: bool
    #: Human-readable serving level ("L1", "L2", "L3", "DRAM").
    level: str


class _Level:
    """One cache level bundled with its MSHR file and outstanding misses."""

    __slots__ = ("cache", "mshr", "outstanding")

    def __init__(self, cache: Cache | LegacyCache) -> None:
        self.cache = cache
        self.mshr = MshrFile(cache.config.mshrs)
        #: line -> completion time of the in-flight fill (for miss merging).
        self.outstanding: dict[int, float] = {}


class SharedMemoryBackend:
    """Shared back end of a multi-core socket: the L3 level and DRAM.

    Built once by :class:`repro.pipeline.multicore.MulticoreSimulator`
    and handed to every per-core :class:`MemoryHierarchy` via
    ``shared=``: the cores substitute this backend's L3 level (cache +
    MSHR file + outstanding fill map) and DRAM model for private ones,
    so shared-level MSHR occupancy and DRAM bandwidth are arbitrated
    across cores in the deterministic order the engine steps them.
    L1I/L1D/L2, TLBs and the prefetcher stay private per core; configs
    without an L3 (KNL) share only DRAM.  Construction is
    field-for-field identical to the private path — that is what makes
    the engine's 1-core bitwise-identity guarantee hold.
    """

    __slots__ = ("config", "fast_path", "l3", "l3_level", "dram")

    def __init__(
        self, config: MemoryConfig, *, fast_path: bool = True
    ) -> None:
        self.config = config
        self.fast_path = fast_path
        cache_cls = Cache if self.fast_path else LegacyCache
        self.l3 = (
            cache_cls(config.l3, "L3") if config.l3 is not None else None
        )
        self.l3_level = _Level(self.l3) if self.l3 is not None else None
        self.dram = DramModel(config.dram)


class MemoryHierarchy:
    """Split L1I/L1D over unified L2 (and optional L3) over DRAM."""

    def __init__(
        self,
        config: MemoryConfig,
        *,
        perfect_icache: bool = False,
        perfect_dcache: bool = False,
        fast_path: bool = True,
        shared: SharedMemoryBackend | None = None,
    ) -> None:
        self.config = config
        self.perfect_icache = perfect_icache
        self.perfect_dcache = perfect_dcache
        self.fast_path = fast_path
        if shared is not None and shared.fast_path != self.fast_path:
            raise ValueError(
                "shared memory backend and core hierarchy disagree on "
                "the memory fast path"
            )
        cache_cls = Cache if self.fast_path else LegacyCache
        tlb_cls = Tlb if self.fast_path else LegacyTlb
        self.l1i = cache_cls(config.l1i, "L1I")
        self.l1d = cache_cls(config.l1d, "L1D")
        self.l2 = cache_cls(config.l2, "L2")
        if shared is not None:
            self.l3 = shared.l3
            self.dram = shared.dram
        else:
            self.l3 = (
                cache_cls(config.l3, "L3") if config.l3 is not None else None
            )
            self.dram = DramModel(config.dram)
        self.itlb = tlb_cls(config.itlb)
        self.dtlb = tlb_cls(config.dtlb)
        self.prefetcher = StreamPrefetcher(
            config.prefetcher, config.l1d.line_bytes
        )
        shared_levels = [_Level(self.l2)]
        if self.l3 is not None:
            # The L3 level (cache + MSHR + outstanding fills) is the
            # sharing seam: under a shared backend every core's chains
            # end in the *same* level object.
            shared_levels.append(
                shared.l3_level if shared is not None else _Level(self.l3)
            )
        self._ichain = [_Level(self.l1i), *shared_levels]
        self._dchain = [_Level(self.l1d), *shared_levels]
        self.prefetches_issued = 0
        # Hot-path scalars and per-chain level-name tuples, precomputed
        # once (the name of a serving level is a pure function of its
        # chain position — recomputing the string per access showed up in
        # profiles).  Index ``len(chain)`` is DRAM.
        self._ichain0 = self._ichain[0]
        self._dchain0 = self._dchain[0]
        self._l1i_latency = self.l1i.latency
        self._l1d_latency = self.l1d.latency
        self._l1i_bits = self.l1i.line_bits
        self._l1d_bits = self.l1d.line_bits
        self._inames = self._names_for(self._ichain)
        self._dnames = self._names_for(self._dchain)
        # Interned minimum-latency hit results (fast path): all fields
        # but ``complete`` are constant for a hit at minimum latency.
        self._ihit = AccessResult(0.0, True, "L1")
        self._dhit = AccessResult(0.0, True, "L1")

    @staticmethod
    def _names_for(chain: list[_Level]) -> tuple[str, ...]:
        """Level names by chain index (index 0 reports as "L1")."""
        return (
            "L1",
            *(level.cache.name for level in chain[1:]),
            "DRAM",
        )

    # -- core walk (fast path) ---------------------------------------------------

    def _access(
        self,
        chain: list[_Level],
        idx: int,
        line: int,
        now: float,
        *,
        prefetch: bool = False,
    ) -> tuple[float, int]:
        """Access ``line`` starting at ``chain[idx]``.

        Returns (absolute completion cycle, index of the serving level,
        with ``len(chain)`` meaning DRAM).
        """
        if idx == len(chain):
            return self.dram.access(now), idx
        level = chain[idx]
        cache = level.cache
        pending = level.outstanding.get(line)
        if pending is not None:
            if pending > now:
                # Merge into the in-flight miss: no new MSHR needed.
                cache.stats.accesses += 1
                cache.stats.misses += 1
                return pending, idx
            del level.outstanding[line]
        if cache.lookup(line):
            return now + cache.latency, idx
        return self._miss(chain, idx, line, now, prefetch=prefetch)

    def _miss(
        self,
        chain: list[_Level],
        idx: int,
        line: int,
        now: float,
        *,
        prefetch: bool = False,
    ) -> tuple[float, int]:
        """Post-lookup-miss continuation of :meth:`_access` at
        ``chain[idx]``: acquire an MSHR (queueing if the file is full),
        fill from below, install the line, write back a dirty victim."""
        level = chain[idx]
        cache = level.cache
        grant = level.mshr.acquire(now + cache.latency)
        complete, served = self._access(
            chain, idx + 1, line, grant, prefetch=prefetch
        )
        level.mshr.hold_until(complete)
        level.outstanding[line] = complete
        # Evicted-free fill: only a dirty victim's line comes back (clean
        # evictions allocate nothing — no writeback consumes bandwidth).
        victim_line = cache.fill(line, prefetch=prefetch)
        if victim_line >= 0:
            self._writeback(chain, idx + 1, victim_line, complete)
        return complete, served

    def _writeback(
        self, chain: list[_Level], idx: int, line: int, now: float
    ) -> None:
        """Push a dirty victim one level down (or to DRAM)."""
        if idx == len(chain):
            self.dram.writeback(now)
            return
        below = chain[idx].cache
        if below.probe(line):
            below.mark_dirty(line)
        else:
            # Non-inclusive write-back: install the dirty line below.
            victim_line = below.fill(line, dirty=True)
            if victim_line >= 0:
                self._writeback(chain, idx + 1, victim_line, now)

    # -- core walk (legacy oracle) -----------------------------------------------

    def _access_legacy(
        self,
        chain: list[_Level],
        idx: int,
        line: int,
        now: float,
        *,
        prefetch: bool = False,
    ) -> tuple[float, int]:
        """The pre-optimization walk, verbatim: allocates an
        :class:`Evicted` per eviction and recurses without the fast-path
        split.  Kept as the differential oracle for the fast walk."""
        if idx == len(chain):
            return self.dram.access(now), idx
        level = chain[idx]
        cache = level.cache
        pending = level.outstanding.get(line)
        if pending is not None:
            if pending > now:
                # Merge into the in-flight miss: no new MSHR needed.
                cache.stats.accesses += 1
                cache.stats.misses += 1
                return pending, idx
            del level.outstanding[line]
        if cache.lookup(line):
            return now + cache.latency, idx
        # Miss: acquire an MSHR (queueing if the file is full), then fill
        # from below.
        grant = level.mshr.acquire(now + cache.latency)
        complete, served = self._access_legacy(
            chain, idx + 1, line, grant, prefetch=prefetch
        )
        level.mshr.hold_until(complete)
        level.outstanding[line] = complete
        victim = cache.insert(line, prefetch=prefetch)
        if victim is not None and victim.dirty:
            self._writeback_legacy(chain, idx + 1, victim.line, complete)
        return complete, served

    def _writeback_legacy(
        self, chain: list[_Level], idx: int, line: int, now: float
    ) -> None:
        """Push a dirty victim one level down (or to DRAM)."""
        if idx == len(chain):
            self.dram.writeback(now)
            return
        below = chain[idx].cache
        if below.probe(line):
            below.mark_dirty(line)
        else:
            # Non-inclusive write-back: install the dirty line below.
            victim = below.insert(line, dirty=True)
            if victim is not None and victim.dirty:
                self._writeback_legacy(chain, idx + 1, victim.line, now)

    # -- public interface -------------------------------------------------------

    def ifetch(self, addr: int, now: float) -> AccessResult:
        """Fetch the instruction line containing ``addr``."""
        if not self.fast_path:
            return self._ifetch_legacy(addr, now)
        if self.perfect_icache:
            res = self._ihit
            res.complete = now + self._l1i_latency
            return res
        extra = self.itlb.access(addr)
        line = addr >> self._l1i_bits
        level = self._ichain0
        pending = level.outstanding.get(line)
        if pending is None and level.cache.lookup(line):
            if extra == 0:
                # Combined TLB-hit + L1-hit fast path: minimum latency,
                # interned result.
                res = self._ihit
                res.complete = now + self._l1i_latency
                return res
            # TLB miss over an L1 tag hit is not an L1 "hit" (not served
            # at minimum latency).
            return AccessResult(now + extra + self._l1i_latency, False, "L1")
        start = now + extra
        if pending is None:
            complete, served = self._miss(self._ichain, 0, line, start)
        else:
            complete, served = self._access(self._ichain, 0, line, start)
        # "Hit" means served at minimum latency: TLB misses and merges into
        # still-outstanding fills are misses even when the line's tag is
        # already present.
        return AccessResult(
            complete,
            complete <= now + self._l1i_latency,
            self._inames[served],
        )

    def dload(self, addr: int, now: float) -> AccessResult:
        """Demand load; triggers the stream prefetcher."""
        if not self.fast_path:
            return self._dload_legacy(addr, now)
        if self.perfect_dcache:
            res = self._dhit
            res.complete = now + self._l1d_latency
            return res
        extra = self.dtlb.access(addr)
        line = addr >> self._l1d_bits
        pf_lines = self.prefetcher.on_demand_access(line)
        level = self._dchain0
        pending = level.outstanding.get(line)
        if pending is None and level.cache.lookup(line):
            if extra == 0 and not pf_lines:
                res = self._dhit
                res.complete = now + self._l1d_latency
                return res
            complete = now + extra + self._l1d_latency
            if pf_lines:
                self._issue_prefetches(pf_lines, now)
            return AccessResult(complete, extra == 0, "L1")
        start = now + extra
        if pending is None:
            complete, served = self._miss(self._dchain, 0, line, start)
        else:
            complete, served = self._access(self._dchain, 0, line, start)
        # Prefetches go into the L2 behind the demand access.
        if pf_lines:
            self._issue_prefetches(pf_lines, now)
        return AccessResult(
            complete,
            complete <= now + self._l1d_latency,
            self._dnames[served],
        )

    def dstore(self, addr: int, now: float) -> AccessResult:
        """Store: write-allocate into L1D, marking the line dirty."""
        if not self.fast_path:
            return self._dstore_legacy(addr, now)
        if self.perfect_dcache:
            res = self._dhit
            res.complete = now + self._l1d_latency
            return res
        extra = self.dtlb.access(addr)
        line = addr >> self._l1d_bits
        level = self._dchain0
        pending = level.outstanding.get(line)
        if pending is None and level.cache.lookup(line):
            # The line just hit, so it sits in the MRU way: dirty it
            # without a scan.
            level.cache.mark_dirty_mru(line)
            if extra == 0:
                res = self._dhit
                res.complete = now + self._l1d_latency
                return res
            return AccessResult(now + extra + self._l1d_latency, False, "L1")
        start = now + extra
        if pending is None:
            complete, served = self._miss(self._dchain, 0, line, start)
        else:
            complete, served = self._access(self._dchain, 0, line, start)
        self.l1d.mark_dirty(line)
        return AccessResult(
            complete,
            complete <= now + self._l1d_latency,
            self._dnames[served],
        )

    def _ifetch_legacy(self, addr: int, now: float) -> AccessResult:
        """Pre-optimization :meth:`ifetch` (differential oracle)."""
        if self.perfect_icache:
            return AccessResult(now + self.l1i.latency, True, "L1")
        extra = self.itlb.access(addr)
        line = self.l1i.line_of(addr)
        complete, served = self._access_legacy(
            self._ichain, 0, line, now + extra
        )
        l1_hit = complete <= now + self.l1i.latency
        return AccessResult(complete, l1_hit, self._inames[served])

    def _dload_legacy(self, addr: int, now: float) -> AccessResult:
        """Pre-optimization :meth:`dload` (differential oracle)."""
        if self.perfect_dcache:
            return AccessResult(now + self.l1d.latency, True, "L1")
        extra = self.dtlb.access(addr)
        line = self.l1d.line_of(addr)
        pf_lines = self.prefetcher.on_demand_access(line)
        complete, served = self._access_legacy(
            self._dchain, 0, line, now + extra
        )
        # Prefetches go into the L2 behind the demand access.
        if pf_lines:
            self._issue_prefetches(pf_lines, now)
        l1_hit = complete <= now + self.l1d.latency
        return AccessResult(complete, l1_hit, self._dnames[served])

    def _dstore_legacy(self, addr: int, now: float) -> AccessResult:
        """Pre-optimization :meth:`dstore` (differential oracle)."""
        if self.perfect_dcache:
            return AccessResult(now + self.l1d.latency, True, "L1")
        extra = self.dtlb.access(addr)
        line = self.l1d.line_of(addr)
        complete, served = self._access_legacy(
            self._dchain, 0, line, now + extra
        )
        self.l1d.mark_dirty(line)
        l1_hit = complete <= now + self.l1d.latency
        return AccessResult(complete, l1_hit, self._dnames[served])

    def _issue_prefetches(self, lines: list[int], now: float) -> None:
        """Inject prefetch fills at the L2 (index 1 of the data chain)."""
        access = self._access if self.fast_path else self._access_legacy
        l2_level = self._dchain[1]
        for line in lines:
            if line < 0:
                continue
            if l2_level.cache.probe(line) or line in l2_level.outstanding:
                continue
            self.prefetches_issued += 1
            access(self._dchain, 1, line, now, prefetch=True)

    def probe_latency(self, addr: int, now: float) -> float:
        """Latency estimate for a wrong-path load: probes without mutation."""
        if self.perfect_dcache:
            return now + self.l1d.latency
        line = self.l1d.line_of(addr)
        latency = 0.0
        for level in self._dchain:
            latency += level.cache.latency
            if level.cache.probe(line):
                return now + latency
            pending = level.outstanding.get(line)
            if pending is not None and pending > now:
                return pending
        return now + latency + self.dram.config.latency

    def _levels(self) -> list[_Level]:
        """Every distinct level once (L2/L3 are shared by both chains)."""
        return [self._ichain[0], self._dchain[0], *self._ichain[1:]]

    def fingerprint(self, now: float) -> tuple:
        """Full structural state modulo time shift (replay fixed point).

        Composes every cache's tag/LRU state, busy MSHR slots and live
        outstanding fills (times relative to ``now``), DRAM queue headroom,
        both TLBs and the prefetcher table.  Counters are excluded: the
        engine delta-advances them.  The per-cache format is identical
        across the flat-array and legacy representations.
        """
        levels = tuple(
            (
                level.cache.fingerprint(),
                level.mshr.fingerprint(now),
                tuple(
                    sorted(
                        (line, t - now)
                        for line, t in level.outstanding.items()
                        if t > now
                    )
                ),
            )
            for level in self._levels()
        )
        return (
            levels,
            self.dram.fingerprint(now),
            self.itlb.fingerprint(),
            self.dtlb.fingerprint(),
            self.prefetcher.fingerprint(),
        )

    def shift_time(self, now: float, delta: float) -> None:
        """Translate every pending completion by ``delta`` (replay jump).

        Expired times are left untouched — they are behaviourally inert
        (lazily deleted / popped) and shifting only the live ones keeps the
        state bit-identical to what a cycle-by-cycle run would hold at the
        destination cycle.
        """
        for level in self._levels():
            level.mshr.shift_time(now, delta)
            outstanding = level.outstanding
            for line, t in outstanding.items():
                if t > now:
                    outstanding[line] = t + delta
        self.dram.shift_time(now, delta)

    # -- statistics --------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-structure statistics for simulation reports."""
        out = {
            "l1i": self.l1i.stats.as_dict(),
            "l1d": self.l1d.stats.as_dict(),
            "l2": self.l2.stats.as_dict(),
            "dram": {
                "accesses": self.dram.accesses,
                "avg_queue_delay": self.dram.average_queue_delay,
            },
            "itlb": {
                "accesses": self.itlb.accesses,
                "misses": self.itlb.misses,
            },
            "dtlb": {
                "accesses": self.dtlb.accesses,
                "misses": self.dtlb.misses,
            },
            "prefetcher": {
                "issued": float(self.prefetches_issued),
                "triggers": float(self.prefetcher.triggers),
            },
            "l2_mshr": {
                "acquisitions": float(self._dchain[1].mshr.acquisitions),
                "avg_wait": self._dchain[1].mshr.average_wait,
                "max_wait": self._dchain[1].mshr.max_wait,
            },
        }
        if self.l3 is not None:
            out["l3"] = self.l3.stats.as_dict()
        return out
