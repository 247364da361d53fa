"""Dict-backed cache/TLB reference implementations (differential oracle).

These are the pre-optimization structures, kept verbatim as the memory
representation of the simulators' ``reference=True`` mode
(``MemoryHierarchy(fast_path=False)``): each set is a dict whose
insertion order is the LRU order.  The flat-array :class:`repro.memory.cache.Cache`
and :class:`repro.memory.tlb.Tlb` must stay bitwise interchangeable with
these — same hit/miss/eviction decisions, same statistics, same
``fingerprint``/``snapshot`` schema — which the memory differential suite
checks access-by-access and run-by-run.
"""

from __future__ import annotations

from repro.config.cores import CacheConfig, TlbConfig
from repro.memory.cache import CacheStats, Evicted


class LegacyCache:
    """One cache level over dict-per-set storage.

    Lines are identified by ``addr >> line_bits``.  Each set is a dict whose
    insertion order is the LRU order (oldest first); hits reinsert the line
    to move it to the MRU position.
    """

    __slots__ = (
        "name",
        "config",
        "line_bits",
        "set_mask",
        "latency",
        "_sets",
        "_occupancy",
        "stats",
    )

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.name = name
        self.config = config
        self.line_bits = config.line_bytes.bit_length() - 1
        if (1 << self.line_bits) != config.line_bytes:
            raise ValueError("cache line size must be a power of two")
        self.set_mask = config.num_sets - 1
        self.latency = config.latency
        # set index -> {line: dirty}
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(config.num_sets)
        ]
        self._occupancy = 0
        self.stats = CacheStats()

    def line_of(self, addr: int) -> int:
        return addr >> self.line_bits

    def _set_for(self, line: int) -> dict[int, bool]:
        return self._sets[line & self.set_mask]

    def lookup(self, line: int) -> bool:
        """Access the cache; True on hit.  Updates LRU and statistics."""
        cache_set = self._set_for(line)
        self.stats.accesses += 1
        if line in cache_set:
            dirty = cache_set.pop(line)
            cache_set[line] = dirty  # move to MRU position
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, line: int) -> bool:
        """Check presence without perturbing LRU or statistics."""
        return line in self._set_for(line)

    def insert(
        self, line: int, *, dirty: bool = False, prefetch: bool = False
    ) -> Evicted | None:
        """Fill ``line``; returns the victim if one was evicted."""
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            return None
        victim: Evicted | None = None
        if len(cache_set) >= self.config.associativity:
            victim_line = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_line)
            victim = Evicted(victim_line, victim_dirty)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        cache_set[line] = dirty
        if victim is None:
            self._occupancy += 1
        if prefetch:
            self.stats.prefetch_fills += 1
        return victim

    def fill(self, line: int, *, dirty: bool = False,
             prefetch: bool = False) -> int:
        """Allocation-free :meth:`insert`: the dirty victim's line, or -1.

        Clean evictions (and fills without eviction) return -1 — the
        caller only needs the line of a victim whose writeback will
        consume bandwidth.  Statistics match :meth:`insert` exactly.
        """
        victim = self.insert(line, dirty=dirty, prefetch=prefetch)
        if victim is not None and victim.dirty:
            return victim.line
        return -1

    def fingerprint(self) -> tuple:
        """Structural state snapshot for the replay engine's fixed-point
        check: every tag and dirty bit, in LRU order per set.  Counters
        are excluded — the engine advances them arithmetically.  Same
        ``(lines, dirty)`` shape as :meth:`Cache.fingerprint`."""
        return (
            tuple(map(tuple, self._sets)),
            tuple(tuple(s.values()) for s in self._sets),
        )

    def snapshot(self) -> dict:
        """Picklable full state: tags + dirty bits in LRU order per set,
        the occupancy count, and every statistics counter."""
        return {
            "sets": [list(s.items()) for s in self._sets],
            "occupancy": self._occupancy,
            "stats": {
                "accesses": self.stats.accesses,
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "dirty_evictions": self.stats.dirty_evictions,
                "prefetch_fills": self.stats.prefetch_fills,
            },
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot`.

        Mutates the existing set dicts and ``stats`` object in place —
        the replay engine holds live references to ``stats`` — and
        rebuilds each set's dict in saved order so LRU behaviour (and
        thus every later eviction) is bitwise reproduced.  Accepts
        snapshots written by the flat-array :class:`Cache` (same schema).
        """
        for cache_set, saved in zip(self._sets, state["sets"]):
            cache_set.clear()
            cache_set.update(saved)
        self._occupancy = state["occupancy"]
        stats = state["stats"]
        self.stats.accesses = stats["accesses"]
        self.stats.hits = stats["hits"]
        self.stats.misses = stats["misses"]
        self.stats.evictions = stats["evictions"]
        self.stats.dirty_evictions = stats["dirty_evictions"]
        self.stats.prefetch_fills = stats["prefetch_fills"]

    def mark_dirty(self, line: int) -> None:
        """Set the dirty bit if the line is present."""
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = True

    def mark_dirty_mru(self, line: int) -> None:
        """Dirty the MRU way of ``line``'s set (``line`` just hit)."""
        self._set_for(line)[line] = True

    def invalidate(self, line: int) -> None:
        # The stored value is the dirty *bool*, so a ``None`` sentinel
        # unambiguously means the line was absent.
        if self._set_for(line).pop(line, None) is not None:
            self._occupancy -= 1

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return self._occupancy


class LegacyTlb:
    """Fully-associative TLB with true LRU replacement (dict-backed)."""

    __slots__ = ("config", "page_bits", "_entries", "accesses", "misses")

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.page_bits = config.page_bytes.bit_length() - 1
        if (1 << self.page_bits) != config.page_bytes:
            raise ValueError("TLB page size must be a power of two")
        # dict insertion order is the LRU order (oldest first).
        self._entries: dict[int, None] = {}
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns the extra latency (0 on a hit)."""
        page = addr >> self.page_bits
        self.accesses += 1
        entries = self._entries
        if page in entries:
            del entries[page]
            entries[page] = None
            return 0
        self.misses += 1
        if len(entries) >= self.config.entries:
            del entries[next(iter(entries))]
        entries[page] = None
        return self.config.miss_penalty

    def fingerprint(self) -> tuple:
        """Entry set in LRU order (the replay engine's fixed-point check);
        counters are excluded (delta-advanced)."""
        return tuple(self._entries)

    def snapshot(self) -> dict:
        """Picklable full state (entries in LRU order + counters)."""
        return {
            "entries": list(self._entries),
            "accesses": self.accesses,
            "misses": self.misses,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot`; rebuilds LRU order in place."""
        self._entries.clear()
        for page in state["entries"]:
            self._entries[page] = None
        self.accesses = state["accesses"]
        self.misses = state["misses"]

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses
