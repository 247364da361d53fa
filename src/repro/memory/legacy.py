"""Dict-backed cache/TLB reference implementations (differential oracle).

These are the pre-optimization structures, kept verbatim as the memory of
the simulators' ``reference=True`` per-cycle oracle — the full
reservation-station scan, every cycle stepped, over
``MemoryHierarchy(fast_path=False)``: each set is a dict whose insertion
order is the LRU order.  The flat-array :class:`repro.memory.cache.Cache`
and :class:`repro.memory.tlb.Tlb` must stay bitwise interchangeable with
these — same hit/miss/eviction decisions, same statistics, same
``fingerprint`` schema — which ``tests/test_memory_hotpath.py`` checks
access by access and ``tests/test_differential.py`` run by run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.cores import CacheConfig, TlbConfig
from repro.memory.cache import CacheStats


@dataclass(frozen=True, slots=True)
class Evicted:
    """An evicted line (returned so writebacks can consume bandwidth)."""

    line: int
    dirty: bool


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

    def fingerprint(self) -> tuple:
        """Every tag and dirty bit, in LRU order per set, in the
        ``(lines, dirty)`` shape of :meth:`Cache.fingerprint`, so the two
        representations compare directly.  Counters are excluded."""
        return (
            tuple(map(tuple, self._sets)),
            tuple(tuple(s.values()) for s in self._sets),
        )

    def mark_dirty(self, line: int) -> None:
        """Set the dirty bit if the line is present."""
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = True

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
        """Entry set in LRU order, as :meth:`Tlb.fingerprint`; counters
        are excluded."""
        return tuple(self._entries)

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses
