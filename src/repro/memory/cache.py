"""Set-associative write-back cache with true LRU replacement.

Storage is flat per-set line/dirty arrays: position in the array *is* the
LRU order (index 0 oldest, the last element MRU).  Hits on the MRU way —
the loop-dominant case — short-circuit with zero reordering work; other
hits are one C-level scan plus a delete/append pair.  The dict-per-set
reference implementation lives in :mod:`repro.memory.legacy` (the
simulators' ``reference=True`` mode) and the two are kept bitwise
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.cores import CacheConfig


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    prefetch_fills: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def as_dict(self) -> dict[str, float]:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "prefetch_fills": self.prefetch_fills,
        }


@dataclass(frozen=True, slots=True)
class Evicted:
    """An evicted line (returned so writebacks can consume bandwidth)."""

    line: int
    dirty: bool


class Cache:
    """One cache level.

    Lines are identified by ``addr >> line_bits``.  Each set is a pair of
    parallel arrays (``_set_lines[i]`` / ``_set_dirty[i]``) ordered oldest
    to newest: the last element is the MRU way, the first is the eviction
    victim.  Hits move the line to the end; :meth:`insert` on a present
    line leaves its position untouched (matching the dict semantics of
    :class:`repro.memory.legacy.LegacyCache`).
    """

    __slots__ = (
        "name",
        "config",
        "line_bits",
        "set_mask",
        "latency",
        "associativity",
        "_set_lines",
        "_set_dirty",
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
        self.associativity = config.associativity
        # Parallel per-set arrays, LRU order (oldest first, MRU last).
        self._set_lines: list[list[int]] = [
            [] for _ in range(config.num_sets)
        ]
        self._set_dirty: list[list[bool]] = [
            [] for _ in range(config.num_sets)
        ]
        self._occupancy = 0
        self.stats = CacheStats()

    def line_of(self, addr: int) -> int:
        return addr >> self.line_bits

    def lookup(self, line: int) -> bool:
        """Access the cache; True on hit.  Updates LRU and statistics."""
        lines = self._set_lines[line & self.set_mask]
        stats = self.stats
        stats.accesses += 1
        if lines:
            if lines[-1] == line:
                # MRU short-circuit: re-accessing the newest way needs no
                # reordering (the loop-dominant case).
                stats.hits += 1
                return True
            if line in lines:
                i = lines.index(line)
                del lines[i]
                lines.append(line)
                dirty = self._set_dirty[line & self.set_mask]
                d = dirty[i]
                del dirty[i]
                dirty.append(d)
                stats.hits += 1
                return True
        stats.misses += 1
        return False

    def probe(self, line: int) -> bool:
        """Check presence without perturbing LRU or statistics."""
        return line in self._set_lines[line & self.set_mask]

    def insert(
        self, line: int, *, dirty: bool = False, prefetch: bool = False
    ) -> Evicted | None:
        """Fill ``line``; returns the victim if one was evicted."""
        idx = line & self.set_mask
        lines = self._set_lines[idx]
        dirty_bits = self._set_dirty[idx]
        if line in lines:
            i = lines.index(line)
            dirty_bits[i] = dirty_bits[i] or dirty
            return None
        victim: Evicted | None = None
        if len(lines) >= self.associativity:
            victim_dirty = dirty_bits[0]
            victim = Evicted(lines[0], victim_dirty)
            del lines[0]
            del dirty_bits[0]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        else:
            self._occupancy += 1
        lines.append(line)
        dirty_bits.append(dirty)
        if prefetch:
            self.stats.prefetch_fills += 1
        return victim

    def fill(self, line: int, *, dirty: bool = False,
             prefetch: bool = False) -> int:
        """Allocation-free :meth:`insert`: the dirty victim's line, or -1.

        Clean evictions (and fills without eviction) return -1 — the
        caller only needs the line of a victim whose writeback will
        consume bandwidth, so no :class:`Evicted` is built for the
        common clean case.  Statistics match :meth:`insert` exactly.
        """
        idx = line & self.set_mask
        lines = self._set_lines[idx]
        dirty_bits = self._set_dirty[idx]
        if line in lines:
            i = lines.index(line)
            dirty_bits[i] = dirty_bits[i] or dirty
            return -1
        out = -1
        if len(lines) >= self.associativity:
            if dirty_bits[0]:
                self.stats.dirty_evictions += 1
                out = lines[0]
            self.stats.evictions += 1
            del lines[0]
            del dirty_bits[0]
        else:
            self._occupancy += 1
        lines.append(line)
        dirty_bits.append(dirty)
        if prefetch:
            self.stats.prefetch_fills += 1
        return out

    def fingerprint(self) -> tuple:
        """Structural state snapshot for the replay engine's fixed-point
        check: every tag and dirty bit, in LRU order per set.  Counters
        are excluded — the engine advances them arithmetically.  The
        format matches :class:`LegacyCache` exactly: ``(lines, dirty)``,
        one tuple per set in each half, so the snapshot is two passes of
        C-level copies instead of a pair per line."""
        return (
            tuple(map(tuple, self._set_lines)),
            tuple(map(tuple, self._set_dirty)),
        )

    def snapshot(self) -> dict:
        """Picklable full state: tags + dirty bits in LRU order per set,
        the occupancy count, and every statistics counter.  Schema-stable
        with :class:`LegacyCache` — snapshots restore across the two."""
        return {
            "sets": [
                list(zip(lines, dirty))
                for lines, dirty in zip(self._set_lines, self._set_dirty)
            ],
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

        Mutates the existing arrays and ``stats`` object in place —
        the replay engine holds live references to ``stats`` — and
        rebuilds each set in saved order so LRU behaviour (and thus
        every later eviction) is bitwise reproduced.
        """
        for idx, saved in enumerate(state["sets"]):
            lines = self._set_lines[idx]
            dirty_bits = self._set_dirty[idx]
            lines.clear()
            dirty_bits.clear()
            for line, dirty in saved:
                lines.append(line)
                dirty_bits.append(dirty)
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
        idx = line & self.set_mask
        lines = self._set_lines[idx]
        if line in lines:
            self._set_dirty[idx][lines.index(line)] = True

    def mark_dirty_mru(self, line: int) -> None:
        """Dirty the MRU way of ``line``'s set.

        Hot-path variant of :meth:`mark_dirty` for the store-hit case:
        the caller has just hit ``line`` via :meth:`lookup`, so it is
        guaranteed to sit in the MRU position — no scan needed.
        """
        self._set_dirty[line & self.set_mask][-1] = True

    def invalidate(self, line: int) -> None:
        idx = line & self.set_mask
        lines = self._set_lines[idx]
        if line in lines:
            i = lines.index(line)
            del lines[i]
            del self._set_dirty[idx][i]
            self._occupancy -= 1

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently cached.

        Maintained as a running count in :meth:`insert`/:meth:`fill`/
        :meth:`invalidate` (an eviction replaces its victim, so the count
        is unchanged); summing set sizes per query was O(num_sets) and
        showed up when occupancy was polled every cycle.
        """
        return self._occupancy
