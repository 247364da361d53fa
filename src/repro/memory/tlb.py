"""Translation lookaside buffers.

A fully-associative LRU TLB with a constant page-walk penalty.  TLB miss
latency is folded into the instruction/data access time; the accounting
algorithms therefore see TLB misses inside the Icache/Dcache components,
matching the paper's component definition ("misses in the instruction and
data cache (and TLB)").

Storage is a flat entry array in LRU order (oldest first, MRU last) with
an MRU short-circuit: the loop-dominant "same page again" case touches
nothing.  The dict-backed reference lives in
:class:`repro.memory.legacy.LegacyTlb`, the TLB of the simulators'
``reference=True`` per-cycle oracle.
"""

from __future__ import annotations

from repro.config.cores import TlbConfig


class Tlb:
    """Fully-associative TLB with true LRU replacement."""

    __slots__ = ("config", "page_bits", "_entries", "accesses", "misses")

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.page_bits = config.page_bytes.bit_length() - 1
        if (1 << self.page_bits) != config.page_bytes:
            raise ValueError("TLB page size must be a power of two")
        # Flat array in LRU order (oldest first, MRU last).
        self._entries: list[int] = []
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns the extra latency (0 on a hit)."""
        page = addr >> self.page_bits
        self.accesses += 1
        entries = self._entries
        if entries:
            if entries[-1] == page:
                # MRU short-circuit: consecutive accesses to one page
                # (the loop-dominant case) reorder nothing.
                return 0
            if page in entries:
                entries.remove(page)
                entries.append(page)
                return 0
        self.misses += 1
        if len(entries) >= self.config.entries:
            del entries[0]
        entries.append(page)
        return self.config.miss_penalty

    def fingerprint(self) -> tuple:
        """Entry set in LRU order (the replay engine's fixed-point check);
        counters are excluded (delta-advanced)."""
        return tuple(self._entries)

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses
