"""Miss-status-holding registers: finite outstanding-miss slots per level.

Each in-flight miss acquires a slot when it reaches a level and holds it
until its fill completes.  When all slots are busy, new misses queue: their
start time is pushed to the earliest slot release.  This queueing is the
mechanism behind Fig. 3(c), where hardware prefetches keep the L2 MSHRs
contended and I-cache misses "are queued for a long time until an MSHR is
available".
"""

from __future__ import annotations

import heapq


class MshrFile:
    """A file of ``size`` MSHRs tracked by their release times."""

    __slots__ = ("size", "_busy", "acquisitions", "total_wait", "max_wait")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("an MSHR file needs at least one slot")
        self.size = size
        # Min-heap of busy-until times for currently held slots.
        self._busy: list[float] = []
        self.acquisitions = 0
        self.total_wait = 0.0
        self.max_wait = 0.0

    def acquire(self, now: float) -> float:
        """Reserve a slot at or after ``now``; returns the grant time.

        The caller must later call :meth:`hold_until` with the miss
        completion time to keep the slot busy for the miss duration.
        """
        busy = self._busy
        # Free every slot already released by ``now``.
        while busy and busy[0] <= now:
            heapq.heappop(busy)
        self.acquisitions += 1
        if len(busy) < self.size:
            return now
        # All slots busy: wait for the earliest release.
        grant = heapq.heappop(busy)
        wait = grant - now
        self.total_wait += wait
        if wait > self.max_wait:
            self.max_wait = wait
        return grant

    def hold_until(self, release: float) -> None:
        """Mark the slot granted by the last :meth:`acquire` busy until
        ``release``."""
        heapq.heappush(self._busy, release)

    def fingerprint(self, now: float) -> tuple:
        """Busy-slot release times relative to ``now`` (replay engine).

        Expired entries are excluded: :meth:`acquire` pops them before they
        can influence a grant, so their presence is behaviourally inert.
        The heap's internal layout is normalized away by sorting — only the
        multiset of release times matters to future grants.
        """
        return tuple(sorted(t - now for t in self._busy if t > now))

    def shift_time(self, now: float, delta: float) -> None:
        """Translate still-busy release times by ``delta`` (replay jump).

        The map is identity below ``now`` and ``+delta`` above it, which is
        monotone, so the heap invariant is preserved in place.
        """
        busy = self._busy
        for i, t in enumerate(busy):
            if t > now:
                busy[i] = t + delta

    def outstanding(self, now: float) -> int:
        """Number of slots still busy at ``now`` (diagnostic)."""
        return sum(1 for t in self._busy if t > now)

    @property
    def average_wait(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait / self.acquisitions
