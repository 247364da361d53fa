"""Main-memory model: fixed latency plus bandwidth-limited line transfers.

The per-core bandwidth share is modelled as a minimum spacing between line
transfers (``cycles_per_line``); requests arriving faster than the service
rate queue behind each other.  The paper scales memory bandwidth by the
socket core count to mimic a fully loaded processor — the presets bake that
scaling into ``cycles_per_line``.
"""

from __future__ import annotations

from repro.config.cores import DramConfig


class DramModel:
    """Latency/bandwidth DRAM with a single service queue."""

    __slots__ = ("config", "_next_slot", "accesses", "total_queue_delay")

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._next_slot = 0.0
        self.accesses = 0
        self.total_queue_delay = 0.0

    def access(self, now: float) -> float:
        """Request a line at ``now``; returns the completion cycle."""
        if self.config.cycles_per_line == 0:
            # Infinite bandwidth: zero channel occupancy, so requests
            # never queue behind each other (the multi-core engine's
            # no-contention oracle relies on this being exactly
            # latency-only with no cross-request coupling).
            self.accesses += 1
            return now + self.config.latency
        start = now if now >= self._next_slot else self._next_slot
        self.total_queue_delay += start - now
        self._next_slot = start + self.config.cycles_per_line
        self.accesses += 1
        return start + self.config.latency

    def writeback(self, now: float) -> None:
        """A dirty-line writeback consumes a bandwidth slot (no reply)."""
        if self.config.cycles_per_line == 0:
            self.accesses += 1
            return
        start = now if now >= self._next_slot else self._next_slot
        self._next_slot = start + self.config.cycles_per_line
        self.accesses += 1

    def fingerprint(self, now: float) -> float:
        """Service-queue headroom relative to ``now`` (replay engine); an
        expired slot cannot delay any future request, so it normalizes to
        0.0.  Counters are excluded."""
        slot = self._next_slot
        return slot - now if slot > now else 0.0

    def shift_time(self, now: float, delta: float) -> None:
        """Translate a still-pending service slot by ``delta`` (replay)."""
        if self._next_slot > now:
            self._next_slot += delta

    @property
    def average_queue_delay(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.total_queue_delay / self.accesses
