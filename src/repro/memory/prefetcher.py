"""Stream prefetcher.

Trains on L1D demand accesses per 4 KB region; once a region shows a
monotonic line stride it becomes a stream, and every subsequent demand
access in the region triggers ``degree`` prefetches ``distance`` lines ahead
into the L2.  Prefetches consume L2 MSHRs and DRAM bandwidth like demand
misses — "contention remains high because hardware prefetching continues"
(Fig. 3c discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.cores import PrefetcherConfig

#: Region granularity for stream detection (lines per 4 KB page).
_REGION_BITS = 12

#: Shared empty result for the no-prefetch cases: ``on_demand_access`` is
#: called on every demand load, and allocating a fresh empty list per call
#: showed up on the hot path.  Callers only iterate the result.
_NO_PREFETCHES: list[int] = []


@dataclass(slots=True)
class _Stream:
    """Per-region stream state."""

    last_line: int
    direction: int = 0
    confidence: int = 0
    #: Most advanced line already requested for this stream.
    frontier: int = 0


class StreamPrefetcher:
    """Multi-stream detector with bounded stream table (LRU on regions)."""

    __slots__ = ("config", "line_bytes", "_streams", "issued", "triggers")

    def __init__(self, config: PrefetcherConfig, line_bytes: int) -> None:
        self.config = config
        self.line_bytes = line_bytes
        # region id -> stream state; dict order is LRU (oldest first).
        self._streams: dict[int, _Stream] = {}
        self.issued = 0
        self.triggers = 0

    def _region_of(self, line: int) -> int:
        shift = _REGION_BITS - (self.line_bytes.bit_length() - 1)
        return line >> shift

    def on_demand_access(self, line: int) -> list[int]:
        """Observe a demand L1D access; returns lines to prefetch into L2."""
        if not self.config.enabled:
            return _NO_PREFETCHES
        region = self._region_of(line)
        streams = self._streams
        stream = streams.pop(region, None)
        if stream is None:
            if len(streams) >= self.config.streams:
                del streams[next(iter(streams))]
            streams[region] = _Stream(last_line=line, frontier=line)
            return _NO_PREFETCHES
        streams[region] = stream  # refresh LRU position
        delta = line - stream.last_line
        stream.last_line = line
        if delta == 0:
            return _NO_PREFETCHES
        direction = 1 if delta > 0 else -1
        if direction == stream.direction:
            if stream.confidence < 8:
                stream.confidence += 1
        else:
            stream.direction = direction
            stream.confidence = 1
            stream.frontier = line
            return _NO_PREFETCHES
        if stream.confidence < self.config.train_threshold:
            return _NO_PREFETCHES
        # Trained: fetch `degree` new lines, up to `distance` ahead.
        self.triggers += 1
        targets: list[int] = []
        limit = line + direction * self.config.distance
        next_line = stream.frontier + direction
        if direction > 0:
            next_line = max(next_line, line + 1)
        else:
            next_line = min(next_line, line - 1)
        for _ in range(self.config.degree):
            past_limit = (
                next_line > limit if direction > 0 else next_line < limit
            )
            if past_limit:
                break
            targets.append(next_line)
            next_line += direction
        if targets:
            stream.frontier = targets[-1]
            self.issued += len(targets)
        return targets

    def fingerprint(self) -> tuple:
        """Stream-table snapshot in LRU order (replay engine fixed-point
        check); the ``issued``/``triggers`` counters are excluded."""
        return tuple(
            (region, s.last_line, s.direction, s.confidence, s.frontier)
            for region, s in self._streams.items()
        )

    def reset(self) -> None:
        self._streams.clear()
