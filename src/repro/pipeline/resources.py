"""Execution resources: functional-unit pools and issue-port bookkeeping.

Each cycle both issue selects reset the pool's slot counts
(:meth:`FunctionalUnitPool.begin_issue`, inlined in the event step) and
test and take slots inline; pipelined units offer one issue slot per unit
per cycle, while unpipelined units (divides) stay busy for their full
latency.  The slots are indexed by the integer pool ids precomputed on
each :class:`repro.pipeline.inflight.InflightUop`.
"""

from __future__ import annotations

from repro.config.cores import CoreConfig
from repro.isa.uops import UopClass


class FunctionalUnitPool:
    """Per-cycle functional-unit and port availability."""

    __slots__ = ("config", "_mul_busy_until", "_free",
                 "_unpipelined_flags", "_free_template", "_issue_width")

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        #: Busy-until cycle for each (unpipelined-capable) multiply unit.
        self._mul_busy_until = [0] * config.mul_units
        unpipelined = frozenset(int(c) for c in config.unpipelined)
        #: uclass -> unpipelined flag, indexable by IntEnum (set-membership
        #: on the issue fast path showed in profiles).
        self._unpipelined_flags = tuple(
            int(uclass) in unpipelined for uclass in UopClass
        )
        #: Per-cycle slot counts with all units free (slot 1 = MUL is
        #: recomputed each cycle from the unpipelined busy times).
        self._free_template = [
            config.alu_units,
            config.mul_units,
            config.vector_units,
            config.load_ports,
            config.store_ports,
            config.branch_units,
        ]
        self._free = list(self._free_template)
        self._issue_width = config.issue_width

    def begin_issue(
        self, cycle: int
    ) -> tuple[list[int], int, tuple[bool, ...]]:
        """Per-cycle reset plus the raw views the scheduler inlines.

        Returns ``(free_slots, issue_width, unpipelined_flags)``: the
        select loop mutates ``free_slots`` in place and tracks the
        remaining issue bandwidth itself.  An issued micro-op on an
        unpipelined multiply unit also calls :meth:`_reserve_mul`.
        """
        free = self._free
        free[:] = self._free_template
        mul_free = 0
        for busy in self._mul_busy_until:
            if busy <= cycle:
                mul_free += 1
        free[1] = mul_free
        return free, self._issue_width, self._unpipelined_flags

    def _reserve_mul(self, cycle: int, latency: int) -> None:
        """Mark the earliest-free multiply unit busy until completion."""
        best = 0
        for index, busy in enumerate(self._mul_busy_until):
            if busy <= cycle:
                best = index
                break
        self._mul_busy_until[best] = cycle + latency

    def fingerprint(self, cycle: int) -> tuple:
        """Still-busy multiply-unit deadlines relative to ``cycle``.

        Expired entries are behaviourally free (``_reserve_mul`` only
        needs *some* free unit, and which expired slot gets overwritten
        never changes the surviving busy multiset), so only the sorted
        live deadlines matter.  ``_free`` is per-cycle scratch reset in
        :meth:`begin_issue` and is excluded.
        """
        return tuple(
            sorted(b - cycle for b in self._mul_busy_until if b > cycle)
        )

    def shift_time(self, cycle: int, delta: int) -> None:
        """Translate live busy deadlines by ``delta`` (replay jump)."""
        busy = self._mul_busy_until
        for i, b in enumerate(busy):
            if b > cycle:
                busy[i] = b + delta
