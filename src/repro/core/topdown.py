"""Yasin's top-down method — the baseline the paper positions against.

Related work (Sec. II): "A mixed approach is taken by Yasin.  In his
hierarchical accounting mechanism, a top level stack is measured at the
dispatch stage, discerning between frontend and backend stalls, but
without subdividing these into specific miss events ...  In the next
levels, specific miss event penalties are measured at different stages:
front-end miss events at the dispatch stage, and back-end miss events at
the issue stage.  As a result, the components at the lower levels do not
add up to the total cycle count."

This module implements that scheme on the same per-cycle observations the
multi-stage accountants consume, so the two representations can be
compared head to head (the ``topdown`` artifact of
:mod:`repro.experiments.paper`, ``repro paper --only topdown``).  The
paper's critique — that the dispatch-based top level prioritizes frontend
misses and can understate backend misses — falls out of the level-1 slot
attribution below: a cycle where the frontend delivers nothing is charged
to Frontend Bound even when the backend is simultaneously stalled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.blame import classify_blamed_uop
from repro.core.components import Component
from repro.core.observation import CycleObservation
from repro.core.width import WidthNormalizer


class TopLevel(enum.Enum):
    """Yasin's level-1 categories (slot-based, at dispatch)."""

    RETIRING = "retiring"
    BAD_SPECULATION = "bad_speculation"
    FRONTEND_BOUND = "frontend_bound"
    BACKEND_BOUND = "backend_bound"

    __hash__ = object.__hash__


class FrontendDetail(enum.Enum):
    """Level-2 frontend breakdown (measured at dispatch)."""

    ICACHE = "icache"
    MICROCODE = "microcode"
    OTHER = "other"

    __hash__ = object.__hash__


class BackendDetail(enum.Enum):
    """Level-2 backend breakdown (measured at issue, per Yasin)."""

    MEMORY_BOUND = "memory_bound"
    CORE_BOUND = "core_bound"

    __hash__ = object.__hash__


@dataclass(slots=True)
class TopDownReport:
    """The hierarchical stack: level-1 fractions plus level-2 details.

    ``level1`` sums to 1 (it is a slot partition).  ``frontend_detail``
    and ``backend_detail`` are measured at *different* stages and in
    different denominators — exactly why, as the paper notes, "the
    components at the lower levels do not add up to the total cycle
    count".
    """

    cycles: int
    level1: dict[TopLevel, float] = field(default_factory=dict)
    frontend_detail: dict[FrontendDetail, float] = field(
        default_factory=dict
    )
    backend_detail: dict[BackendDetail, float] = field(default_factory=dict)

    def level1_fractions(self) -> dict[TopLevel, float]:
        total = sum(self.level1.values())
        if total == 0:
            return {k: 0.0 for k in TopLevel}
        return {k: self.level1.get(k, 0.0) / total for k in TopLevel}

    def memory_bound_cpi(self, instructions: int) -> float:
        """Backend-level memory estimate in CPI units."""
        if instructions == 0:
            return 0.0
        return (
            self.backend_detail.get(BackendDetail.MEMORY_BOUND, 0.0)
            / instructions
        )

    def to_dict(self) -> dict:
        """Serialize for the disk cache / worker transport (by enum name)."""
        return {
            "cycles": self.cycles,
            "level1": {k.name: v for k, v in self.level1.items()},
            "frontend_detail": {
                k.name: v for k, v in self.frontend_detail.items()
            },
            "backend_detail": {
                k.name: v for k, v in self.backend_detail.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopDownReport":
        return cls(
            cycles=data["cycles"],
            level1={
                TopLevel[k]: v for k, v in data["level1"].items()
            },
            frontend_detail={
                FrontendDetail[k]: v
                for k, v in data["frontend_detail"].items()
            },
            backend_detail={
                BackendDetail[k]: v
                for k, v in data["backend_detail"].items()
            },
        )


class TopDownAccountant:
    """Per-cycle top-down slot accounting.

    Level 1 partitions each cycle's W dispatch slots:

    * slots filled with correct-path micro-ops -> Retiring;
    * slots filled with wrong-path micro-ops, or starved while recovering
      from a misprediction -> Bad Speculation;
    * slots starved by the frontend -> Frontend Bound;
    * everything else (window full, structural) -> Backend Bound.

    Level 2 refines Frontend Bound at the dispatch stage
    (icache/microcode) and Backend Bound at the *issue* stage
    (memory-bound vs core-bound via the producer of the first non-ready
    micro-op).
    """

    __slots__ = ("report", "norm", "_cycles")

    def __init__(self, width: int) -> None:
        self.report = TopDownReport(cycles=0)
        self.norm = WidthNormalizer(width)
        self._cycles = 0

    def observe(self, obs: CycleObservation) -> None:
        self._cycles += 1
        level1 = self.report.level1
        width = self.norm.width

        retiring = self.norm.fraction(obs.n_dispatch)
        level1[TopLevel.RETIRING] = (
            level1.get(TopLevel.RETIRING, 0.0) + retiring
        )
        remaining = 1.0 - retiring
        if remaining <= 0.0:
            self._observe_level2(obs)
            return

        bad_spec = min(remaining, obs.n_dispatch_wrong / width)
        if obs.wrong_path_active:
            # Recovery bubbles count as bad speculation too.
            bad_spec = remaining
        if bad_spec > 0.0:
            level1[TopLevel.BAD_SPECULATION] = (
                level1.get(TopLevel.BAD_SPECULATION, 0.0) + bad_spec
            )
            remaining -= bad_spec
        if remaining <= 0.0:
            self._observe_level2(obs)
            return

        if obs.unscheduled or obs.uop_queue_empty:
            # Frontend could not feed the machine: Frontend Bound —
            # *regardless* of simultaneous backend stalls (the
            # dispatch-priority behaviour the paper criticizes).
            level1[TopLevel.FRONTEND_BOUND] = (
                level1.get(TopLevel.FRONTEND_BOUND, 0.0) + remaining
            )
        else:
            level1[TopLevel.BACKEND_BOUND] = (
                level1.get(TopLevel.BACKEND_BOUND, 0.0) + remaining
            )
        self._observe_level2(obs)

    def observe_repeat(self, obs: CycleObservation, k: int) -> None:
        """Account ``obs`` for ``k`` consecutive identical cycles.

        Exactly equivalent to ``k`` calls of :meth:`observe`.  With no
        dispatch or issue activity in the repeated cycle (the only case
        the fast-forward engine produces), each cycle contributes exactly
        0.0 retiring slots and 1.0 whole slots to a single level-1
        category, and whole 1.0 increments to the level-2 details — all
        exact in floating point, so bulk adds of ``float(k)`` match the
        iterated result bit for bit.
        """
        if obs.n_dispatch or obs.n_dispatch_wrong or obs.n_issue:
            for _ in range(k):
                self.observe(obs)
            return
        while k > 0 and self.norm.carry != 0.0:
            self.observe(obs)
            k -= 1
        if k <= 0:
            return
        self._cycles += k
        level1 = self.report.level1
        # observe() touches the Retiring entry even at fraction 0.0;
        # replicate the key creation (adding 0.0 once is idempotent).
        level1[TopLevel.RETIRING] = level1.get(TopLevel.RETIRING, 0.0) + 0.0
        if obs.wrong_path_active:
            level1[TopLevel.BAD_SPECULATION] = (
                level1.get(TopLevel.BAD_SPECULATION, 0.0) + float(k)
            )
        elif obs.unscheduled or obs.uop_queue_empty:
            level1[TopLevel.FRONTEND_BOUND] = (
                level1.get(TopLevel.FRONTEND_BOUND, 0.0) + float(k)
            )
        else:
            level1[TopLevel.BACKEND_BOUND] = (
                level1.get(TopLevel.BACKEND_BOUND, 0.0) + float(k)
            )
        # Level-2 details: whole 1.0 increments per cycle in both tables.
        if obs.uop_queue_empty and not obs.wrong_path_active:
            fe = self.report.frontend_detail
            if obs.fe_reason is Component.ICACHE:
                fe_key = FrontendDetail.ICACHE
            elif obs.fe_reason is Component.MICROCODE:
                fe_key = FrontendDetail.MICROCODE
            else:
                fe_key = FrontendDetail.OTHER
            fe[fe_key] = fe.get(fe_key, 0.0) + float(k)
        if not obs.rs_empty:
            producer = obs.first_nonready_producer
            if producer is not None:
                be = self.report.backend_detail
                if classify_blamed_uop(producer) is Component.DCACHE:
                    be_key = BackendDetail.MEMORY_BOUND
                else:
                    be_key = BackendDetail.CORE_BOUND
                be[be_key] = be.get(be_key, 0.0) + float(k)

    def _observe_level2(self, obs: CycleObservation) -> None:
        # Frontend detail at the dispatch stage.
        if obs.uop_queue_empty and not obs.wrong_path_active:
            fe = self.report.frontend_detail
            if obs.fe_reason is Component.ICACHE:
                key = FrontendDetail.ICACHE
            elif obs.fe_reason is Component.MICROCODE:
                key = FrontendDetail.MICROCODE
            else:
                key = FrontendDetail.OTHER
            fe[key] = fe.get(key, 0.0) + 1.0
        # Backend detail at the issue stage (per Yasin).
        if not obs.rs_empty and obs.n_issue < self.norm.width:
            producer = obs.first_nonready_producer
            if producer is not None:
                be = self.report.backend_detail
                blame = classify_blamed_uop(producer)
                if blame is Component.DCACHE:
                    key = BackendDetail.MEMORY_BOUND
                else:
                    key = BackendDetail.CORE_BOUND
                be[key] = be.get(key, 0.0) + 1.0 - (
                    obs.n_issue / self.norm.width
                )

    def finalize(self, cycles: int) -> TopDownReport:
        self.report.cycles = cycles
        return self.report
