"""Multi-stage collection and bounds analysis — the paper's headline idea.

A :class:`MultiStageCollector` runs the dispatch, issue and commit
accountants (and optionally the FLOPS accountant) side by side over the same
execution; the resulting :class:`MultiStageReport` exposes, per component,
the *range* [min, max] across stages — the upper and lower bound on the CPI
reduction expected from eliminating that stall source (Sec. I: "The
different CPI stacks show the range of the possible CPI reduction if a
certain stall event is eliminated").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.commit import CommitAccountant
from repro.core.components import Component, FlopsComponent
from repro.core.dispatch import DispatchAccountant
from repro.core.flops import FlopsAccountant
from repro.core.issue import IssueAccountant
from repro.core.observation import CycleObservation
from repro.core.stack import CpiStack, FlopsStack
from repro.core.wrongpath import SimpleWrongPathCorrector, WrongPathMode


class Stage(enum.Enum):
    """The three accounting points of Table II."""

    DISPATCH = "dispatch"
    ISSUE = "issue"
    COMMIT = "commit"


ALL_STAGES = (Stage.DISPATCH, Stage.ISSUE, Stage.COMMIT)


@dataclass(frozen=True)
class CollectorSpec:
    """Declarative description of a simulation's accounting collector.

    The simulator timing is observational (the paper's core claim): no
    collector setting changes a single simulated cycle.
    ``accounting=False`` attaches no collector — the timing runs,
    nothing observes.  ``accounting_width`` of ``None`` defers to the
    machine config's width.
    """

    accounting: bool = True
    topdown: bool = False
    accounting_width: int | None = None


class MultiStageCollector:
    """Runs all stage accountants simultaneously over one execution.

    The paper shows this costs <1% simulation time; the collector therefore
    does only O(1) work per cycle beyond the underlying accountants.
    """

    __slots__ = ("dispatch", "issue", "commit", "flops", "topdown", "mode")

    def __init__(
        self,
        width: int,
        *,
        mode: WrongPathMode = WrongPathMode.EXACT,
        vector_units: int = 0,
        vector_lanes: int = 0,
        topdown: bool = False,
    ) -> None:
        self.mode = mode
        self.dispatch = DispatchAccountant(width, mode)
        self.issue = IssueAccountant(width, mode)
        self.commit = CommitAccountant(width)
        self.flops: FlopsAccountant | None = None
        if vector_units and vector_lanes:
            self.flops = FlopsAccountant(vector_units, vector_lanes)
        self.topdown = None
        if topdown:
            from repro.core.topdown import TopDownAccountant

            self.topdown = TopDownAccountant(width)

    def observe(self, obs: CycleObservation) -> None:
        self.dispatch.observe(obs)
        self.issue.observe(obs)
        self.commit.observe(obs)
        if self.flops is not None:
            self.flops.observe(obs)
        if self.topdown is not None:
            self.topdown.observe(obs)

    def observe_repeat(self, obs: CycleObservation, k: int) -> None:
        """Account ``obs`` for ``k`` consecutive identical cycles.

        Bit-identical to ``k`` calls of :meth:`observe`; each accountant
        provides its own repeat-count fast path (falling back to the
        per-cycle loop whenever the observation is not a pure stall).
        """
        self.dispatch.observe_repeat(obs, k)
        self.issue.observe_repeat(obs, k)
        self.commit.observe_repeat(obs, k)
        if self.flops is not None:
            self.flops.observe_repeat(obs, k)
        if self.topdown is not None:
            self.topdown.observe_repeat(obs, k)

    def repeat_program(self, obs: CycleObservation):
        """Compile ``obs``'s per-cycle accounting into a flat update list.

        Returns ``(entries, norms, flops_stack, flops_issued)`` where
        applying ``counters[comp] += amt * float(k)`` for each entry (in
        order), plus ``flops_stack.flops += flops_issued * float(k)``, is
        bit-identical to :meth:`observe_repeat` with repeat count ``k`` —
        **provided** every normalizer in ``norms`` has ``carry == 0.0``
        at apply time (the caller must check; carries stay 0.0 whenever
        per-cycle counts never exceed the accounting width).

        Returns ``False`` when no such program exists: top-down attached
        (its interval state machine is not a fixed update list), a
        non-EXACT mode (speculative counter files buffer per-block), a
        non-pow2 width (per-cycle fractions are not exact dyadics), an
        over-width count, or non-integral FLOP/lane totals.  The
        bit-exactness argument for each multiplied amount is the same as
        in the accountants' own ``observe_repeat`` bulk paths — this
        method only memoizes which branches those paths would take.
        """
        if self.topdown is not None or self.mode is not WrongPathMode.EXACT:
            return False
        dispatch = self.dispatch
        issue = self.issue
        commit = self.commit
        if not (dispatch._pow2 and issue._pow2 and commit._pow2):
            return False
        if (
            dispatch.spec is not None
            or issue.spec is not None
        ):
            return False
        entries = []
        for acc, n in (
            (dispatch, obs.n_dispatch),
            (issue, obs.n_issue),
            (commit, obs.n_commit),
        ):
            width = acc.norm.width
            if n > width:
                return False
            f = n / width
            if f:
                entries.append((acc.stack.counters, Component.BASE, f))
            if f < 1.0:
                target = acc._stall_target(obs)
                comp = target if acc is commit else target[0]
                entries.append((acc.stack.counters, comp, 1.0 - f))
        flops_stack = None
        flops_issued = 0.0
        fa = self.flops
        if fa is not None:
            if not fa._dyadic:
                return False
            if not (
                float(obs.flops_issued).is_integer()
                and float(obs.non_fma_loss_lanes).is_integer()
                and float(obs.masked_lanes).is_integer()
            ):
                return False
            peak = fa.peak
            units = fa.vector_units
            counters = fa.stack.counters
            f = obs.flops_issued / peak
            if f:
                entries.append((counters, FlopsComponent.BASE, f))
            if obs.flops_issued:
                flops_stack = fa.stack
                flops_issued = obs.flops_issued
            if f < 1.0:
                if obs.non_fma_loss_lanes:
                    entries.append((
                        counters,
                        FlopsComponent.NON_FMA,
                        obs.non_fma_loss_lanes / peak,
                    ))
                if obs.masked_lanes:
                    entries.append((
                        counters,
                        FlopsComponent.MASK,
                        2.0 * obs.masked_lanes / peak,
                    ))
                n_vfp = obs.n_vfp_issued
                if n_vfp > units:
                    n_vfp = units
                slots = (units - n_vfp) / units
                if slots > 0.0:
                    entries.append((
                        counters,
                        fa._slot_loss_component(obs),
                        slots,
                    ))
        return (
            tuple(entries),
            (dispatch.norm, issue.norm, commit.norm),
            flops_stack,
            flops_issued,
        )

    # -- speculative-counter event plumbing ----------------------------------

    def set_block(self, block_id: int) -> None:
        if self.mode is WrongPathMode.SPECULATIVE:
            self.dispatch.set_block(block_id)
            self.issue.set_block(block_id)

    def on_block_commit(self, block_id: int) -> None:
        if self.mode is WrongPathMode.SPECULATIVE:
            self.dispatch.on_block_commit(block_id)
            self.issue.on_block_commit(block_id)

    def on_squash(self, block_id: int) -> None:
        if self.mode is WrongPathMode.SPECULATIVE:
            self.dispatch.on_squash(block_id)
            self.issue.on_squash(block_id)

    # -- finalization ---------------------------------------------------------

    def finalize(
        self, cycles: int, instructions: int, name: str = ""
    ) -> "MultiStageReport":
        dispatch = self.dispatch.finalize(cycles, instructions)
        issue = self.issue.finalize(cycles, instructions)
        commit = self.commit.finalize(cycles, instructions)
        if self.mode is WrongPathMode.SIMPLE:
            # Hardware-style correction: surplus base over the commit stack
            # is dispatched/issued wrong-path work -> branch component.
            dispatch = SimpleWrongPathCorrector.apply(dispatch, commit)
            issue = SimpleWrongPathCorrector.apply(issue, commit)
        for stack in (dispatch, issue, commit):
            stack.name = name
        flops_stack = None
        if self.flops is not None:
            flops_stack = self.flops.finalize(cycles)
            flops_stack.name = name
        topdown_report = None
        if self.topdown is not None:
            topdown_report = self.topdown.finalize(cycles)
        return MultiStageReport(
            name=name,
            dispatch=dispatch,
            issue=issue,
            commit=commit,
            flops=flops_stack,
            topdown=topdown_report,
        )


@dataclass(slots=True)
class MultiStageReport:
    """The three per-stage CPI stacks (plus FLOPS stack) for one execution.

    ``topdown`` carries the Yasin-style hierarchical baseline when the
    collector was built with ``topdown=True`` (for head-to-head
    comparisons; see :mod:`repro.core.topdown`).
    """

    name: str
    dispatch: CpiStack
    issue: CpiStack
    commit: CpiStack
    flops: FlopsStack | None = None
    topdown: object | None = None

    def stack(self, stage: Stage) -> CpiStack:
        if stage is Stage.DISPATCH:
            return self.dispatch
        if stage is Stage.ISSUE:
            return self.issue
        return self.commit

    @property
    def stacks(self) -> dict[Stage, CpiStack]:
        return {stage: self.stack(stage) for stage in ALL_STAGES}

    def cpi(self) -> float:
        return self.commit.cpi()

    def component_bounds(
        self, component: Component
    ) -> tuple[float, float]:
        """[min, max] of ``component`` (in CPI units) across the stages.

        This is the paper's bound on the CPI reduction from removing the
        stall source.
        """
        values = [
            self.stack(stage).component_cpi(component)
            for stage in ALL_STAGES
        ]
        return min(values), max(values)

    def covers(self, component: Component, actual_delta: float) -> bool:
        """True if the observed CPI reduction lies within the bounds."""
        low, high = self.component_bounds(component)
        return low <= actual_delta <= high

    def bound_error(self, component: Component, actual_delta: float) -> float:
        """Fig. 2's multi-stage error: 0 inside the bounds, else the signed
        distance from the closest bound to the actual reduction."""
        low, high = self.component_bounds(component)
        if low <= actual_delta <= high:
            return 0.0
        if actual_delta < low:
            return low - actual_delta
        return high - actual_delta

    def stage_error(
        self, stage: Stage, component: Component, actual_delta: float
    ) -> float:
        """Fig. 2's single-stack error: predicted component minus actual."""
        return self.stack(stage).component_cpi(component) - actual_delta

    def to_dict(self) -> dict:
        """Serialize for the disk cache / worker transport."""
        topdown = None
        if self.topdown is not None:
            topdown = self.topdown.to_dict()
        return {
            "name": self.name,
            "dispatch": self.dispatch.to_dict(),
            "issue": self.issue.to_dict(),
            "commit": self.commit.to_dict(),
            "flops": self.flops.to_dict() if self.flops else None,
            "topdown": topdown,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MultiStageReport":
        flops = data.get("flops")
        topdown = data.get("topdown")
        if topdown is not None:
            from repro.core.topdown import TopDownReport

            topdown = TopDownReport.from_dict(topdown)
        return cls(
            name=data["name"],
            dispatch=CpiStack.from_dict(data["dispatch"]),
            issue=CpiStack.from_dict(data["issue"]),
            commit=CpiStack.from_dict(data["commit"]),
            flops=FlopsStack.from_dict(flops) if flops else None,
            topdown=topdown,
        )
