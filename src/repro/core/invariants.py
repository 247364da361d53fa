"""Runtime invariant guard for simulation results.

The paper's accounting is built on exact identities — every stage's stack
sums to the measured cycle count (Sec. III), the FLOPS stack's per-cycle
slot shares sum to 1 so its counters also total the cycle count (Table
III), and the three stage stacks describe the *same* execution.  A counter
that silently drifts from those identities does not crash anything: it
produces a plausible-looking but wrong CPI stack, and once such a result
lands in the persistent disk cache it poisons every future rerun.

:class:`InvariantGuard` checks a ``SimResult`` against those identities
(plus serialization round-trip integrity) every time one is about to be
returned by the harness or written to a cache:

* each stage's CPI-stack counters sum to the measured cycles within
  tolerance, and each stack's own ``cycles`` field agrees;
* every component counter is non-negative (within float tolerance);
* the dispatch/issue/commit stacks are mutually consistent: same total,
  same micro-op count, all equal to the result's counters;
* the FLOPS-stack components sum to the cycle count (equivalently: the
  per-cycle slot shares sum to the peak slot budget every cycle);
* ``SimResult.from_dict(to_dict(r))`` encodes back to the same payload
  (nothing is lost or mangled by the worker transport / disk encoding).

In **strict** mode (the default, used by tests and CI) a violation raises
:class:`InvariantViolation`; with strict mode off (``--no-strict`` or
``REPRO_STRICT=0``) violations are downgraded to recorded warnings.  In
both modes a violating result is never written to the disk cache.

This module deliberately imports nothing from :mod:`repro.pipeline` so it
can be re-exported from :mod:`repro.core` without an import cycle; it
operates on the ``SimResult`` duck type.
"""

from __future__ import annotations

import json
import os
import warnings as _warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pipeline.result import SimResult

#: Environment variable: set to ``0`` to downgrade violations to warnings
#: (the CLI's ``--no-strict`` sets this so pool workers inherit it).
ENV_STRICT = "REPRO_STRICT"

#: Default tolerances.  Looser than the unit-test assertions (which run on
#: tiny traces) because the guard also runs on full-size experiments where
#: float accumulation error grows with the cycle count.
REL_TOL = 1e-7
ABS_TOL = 1e-2


@dataclass(slots=True)
class Violation:
    """One failed invariant check."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


class InvariantViolation(ValueError):
    """A result failed the accounting invariants in strict mode."""

    def __init__(self, context: str, violations=()) -> None:
        self.context = context
        self.violations = list(violations)
        joined = "; ".join(str(v) for v in self.violations) or "unknown"
        super().__init__(
            f"invariant violation in {context or 'result'}: {joined}"
        )

    def __reduce__(self):
        # Keep the exception picklable across the worker boundary despite
        # the non-standard __init__ signature.
        return (InvariantViolation, (self.context, self.violations))


class InvariantGuard:
    """Checks the paper's accounting identities on a ``SimResult``.

    ``strict=None`` (the default) defers to the process-wide setting:
    :data:`ENV_STRICT` unless overridden via :meth:`set_strict`.
    """

    def __init__(
        self,
        *,
        strict: bool | None = None,
        rel_tol: float = REL_TOL,
        abs_tol: float = ABS_TOL,
    ) -> None:
        self._strict = strict
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        #: (context, violations) pairs recorded in non-strict mode.
        self.warnings: list[tuple[str, list[Violation]]] = []

    # -- strictness -------------------------------------------------------

    @property
    def strict(self) -> bool:
        if self._strict is not None:
            return self._strict
        return os.environ.get(ENV_STRICT, "1") != "0"

    def set_strict(self, strict: bool | None) -> None:
        """Override strictness (``None`` restores the env-driven default)."""
        self._strict = strict

    # -- checks -----------------------------------------------------------

    def _tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))

    def check(self, result: "SimResult") -> list[Violation]:
        """All violated invariants of ``result`` (empty = healthy)."""
        out: list[Violation] = []
        cycles = result.cycles
        if cycles < 0:
            out.append(Violation("counts", f"negative cycles {cycles}"))
        if result.committed_uops < 0:
            out.append(
                Violation(
                    "counts", f"negative uop count {result.committed_uops}"
                )
            )
        if result.branch_mispredicts > result.branch_lookups:
            out.append(
                Violation(
                    "counts",
                    f"{result.branch_mispredicts} mispredicts > "
                    f"{result.branch_lookups} lookups",
                )
            )

        report = result.report
        if report is not None:
            tol = self._tolerance(cycles)
            neg_tol = self._tolerance(cycles)
            totals: dict[str, float] = {}
            stacks = (
                ("dispatch", report.dispatch),
                ("issue", report.issue),
                ("commit", report.commit),
            )
            for stage_name, stack in stacks:
                total = stack.total()
                totals[stage_name] = total
                if abs(total - cycles) > tol:
                    out.append(
                        Violation(
                            "stack-total",
                            f"{stage_name} components sum to {total:.6f}, "
                            f"measured cycles = {cycles}",
                        )
                    )
                if abs(stack.cycles - cycles) > tol:
                    out.append(
                        Violation(
                            "stack-cycles",
                            f"{stage_name}.cycles = {stack.cycles} != "
                            f"result.cycles = {cycles}",
                        )
                    )
                if stack.instructions != result.committed_uops:
                    out.append(
                        Violation(
                            "stack-instructions",
                            f"{stage_name}.instructions = "
                            f"{stack.instructions} != committed_uops = "
                            f"{result.committed_uops}",
                        )
                    )
                for component, value in stack.counters.items():
                    if value < -neg_tol:
                        out.append(
                            Violation(
                                "negative-component",
                                f"{stage_name}.{component.name} = {value}",
                            )
                        )
            # Mutual consistency of the three accounting points: they
            # describe one execution, so their totals must agree.
            if totals and max(totals.values()) - min(totals.values()) > tol:
                out.append(
                    Violation(
                        "stage-consistency",
                        "stage totals disagree: "
                        + ", ".join(
                            f"{k}={v:.6f}" for k, v in totals.items()
                        ),
                    )
                )
            flops = report.flops
            if flops is not None:
                total = flops.total()
                # Per-cycle slot shares sum to 1 (Table III), so the
                # counters sum to the cycle count — i.e. the rate stack
                # sums to the peak slot budget.
                if abs(total - cycles) > tol:
                    out.append(
                        Violation(
                            "flops-total",
                            f"FLOPS components sum to {total:.6f}, "
                            f"measured cycles = {cycles}",
                        )
                    )
                if flops.peak_per_cycle <= 0:
                    out.append(
                        Violation(
                            "flops-peak",
                            f"peak_per_cycle = {flops.peak_per_cycle}",
                        )
                    )
                for component, value in flops.counters.items():
                    if value < -self._tolerance(cycles):
                        out.append(
                            Violation(
                                "negative-component",
                                f"flops.{component.name} = {value}",
                            )
                        )

        # Serialization round trip: the worker transport and the disk cache
        # both ship ``to_dict`` payloads, so a lossy field means the
        # parallel path silently diverges from the serial one.
        try:
            payload = result.to_dict()
            again = type(result).from_dict(payload).to_dict()
        except Exception as exc:  # noqa: BLE001 - any failure is a violation
            out.append(
                Violation("round-trip", f"serialization failed: {exc!r}")
            )
        else:
            # NaN != NaN, so an unequal pair is confirmed on the JSON
            # text, where equal NaN fields read alike.
            if again != payload and _json(again) != _json(payload):
                out.append(
                    Violation(
                        "round-trip",
                        "from_dict(to_dict(r)).to_dict() != to_dict(r)",
                    )
                )
        return out

    def verify(self, result: "SimResult", context: str = "") -> list[Violation]:
        """Check and enforce: raise in strict mode, record otherwise.

        Returns the violation list (empty when healthy) so callers can
        refuse to cache a downgraded result.
        """
        violations = self.check(result)
        if violations:
            if self.strict:
                raise InvariantViolation(context, violations)
            self.warnings.append((context, violations))
            _warnings.warn(
                f"accounting invariant violations in {context or 'result'}: "
                + "; ".join(str(v) for v in violations),
                RuntimeWarning,
                stacklevel=2,
            )
        return violations


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=str)


#: The process-wide guard used by the experiment harness.
GUARD = InvariantGuard()


def check_result(result: "SimResult") -> list[Violation]:
    """Violations of ``result`` under the process-wide guard (never raises)."""
    return GUARD.check(result)


def verify_result(result: "SimResult", context: str = "") -> list[Violation]:
    """Enforce the invariants under the process-wide guard."""
    return GUARD.verify(result, context)


def set_strict(strict: bool | None) -> None:
    """Set process-wide strictness (``None`` = env-driven default)."""
    GUARD.set_strict(strict)


def strict_enabled() -> bool:
    return GUARD.strict
