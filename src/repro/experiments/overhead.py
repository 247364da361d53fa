"""Accounting overhead (Sec. IV).

"The simulation time increases by less than 1% compared to the original
version of Sniper ... which proves that adding multi-stage CPI stack and
FLOPS stack accounting has a very small overhead."

We measure the same quantity on this simulator: wall time with the full
multi-stage + FLOPS collector enabled vs. accounting disabled.  (A pure
Python accountant costs relatively more than Sniper's C++ one; the bench
records the measured ratio either way.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.config.presets import get_preset
from repro.core.multistage import CollectorSpec
from repro.experiments.runner import get_trace
from repro.isa.instructions import Program
from repro.pipeline.core import simulate


@dataclass(frozen=True, slots=True)
class OverheadResult:
    """Wall-clock comparison of accounting on vs. off."""

    workload: str
    preset: str
    seconds_with: float
    seconds_without: float
    cycles: int

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown from enabling accounting."""
        if self.seconds_without <= 0:
            return 0.0
        return self.seconds_with / self.seconds_without - 1.0


def measure_overhead(
    workload: str = "mcf",
    preset: str = "bdw",
    *,
    instructions: int = 10_000,
    repeats: int = 3,
    seed: int = 1,
    trace: Program | None = None,
) -> OverheadResult:
    """Best-of-N wall time with and without accounting enabled.

    Pass ``trace=`` to time a pre-materialized program: trace generation
    then stays outside every timing rep instead of riding on the first
    one (the memo makes later reps free either way).
    """
    if trace is None:
        trace = get_trace(workload, instructions, seed)
    config = get_preset(preset)
    best: dict[bool, float] = {}
    cycles = 0
    for accounting in (True, False):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = simulate(
                trace, config,
                collector=CollectorSpec(accounting=accounting),
            )
            times.append(time.perf_counter() - start)
            cycles = result.cycles
        best[accounting] = min(times)
    return OverheadResult(
        workload=workload,
        preset=preset,
        seconds_with=best[True],
        seconds_without=best[False],
        cycles=cycles,
    )
