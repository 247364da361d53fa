"""FLOPS-stack studies: Fig. 4 and Fig. 5.

Fig. 4 compares, per DeepBench group and machine, the *normalized* FLOPS
stack against the normalized issue-stage CPI stack: "we normalize each
stack, and take the difference between corresponding components ... As all
normalized components finally add to 1, the sum of the differences is
zero."

Fig. 5 shows one convolution-train-forward configuration on SKX as an IPC
stack next to a FLOPS stack, with and without a perfect D-cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.idealize import PERFECT_DCACHE
from repro.config.presets import get_preset
from repro.core.components import Component, FlopsComponent
from repro.experiments.cache import CaseSpec
from repro.experiments.parallel import run_cases, run_multicore_cases
from repro.experiments.supervisor import IncompleteBatch
from repro.pipeline.result import SimResult
from repro.workloads.deepbench import conv_configs, sgemm_configs

#: Fig. 4 component correspondence: each FLOPS component maps to the CPI
#: components it absorbs.  FLOPS-only loss classes map to nothing, so both
#: sides remain full partitions and the differences sum to zero.
_FIG4_MAP: dict[FlopsComponent, tuple[Component, ...]] = {
    FlopsComponent.BASE: (Component.BASE,),
    FlopsComponent.NON_FMA: (),
    FlopsComponent.MASK: (),
    FlopsComponent.FRONTEND: (
        Component.ICACHE,
        Component.BPRED,
        Component.MICROCODE,
    ),
    FlopsComponent.NON_VFP: (),
    FlopsComponent.MEM: (Component.DCACHE,),
    FlopsComponent.DEPEND: (Component.DEPEND, Component.ALU_LAT),
    FlopsComponent.OTHER: (Component.OTHER,),
    FlopsComponent.UNSCHED: (Component.UNSCHED,),
}

#: The five benchmark groups of Fig. 4.
FIG4_GROUPS = (
    "sgemm-train",
    "sgemm-inference",
    "conv-fwd",
    "conv-bwd_f",
    "conv-bwd_d",
)


def _group_workloads(group: str, preset: str) -> list[str]:
    """Registry names of the kernels belonging to a Fig. 4 group.

    sgemm kernels use the machine-matched code style (MKL JIT on KNL,
    broadcast style on SKX), as the paper describes.
    """
    style = "knl" if preset == "knl" else "skx"
    if group == "sgemm-train":
        return [
            f"{c.name}-{style}"
            for c in sgemm_configs()
            if c.group == "train"
        ]
    if group == "sgemm-inference":
        return [
            f"{c.name}-{style}"
            for c in sgemm_configs()
            if c.group == "inference"
        ]
    if group.startswith("conv-"):
        phase = group.split("-", 1)[1]
        return [f"{c.name}-{phase}" for c in conv_configs()]
    raise KeyError(f"unknown Fig. 4 group {group!r}")


def stack_difference(result: SimResult) -> dict[FlopsComponent, float]:
    """Normalized FLOPS stack minus normalized issue CPI stack."""
    report = result.report
    assert report is not None and report.flops is not None
    cpi_norm_raw = report.issue.normalized()
    flops_norm_raw = report.flops.normalized()
    diff: dict[FlopsComponent, float] = {}
    for flops_comp, cpi_comps in _FIG4_MAP.items():
        flops_value = flops_norm_raw.get(flops_comp, 0.0)
        cpi_value = sum(cpi_norm_raw.get(c, 0.0) for c in cpi_comps)
        diff[flops_comp] = flops_value - cpi_value
    return diff


def figure4_differences(
    presets: tuple[str, ...] = ("knl", "skx"),
    groups: tuple[str, ...] = FIG4_GROUPS,
    *,
    instructions: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
) -> dict[tuple[str, str], dict[FlopsComponent, float]]:
    """Average per-component stack differences per (group, preset).

    "We average all differences per set of benchmarks."  The full kernel
    matrix (every group on every machine) is declared as one batch.  With
    ``keep_going`` failed kernels drop out of their group's average (a
    group whose kernels all failed is omitted entirely).
    """
    cells = [
        (group, preset, _group_workloads(group, preset))
        for preset in presets
        for group in groups
    ]
    specs = [
        CaseSpec(
            workload=name, preset=preset, instructions=instructions,
            seed=seed,
        )
        for group, preset, names in cells
        for name in names
    ]
    results = iter(
        run_cases(
            specs, jobs=jobs, keep_going=keep_going,
            case_timeout=case_timeout,
        )
    )
    out: dict[tuple[str, str], dict[FlopsComponent, float]] = {}
    for group, preset, names in cells:
        acc = {comp: 0.0 for comp in _FIG4_MAP}
        contributing = 0
        for _name in names:
            result = next(results)
            if result is None:  # failed under keep_going
                continue
            contributing += 1
            for comp, value in stack_difference(result).items():
                acc[comp] += value
        if contributing == 0:
            continue
        out[(group, preset)] = {
            comp: value / contributing for comp, value in acc.items()
        }
    return out


@dataclass(slots=True)
class Figure5Case:
    """IPC and FLOPS stacks for one conv config, +/- perfect Dcache."""

    workload: str
    preset: str
    baseline: SimResult
    perfect_dcache: SimResult

    def ipc_stack(self, idealized: bool = False) -> dict[Component, float]:
        """Issue-stage IPC stack (height = max IPC)."""
        result = self.perfect_dcache if idealized else self.baseline
        assert result.report is not None
        max_ipc = float(get_preset(self.preset).accounting_width)
        return result.report.issue.ipc_components(max_ipc)

    def flops_stack(
        self, idealized: bool = False
    ) -> dict[FlopsComponent, float]:
        """FLOPS-rate stack in socket GFLOPS (height = peak GFLOPS)."""
        result = self.perfect_dcache if idealized else self.baseline
        assert result.report is not None and result.report.flops is not None
        config = get_preset(self.preset)
        return result.report.flops.rate_components(
            config.frequency_ghz, cores=config.socket_cores
        )


def figure5_case(
    workload: str = "conv-vgg-2-fwd",
    preset: str = "skx",
    *,
    instructions: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
) -> Figure5Case:
    """Run the Fig. 5 experiment: one conv fwd config on SKX."""
    baseline, ideal = run_cases(
        [
            CaseSpec(
                workload=workload, preset=preset,
                instructions=instructions, seed=seed,
            ),
            CaseSpec(
                workload=workload, preset=preset,
                idealization=PERFECT_DCACHE,
                instructions=instructions, seed=seed,
            ),
        ],
        jobs=jobs,
        keep_going=keep_going,
        case_timeout=case_timeout,
    )
    if baseline is None or ideal is None:
        raise IncompleteBatch(
            f"figure5 case {workload}@{preset} incomplete: "
            f"{'baseline' if baseline is None else 'perfect-dcache'} run "
            "failed; see `repro failures list`"
        )
    return Figure5Case(workload, preset, baseline, ideal)


@dataclass(slots=True)
class Figure5SocketCase:
    """Per-core IPC and FLOPS stacks for a multi-core conv socket.

    ``baseline[i]`` / ``perfect_dcache[i]`` are core ``i``'s results from
    the shared-memory engine.  Aggregates follow the paper's rules: IPC
    stacks average component per component, FLOPS-rate stacks add.
    """

    workload: str
    preset: str
    cores: int
    baseline: list[SimResult]
    perfect_dcache: list[SimResult]

    def _results(self, idealized: bool) -> list[SimResult]:
        return self.perfect_dcache if idealized else self.baseline

    def core_ipc_stack(
        self, core: int, idealized: bool = False
    ) -> dict[Component, float]:
        """Core ``core``'s issue-stage IPC stack (height = max IPC)."""
        result = self._results(idealized)[core]
        assert result.report is not None
        max_ipc = float(get_preset(self.preset).accounting_width)
        return result.report.issue.ipc_components(max_ipc)

    def ipc_stack(self, idealized: bool = False) -> dict[Component, float]:
        """Socket IPC stack: per-core stacks averaged per component."""
        stacks = [
            self.core_ipc_stack(core, idealized)
            for core in range(self.cores)
        ]
        return {
            comp: sum(stack.get(comp, 0.0) for stack in stacks) / self.cores
            for comp in stacks[0]
        }

    def flops_stack(
        self, idealized: bool = False
    ) -> dict[FlopsComponent, float]:
        """Socket FLOPS-rate stack: per-core GFLOPS stacks added."""
        config = get_preset(self.preset)
        acc: dict[FlopsComponent, float] = {}
        for result in self._results(idealized):
            report = result.report
            assert report is not None and report.flops is not None
            for comp, value in report.flops.rate_components(
                config.frequency_ghz, cores=1
            ).items():
                acc[comp] = acc.get(comp, 0.0) + value
        return acc


def figure5_socket_case(
    workload: str = "conv-vgg-2-fwd",
    preset: str = "skx",
    *,
    cores: int = 4,
    instructions: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
) -> Figure5SocketCase:
    """Run Fig. 5 on a simulated multi-core socket, +/- perfect Dcache.

    The baseline and the perfect-Dcache variants run as one shared-memory
    engine each (``cores``-way threaded decomposition, shared L3/DRAM,
    barrier sync), so the per-core stacks carry simulated contention and
    a nonzero ``Unsched`` component on the less-loaded cores.
    """
    if cores < 1:
        raise ValueError("a Fig. 5 socket needs at least one core")
    baseline, ideal = run_multicore_cases(
        [
            CaseSpec(
                workload=workload, preset=preset,
                instructions=instructions, seed=seed, cores=cores,
            ),
            CaseSpec(
                workload=workload, preset=preset,
                idealization=PERFECT_DCACHE,
                instructions=instructions, seed=seed, cores=cores,
            ),
        ],
        jobs=jobs, keep_going=keep_going, case_timeout=case_timeout,
    )
    if (
        baseline is None or ideal is None
        or any(r is None for r in baseline) or any(r is None for r in ideal)
    ):
        raise IncompleteBatch(
            f"figure5 socket case {workload}@{preset}x{cores} incomplete; "
            "see `repro failures list`"
        )
    return Figure5SocketCase(
        workload, preset, cores, list(baseline), list(ideal)
    )
