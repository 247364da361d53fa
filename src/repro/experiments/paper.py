"""The paper's artifacts as one table: Table I, Figs. 1-5 and the
evidence behind the paper's design choices (the Sec. II top-down
critique and the Sec. III ablations).

Each :class:`Artifact` is one regenerated table or figure: ``compute``
runs its simulations (through the experiment harness; the ablations
simulate their modified machines directly), ``render`` writes its text
(and any CSV series), ``facts`` derives the named numbers that
its ``summary`` lines and its ``claims`` read.  A claim is a Python
comparison over those facts with its threshold written out, e.g.
``dcache_ideal_icache < 0.6 * dispatch_icache``; the claims table prints
it verbatim next to the facts it reads.

:func:`run_artifacts` computes, writes and checks any subset of
:data:`ARTIFACTS` (``repro paper``).  The claims are stated at the
registry's default trace lengths; DESIGN.md §13 (item 7) lists those
that fail on shortened traces.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.config.idealize import (
    IDEALIZATIONS,
    PERFECT_DCACHE,
    PERFECT_ICACHE,
)
from repro.config.presets import broadwell, get_preset, skylake_x
from repro.core.components import (
    BACKEND_COMPONENTS,
    CPI_COMPONENTS,
    FLOPS_COMPONENTS,
    FRONTEND_COMPONENTS,
    Component,
    FlopsComponent,
)
from repro.core.multistage import ALL_STAGES, Stage
from repro.core.topdown import TopLevel
from repro.core.wrongpath import WrongPathMode
from repro.experiments import error, flops_study, idealization, runner
from repro.experiments.multicore import simulate_socket
from repro.pipeline.core import CoreSimulator, simulate
from repro.viz.ascii import (
    render_boxplot_table,
    render_cpi_stack,
    render_flops_stack,
    render_stack_bar,
    render_table,
)
from repro.viz.export import write_csv

#: Where ``repro paper`` writes, relative to the working directory.
OUT_DIR = Path("results") / "paper"


@dataclass(frozen=True, slots=True)
class Artifact:
    """One table or figure of the paper (see the module docstring)."""

    name: str
    #: Runs the simulations, given the harness keywords ``instructions``,
    #: ``seed``, ``jobs``, ``keep_going`` and ``case_timeout``.
    compute: Callable[[dict[str, Any]], Any]
    #: Emits the text lines; returns the CSV series by name, if any.
    render: Callable[[Any, Callable[..., None]], dict | None]
    facts: Callable[[Any], dict[str, Any]]
    #: Closing lines formatted from the facts; a line whose facts are
    #: missing (failed cases under ``keep_going``) is left out.
    summary: tuple[str, ...]
    claims: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Claim:
    """One claim of one artifact and whether the data carries it."""

    artifact: str
    text: str
    holds: bool
    observed: str


# ---------------------------------------------------------------------------
# Table I and Fig. 1


def _render_table1(rows, emit) -> None:
    emit("Table I: CPI components by idealizing structures")
    emit(render_table(rows))


def _table1_facts(rows) -> dict[str, Any]:
    """Sum of the single deltas and combined delta per complete machine."""
    by_app: dict[str, dict[str, float]] = {}
    for row in rows:
        if row["diff"] is not None:
            by_app.setdefault(row["app"], {})[row["config"]] = row["diff"]
    facts: dict[str, Any] = {}
    # KNL: hidden stalls (both > sum of parts); BDW: overlap (both <).
    for machine, a, b, effect in (
        ("knl", "1-cycle-alu", "perfect-dcache", operator.gt),
        ("bdw", "perfect-bpred", "perfect-dcache", operator.lt),
    ):
        diffs = by_app.get(f"mcf on {machine.upper()}", {})
        if {a, b, f"{a}+{b}"} <= diffs.keys():
            parts, both = diffs[a] + diffs[b], diffs[f"{a}+{b}"]
            facts[f"{machine}_sum"], facts[f"{machine}_both"] = parts, both
            seen = effect(both, parts)
            facts[f"{machine}_seen"] = "REPRODUCED" if seen else "NOT seen"
    return facts


def _render_stages(result, emit) -> None:
    """Fig. 1: the same execution as three stacks."""
    report = result.report
    for stack in (report.dispatch, report.issue, report.commit):
        emit(render_cpi_stack(stack, scale=result.cpi))
        emit()


def _fig1_facts(result) -> dict[str, Any]:
    report = result.report
    return {
        f"{side}_{stage}": sum(
            getattr(report, stage).get(c) for c in components
        )
        for side, components in (("fe", FRONTEND_COMPONENTS),
                                 ("be", BACKEND_COMPONENTS))
        for stage in ("dispatch", "commit")
    }


# ---------------------------------------------------------------------------
# Fig. 2: per-component errors, single stacks vs multi-stage


def _render_fig2(preset: str):
    def render(errors, emit) -> dict:
        emit(
            f"Fig. 2 ({preset.upper()}): error = predicted component - "
            "actual CPI delta"
        )
        for component, points in errors.items():
            if not points:
                continue
            emit(
                f"\ncomponent {component.value} "
                f"({len(points)} benchmarks over threshold):"
            )
            emit(render_boxplot_table(error.summarize_errors(points)))
            within = sum(p.within_bounds for p in points)
            emit(
                f"actual delta within multi-stage bounds: "
                f"{within}/{len(points)}"
            )
        return {"points": [
            {
                "component": component.value,
                "workload": point.workload,
                "actual_delta": point.actual_delta,
                **{f"err_{s.value}": point.errors[s] for s in Stage},
                "err_multi": point.multistage_error,
            }
            for component, points in errors.items() for point in points
        ]}

    return render


def _fig2_facts(errors) -> dict[str, Any]:
    """How often |median| of the multi-stage error is at most a single
    stack's, out of how many (component, stage) comparisons."""
    beats = comparisons = 0
    for points in errors.values():
        if not points:
            continue
        stats = error.summarize_errors(points)
        for stage in Stage:
            comparisons += 1
            single = stats[stage.value]
            if abs(stats["multi"].median) <= abs(single.median) + 1e-9:
                beats += 1
    return {"multi_beats_singles": beats, "comparisons": comparisons}


# ---------------------------------------------------------------------------
# Fig. 3: multi-stage stacks before and after idealization

#: Fact-name prefix of each idealization's run: its registry key.
_IDEAL_PREFIX = {ideal.name: key for key, ideal in IDEALIZATIONS.items()}

_FIG3_COMPONENTS = (
    Component.BPRED, Component.ICACHE, Component.DCACHE,
    Component.ALU_LAT, Component.DEPEND, Component.MICROCODE,
)


def _render_fig3(study, emit) -> None:
    emit(
        f"{study.workload} on {study.preset}: baseline CPI "
        f"{study.baseline.cpi:.3f}"
    )
    _render_stages(study.baseline, emit)
    for name, result in study.idealized.items():
        emit(
            f"{name}: CPI {result.cpi:.3f} "
            f"(delta {study.baseline.cpi - result.cpi:+.3f})"
        )


def _fig3_facts(study) -> dict[str, Any]:
    """The baseline's component CPI per stage (``commit_bpred``) and its
    bounds (``low_alu``, ``high_alu``); per idealization, the delta
    (``delta_bpred``), each stage's error in predicting it
    (``err_commit_dcache``) and the run's dispatch components
    (``dcache_ideal_icache``)."""
    report = study.baseline.report
    facts: dict[str, Any] = {"cpi": study.baseline.cpi}
    for comp in _FIG3_COMPONENTS:
        for stage in ALL_STAGES:
            cpi = report.stack(stage).component_cpi(comp)
            facts[f"{stage.value}_{comp.value}"] = cpi
        low, high = report.component_bounds(comp)
        facts[f"low_{comp.value}"], facts[f"high_{comp.value}"] = low, high
    for name, result in study.idealized.items():
        prefix = _IDEAL_PREFIX[name]
        delta = facts[f"delta_{prefix}"] = study.delta(name)
        for comp in _FIG3_COMPONENTS:
            facts[f"{prefix}_ideal_{comp.value}"] = (
                result.report.dispatch.component_cpi(comp)
            )
        for stage in ALL_STAGES:
            facts[f"err_{stage.value}_{prefix}"] = abs(
                facts[f"{stage.value}_{prefix}"] - delta
            )
    return facts


# ---------------------------------------------------------------------------
# Fig. 4: normalized FLOPS-stack minus CPI-stack differences


def _render_fig4(diffs, emit) -> dict:
    shown = [
        c for c in FlopsComponent
        if any(abs(v.get(c, 0.0)) > 0.001 for v in diffs.values())
    ]
    rows = []
    for (group, preset), values in diffs.items():
        row = {"group": group, "machine": preset}
        row.update({c.value: values.get(c, 0.0) for c in shown})
        rows.append(row)
    emit(
        "Fig. 4: normalized FLOPS-stack component minus CPI-stack "
        "component (sums to 0 per row)"
    )
    emit(render_table(rows, float_format="{:+.3f}"))
    return {"series": rows}


def _fig4_facts(diffs) -> dict[str, Any]:
    knl_sgemm = diffs[("sgemm-train", "knl")]
    compensators = {
        c: v for c, v in knl_sgemm.items()
        if c is not FlopsComponent.BASE and v > 0
    }
    return {
        "max_base": max(v[FlopsComponent.BASE] for v in diffs.values()),
        "base_knl": knl_sgemm[FlopsComponent.BASE],
        "base_skx": diffs[("sgemm-train", "skx")][FlopsComponent.BASE],
        "top_compensator": max(compensators, key=compensators.get).value,
        "max_row_sum": max(abs(sum(v.values())) for v in diffs.values()),
    }


# ---------------------------------------------------------------------------
# Fig. 5: healthy IPC next to poor FLOPS, +/- perfect D-cache

#: Fig. 5's axes: max IPC, and the SKX socket peak (k=2, v=16, 2.1 GHz,
#: 26 cores).
FIG5_MAX_IPC = 4.0
FIG5_PEAK_GFLOPS = 2 * 2 * 16 * 2.1 * 26


def _bar(emit, title, stack, scale, fmt="{:.3f}", order=None) -> None:
    emit(title)
    emit(render_stack_bar(stack, order=order or list(stack), scale=scale,
                          value_format=fmt))


def _render_fig5(case, emit) -> None:
    for idealized, label in ((False, "baseline"), (True, "perfect Dcache")):
        emit(f"--- {label} ---")
        _bar(emit, "IPC stack (height = max IPC = 4):",
             case.ipc_stack(idealized), FIG5_MAX_IPC, "{:.2f}")
        _bar(emit, "FLOPS stack (socket GFLOPS; height = peak):",
             case.flops_stack(idealized), FIG5_PEAK_GFLOPS, "{:,.0f}",
             FLOPS_COMPONENTS)
        emit()


def _fig5_facts(case) -> dict[str, Any]:
    facts = {}
    for prefix, result in (("base", case.baseline),
                           ("ideal", case.perfect_dcache)):
        flops = result.report.flops
        facts[f"{prefix}_ipc"] = result.ipc
        facts[f"{prefix}_frac"] = flops.achieved_fraction()
        facts[f"{prefix}_mem"] = flops.normalized().get(
            FlopsComponent.MEM, 0.0
        )
    facts["ipc_frac"] = facts["base_ipc"] / FIG5_MAX_IPC
    facts["unsched"] = case.baseline.report.flops.get(FlopsComponent.UNSCHED)
    return facts


def _render_fig5_socket(case, emit) -> None:
    config = get_preset(case.preset)
    max_ipc = float(config.accounting_width)
    peak = config.frequency_ghz * config.peak_flops_per_cycle * case.cores
    emit(
        f"Fig. 5 on a simulated {case.cores}-core socket "
        f"({case.workload}@{case.preset}, shared-memory engine "
        "(shared L3/DRAM, barrier sync))"
    )
    for idealized, label in ((False, "baseline"), (True, "perfect Dcache")):
        emit(f"--- {label} ---")
        for core in range(case.cores):
            _bar(emit, f"core {core} IPC stack (height = max IPC):",
                 case.core_ipc_stack(core, idealized), max_ipc)
        _bar(emit, "socket IPC stack (per-core average):",
             case.ipc_stack(idealized), max_ipc)
        _bar(emit, f"socket FLOPS stack ({case.cores}-core GFLOPS):",
             case.flops_stack(idealized), peak, "{:,.0f}", FLOPS_COMPONENTS)
        emit()


def _fig5_socket_facts(case) -> dict[str, Any]:
    # The imbalanced decomposition makes the cores wait at the barriers,
    # which their commit stacks book as Unsched.
    unsched = [r.report.commit.get(Component.UNSCHED) for r in case.baseline]
    return {
        "min_unsched": min(unsched),
        "unsched": "/".join(f"{c:.0f}" for c in unsched),
    }


# ---------------------------------------------------------------------------
# Socket aggregation (Sec. IV): homogeneous threads, averaged and summed

#: Threads and default trace length of the aggregation artifact.
AGGREGATION_THREADS = 4
AGGREGATION_INSTRUCTIONS = 8000


def _compute_aggregation(batch: dict[str, Any]):
    return simulate_socket(
        "gemm-train-1760-skx", skylake_x(), threads=AGGREGATION_THREADS,
        instructions=batch["instructions"] or AGGREGATION_INSTRUCTIONS,
        base_seed=batch["seed"], jobs=batch["jobs"],
        keep_going=batch["keep_going"], case_timeout=batch["case_timeout"],
        homogeneous=True,
    )


def _render_aggregation(result, emit) -> None:
    threads = AGGREGATION_THREADS
    emit(
        f"{threads}-thread socket aggregate of gemm-train-1760 on SKX "
        f"(homogeneity: max CPI deviation "
        f"{100 * result.homogeneity():.1f}%)"
    )
    emit(render_cpi_stack(result.commit))
    emit()
    emit(render_flops_stack(result.flops, 2.1, cores=threads))
    emit(
        f"socket: {result.socket_gflops():,.0f} GFLOPS over "
        f"{threads} threads"
    )


def _aggregation_facts(result) -> dict[str, Any]:
    single = result.per_thread[0].report.commit
    return {
        "homogeneity": result.homogeneity(),
        "max_component_gap": max(
            abs(result.commit.component_cpi(c) - single.component_cpi(c))
            for c in CPI_COMPONENTS
        ),
        "single_cpi": single.cpi(),
        "socket_gflops": result.socket_gflops(),
        "threads": AGGREGATION_THREADS,
        "thread_gflops": result.flops.gflops(2.1),
    }


# ---------------------------------------------------------------------------
# Ablations (Sec. III) and the top-down critique (Sec. II): direct
# simulations of one BDW trace, warmed up over its first third


def _trace(workload: str, batch: dict[str, Any]):
    """The workload's trace and its warmup instruction count."""
    trace = runner.get_trace(workload, batch["instructions"], batch["seed"])
    return trace, len(trace) // 3


#: L2 MSHR file sizes swept on the Fig. 3c contention case.
MSHR_SWEEP = (4, 8, 16, 64)


def _compute_mshr(batch: dict[str, Any]):
    """The Fig. 3c mechanism needs a finite L2 MSHR file: the queueing
    delay collapses as the file grows."""
    trace, warmup = _trace("bwaves", batch)
    out = {}
    for mshrs in MSHR_SWEEP:
        config = broadwell()
        memory = replace(
            config.memory, l2=replace(config.memory.l2, mshrs=mshrs)
        )
        out[mshrs] = simulate(
            trace, replace(config, memory=memory),
            warmup_instructions=warmup,
        )
    return out


def _render_mshr(results, emit) -> None:
    rows = []
    for mshrs, result in results.items():
        stats = result.memory_stats["l2_mshr"]
        rows.append(
            {
                "l2 mshrs": mshrs,
                "cpi": result.cpi,
                "avg mshr wait": stats["avg_wait"],
                "max mshr wait": stats["max_wait"],
            }
        )
    emit("L2 MSHR sweep (bwaves on BDW):")
    emit(render_table(rows))


def _mshr_facts(results) -> dict[str, Any]:
    fewest, most = results[MSHR_SWEEP[0]], results[MSHR_SWEEP[-1]]
    return {
        "fewest_mshrs_wait": fewest.memory_stats["l2_mshr"]["avg_wait"],
        "most_mshrs_wait": most.memory_stats["l2_mshr"]["avg_wait"],
        "fewest_mshrs_cpi": fewest.cpi,
        "most_mshrs_cpi": most.cpi,
    }


def _compute_prefetcher(batch: dict[str, Any]):
    """With the stream prefetcher off, bwaves pays demand latency but
    its L2 MSHRs decongest: the prefetch-contention mechanism behind
    Fig. 3c's 'a perfect I-cache gains nothing'."""
    trace, warmup = _trace("bwaves", batch)
    out = {}
    for label, enabled in (("prefetch on", True), ("prefetch off", False)):
        config = broadwell()
        memory = replace(
            config.memory,
            prefetcher=replace(config.memory.prefetcher, enabled=enabled),
        )
        config = replace(config, memory=memory)
        baseline = simulate(trace, config, warmup_instructions=warmup)
        ideal = simulate(
            trace,
            replace(config, perfect_icache=True),
            warmup_instructions=warmup,
        )
        out[label] = (baseline, ideal)
    return out


def _render_prefetcher(results, emit) -> None:
    rows = []
    for label, (baseline, ideal) in results.items():
        rows.append(
            {
                "config": label,
                "cpi": baseline.cpi,
                "dcache(commit)": baseline.report.commit.component_cpi(
                    Component.DCACHE
                ),
                "icache(max)": max(
                    baseline.report.stack(s).component_cpi(
                        Component.ICACHE
                    )
                    for s in baseline.report.stacks
                ),
                "perfect-L1I delta": baseline.cpi - ideal.cpi,
                "l2 mshr avg wait": baseline.memory_stats["l2_mshr"][
                    "avg_wait"
                ],
            }
        )
    emit("Prefetcher ablation (bwaves on BDW):")
    emit(render_table(rows))


def _prefetcher_facts(results) -> dict[str, Any]:
    facts = {}
    for prefix, label in (("on", "prefetch on"), ("off", "prefetch off")):
        baseline, ideal = results[label]
        facts[f"{prefix}_cpi"] = baseline.cpi
        facts[f"{prefix}_delta"] = baseline.cpi - ideal.cpi
        facts[f"{prefix}_wait"] = baseline.memory_stats["l2_mshr"]["avg_wait"]
    return facts


def _compute_width(batch: dict[str, Any]):
    """Sec. III-A: the paper's min-width normalization against the
    issue stage's native (wider) width."""
    trace, warmup = _trace("exchange2", batch)
    config = broadwell()  # dispatch/commit 4-wide, issue 8-wide
    out = {}
    for label, width in (("min-width (paper)", None),
                         ("native issue width", config.issue_width)):
        sim = CoreSimulator(trace, config, accounting_width=width,
                            warmup_instructions=warmup)
        out[label] = sim.run()
    return out


def _render_width(results, emit) -> None:
    rows = []
    for label, result in results.items():
        issue = result.report.issue
        rows.append(
            {
                "scheme": label,
                "issue base": issue.component_cpi(Component.BASE),
                "commit base": result.report.commit.component_cpi(
                    Component.BASE
                ),
                "issue stall cycles": issue.total()
                - issue.get(Component.BASE),
            }
        )
    emit("Width normalization ablation (exchange2 on BDW: ILP-saturated)")
    emit(render_table(rows))


def _width_facts(results) -> dict[str, Any]:
    """Base and stall cycles of each scheme's issue stack."""
    facts = {}
    for prefix, label in (("paper", "min-width (paper)"),
                          ("naive", "native issue width")):
        report = results[label].report
        base = report.issue.get(Component.BASE)
        facts[f"{prefix}_issue_base"] = base
        facts[f"{prefix}_stalls"] = report.issue.total() - base
    paper = results["min-width (paper)"].report
    facts["paper_commit_base"] = paper.commit.get(Component.BASE)
    facts["paper_issue_cycles"] = paper.issue.cycles
    return facts


def _compute_wrongpath(batch: dict[str, Any]):
    """Sec. III-B: the three wrong-path discernment strategies on a
    mispredict-heavy workload."""
    trace, warmup = _trace("leela", batch)
    config = broadwell()
    return {
        mode: simulate(trace, config, mode=mode, warmup_instructions=warmup)
        for mode in WrongPathMode
    }


def _render_wrongpath(results, emit) -> None:
    stacks = {m: r.report.dispatch for m, r in results.items()}
    rows = []
    for component in CPI_COMPONENTS:
        values = {
            m.value: stacks[m].component_cpi(component)
            for m in WrongPathMode
        }
        if any(v > 0.001 for v in values.values()):
            rows.append({"component": component.value, **values})
    emit("Dispatch-stage CPI components by wrong-path strategy "
         "(leela on BDW):")
    emit(render_table(rows))


def _wrongpath_facts(results) -> dict[str, Any]:
    """Each hardware-feasible strategy's dispatch bpred error against
    EXACT, and how many distinct cycle counts the modes ran."""
    bpred = {
        mode: result.report.dispatch.component_cpi(Component.BPRED)
        for mode, result in results.items()
    }
    exact = bpred[WrongPathMode.EXACT]
    return {
        "exact_bpred": exact,
        "simple_err": abs(bpred[WrongPathMode.SIMPLE] - exact),
        "speculative_err": abs(bpred[WrongPathMode.SPECULATIVE] - exact),
        "distinct_cycles": len({r.cycles for r in results.values()}),
    }


def _compute_topdown(batch: dict[str, Any]):
    """Sec. II: bwaves stalls the frontend (I-cache misses behind
    contended L2 MSHRs) and the backend (streaming loads) at once."""
    trace, warmup = _trace("bwaves", batch)
    baseline = simulate(trace, broadwell(), warmup_instructions=warmup,
                        topdown=True)
    runs = [
        runner.run_case("bwaves", "bdw", idealization=ideal,
                        instructions=batch["instructions"], seed=batch["seed"])
        for ideal in (PERFECT_ICACHE, PERFECT_DCACHE)
    ]
    return baseline, *runs


def _render_topdown(results, emit) -> None:
    fractions = results[0].report.topdown.level1_fractions()
    emit("Top-down level 1 (bwaves on BDW):")
    emit(render_table([{
        level.value: fractions[level] for level in TopLevel
    }]))


def _topdown_facts(results) -> dict[str, Any]:
    """Top-down's level-1 frontend share against the actual frontend and
    backend idealization deltas and the multi-stage commit D-cache
    component."""
    baseline, perfect_i, perfect_d = results
    fractions = baseline.report.topdown.level1_fractions()
    return {
        "frontend_bound": fractions[TopLevel.FRONTEND_BOUND],
        "fe_delta": baseline.cpi - perfect_i.cpi,
        "be_delta": baseline.cpi - perfect_d.cpi,
        "commit_dcache": baseline.report.commit.component_cpi(
            Component.DCACHE
        ),
    }


# ---------------------------------------------------------------------------
# the table


def _fig2(preset: str) -> Artifact:
    return Artifact(
        f"fig2-{preset}", lambda batch: error.figure2_errors(preset, **batch),
        _render_fig2(preset), _fig2_facts,
        ("\nmulti-stage median error <= single-stack median error in "
         "{multi_beats_singles}/{comparisons} comparisons",),
        ("multi_beats_singles >= 0.7 * comparisons",),
    )


def _fig3(case: str, summary: tuple[str, ...], claims: tuple[str, ...]):
    return Artifact(
        case, lambda batch: idealization.fig3_case(case, **batch),
        _render_fig3, _fig3_facts, summary, claims,
    )


ARTIFACTS: dict[str, Artifact] = {a.name: a for a in (
    Artifact(
        "table1", lambda batch: idealization.table1_rows(**batch),
        _render_table1, _table1_facts,
        ("\nKNL: sum of parts {knl_sum:.3f} vs combined {knl_both:.3f} "
         "-> hidden stalls {knl_seen}",
         "BDW: sum of parts {bdw_sum:.3f} vs combined {bdw_both:.3f} "
         "-> overlap {bdw_seen}"),
        ("knl_both > knl_sum", "bdw_both < bdw_sum"),
    ),
    Artifact(
        "fig1", lambda batch: runner.run_case(
            "mcf", "bdw", instructions=batch["instructions"],
            seed=batch["seed"],
        ),
        _render_stages, _fig1_facts,
        ("frontend cycles: dispatch {fe_dispatch:.0f} >= commit "
         "{fe_commit:.0f}; backend cycles: commit {be_commit:.0f} >= "
         "dispatch {be_dispatch:.0f}",),
        ("fe_dispatch > fe_commit", "be_commit > be_dispatch"),
    ),
    _fig2("bdw"),
    _fig2("knl"),
    # The bpred delta may exceed the dispatch component by a margin:
    # squashing in-flight chase loads makes each misprediction slightly
    # costlier than frontend-only accounting sees.
    _fig3("fig3a",
          ("\nbpred: dispatch {dispatch_bpred:.3f} / commit "
           "{commit_bpred:.3f} / actual {delta_bpred:.3f}",
           "dcache: dispatch err {err_dispatch_dcache:.3f} vs commit err "
           "{err_commit_dcache:.3f}"),
          ("dispatch_bpred > commit_bpred",
           "commit_bpred - 0.05 <= delta_bpred <= 1.3 * dispatch_bpred",
           "err_commit_dcache < err_dispatch_dcache")),
    # Sec. V-A: "the Icache component reduces when the L1 Dcache is made
    # perfect" (unified-L2 coupling).
    _fig3("fig3b",
          ("\nicache component: baseline {dispatch_icache:.3f} -> "
           "{dcache_ideal_icache:.3f} with a perfect D-cache (unified-L2 "
           "coupling)",),
          ("dcache_ideal_icache < 0.6 * dispatch_icache",)),
    # Paper: "the observed reduction is less than 0.01".
    _fig3("fig3c",
          ("\nicache component up to {high_icache:.3f}, but a perfect L1I "
           "gains only {delta_icache:+.3f} CPI (queueing transfers to the "
           "contended L2 MSHRs); a perfect D-cache gains "
           "{delta_dcache:+.3f}.",),
          ("high_icache > 0.15 * cpi",
           "abs(delta_icache) < 0.05 * high_icache",
           "delta_dcache > 0.4 * cpi")),
    _fig3("fig3d",
          ("\nMicrocode component at dispatch: {dispatch_microcode:.3f}",
           "1-cycle ALU delta {delta_alu:.3f} vs bounds [{low_alu:.3f}, "
           "{high_alu:.3f}]"),
          ("dispatch_microcode > 0", "delta_alu <= high_alu + 0.05",
           "low_bpred - 0.05 <= delta_bpred <= high_bpred + 0.05")),
    # The issue stack's producer lookup blames the multi-cycle op that
    # dispatch/commit call `depend`; the gain also recovers the
    # dependence stalls the chain caused.
    _fig3("fig3e",
          ("\nissue alu {issue_alu:.3f} vs commit alu {commit_alu:.3f} "
           "(+ commit depend {commit_depend:.3f})",
           "1-cycle ALU delta {delta_alu:.3f} ~ issue component "
           "{issue_alu:.3f} (+ recovered dependences)"),
          ("issue_alu > commit_alu", "delta_alu >= 0.8 * issue_alu")),
    Artifact(
        "fig4", lambda batch: flops_study.figure4_differences(**batch),
        _render_fig4, _fig4_facts,
        ("\nbase diff sgemm-train: KNL {base_knl:+.3f} vs SKX "
         "{base_skx:+.3f}",),
        ("max_base < 0", "base_knl < 3 * base_skx",
         "top_compensator == 'mem'", "max_row_sum < 1e-9"),
    ),
    Artifact(
        "fig5", lambda batch: flops_study.figure5_case(**batch),
        _render_fig5, _fig5_facts,
        ("baseline: IPC at {ipc_frac:.0%} of max while FLOPS at "
         "{base_frac:.0%} of peak",
         "perfect Dcache: FLOPS {base_frac:.0%} -> {ideal_frac:.0%}, "
         "mem component {base_mem:.1%} -> {ideal_mem:.1%}"),
        ("ipc_frac > 0.7", "base_frac < 0.55", "ipc_frac - base_frac > 0.2",
         "ideal_ipc > base_ipc", "ideal_frac > base_frac",
         "ideal_mem < base_mem", "unsched > 0"),
    ),
    Artifact(
        "fig5-socket",
        lambda batch: flops_study.figure5_socket_case(**batch),
        _render_fig5_socket, _fig5_socket_facts,
        ("baseline commit-stack Unsched cycles per core: {unsched}",),
        ("min_unsched > 0",),
    ),
    Artifact(
        "socket-aggregation", _compute_aggregation, _render_aggregation,
        _aggregation_facts, (),
        ("homogeneity < 0.1",
         "max_component_gap < 0.1 * max(single_cpi, 1e-9) + 1e-6",
         "socket_gflops == threads * thread_gflops"),
    ),
    Artifact(
        "ablation-mshr", _compute_mshr, _render_mshr, _mshr_facts, (),
        ("fewest_mshrs_wait > most_mshrs_wait",
         "fewest_mshrs_cpi >= most_mshrs_cpi"),
    ),
    # The prefetcher hides the stream latency overall, but congests the
    # L2 MSHRs, which is what nullifies the perfect-icache gain.
    Artifact(
        "ablation-prefetcher", _compute_prefetcher, _render_prefetcher,
        _prefetcher_facts,
        ("\nperfect-L1I delta: {on_delta:+.3f} with prefetch vs "
         "{off_delta:+.3f} without",),
        ("on_cpi < off_cpi", "on_wait > off_wait"),
    ),
    # Paper scheme: base (nearly) equal across stages, tiny issue stalls.
    # Naive scheme: the 8-wide issue stage can never average more than 4
    # uops/cycle here, so its base halves and fake stalls appear.
    Artifact(
        "ablation-width", _compute_width, _render_width, _width_facts,
        ("\nspurious issue stall cycles: naive {naive_stalls:.0f} vs "
         "paper scheme {paper_stalls:.0f}",),
        ("abs(paper_issue_base - paper_commit_base) "
         "<= 0.02 * paper_issue_cycles",
         "naive_issue_base < 0.7 * paper_issue_base",
         "naive_stalls > 2 * paper_stalls"),
    ),
    # The hardware-feasible strategies stay within 15% of the exact
    # bpred component, and accounting never perturbs timing.
    Artifact(
        "ablation-wrongpath", _compute_wrongpath, _render_wrongpath,
        _wrongpath_facts,
        ("simple: |bpred - exact| = {simple_err:.4f} CPI",
         "speculative: |bpred - exact| = {speculative_err:.4f} CPI"),
        ("simple_err < 0.15 * exact_bpred",
         "speculative_err < 0.15 * exact_bpred", "distinct_cycles == 1"),
    ),
    # Top-down's level 1 charges a visible share to the frontend, but the
    # real frontend gain is negligible while the backend gain is large,
    # and the multi-stage commit stack points at the backend.
    Artifact(
        "topdown", _compute_topdown, _render_topdown, _topdown_facts,
        ("\nactual frontend (perfect-L1I) delta: {fe_delta:+.3f} CPI; "
         "actual backend (perfect-D$) delta: {be_delta:+.3f} CPI",
         "multi-stage commit dcache component: {commit_dcache:.3f} CPI "
         "(the backend signal top-down's level 1 buries)"),
        ("frontend_bound > 0.05", "abs(fe_delta) < 0.1 * be_delta",
         "commit_dcache > 0.5 * be_delta"),
    ),
)}


def _shown(value: Any) -> str:
    if not isinstance(value, float):
        return str(value)
    return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def _check(artifact: str, text: str, facts: dict[str, Any]) -> Claim:
    """Evaluate one claim over its artifact's facts; a claim whose facts
    are missing fails with ``observed`` = ``no data``."""
    code = compile(text, text, "eval")
    scope = {"__builtins__": {"abs": abs, "max": max}}
    try:
        holds = bool(eval(code, scope, facts))
    except NameError:
        return Claim(artifact, text, False, "no data")
    observed = ", ".join(
        f"{name}={_shown(facts[name])}"
        for name in code.co_names if name in facts
    )
    return Claim(artifact, text, holds, observed)


def run_artifacts(
    names: Iterable[str], out_dir: Path = OUT_DIR, *,
    instructions: int | None = None, seed: int = 1,
    jobs: int | str | None = None, keep_going: bool = False,
    case_timeout: float | None = None,
    echo: Callable[[str], None] = lambda text: None,
) -> list[Claim]:
    """Compute, write and check the named artifacts, in table order.

    Each artifact's text lands in ``out_dir/<name>.txt`` and each CSV
    series in ``out_dir/<name>.<series>.csv``; ``echo`` receives each
    page as it is written.
    """
    batch = {
        "instructions": instructions, "seed": seed, "jobs": jobs,
        "keep_going": keep_going, "case_timeout": case_timeout,
    }
    wanted = set(names)
    out_dir.mkdir(parents=True, exist_ok=True)
    claims: list[Claim] = []
    for artifact in ARTIFACTS.values():
        if artifact.name not in wanted:
            continue
        data = artifact.compute(batch)
        lines: list[str] = []
        series = artifact.render(data, lambda text="": lines.append(text))
        try:
            facts = artifact.facts(data)
        except KeyError:  # a failed case under keep_going
            facts = {}
        for line in artifact.summary:
            try:
                lines.append(line.format(**facts))
            except KeyError:
                pass
        text = "\n".join(lines) + "\n"
        path = out_dir / f"{artifact.name}.txt"
        path.write_text(text)
        for suffix, rows in (series or {}).items():
            write_csv(out_dir / f"{artifact.name}.{suffix}.csv", rows)
        echo(f"=== {artifact.name} ({path}) ===\n{text}")
        claims.extend(_check(artifact.name, c, facts) for c in artifact.claims)
    return claims


def render_claims(claims: list[Claim]) -> str:
    """The claims table plus a closing count."""
    rows = [
        {"artifact": c.artifact, "claim": c.text, "observed": c.observed,
         "verdict": "holds" if c.holds else "FAILS"}
        for c in claims
    ]
    held = sum(c.holds for c in claims)
    return f"{render_table(rows)}\n{held} of {len(claims)} claims hold"
