"""Tests for the experiment harness (small trace sizes to stay fast)."""

import pytest

from repro.config.idealize import PERFECT_DCACHE, SINGLE_CYCLE_ALU
from repro.core.components import Component, FlopsComponent
from repro.core.multistage import Stage
from repro.experiments.error import (
    ComponentError,
    figure2_errors,
    summarize_errors,
)
from repro.experiments.flops_study import (
    figure4_differences,
    figure5_case,
    stack_difference,
)
from repro.experiments.idealization import (
    FIG3_CASES,
    fig3_case,
    run_study,
)
from repro.experiments.overhead import measure_overhead
from repro.experiments.runner import clear_cache, get_trace, run_case

N = 3000  # small traces: these tests exercise plumbing, not shapes


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_run_case_caches_results():
    a = run_case("exchange2", "tiny", instructions=N)
    b = run_case("exchange2", "tiny", instructions=N)
    assert a is b
    c = run_case("exchange2", "tiny", instructions=N, use_cache=False)
    assert c is not a
    assert c.cycles == a.cycles


def test_trace_shared_between_baseline_and_idealized():
    """Baseline and idealized runs must replay the identical program."""
    t1 = get_trace("mcf", N, 1)
    t2 = get_trace("mcf", N, 1)
    assert t1 is t2


def test_run_case_applies_idealization():
    base = run_case("imagick", "tiny", instructions=N)
    ideal = run_case("imagick", "tiny", instructions=N,
                     idealization=SINGLE_CYCLE_ALU)
    assert ideal.cycles < base.cycles


def test_run_study_deltas_and_coverage():
    study = run_study("imagick", "tiny", (SINGLE_CYCLE_ALU,),
                      instructions=N)
    delta = study.delta(SINGLE_CYCLE_ALU.name)
    assert delta > 0
    covered = study.covered(SINGLE_CYCLE_ALU)
    assert Component.ALU_LAT in covered


def test_fig3_case_registry():
    assert set(FIG3_CASES) == {"fig3a", "fig3b", "fig3c", "fig3d", "fig3e"}
    with pytest.raises(KeyError):
        fig3_case("fig3z")


def test_figure2_error_points_have_consistent_fields():
    errors = figure2_errors(
        "tiny", workloads=("mcf", "imagick"), instructions=N,
        threshold=0.05,
    )
    points = [p for plist in errors.values() for p in plist]
    assert points, "the filter should keep at least one component"
    for point in points:
        for stage in Stage:
            assert point.errors[stage] == pytest.approx(
                point.predicted[stage] - point.actual_delta
            )
        low = min(point.predicted.values())
        high = max(point.predicted.values())
        if low <= point.actual_delta <= high:
            assert point.within_bounds
        else:
            assert point.multistage_error != 0.0


def test_figure2_filter_drops_insignificant_components():
    # exchange2 is compute-bound: with a high threshold nothing survives.
    errors = figure2_errors("tiny", workloads=("exchange2",),
                            instructions=N, threshold=0.5)
    assert all(not points for points in errors.values())


def test_summarize_errors():
    point = ComponentError(
        workload="w", preset="p", component=Component.DCACHE,
        actual_delta=0.5,
        predicted={s: 0.6 for s in Stage},
        errors={s: 0.1 for s in Stage},
        multistage_error=0.1,
    )
    stats = summarize_errors([point])
    assert set(stats) == {"dispatch", "issue", "commit", "multi"}
    assert stats["multi"].median == pytest.approx(0.1)
    assert summarize_errors([]) == {}


def test_stack_difference_sums_to_zero():
    result = run_case("gemm-train-1760-knl", "knl", instructions=N)
    diff = stack_difference(result)
    assert sum(diff.values()) == pytest.approx(0.0, abs=1e-9)


def test_figure4_runs_one_group():
    diffs = figure4_differences(
        presets=("knl",), groups=("sgemm-train",), instructions=N)
    assert ("sgemm-train", "knl") in diffs
    values = diffs[("sgemm-train", "knl")]
    assert sum(values.values()) == pytest.approx(0.0, abs=1e-9)
    # The paper's headline: the FLOPS base is below the CPI base on KNL.
    assert values[FlopsComponent.BASE] < 0


def test_figure5_case_shapes():
    case = figure5_case(instructions=N)
    ipc = case.ipc_stack()
    assert sum(ipc.values()) == pytest.approx(4.0)
    flops = case.flops_stack()
    peak = 2 * 2 * 16 * 2.1 * 26
    assert sum(flops.values()) == pytest.approx(peak)
    # Perfect Dcache shrinks the FLOPS mem component.
    assert case.flops_stack(idealized=True).get(
        FlopsComponent.MEM, 0.0
    ) <= case.flops_stack().get(FlopsComponent.MEM, 0.0) + 1e-9


def test_overhead_measurement():
    result = measure_overhead("exchange2", "tiny", instructions=2000,
                              repeats=1)
    assert result.seconds_with > 0
    assert result.seconds_without > 0
    assert result.cycles > 0
    # overhead_fraction is finite and plausible (pure-Python accountants
    # cost more than Sniper's C++, but not orders of magnitude).
    assert -0.5 < result.overhead_fraction < 5.0


def test_table1_rows_structure():
    from repro.experiments.idealization import table1_rows

    rows = table1_rows(instructions=3000)
    assert len(rows) == 8  # 2 machines x (baseline + 3 idealizations)
    apps = {row["app"] for row in rows}
    assert apps == {"mcf on KNL", "mcf on BDW"}
    baselines = [r for r in rows if r["diff"] is None]
    assert len(baselines) == 2
    for row in rows:
        if row["diff"] is not None:
            base = next(r for r in baselines if r["app"] == row["app"])
            assert row["diff"] == pytest.approx(base["cpi"] - row["cpi"])


def test_all_single_idealizations():
    from repro.experiments.idealization import all_single_idealizations

    ideals = all_single_idealizations()
    assert len(ideals) == 4
    names = {i.name for i in ideals}
    assert names == {"perfect-icache", "perfect-dcache", "perfect-bpred",
                     "1-cycle-alu"}


def test_ablations_are_cached_harness_cases(tmp_path):
    """The ablation and top-down artifacts resolve through the harness:
    a cold pass counts every case, and a second pass over the same
    cache simulates nothing and serves every lookup from memo or disk."""
    from repro.experiments import paper
    from repro.experiments.cache import TELEMETRY

    counted = ("sim_invocations", "fused_runs_saved", "memo_hits",
               "disk_hits")
    passes = []
    for _ in range(2):
        before = TELEMETRY.counters()
        paper.run_artifacts(["ablation-width", "topdown"], tmp_path,
                            instructions=1500, jobs=1)
        after = TELEMETRY.counters()
        passes.append({k: after[k] - before[k] for k in counted})
        pages = [(tmp_path / f"{name}.txt").read_text()
                 for name in ("ablation-width", "topdown")]
        passes[-1]["pages"] = pages
        clear_cache(disk=False)  # a fresh session over the same disk
    cold, warm = passes
    # One run per accounting width, plus three top-down cases.
    assert cold["sim_invocations"] == 5 and cold["fused_runs_saved"] == 0
    assert warm["sim_invocations"] == 0
    assert warm["memo_hits"] + warm["disk_hits"] == 5
    assert warm["pages"] == cold["pages"]


def test_ablation_case_labels_tell_machines_and_widths_apart(monkeypatch):
    """Ablation and top-down cases that differ in machine or in
    accounting width have distinct labels: a modified machine carries a
    digest of its config, a non-default accounting width its value, and
    preset labels are unchanged."""
    import json

    from repro.experiments import paper

    monkeypatch.setattr(paper, "_resolve", lambda batch, cases: cases)
    batch = {"instructions": 1500, "seed": 1}
    specs = []
    for name in ("ablation-mshr", "ablation-prefetcher", "ablation-width",
                 "ablation-wrongpath", "topdown"):
        specs += paper.ARTIFACTS[name].compute(batch).values()
    measured_on: dict[str, set] = {}
    for spec in specs:
        fp = spec.fingerprint()
        measured_on.setdefault(spec.label(), set()).add(json.dumps(
            [fp["config"], fp["idealization"], spec.accounting_width],
            sort_keys=True,
        ))
    assert all(len(m) == 1 for m in measured_on.values()), measured_on
    mshr = paper.ARTIFACTS["ablation-mshr"].compute(batch)
    assert len({spec.label() for spec in mshr.values()}) == 4
    width = paper.ARTIFACTS["ablation-width"].compute(batch)
    assert [spec.label() for spec in width.values()] == [
        "exchange2@bdw", "exchange2@bdw#w8",
    ]
    topdown = paper.ARTIFACTS["topdown"].compute(batch)
    assert [spec.label() for spec in topdown.values()] == [
        "bwaves@bdw#td", "bwaves@bdw+perfect-icache",
        "bwaves@bdw+perfect-dcache",
    ]
