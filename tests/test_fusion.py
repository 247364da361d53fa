"""Content-shared execution: bitwise parity and plumbing.

Fusion (``run_cases(..., fuse=True)``, the default) groups cache-missing
cases that differ only in what their trace is called — one name-free
case key and equal trace content — and runs each group as one
simulation.  Every simulation carries exactly one collector, so cases
differing in accounting configuration are distinct simulations.  The
guarantees pinned here:

* every shared member's result is bitwise identical to its unfused run,
  re-stamped with its own program name — across workloads, presets,
  wrong-path modes and warmup fractions, with the fast-forward/replay
  skip engines engaged, serially and in spawn and fork pools;
* the collector never perturbs the timing: one run per collector spec
  (multi-stage, top-down, accounting off, non-default accounting width)
  gives the same cycle count and timing-side fields (the timing oracle);
* a run under every collector spec checkpoints and resumes mid-flight
  bitwise;
* shared members land in the disk cache under their own per-case keys
  (warm reruns need zero simulator invocations), and the pre-existing
  cache keys of default-accounting cases are unchanged;
* the batch summary line and telemetry report fused groups / runs saved;
* the Fig. 4 kernels share runs, while traces differing in a single
  micro-op field never do;
* ``Job`` construction rejects malformed memberships.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.config.idealize import PERFECT_BPRED, PERFECT_DCACHE
from repro.core.wrongpath import WrongPathMode
from repro.experiments import parallel, runner
from repro.experiments.cache import TELEMETRY, CaseSpec, Job
from repro.experiments.parallel import run_cases
from repro.isa.instructions import Program
from repro.pipeline import checkpoint as ckpt
from repro.workloads.base import WorkloadSpec
from repro.workloads.registry import WORKLOADS, make_trace

N = 2500


def _start_method() -> str:
    """Pool start method for the pool tests (CI runs them under spawn)."""
    return os.environ.get("REPRO_TEST_START_METHOD", "fork")


@pytest.fixture(autouse=True)
def _fresh_harness():
    runner.clear_cache()
    TELEMETRY.reset()
    yield
    runner.clear_cache()
    TELEMETRY.reset()


def _comparable(result) -> dict:
    """Everything that must be bitwise identical between a fused and an
    unfused run: all but host wall time and the skip-engine counters,
    which are host-side observability."""
    payload = result.to_dict()
    for key in (
        "wall_seconds",
        "ff_windows",
        "ff_cycles_skipped",
        "replay_windows",
        "replay_cycles_skipped",
    ):
        payload.pop(key)
    return payload


def _register(monkeypatch, program: Program) -> None:
    """Make ``program`` the trace of the workload of the same name."""
    monkeypatch.setitem(
        WORKLOADS, program.name,
        WorkloadSpec(program.name, program.name, "fusion twin",
                     lambda n, s, p=program: p),
    )


@pytest.fixture
def twins(monkeypatch):
    """``twins(workload, preset, **fields)``: the case of ``workload``
    followed by two cases whose workloads are exact copies of its trace
    under other names.  The real workload comes first, so it is its
    group's representative and a spawned worker can build its trace."""

    def make(workload: str, preset: str = "tiny", **fields):
        base = make_trace(workload, N, 1)
        names = [workload]
        for i in (1, 2):
            twin = Program(f"twin{i}-{workload}", list(base.instructions))
            _register(monkeypatch, twin)
            names.append(twin.name)
        return [
            CaseSpec(workload=name, preset=preset, instructions=N, **fields)
            for name in names
        ]

    return make


def _variant_specs(
    workload: str = "mcf",
    preset: str = "tiny",
    *,
    mode: WrongPathMode = WrongPathMode.EXACT,
    warmup_fraction: float = 0.0,
) -> list[CaseSpec]:
    """One trace, four accounting configurations: four simulations."""
    base = dict(
        workload=workload,
        preset=preset,
        instructions=N,
        mode=mode,
        warmup_fraction=warmup_fraction,
    )
    return [
        CaseSpec(**base),
        CaseSpec(**base, topdown=True),
        CaseSpec(**base, accounting=False),
        CaseSpec(**base, accounting_width=2),
    ]


def _stamped_names(result) -> set[str]:
    report = result.report
    stacks = (report.dispatch, report.issue, report.commit, report.flops)
    return {result.name, report.name, *(stack.name for stack in stacks)}


def _run_both_ways(specs: list[CaseSpec], **kwargs) -> tuple[list, list]:
    """Run the same batch unfused then fused, cache-free, serially."""
    unfused = run_cases(specs, jobs=1, use_cache=False, fuse=False, **kwargs)
    runner.clear_cache()
    fused = run_cases(specs, jobs=1, use_cache=False, fuse=True, **kwargs)
    return unfused, fused


def _assert_shared(specs, unfused, fused) -> None:
    """Each fused result equals its unfused run, under its own name."""
    for spec, a, b in zip(specs, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()
        assert _stamped_names(b) == {a.name}, spec.label()


# ---------------------------------------------------------------------------
# differential matrix: a shared member is bitwise identical to its own run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0.0, 0.3])
def test_fused_matches_unfused_across_modes_and_warmup(twins, mode, warmup):
    specs = twins("mcf", mode=mode, warmup_fraction=warmup)
    unfused, fused = _run_both_ways(specs)
    assert parallel.LAST_BATCH.simulated == 1
    _assert_shared(specs, unfused, fused)


@pytest.mark.parametrize(
    "workload, preset",
    [("chase", "tiny"), ("exchange2", "bdw"), ("spin", "knl")],
)
def test_fused_matches_unfused_across_machines(twins, workload, preset):
    specs = twins(workload, preset)
    unfused, fused = _run_both_ways(specs)
    assert parallel.LAST_BATCH.simulated == 1
    _assert_shared(specs, unfused, fused)


def test_fused_matches_unfused_with_skip_engines(twins):
    # ``spin`` has quiescent and steady-state stretches the skip engines
    # actually engage on.
    specs = twins("spin", warmup_fraction=0.2)
    unfused, fused = _run_both_ways(specs)
    assert all(r.ff_windows and r.replay_windows for r in fused)
    _assert_shared(specs, unfused, fused)


def test_fused_mixed_batch_with_distinct_timings(twins):
    """Shared members mixed with cases of their own — another trace, an
    idealized machine, another collector on the same trace: grouping
    must not disturb spec order, dedup, or the singletons' results."""
    shared = twins("mcf")
    singles = [
        CaseSpec(workload="bwaves", preset="tiny", instructions=N),
        CaseSpec(
            workload="mcf", preset="tiny", instructions=N,
            idealization=PERFECT_DCACHE,
        ),
        CaseSpec(workload="mcf", preset="tiny", instructions=N,
                 topdown=True),
    ]
    specs = shared + singles + [shared[0]]  # plus one duplicate
    unfused, fused = _run_both_ways(specs)
    assert parallel.LAST_BATCH.simulated == 1 + len(singles)
    _assert_shared(specs, unfused, fused)
    assert fused[-1] is fused[0], "duplicate specs still share one result"


@pytest.mark.parametrize(
    "method",
    [
        pytest.param("fork"),
        pytest.param("spawn", marks=pytest.mark.slow),
    ],
)
def test_fused_pool_matches_unfused_serial(twins, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    specs = twins("mcf") + twins("chase")
    unfused = run_cases(specs, jobs=1, use_cache=False, fuse=False)
    runner.clear_cache()
    TELEMETRY.reset()
    fused = run_cases(
        specs, jobs=2, use_cache=False, fuse=True, mp_start_method=method
    )
    assert TELEMETRY.sim_invocations == 2, "one simulation per trace"
    # A shared group counts one member's uops: the members share a run.
    assert TELEMETRY.uops_simulated == (
        fused[0].committed_uops + fused[3].committed_uops
    )
    _assert_shared(specs, unfused, fused)


# ---------------------------------------------------------------------------
# timing-invariance oracle: the collector never perturbs the timing
# ---------------------------------------------------------------------------


_TIMING_FIELDS = (
    "cycles",
    "committed_instrs",
    "committed_uops",
    "wrong_path_uops",
    "branch_lookups",
    "branch_mispredicts",
    "memory_stats",
)


@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0.0, 0.3])
def test_timing_oracle_collector_count_invariance(mode, warmup):
    """No collector, or any one of them: the timing-side fields and the
    cycle count never move."""
    from repro.config.presets import get_preset
    from repro.pipeline.core import CoreSimulator

    trace = runner.get_trace("mcf", N, 1)
    config = get_preset("tiny")
    warmup_instructions = int(N * warmup)
    specs = _variant_specs(mode=mode, warmup_fraction=warmup)
    results = [
        CoreSimulator(
            trace,
            config,
            mode=mode,
            warmup_instructions=warmup_instructions,
            seed=7,
            collector=spec.collector_spec(),
        ).run()
        for spec in specs
    ]
    assert results[2].report is None, "accounting off attaches nothing"
    baseline = results[2]
    for result in results:
        for field in _TIMING_FIELDS:
            assert getattr(result, field) == getattr(baseline, field), field


# ---------------------------------------------------------------------------
# checkpoint/resume mid-run, under every collector spec
# ---------------------------------------------------------------------------


class _Interrupted(Exception):
    """Raised by the checkpoint hook to kill a run mid-flight."""


def test_fused_checkpoint_resume_restores_all_collectors():
    """Each collector spec's run dies after its first checkpoint and
    resumes bitwise identical to its uninterrupted run."""

    def hook(path, instrs):
        raise _Interrupted

    for spec in _variant_specs():
        job = Job((spec,))
        (clean,), resumed_from = runner.execute_spec_checkpointed(job, None)
        assert resumed_from is None
        with pytest.raises(_Interrupted):
            runner.execute_spec_checkpointed(job, 600, on_checkpoint=hook)
        assert ckpt.list_case_checkpoints(job.key()), (
            f"the interrupted {spec.label()} run never wrote a checkpoint"
        )
        (recovered,), resumed_from = runner.execute_spec_checkpointed(
            job, 600
        )
        assert resumed_from is not None and resumed_from > 0
        assert _comparable(recovered) == _comparable(clean), spec.label()
        ckpt.clear_checkpoints(job.key())


def test_fused_checkpoint_lives_under_group_key(twins):
    """A shared job's checkpoint must never be resumable by a member
    alone (or vice versa): the group key is derived from all member
    keys."""
    specs = twins("mcf")
    (group,) = parallel._group_jobs({s.key(): s for s in specs}, True)
    assert group.specs == tuple(specs)
    member_keys = {spec.key() for spec in group.specs}
    assert group.key() not in member_keys
    smaller = Job(group.specs[:2], names=group.names[:2])
    assert smaller.key() != group.key()


# ---------------------------------------------------------------------------
# cache keys and publication
# ---------------------------------------------------------------------------


def test_default_fingerprint_unchanged_by_accounting_fields():
    """Pre-existing cache entries stay valid: a default-accounting spec
    fingerprints exactly as before the accounting fields existed."""
    spec = CaseSpec(workload="mcf", preset="tiny", instructions=N)
    assert set(spec.fingerprint()) == {
        "schema", "workload", "instructions", "trace_seed", "sim_seed",
        "mode", "warmup_fraction", "idealization", "config",
    }


def test_variant_keys_discriminate(twins):
    """Accounting is case identity: the four collector specs of one
    trace are four cases, with or without their names.  The name-free
    key leaves out what names the trace, so twins share it — and so does
    any other trace of the same length and seed: grouping compares the
    traces' content too."""
    variants = _variant_specs()
    assert len({s.key() for s in variants}) == 4
    assert len({s.name_free_key() for s in variants}) == 4
    shared = twins("mcf")
    assert len({s.key() for s in shared}) == 3
    assert len({s.name_free_key() for s in shared}) == 1
    other = CaseSpec(workload="chase", preset="tiny", instructions=N)
    assert other.name_free_key() == shared[0].name_free_key()
    _, topdown, noacc, wide = variants
    assert topdown.label().endswith("#td")
    assert noacc.label().endswith("#noacc")
    assert wide.label().endswith("#w2")


def test_fused_members_published_under_own_keys(twins):
    specs = twins("mcf")
    first = run_cases(specs, jobs=1, fuse=True)
    assert TELEMETRY.sim_invocations == 1
    assert TELEMETRY.uops_simulated == first[0].committed_uops
    for spec in specs:
        assert runner.lookup_cached(spec, spec.key()) is not None
    # A fresh session (memo dropped, disk kept) is served without any
    # simulation — fused or otherwise.
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    second = run_cases(specs, jobs=1, fuse=True)
    assert TELEMETRY.sim_invocations == 0
    assert TELEMETRY.disk_hits == len(specs)
    for a, b in zip(first, second):
        assert a.to_dict() == b.to_dict()


def _comparison_batch(twins) -> list[CaseSpec]:
    """Three workloads, each under its own name and two others: one
    simulation per workload."""
    return [
        spec for workload in ("mcf", "chase", "exchange2")
        for spec in twins(workload)
    ]


def _fig2_batch(twins) -> list[CaseSpec]:
    """Fig. 2's shape: baseline and idealized machines, each wanted for
    every name of the trace."""
    return [
        spec for workload in ("mcf", "exchange2")
        for ideal in (None, PERFECT_DCACHE, PERFECT_BPRED)
        for spec in twins(workload, idealization=ideal)
    ]


@pytest.mark.parametrize(
    "batch, runs",
    [(lambda twins: twins("mcf"), 1), (_comparison_batch, 3),
     (_fig2_batch, 6)],
    ids=["variants", "comparison", "fig2-matrix"],
)
def test_summary_line_reports_fusion(twins, batch, runs):
    """One simulation per distinct trace, reported as fused groups."""
    specs = batch(twins)
    mark = parallel.telemetry_mark()
    run_cases(specs, jobs=1, use_cache=False, fuse=True)
    saved = len(specs) - runs
    batch = parallel.LAST_BATCH
    assert batch is not None
    assert TELEMETRY.sim_invocations == runs
    assert batch.fused_groups == runs
    assert batch.fused_runs_saved == saved
    assert (
        f"{runs} fused groups ({saved} runs saved)"
        in parallel.summarize_since(mark)
    )
    assert TELEMETRY.counters()["fused_groups"] == runs
    assert TELEMETRY.counters()["fused_runs_saved"] == saved


# ---------------------------------------------------------------------------
# content sharing: equal traces under different names share one run
# ---------------------------------------------------------------------------


FIG4_N = 1500


def _fig4_specs() -> list[CaseSpec]:
    """A Fig.-4-shaped batch: the KNL-style sgemm kernels and the
    forward convolutions, whose traces repeat under different names."""
    names = [
        name for name in WORKLOADS
        if (name.startswith("gemm-") and name.endswith("-knl"))
        or (name.startswith("conv-") and name.endswith("-fwd"))
    ]
    return [
        CaseSpec(workload=name, preset="knl", instructions=FIG4_N)
        for name in names
    ]


def test_content_shared_batch_matches_unfused():
    specs = _fig4_specs()
    traces = [make_trace(s.workload, FIG4_N, s.seed) for s in specs]
    distinct = len({tuple(trace.instructions) for trace in traces})
    assert distinct < len(specs), "the batch must repeat some traces"

    unfused = run_cases(specs, jobs=1, use_cache=False, fuse=False)
    runner.clear_cache()
    TELEMETRY.reset()
    fused = run_cases(
        specs, jobs=2, use_cache=False, fuse=True,
        mp_start_method=_start_method(),
    )
    batch = parallel.LAST_BATCH
    assert batch.simulated == distinct, "one run per distinct trace"
    assert batch.fused_runs_saved == len(specs) - distinct
    for spec, trace, a, b in zip(specs, traces, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()
        assert _stamped_names(b) == {trace.name}, spec.label()


def test_grouping_memoizes_one_trace_per_content():
    """Fusing, the parent keeps one trace per distinct content and each
    job runs its representative's; unfused, it builds no trace."""
    specs = _fig4_specs()
    pending = {spec.key(): spec for spec in specs}

    def memoized():
        return [
            spec for spec in specs
            if runner.trace_memoized(spec.workload, FIG4_N, spec.seed)
        ]

    unfused = parallel._group_jobs(pending, False)
    assert [job.specs for job in unfused] == [(spec,) for spec in specs]
    assert memoized() == []
    fused = parallel._group_jobs(pending, True)
    assert memoized() == [job.specs[0] for job in fused]
    assert sum(len(job.specs) for job in fused) == len(specs)


def test_harness_summary_counts_shared_members():
    specs = _fig4_specs()
    mark = parallel.telemetry_mark()
    run_cases(specs, jobs=1, use_cache=False, fuse=True)
    line = parallel.summarize_since(mark)
    assert f"[harness] {len(specs)} case lookups:" in line
    saved = parallel.LAST_BATCH.fused_runs_saved
    assert saved > 0 and f"({saved} runs saved)" in line


def _mutated(base: Program, name: str, at: tuple[int, int], **change):
    """``base`` under ``name`` with ``change`` applied to the micro-op at
    ``at`` (instruction index, micro-op index)."""
    i, j = at
    instrs = list(base.instructions)
    uops = list(instrs[i].uops)
    uops[j] = dataclasses.replace(uops[j], **change)
    instrs[i] = dataclasses.replace(instrs[i], uops=tuple(uops))
    return Program(name, instrs)


@pytest.mark.parametrize("field", ["lanes", "addr"])
def test_one_micro_op_field_splits_the_run(monkeypatch, field):
    """A trace differing in one micro-op field never shares a run, while
    an exact copy under another name does."""
    base = make_trace("gemm-train-1760-knl", FIG4_N, 1)
    at = next(
        (i, j)
        for i, instr in enumerate(base.instructions)
        for j, uop in enumerate(instr.uops)
        if (uop.lanes > 1 if field == "lanes" else uop.addr >= 0)
    )
    uop = base.instructions[at[0]].uops[at[1]]
    value = uop.lanes - 1 if field == "lanes" else uop.addr + 4096
    variants = {
        "twin-base": Program("twin-base", list(base.instructions)),
        "twin-copy": Program("twin-copy", list(base.instructions)),
        "twin-mutant": _mutated(base, "twin-mutant", at, **{field: value}),
    }
    for program in variants.values():
        _register(monkeypatch, program)
    specs = [
        CaseSpec(workload=name, preset="knl", instructions=FIG4_N)
        for name in variants
    ]
    results = run_cases(specs, jobs=1, use_cache=False, fuse=True)
    batch = parallel.LAST_BATCH
    assert batch.simulated == 2, "only the exact copy may share a run"
    assert batch.fused_runs_saved == 1
    for name, result in zip(variants, results):
        assert _stamped_names(result) == {name}


# ---------------------------------------------------------------------------
# construction and payload validation
# ---------------------------------------------------------------------------


def test_fused_group_rejects_malformed_membership(twins):
    specs = _variant_specs()
    with pytest.raises(ValueError, match="at least one"):
        Job(())
    idealized = dataclasses.replace(specs[0], idealization=PERFECT_DCACHE)
    with pytest.raises(ValueError, match="name-free case key"):
        Job((specs[0], idealized), names=("mcf", "mcf"))
    # Two accounting widths are two simulations, never one shared run.
    with pytest.raises(ValueError, match="name-free case key"):
        Job((specs[0], specs[3]), names=("mcf", "mcf"))
    shared = twins("mcf")
    with pytest.raises(ValueError, match="one name per member"):
        Job(tuple(shared))
    with pytest.raises(ValueError, match="one name per member"):
        Job((specs[0],), names=("mcf", "mcf"))
    socket = CaseSpec(workload="mcf", preset="tiny", instructions=N, cores=2)
    with pytest.raises(ValueError, match="cannot be fused"):
        Job((socket, socket), names=("mcf", "mcf"))
    assert Job((specs[0],)).key() == specs[0].key()
    assert Job((specs[0],)).label() == specs[0].label()
