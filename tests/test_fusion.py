"""Fused multi-accountant execution: bitwise parity and plumbing.

The fusion engine (``run_cases(..., fuse=True)``, the default) groups
cache-missing cases that share one *timing key* — identical trace,
machine config, wrong-path mode, warmup and seeds — and runs each group
as a single pipeline pass with every member's collector attached.  The
guarantees pinned here:

* every fused member's result is bitwise identical to its unfused run —
  across workloads, presets, wrong-path modes, warmup fractions and
  collector sets (multi-stage, topdown, accounting off, non-default
  accounting width), with the fast-forward/replay skip engines engaged;
* attaching 0, 1 or many collectors never perturbs the timing: cycle
  counts and every timing-side field are invariant (the timing oracle);
* a fused run checkpoints and resumes mid-flight with *all* collectors
  restored bitwise;
* fused members land in the disk cache under their own per-case keys
  (warm reruns need zero simulator invocations), and the pre-existing
  cache keys of default-accounting cases are unchanged;
* the batch summary line and telemetry report fused groups / runs saved;
* cases whose traces are equal under different names (the Fig. 4
  kernels) share one run, each member re-stamped with its own program
  name, while traces differing in a single micro-op field never do;
* ``Job`` construction rejects malformed memberships.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.config.idealize import PERFECT_DCACHE
from repro.core.wrongpath import WrongPathMode
from repro.experiments import parallel, runner, supervisor
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
    unfused run.

    Host wall time and the fast-forward/replay window counters are
    excluded: they are documented host-side observability counters, and
    a fused run legitimately arms the skip engines differently (e.g. a
    topdown member disables commit batching and with it replay) without
    affecting any architectural number.
    """
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


def _variant_specs(
    workload: str = "mcf",
    preset: str = "tiny",
    *,
    mode: WrongPathMode = WrongPathMode.EXACT,
    warmup_fraction: float = 0.0,
) -> list[CaseSpec]:
    """One timing, four accounting configurations."""
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


def _run_both_ways(specs: list[CaseSpec], **kwargs) -> tuple[list, list]:
    """Run the same batch unfused then fused, cache-free, serially."""
    unfused = run_cases(specs, jobs=1, use_cache=False, fuse=False, **kwargs)
    runner.clear_cache()
    fused = run_cases(specs, jobs=1, use_cache=False, fuse=True, **kwargs)
    return unfused, fused


# ---------------------------------------------------------------------------
# differential matrix: fused is bitwise identical to unfused
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0.0, 0.3])
def test_fused_matches_unfused_across_modes_and_warmup(mode, warmup):
    specs = _variant_specs(mode=mode, warmup_fraction=warmup)
    unfused, fused = _run_both_ways(specs)
    for spec, a, b in zip(specs, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()


@pytest.mark.parametrize(
    "workload, preset",
    [("chase", "tiny"), ("exchange2", "bdw"), ("spin", "knl")],
)
def test_fused_matches_unfused_across_machines(workload, preset):
    specs = _variant_specs(workload, preset)
    unfused, fused = _run_both_ways(specs)
    for spec, a, b in zip(specs, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()


def test_fused_matches_unfused_with_skip_engines():
    # ``spin`` has quiescent and steady-state stretches the skip engines
    # actually engage on.
    specs = _variant_specs("spin", "tiny", warmup_fraction=0.2)
    unfused, fused = _run_both_ways(specs)
    assert any(r.ff_windows and r.replay_windows for r in fused)
    for spec, a, b in zip(specs, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()


def test_fused_mixed_batch_with_distinct_timings():
    """Fusable variants mixed with singleton timings: grouping must not
    disturb spec order, dedup, or the singletons' results."""
    variants = _variant_specs()
    singles = [
        CaseSpec(workload="bwaves", preset="tiny", instructions=N),
        CaseSpec(
            workload="mcf", preset="tiny", instructions=N,
            idealization=PERFECT_DCACHE,
        ),
    ]
    specs = variants + singles + [variants[0]]  # plus one duplicate
    unfused, fused = _run_both_ways(specs)
    for spec, a, b in zip(specs, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()
    assert fused[-1] is fused[0], "duplicate specs still share one result"


@pytest.mark.parametrize(
    "method",
    [
        pytest.param("fork"),
        pytest.param("spawn", marks=pytest.mark.slow),
    ],
)
def test_fused_pool_matches_unfused_serial(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    specs = _variant_specs() + _variant_specs("chase")
    unfused = run_cases(specs, jobs=1, use_cache=False, fuse=False)
    runner.clear_cache()
    TELEMETRY.reset()
    fused = run_cases(
        specs, jobs=2, use_cache=False, fuse=True, mp_start_method=method
    )
    assert TELEMETRY.sim_invocations == 2, "one pipeline run per timing"
    # A fused group counts one member's uops: the members share a run.
    assert TELEMETRY.uops_simulated == (
        fused[0].committed_uops + fused[4].committed_uops
    )
    for spec, a, b in zip(specs, unfused, fused):
        assert _comparable(a) == _comparable(b), spec.label()


# ---------------------------------------------------------------------------
# timing-invariance oracle: collectors never perturb the timing
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
    """0, 1, or all collectors attached: the timing fingerprint and the
    cycle count never move."""
    from repro.config.presets import get_preset
    from repro.core.multistage import CollectorSpec
    from repro.pipeline.core import CoreSimulator

    trace = runner.get_trace("mcf", N, 1)
    config = get_preset("tiny")
    warmup_instructions = int(N * warmup)
    collector_sets = [
        (CollectorSpec(accounting=False),),  # 0 collectors
        (CollectorSpec(),),  # 1 collector
        (  # all of them
            CollectorSpec(),
            CollectorSpec(topdown=True),
            CollectorSpec(accounting=False),
            CollectorSpec(accounting_width=2),
        ),
    ]
    results = []
    for collectors in collector_sets:
        sim = CoreSimulator(
            trace,
            config,
            mode=mode,
            warmup_instructions=warmup_instructions,
            seed=7,
            collectors=collectors,
        )
        results.append(sim.run())
    baseline = results[0]
    for result in results[1:]:
        for field in _TIMING_FIELDS:
            assert getattr(result, field) == getattr(baseline, field), field



# ---------------------------------------------------------------------------
# checkpoint/resume mid-fused-run
# ---------------------------------------------------------------------------


class _Interrupted(Exception):
    """Raised by the checkpoint hook to kill a fused run mid-flight."""


def test_fused_checkpoint_resume_restores_all_collectors():
    group = Job(tuple(_variant_specs()))
    clean, resumed_from = runner.execute_spec_checkpointed(group, None)
    assert resumed_from is None

    ckpt.clear_checkpoints(group.key())

    def hook(path, instrs):
        raise _Interrupted

    with pytest.raises(_Interrupted):
        runner.execute_spec_checkpointed(group, 600, on_checkpoint=hook)
    assert ckpt.list_case_checkpoints(group.key()), (
        "the interrupted fused run never wrote a checkpoint"
    )
    recovered, resumed_from = runner.execute_spec_checkpointed(group, 600)
    assert resumed_from is not None and resumed_from > 0
    assert len(recovered) == len(group.specs)
    for spec, a, b in zip(group.specs, clean, recovered):
        assert _comparable(a) == _comparable(b), spec.label()
    ckpt.clear_checkpoints(group.key())


def test_fused_checkpoint_lives_under_group_key():
    """A fused checkpoint must never be resumable by a member alone (or
    vice versa): the group key is derived from all member keys."""
    group = Job(tuple(_variant_specs()))
    member_keys = {spec.key() for spec in group.specs}
    assert group.key() not in member_keys
    smaller = Job(group.specs[:2])
    assert smaller.key() != group.key()


# ---------------------------------------------------------------------------
# cache keys and publication
# ---------------------------------------------------------------------------


def test_default_fingerprint_unchanged_by_accounting_fields():
    """Pre-existing cache entries stay valid: a default-accounting spec
    fingerprints exactly as before the accounting fields existed."""
    spec = CaseSpec(workload="mcf", preset="tiny", instructions=N)
    fp = spec.fingerprint()
    assert "accounting" not in fp
    assert "topdown" not in fp
    assert "accounting_width" not in fp
    assert fp == spec.timing_fingerprint()


def test_variant_keys_discriminate_but_share_timing():
    default, topdown, noacc, wide = _variant_specs()
    keys = {s.key() for s in (default, topdown, noacc, wide)}
    assert len(keys) == 4, "accounting variants must not collide"
    timings = {s.timing_key() for s in (default, topdown, noacc, wide)}
    assert len(timings) == 1, "accounting must not leak into the timing key"
    other = CaseSpec(workload="chase", preset="tiny", instructions=N)
    assert other.timing_key() not in timings
    assert topdown.label().endswith("#td")
    assert noacc.label().endswith("#noacc")


def test_fused_members_published_under_own_keys():
    specs = _variant_specs()
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


def test_unfused_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_FUSE", "0")
    specs = _variant_specs()
    run_cases(specs, jobs=1, use_cache=False)
    assert TELEMETRY.sim_invocations == len(specs)
    assert TELEMETRY.fused_groups == 0


def test_summary_line_reports_fusion():
    from repro.experiments import parallel

    specs = _variant_specs()
    mark = parallel.telemetry_mark()
    run_cases(specs, jobs=1, use_cache=False, fuse=True)
    batch = parallel.LAST_BATCH
    assert batch is not None
    assert batch.fused_groups == 1
    assert batch.fused_runs_saved == len(specs) - 1
    assert "1 fused groups (3 runs saved)" in parallel.summarize_since(mark)
    assert TELEMETRY.counters()["fused_groups"] == 1
    assert TELEMETRY.counters()["fused_runs_saved"] == 3


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


def _stamped_names(result) -> set[str]:
    report = result.report
    stacks = (report.dispatch, report.issue, report.commit, report.flops)
    return {result.name, report.name, *(stack.name for stack in stacks)}


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
    for name, program in variants.items():
        monkeypatch.setitem(
            WORKLOADS, name,
            WorkloadSpec(name, name, "fusion twin", lambda n, s, p=program: p),
        )
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


def test_fused_group_rejects_malformed_membership():
    specs = _variant_specs()
    with pytest.raises(ValueError, match="at least one"):
        Job(())
    other = CaseSpec(workload="chase", preset="tiny", instructions=N)
    with pytest.raises(ValueError, match="timing key"):
        Job((specs[0], other))
    socket = CaseSpec(workload="mcf", preset="tiny", instructions=N, cores=2)
    with pytest.raises(ValueError, match="cannot be fused"):
        Job((socket, socket))
    assert Job((specs[0],)).key() == specs[0].key()
    assert Job((specs[0],)).label() == specs[0].label()
