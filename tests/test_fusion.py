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
* ``Job`` construction rejects malformed memberships.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config.idealize import PERFECT_DCACHE
from repro.core.wrongpath import WrongPathMode
from repro.experiments import runner, supervisor
from repro.experiments.cache import TELEMETRY, CaseSpec, Job
from repro.experiments.parallel import run_cases
from repro.pipeline import checkpoint as ckpt

N = 2500


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
    run_cases(specs, jobs=1, use_cache=False, fuse=True)
    batch = parallel.LAST_BATCH
    assert batch is not None
    assert batch.fused_groups == 1
    assert batch.fused_runs_saved == len(specs) - 1
    assert "1 fused groups (3 runs saved)" in batch.summary()
    assert TELEMETRY.counters()["fused_groups"] == 1
    assert TELEMETRY.counters()["fused_runs_saved"] == 3


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
