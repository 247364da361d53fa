"""Cached simulation driver for the experiment harness.

Experiments share baselines aggressively (Fig. 2 alone needs the baseline
stacks of every workload plus up to four idealized reruns each), so results
are cached at three levels, consulted in order:

1. an in-process memo (identical objects within one session),
2. the persistent content-addressed disk cache (``results/.cache/``,
   shared across processes and sessions — see
   :mod:`repro.experiments.cache`),
3. the simulator itself.

Traces are memoized too: baseline and idealized runs must replay the
identical program, as in the paper's methodology.  For batch scheduling of
many cases across worker processes, see :mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

from repro.config.idealize import Idealization
from repro.core import invariants
from repro.core.wrongpath import WrongPathMode
from repro.experiments.cache import (
    DEFAULT_WARMUP_FRACTION,
    TELEMETRY,
    CaseSpec,
    Job,
    get_disk_cache,
)
from repro.isa.instructions import Program
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.core import CoreSimulator
from repro.pipeline.multicore import MulticoreSimulator
from repro.pipeline.result import SimResult
from repro.workloads.registry import get_workload, make_threaded_traces

__all__ = [
    "DEFAULT_WARMUP_FRACTION",
    "CaseSpec",
    "Job",
    "clear_cache",
    "execute_spec",
    "execute_spec_checkpointed",
    "get_threaded_traces",
    "get_trace",
    "lookup_cached",
    "record_run",
    "run_case",
    "run_spec",
    "store_results",
]

_trace_cache: dict[tuple, Program] = {}
_threaded_trace_cache: dict[tuple, list[Program]] = {}
_result_cache: dict[str, SimResult] = {}


def clear_cache(*, disk: bool = True) -> int:
    """Drop all memoized traces and results.

    With ``disk=True`` (the default) the persistent on-disk cache is
    purged as well; returns the number of disk entries removed.
    """
    _trace_cache.clear()
    _threaded_trace_cache.clear()
    _result_cache.clear()
    if disk:
        return get_disk_cache().purge()
    return 0


def get_trace(name: str, instructions: int | None, seed: int) -> Program:
    key = (name, instructions, seed)
    trace = _trace_cache.get(key)
    if trace is None:
        trace = get_workload(name).make(instructions, seed)
        _trace_cache[key] = trace
    return trace


def get_threaded_traces(
    name: str, cores: int, instructions: int | None, seed: int
) -> list[Program]:
    key = (name, cores, instructions, seed)
    traces = _threaded_trace_cache.get(key)
    if traces is None:
        traces = make_threaded_traces(name, cores, instructions, seed)
        _threaded_trace_cache[key] = traces
    return traces


def _resume_or_build(key: str, interval: int | None, restore, build):
    """The simulator a checkpointed run continues with, and its progress.

    With ``interval`` set, walks the recovery ladder for ``key``: the
    newest valid checkpoint is handed to ``restore(payload)``, which
    rebuilds the simulator over the trace(s) the caller already holds.
    A checkpoint taken with a different program fails the identity check
    (:class:`~repro.pipeline.checkpoint.CheckpointError`); it is evicted
    like a corrupt rung and the ladder continues with the next older
    file.  With no usable checkpoint, ``build()`` starts afresh.  Returns
    ``(simulator, resumed_from)``; ``resumed_from`` is the committed
    instruction count restored, or None for a fresh start.
    """
    while interval:
        found = ckpt.latest_valid_checkpoint(key)
        if found is None:
            break
        path, payload, meta = found
        try:
            sim = restore(payload)
        except ckpt.CheckpointError:
            path.unlink(missing_ok=True)
            continue
        return sim, int(meta.get("committed_instrs", 0))
    return build(), None


def record_run(
    job: Job,
    results: list[SimResult],
    resumed_from: int | None = None,
) -> None:
    """Record one pipeline run (and any resume) in :data:`TELEMETRY`.

    A run is one simulator invocation however many results it yields.
    Fused members share one timing run and a socket's cores each run
    their own trace, so member 0's committed uops, summed over its
    cores, count.
    """
    uops = sum(result.committed_uops for result in results[: job.cores])
    TELEMETRY.record_simulation(job.label(), uops, results[0].wall_seconds)
    if resumed_from is not None:
        TELEMETRY.record_resume(resumed_from)


def execute_spec(spec: CaseSpec) -> SimResult:
    """Simulate one case unconditionally (no cache consultation).

    Every fresh result passes the runtime invariant guard before it is
    returned: in strict mode (the default) a violating result raises
    :class:`repro.core.invariants.InvariantViolation` instead of flowing
    into reports or caches.

    When ``REPRO_CHECKPOINT_INTERVAL`` is set, the run takes crash-safe
    snapshots and resumes from the newest valid one left by a previous
    attempt (see :func:`execute_spec_checkpointed`).
    """
    results, _resumed = execute_spec_checkpointed(
        Job((spec,)), ckpt.checkpoint_interval_default()
    )
    return results[0]


def execute_spec_checkpointed(
    job: Job,
    interval: int | None,
    on_checkpoint=None,
) -> tuple[list[SimResult], int | None]:
    """Simulate one job as one pipeline run with periodic checkpoints.

    A 1-core job runs a :class:`CoreSimulator` over the case's trace with
    every member's collector attached; an N-core job runs the lockstep
    :class:`~repro.pipeline.multicore.MulticoreSimulator` over the
    workload's threaded decomposition (shared L3/DRAM backend).  Returns
    ``(results, resumed_from)``: ``len(job.specs) * job.cores`` results,
    member-major, core-minor, each already through the invariant guard
    under its :meth:`~repro.experiments.cache.Job.result_labels` context.

    With ``interval`` set, the job resumes from the newest valid
    checkpoint under :meth:`Job.key` (corrupt files are evicted on the
    way — see :func:`repro.pipeline.checkpoint.latest_valid_checkpoint`)
    and writes a new checkpoint every ``interval`` committed
    instructions; a snapshot carries every collector and every core, so
    a resumed run restores them all bitwise.  ``resumed_from`` is the
    committed instruction count of the checkpoint the run continued
    from, or None.  Checkpoints are *not* deleted here: the supervisor
    clears them once the results are safely published, so a crash
    between finish and publish still recovers.
    """
    first = job.specs[0]
    config = first.resolved_config()
    collectors = tuple(spec.collector_spec() for spec in job.specs)
    key = job.key()
    run_kwargs = {
        "checkpoint_interval": interval,
        "checkpoint_key": key if interval else None,
        "on_checkpoint": on_checkpoint,
    }
    if first.cores == 1:
        trace = get_trace(first.workload, first.instructions, first.seed)
        sim, resumed_from = _resume_or_build(
            key,
            interval,
            lambda payload: CoreSimulator.from_snapshot(payload, trace),
            lambda: CoreSimulator(
                trace,
                config,
                mode=first.mode,
                warmup_instructions=int(len(trace) * first.warmup_fraction),
                seed=first.simulate_seed,
                collectors=collectors,
            ),
        )
        sim.run(**run_kwargs)
        results = list(sim.fused_results)
    else:
        traces = get_threaded_traces(
            first.workload, first.cores, first.instructions, first.seed
        )
        sim, resumed_from = _resume_or_build(
            key,
            interval,
            lambda payload: MulticoreSimulator.from_snapshot(payload, traces),
            lambda: MulticoreSimulator(
                traces,
                config,
                mode=first.mode,
                seeds=tuple(
                    first.simulate_seed + core for core in range(first.cores)
                ),
                warmup_instructions=tuple(
                    int(len(trace) * first.warmup_fraction)
                    for trace in traces
                ),
                collectors=collectors,
            ),
        )
        results = list(sim.run(**run_kwargs).per_core)
    record_run(job, results, resumed_from)
    for label, result in zip(job.result_labels(), results):
        invariants.verify_result(result, context=label)
    return results, resumed_from


# ``benchmarks/suite/trace.py`` spans these names as case entry points.
execute_fused_checkpointed = execute_spec_checkpointed  # see trace.py
execute_multicore_checkpointed = execute_spec_checkpointed  # see trace.py


def lookup_cached(spec: CaseSpec, key: str) -> list[SimResult] | None:
    """Memo -> disk lookup for every core of one case, or None.

    ``key`` is ``spec.key()``, which the caller already holds.  Every
    :meth:`~CaseSpec.member_key` must hit: the engine cannot resimulate a
    subset of cores (their timing is coupled through the shared backend),
    so a partial hit is a miss and the whole socket reruns.
    """
    results = []
    for member_key in spec.member_keys(key):
        cached = _result_cache.get(member_key)
        if cached is not None:
            TELEMETRY.memo_hits += 1
        else:
            cached = get_disk_cache().get(member_key)
            if cached is None:
                TELEMETRY.disk_misses += 1
                return None
            TELEMETRY.disk_hits += 1
            _result_cache[member_key] = cached
        results.append(cached)
    return results


def store_results(
    spec: CaseSpec, key: str, results: list[SimResult]
) -> None:
    """Publish one case's per-core results to the memo and the disk cache.

    ``key`` is ``spec.key()``; each core's result lands under its
    :meth:`~CaseSpec.member_key`.

    The invariant guard gates the persistent store: in strict mode a
    violating result raises before anything is published; in non-strict
    mode it is kept in the in-process memo (with a recorded warning) but
    is never written to the disk cache, so a wrong counter cannot poison
    later sessions.
    """
    member_keys = spec.member_keys(key)
    for core, (member_key, result) in enumerate(zip(member_keys, results)):
        violations = invariants.verify_result(
            result, context=spec.member_label(core)
        )
        _result_cache[member_key] = result
        if not violations:
            get_disk_cache().put(
                member_key, spec.member_fingerprint(core), result
            )


def run_spec(spec: CaseSpec, *, use_cache: bool = True) -> SimResult:
    """Resolve one case through the cache hierarchy."""
    if not use_cache:
        return execute_spec(spec)
    key = spec.key()
    cached = lookup_cached(spec, key)
    if cached is not None:
        return cached[0]
    result = execute_spec(spec)
    store_results(spec, key, [result])
    return result


def run_case(
    workload: str,
    preset: str,
    *,
    idealization: Idealization | None = None,
    instructions: int | None = None,
    seed: int = 1,
    mode: WrongPathMode = WrongPathMode.EXACT,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    use_cache: bool = True,
) -> SimResult:
    """Simulate ``workload`` on ``preset``, optionally idealized."""
    spec = CaseSpec(
        workload=workload,
        preset=preset,
        idealization=idealization,
        instructions=instructions,
        seed=seed,
        mode=mode,
        warmup_fraction=warmup_fraction,
    )
    return run_spec(spec, use_cache=use_cache)
