"""Batch scheduler: dispatch independent cases across worker processes.

The paper's experiments are embarrassingly parallel — every Table I /
Fig. 2 / Fig. 3 / FLOPS-study artifact is a list of fully independent
``run_case`` simulations.  :func:`run_cases` is the batch API the
experiment modules declare their full case list to:

1. keys are computed for every spec and duplicates collapse onto one
   in-flight entry (a Fig. 2 sweep requests each baseline many times);
2. the cache hierarchy (in-process memo, then the persistent disk cache)
   is consulted per unique key;
3. remaining misses become :class:`~repro.experiments.cache.Job` items
   (one per case, or one per distinct timing under fusion) dispatched under
   **supervision** (:mod:`repro.experiments.supervisor`): per-job
   deadlines, bounded
   retries, pool rebuild on worker death with serial fallback, and
   persisted :class:`~repro.experiments.supervisor.FailureReport` records
   for cases that never recover.  ``jobs`` argument > ``REPRO_JOBS`` env
   > ``os.cpu_count()``; with ``jobs=1`` everything runs in-process,
   which is the deterministic serial baseline;
4. results are collected in submission order (never completion order),
   round-tripped through ``SimResult.to_dict``, checked by the runtime
   invariant guard, published to both cache levels, and returned in the
   caller's original spec order — so a parallel run is bit-identical to
   a serial one.

A batch with unrecovered failures raises
:class:`~repro.experiments.supervisor.BatchFailure` by default; with
``keep_going=True`` it instead returns partial results (``None`` in the
failed slots) so a long sweep survives individual bad cases.

Observability: each batch leaves a :class:`BatchStats` in
:data:`LAST_BATCH` with wall time, per-level hit counts and supervision
counters (retries/timeouts/pool rebuilds/resumes).  Experiment commands
print one :func:`summarize_since` line over every batch they ran, and
``repro cache stats`` exposes the process-wide counters.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.experiments import runner, supervisor
from repro.experiments.cache import TELEMETRY, CaseSpec, Job
from repro.experiments.supervisor import BatchFailure, FailureReport
from repro.pipeline.result import SimResult

#: Environment variable overriding the default worker count.
ENV_JOBS = "REPRO_JOBS"

def resolve_jobs(jobs: int | str | None = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else CPUs.

    ``"auto"`` (CLI ``--jobs auto`` / ``REPRO_JOBS=auto``) resolves to
    one less than the CPU count — a full batch that still leaves the
    machine responsive — with a floor of 1.  A zero or negative count is
    a configuration error and raises ``ValueError`` — silently clamping
    it to 1 used to hide typos like ``--jobs 0`` behind an unexpectedly
    serial run.
    """
    source = "jobs"
    if jobs is None:
        env = os.environ.get(ENV_JOBS)
        if env:
            source = ENV_JOBS
            jobs = env
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return max(1, (os.cpu_count() or 1) - 1)
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"{source} must be an integer or 'auto', got {jobs!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"{source} must be a positive integer, got {jobs}")
    return jobs


@dataclass(slots=True)
class BatchStats:
    """What one ``run_cases`` batch did."""

    cases: int = 0
    unique: int = 0
    jobs: int = 1
    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    uops_simulated: int = 0
    #: (case label, simulator wall seconds) for each case simulated here.
    case_seconds: list[tuple[str, float]] = field(default_factory=list)
    #: Supervision counters (all zero on a healthy batch).
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    #: Checkpoint resumes (cases that continued instead of restarting).
    resumes: int = 0
    resumed_instructions: int = 0
    #: Fused execution: timing groups run as one pipeline pass, and the
    #: whole simulations that fusion avoided (members minus one per group).
    fused_groups: int = 0
    fused_runs_saved: int = 0
    #: Per-key report for every case given up on this batch.
    failure_reports: dict[str, FailureReport] = field(default_factory=dict)


#: Stats of the most recent batch.
LAST_BATCH: BatchStats | None = None


def run_cases(
    specs: Iterable[CaseSpec],
    *,
    jobs: int | None = None,
    use_cache: bool = True,
    mp_start_method: str | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
    max_attempts: int | None = None,
    retry_backoff: float | None = None,
    checkpoint_interval: int | None = None,
    fuse: bool = True,
) -> list[SimResult | None]:
    """Resolve a batch of single-core case specs, in parallel where possible.

    Returns one :class:`SimResult` per input spec, in input order.
    Duplicate specs are deduplicated in flight and share one result
    object.  ``mp_start_method`` forces a multiprocessing start method
    ("fork"/"spawn") for the pool — mainly for the determinism tests.

    Per-case failures (crashes, hangs past the deadline, invariant
    violations, corrupt payloads) are retried up to ``max_attempts``
    times; cases that never recover are persisted as failure reports
    (``repro failures list``).  With ``keep_going=False`` (default) any
    unrecovered failure raises :class:`BatchFailure` after the rest of
    the batch completes; with ``keep_going=True`` failed slots come back
    as ``None`` instead.  ``case_timeout`` overrides the per-case
    deadline otherwise scaled from each spec's instruction count.
    ``checkpoint_interval`` turns on crash-safe mid-simulation snapshots
    every that many committed instructions (else
    ``$REPRO_CHECKPOINT_INTERVAL``), letting retried cases resume
    instead of restarting.

    **Fused execution** (``fuse``, on by default; ``fuse=False`` runs
    every case as its own simulation, the reference the fusion
    differentials compare against): cache-missing specs needing one
    timing — equal trace content (whatever the workload is called),
    machine config, wrong-path mode, warmup and simulator seed,
    differing at most in accounting configuration and trace name —
    become one
    :class:`~repro.experiments.cache.Job` executed as a single pipeline
    run with each distinct collector attached once.  The parent builds
    the pending traces to compare them.  The batch cost then scales
    with distinct timings rather than cases; each member's result is
    bitwise identical to its unfused run (re-stamped with its own
    program name) and still lands in the disk cache under its own key.
    """
    spec_list: Sequence[CaseSpec] = list(specs)
    for spec in spec_list:
        if spec.cores > 1:
            raise ValueError(
                f"{spec.label()} is a multi-core case; use "
                "run_multicore_cases for cores > 1"
            )
    per_core = _run_batch(
        spec_list, fuse=fuse, jobs=jobs, use_cache=use_cache,
        mp_start_method=mp_start_method, keep_going=keep_going,
        case_timeout=case_timeout, max_attempts=max_attempts,
        retry_backoff=retry_backoff, checkpoint_interval=checkpoint_interval,
    )
    return [None if results is None else results[0] for results in per_core]


def run_multicore_cases(
    specs: Iterable[CaseSpec],
    *,
    jobs: int | None = None,
    use_cache: bool = True,
    mp_start_method: str | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
    max_attempts: int | None = None,
    retry_backoff: float | None = None,
    checkpoint_interval: int | None = None,
) -> list[list[SimResult] | None]:
    """Resolve a batch of (possibly multi-core) socket cases.

    Returns one ``list[SimResult]`` per input spec — entry ``i`` of the
    inner list is core ``i``'s result — in input order, with ``None`` in
    failed slots under ``keep_going=True``.  A ``cores == 1`` spec is the
    historical single-core case (same cache key, same plain trace) and
    comes back as a one-element list.

    Each spec is one job: the whole socket is attempted, timed out and
    retried as a unit (per-core timings are coupled through the shared
    L3/DRAM backend, so a subset cannot be recomputed alone), but
    per-core results land in the cache under their member keys.  A
    cached socket requires every member key to hit — partial hits rerun
    the whole engine.  Fusion never applies: the engine runs one
    collector per core.
    """
    return _run_batch(
        list(specs), fuse=False, jobs=jobs, use_cache=use_cache,
        mp_start_method=mp_start_method, keep_going=keep_going,
        case_timeout=case_timeout, max_attempts=max_attempts,
        retry_backoff=retry_backoff, checkpoint_interval=checkpoint_interval,
    )


def _group_jobs(pending: dict[str, CaseSpec], fuse: bool) -> list[Job]:
    """One job per distinct timing when fusing, else one per case.

    Fusing, the parent builds every pending trace (forked workers
    inherit them) and groups cases sharing the name-free timing key and
    equal traces, compared instruction for instruction: the decoder
    interns instructions, so equal traces share their objects and the
    comparison is a walk of identity checks.  A duplicate trace built
    here leaves the memo: one trace per content stays.
    """
    if not fuse:
        return [Job((spec,), (key,)) for key, spec in pending.items()]
    groups: list[tuple[dict[str, CaseSpec], list[str]]] = []
    buckets: dict[tuple, list] = {}
    for key, spec in pending.items():
        name = (spec.workload, spec.instructions, spec.seed)
        built = not runner.trace_memoized(*name)
        trace = runner.get_trace(*name)
        bucket = buckets.setdefault(
            (spec.timing_key(by_name=False), len(trace), trace.uop_count),
            [],
        )
        for rep, (members, names) in bucket:
            if rep.instructions == trace.instructions:
                if built:
                    runner.forget_trace(*name)
                break
        else:
            members, names = {}, []
            bucket.append((trace, (members, names)))
            groups.append((members, names))
        members[key] = spec
        names.append(trace.name)
    return [
        Job(tuple(members.values()), tuple(members), tuple(names))
        for members, names in groups
    ]


def _run_batch(
    spec_list: Sequence[CaseSpec],
    *,
    fuse: bool,
    jobs: int | None,
    use_cache: bool,
    mp_start_method: str | None,
    keep_going: bool,
    case_timeout: float | None,
    max_attempts: int | None,
    retry_backoff: float | None,
    checkpoint_interval: int | None,
) -> list[list[SimResult] | None]:
    """Resolve ``spec_list`` to per-core result lists, in input order.

    Keys are computed once per spec; duplicates collapse onto one entry;
    cache hits are served; the misses become jobs (fused by timing and
    trace content when ``fuse``) and run under supervision.  Leaves a
    :class:`BatchStats` in :data:`LAST_BATCH`.
    """
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    before = TELEMETRY.counters()
    sims_before = len(TELEMETRY.case_seconds)

    keys = [spec.key() for spec in spec_list]
    results: dict[str, list[SimResult]] = {}
    pending: dict[str, CaseSpec] = {}
    for key, spec in zip(keys, spec_list):
        if key in results or key in pending:
            continue
        if use_cache:
            cached = runner.lookup_cached(spec, key)
            if cached is not None:
                results[key] = cached
                continue
        pending[key] = spec

    items = _group_jobs(pending, fuse)
    fused_groups = sum(len(job.specs) > 1 for job in items)
    fused_runs_saved = len(pending) - len(items)
    if fused_groups:
        TELEMETRY.record_fusion(fused_groups, fused_runs_saved)

    outcome = supervisor.SupervisionOutcome()
    if items:
        outcome = supervisor.run_supervised(
            items,
            jobs=jobs,
            mp_start_method=mp_start_method,
            use_cache=use_cache,
            case_timeout=case_timeout,
            max_attempts=max_attempts,
            retry_backoff=retry_backoff,
            checkpoint_interval=checkpoint_interval,
        )
        results.update(outcome.results)

    after = TELEMETRY.counters()
    stats = BatchStats(
        cases=len(spec_list),
        unique=len(set(keys)),
        jobs=jobs,
        memo_hits=int(after["memo_hits"] - before["memo_hits"]),
        disk_hits=int(after["disk_hits"] - before["disk_hits"]),
        simulated=int(
            after["sim_invocations"] - before["sim_invocations"]
        ),
        wall_seconds=time.perf_counter() - start,
        sim_seconds=after["sim_seconds"] - before["sim_seconds"],
        uops_simulated=int(
            after["uops_simulated"] - before["uops_simulated"]
        ),
        case_seconds=list(TELEMETRY.case_seconds[sims_before:]),
        failures=len(outcome.failures),
        retries=outcome.retries,
        timeouts=outcome.timeouts,
        pool_rebuilds=outcome.pool_rebuilds,
        serial_fallback=outcome.serial_fallback,
        resumes=outcome.resumes,
        resumed_instructions=outcome.resumed_instructions,
        fused_groups=fused_groups,
        fused_runs_saved=fused_runs_saved,
        failure_reports=dict(outcome.failures),
    )
    global LAST_BATCH
    LAST_BATCH = stats
    if outcome.failures and not keep_going:
        raise BatchFailure(outcome.failures)
    return [results.get(key) for key in keys]


def telemetry_mark() -> tuple[float, dict[str, float]]:
    """Snapshot (wall clock, counters) to later summarize an experiment
    spanning several batches."""
    return (time.perf_counter(), TELEMETRY.counters())


def summarize_since(mark: tuple[float, dict[str, float]]) -> str:
    """One-line harness summary of everything since ``telemetry_mark``."""
    start, before = mark
    after = TELEMETRY.counters()
    wall = time.perf_counter() - start
    simulated = int(after["sim_invocations"] - before["sim_invocations"])
    memo = int(after["memo_hits"] - before["memo_hits"])
    disk = int(after["disk_hits"] - before["disk_hits"])
    uops = after["uops_simulated"] - before["uops_simulated"]
    sim_seconds = after["sim_seconds"] - before["sim_seconds"]
    resumes = int(after["resume_events"] - before["resume_events"])
    preserved = int(
        after["resumed_instructions"] - before["resumed_instructions"]
    )
    fused = int(after["fused_groups"] - before["fused_groups"])
    saved = int(after["fused_runs_saved"] - before["fused_runs_saved"])
    rate = uops / wall if wall > 0 else 0.0
    line = (
        f"[harness] {simulated + saved + memo + disk} case lookups: "
        f"{simulated} simulated, {memo} memo hits, {disk} disk hits | "
        f"wall={wall:.2f}s sim={sim_seconds:.2f}s "
        f"({rate / 1e3:.0f}k uops/s)"
    )
    if fused:
        line += f" | {fused} fused groups ({saved} runs saved)"
    if resumes:
        line += (
            f" | {resumes} checkpoint resumes "
            f"({preserved} instrs preserved)"
        )
    return line
