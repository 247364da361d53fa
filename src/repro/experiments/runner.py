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
    FusedGroup,
    get_disk_cache,
)
from repro.isa.instructions import Program
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.core import CoreSimulator
from repro.pipeline.result import SimResult
from repro.workloads.registry import get_workload, make_threaded_traces

__all__ = [
    "DEFAULT_WARMUP_FRACTION",
    "CaseSpec",
    "FusedGroup",
    "clear_cache",
    "execute_fused_checkpointed",
    "execute_multicore_checkpointed",
    "execute_spec",
    "execute_spec_checkpointed",
    "get_threaded_traces",
    "get_trace",
    "lookup_cached",
    "lookup_cached_multicore",
    "record_run",
    "run_case",
    "run_multicore_spec",
    "run_spec",
    "store_multicore_result",
    "store_result",
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
    item: CaseSpec | FusedGroup,
    results: list[SimResult],
    resumed_from: int | None = None,
) -> None:
    """Record one pipeline run (and any resume) in :data:`TELEMETRY`.

    A run is one simulator invocation however many results it yields.
    A fused group's members share one timing run, so one member's
    committed uops count; a socket's cores each run their own trace, so
    their committed uops sum.
    """
    if isinstance(item, FusedGroup):
        uops = results[0].committed_uops
    else:
        uops = sum(result.committed_uops for result in results)
    TELEMETRY.record_simulation(item.label(), uops, results[0].wall_seconds)
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
    result, _resumed = execute_spec_checkpointed(
        spec, ckpt.checkpoint_interval_default()
    )
    return result


def execute_spec_checkpointed(
    spec: CaseSpec,
    interval: int | None,
    on_checkpoint=None,
) -> tuple[SimResult, int | None]:
    """Simulate one case with periodic crash-safe checkpoints.

    With ``interval`` set, the case resumes from the newest valid
    checkpoint under its cache key when one exists (corrupt files are
    evicted on the way — see
    :func:`repro.pipeline.checkpoint.latest_valid_checkpoint`) and writes
    a new checkpoint every ``interval`` committed instructions.  Returns
    ``(result, resumed_from)`` where ``resumed_from`` is the committed
    instruction count of the checkpoint the run continued from, or None
    for an uninterrupted (or checkpoint-free) run.  Checkpoints are *not*
    deleted here: the supervisor clears them once the result is safely
    published, so a crash between finish and publish still recovers.
    """
    trace = get_trace(spec.workload, spec.instructions, spec.seed)
    key = spec.key()
    sim, resumed_from = _resume_or_build(
        key,
        interval,
        lambda payload: CoreSimulator.from_snapshot(payload, trace),
        lambda: CoreSimulator(
            trace,
            spec.resolved_config(),
            mode=spec.mode,
            warmup_instructions=int(len(trace) * spec.warmup_fraction),
            seed=spec.simulate_seed,
            collectors=(spec.collector_spec(),),
        ),
    )
    result = sim.run(
        checkpoint_interval=interval,
        checkpoint_key=key if interval else None,
        on_checkpoint=on_checkpoint,
    )
    record_run(spec, [result], resumed_from)
    invariants.verify_result(result, context=spec.label())
    return result, resumed_from


def execute_fused_checkpointed(
    group: FusedGroup,
    interval: int | None,
    on_checkpoint=None,
) -> tuple[list[SimResult], int | None]:
    """Simulate one fused timing group: one pipeline run, every member's
    collector attached, one :class:`SimResult` per member (group order).

    Checkpoints live under the *group* key (derived from the sorted
    member keys), and a snapshot carries every attached collector, so a
    resumed fused run restores all members bitwise.  Telemetry counts the
    group as a single simulator invocation — fusion's entire point is
    that the batch cost scales with distinct timings, and
    ``sim_invocations`` must reflect that.  Each member's result passes
    the invariant guard independently under its own label.
    """
    first = group.specs[0]
    trace = get_trace(first.workload, first.instructions, first.seed)
    key = group.key()
    sim, resumed_from = _resume_or_build(
        key,
        interval,
        lambda payload: CoreSimulator.from_snapshot(payload, trace),
        lambda: CoreSimulator(
            trace,
            first.resolved_config(),
            mode=first.mode,
            warmup_instructions=int(len(trace) * first.warmup_fraction),
            seed=first.simulate_seed,
            collectors=tuple(spec.collector_spec() for spec in group.specs),
        ),
    )
    sim.run(
        checkpoint_interval=interval,
        checkpoint_key=key if interval else None,
        on_checkpoint=on_checkpoint,
    )
    results = list(sim.fused_results)
    if len(results) != len(group.specs):  # pragma: no cover - defensive
        raise RuntimeError(
            f"fused run produced {len(results)} results for "
            f"{len(group.specs)} members"
        )
    record_run(group, results, resumed_from)
    for spec, result in zip(group.specs, results):
        invariants.verify_result(result, context=spec.label())
    return results, resumed_from


def execute_multicore_checkpointed(
    spec: CaseSpec,
    interval: int | None,
    on_checkpoint=None,
) -> tuple[list[SimResult], int | None]:
    """Simulate one multi-core case: a cycle-lockstep engine run over a
    shared L3/DRAM backend, one :class:`SimResult` per core (core order).

    Checkpoints live under the socket-level cache key and snapshot the
    whole engine (every core plus the shared backend), so a resumed run
    restores all cores bitwise.  Telemetry counts the engine as a single
    simulator invocation, mirroring fused groups.  Each core's result
    passes the invariant guard independently under a ``[coreN]`` label.
    """
    from repro.pipeline.multicore import MulticoreSimulator

    if spec.cores == 1:
        # A 1-core socket IS the historical single-core case (same cache
        # key, same plain trace); routing it through the threaded
        # decomposition would publish a different program's result under
        # that key.
        result, resumed = execute_spec_checkpointed(
            spec, interval, on_checkpoint
        )
        return [result], resumed
    traces = get_threaded_traces(
        spec.workload, spec.cores, spec.instructions, spec.seed
    )
    key = spec.key()
    sim, resumed_from = _resume_or_build(
        key,
        interval,
        lambda payload: MulticoreSimulator.from_snapshot(payload, traces),
        lambda: MulticoreSimulator(
            traces,
            spec.resolved_config(),
            mode=spec.mode,
            seeds=tuple(
                spec.simulate_seed + core for core in range(spec.cores)
            ),
            warmup_instructions=tuple(
                int(len(trace) * spec.warmup_fraction) for trace in traces
            ),
            collectors=(spec.collector_spec(),),
        ),
    )
    multi = sim.run(
        checkpoint_interval=interval,
        checkpoint_key=key if interval else None,
        on_checkpoint=on_checkpoint,
    )
    results = list(multi.per_core)
    if len(results) != spec.cores:  # pragma: no cover - defensive
        raise RuntimeError(
            f"multicore run produced {len(results)} results for "
            f"{spec.cores} cores"
        )
    record_run(spec, results, resumed_from)
    invariants.verify_per_core_results(results, context=spec.label())
    return results, resumed_from


def lookup_cached(key: str) -> SimResult | None:
    """Memo -> disk lookup for one case key (updating hit counters)."""
    cached = _result_cache.get(key)
    if cached is not None:
        TELEMETRY.memo_hits += 1
        return cached
    result = get_disk_cache().get(key)
    if result is not None:
        TELEMETRY.disk_hits += 1
        _result_cache[key] = result
        return result
    TELEMETRY.disk_misses += 1
    return None


def store_result(key: str, spec: CaseSpec, result: SimResult) -> None:
    """Publish a freshly simulated result to the memo and the disk cache.

    The invariant guard gates the persistent store: in strict mode a
    violating result raises before anything is published; in non-strict
    mode it is kept in the in-process memo (with a recorded warning) but
    is never written to the disk cache, so a wrong counter cannot poison
    later sessions.
    """
    violations = invariants.verify_result(result, context=spec.label())
    _result_cache[key] = result
    if violations:
        return
    get_disk_cache().put(key, spec.fingerprint(), result)


def lookup_cached_multicore(spec: CaseSpec) -> list[SimResult] | None:
    """Cache lookup for every core of a multi-core case, or None.

    All member keys must hit — the engine cannot resimulate a subset of
    cores (their timing is coupled through the shared backend), so a
    partial hit is treated as a miss and the whole socket reruns.
    """
    if spec.cores == 1:
        cached = lookup_cached(spec.key())
        return None if cached is None else [cached]
    results = []
    for core in range(spec.cores):
        cached = lookup_cached(spec.member_key(core))
        if cached is None:
            return None
        results.append(cached)
    return results


def store_multicore_result(
    spec: CaseSpec, per_core: list[SimResult]
) -> None:
    """Publish each core's result under its member key (invariant-gated,
    same policy as :func:`store_result`)."""
    for core, result in enumerate(per_core):
        key = spec.member_key(core)
        violations = invariants.verify_result(
            result, context=f"{spec.label()}[core{core}]"
        )
        _result_cache[key] = result
        if not violations:
            get_disk_cache().put(key, spec.member_fingerprint(core), result)


def run_multicore_spec(
    spec: CaseSpec, *, use_cache: bool = True
) -> list[SimResult]:
    """Resolve one multi-core case through the cache hierarchy."""
    if use_cache:
        cached = lookup_cached_multicore(spec)
        if cached is not None:
            return cached
    per_core, _resumed = execute_multicore_checkpointed(
        spec, ckpt.checkpoint_interval_default()
    )
    if use_cache:
        store_multicore_result(spec, per_core)
    return per_core


def run_spec(spec: CaseSpec, *, use_cache: bool = True) -> SimResult:
    """Resolve one case through the cache hierarchy."""
    if not use_cache:
        return execute_spec(spec)
    key = spec.key()
    cached = lookup_cached(key)
    if cached is not None:
        return cached
    result = execute_spec(spec)
    store_result(key, spec, result)
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
