"""Outside-in span tracer for the benchmark suite.

The tracer never edits the simulator.  :func:`install` replaces public
functions and methods of ``repro`` modules with thin wrappers that time
each call, and :meth:`Installation.uninstall` puts the originals back.
Class methods are patched on the class; module functions are patched in
every loaded ``repro`` module that imported them by name, so callers that
did ``from x import f`` see the wrapper too.

Each call is a span with a name, a start, an end, the span that called it
and the case label of the simulation it ran under.  Spans are folded in
memory by ``(case, parent, name)`` into ``[calls, total_s, self_s,
first_start, last_end]``; a span's self time is its duration minus the
time its in-process children covered.  Folding keeps millions of memory
accesses per pass at a few hundred records.

Pool workers forked after :func:`install` inherit the wrappers.  After
the fork each worker starts with an empty stack and empty records; when
its top-level ``runner.execute_*`` call returns, it appends its records
to ``<trace_dir>/spans-<pid>.jsonl`` and clears them.  The parent merges
those files with :meth:`Tracer.merge_spill_files` when the traced pass
ends.  Spawned (not forked) workers do not inherit the wrappers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

#: Top-level simulation entry points: a worker flushes its spans when one
#: of these returns with nothing else on its stack.
CASE_ENTRY_POINTS = (
    "execute_spec_checkpointed",
    "execute_fused_checkpointed",
    "execute_multicore_checkpointed",
)

_ACTIVE: "Tracer | None" = None
_FORK_HOOK_REGISTERED = False


def _reset_after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.reset()


class Tracer:
    """Span stack, folded span records and plain counters of one process."""

    def __init__(self, spill_dir: Path | str | None = None, clock=None):
        self.clock = clock or time.perf_counter
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.origin_pid = os.getpid()
        self.case = ""
        self.stack: list[list] = []
        self.folded: dict[tuple[str, str, str], list] = {}
        self.counts: dict[str, float] = {}

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts empty).

        Containers are cleared in place: count wrappers hold a reference
        to :attr:`counts`.
        """
        self.case = ""
        self.stack.clear()
        self.folded.clear()
        self.counts.clear()

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, children = self.stack.pop()
        duration = end - start
        stack = self.stack
        if stack:
            parent_frame = stack[-1]
            parent_frame[2] += duration
            parent = parent_frame[0]
        else:
            parent = ""
        key = (self.case, parent, name)
        record = self.folded.get(key)
        if record is None:
            self.folded[key] = [1, duration, duration - children, start, end]
        else:
            record[0] += 1
            record[1] += duration
            record[2] += duration - children
            record[4] = end

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- worker spill files ---------------------------------------------------

    def spill(self) -> None:
        """Append this worker's records to its spans file and clear them."""
        if self.spill_dir is None or (not self.folded and not self.counts):
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for (case, parent, name), rec in self.folded.items():
                handle.write(json.dumps({
                    "case": case, "parent": parent, "name": name,
                    "calls": rec[0], "total_s": rec[1], "self_s": rec[2],
                    "start": rec[3], "end": rec[4],
                }) + "\n")
            for name, value in self.counts.items():
                handle.write(json.dumps({"count": name, "value": value}) + "\n")
        self.folded.clear()
        self.counts.clear()

    def merge_spill_files(self) -> int:
        """Fold every worker's spans file into this tracer; returns how
        many files were merged (each is deleted once read)."""
        if self.spill_dir is None or not self.spill_dir.is_dir():
            return 0
        merged = 0
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    row = json.loads(line)
                    if "count" in row:
                        self.count(row["count"], row["value"])
                        continue
                    key = (row["case"], row["parent"], row["name"])
                    rec = self.folded.get(key)
                    if rec is None:
                        self.folded[key] = [
                            row["calls"], row["total_s"], row["self_s"],
                            row["start"], row["end"],
                        ]
                    else:
                        rec[0] += row["calls"]
                        rec[1] += row["total_s"]
                        rec[2] += row["self_s"]
                        rec[3] = min(rec[3], row["start"])
                        rec[4] = max(rec[4], row["end"])
            path.unlink()
            merged += 1
        return merged

    # -- summaries ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, summed
        over cases and parents."""
        out: dict[str, dict[str, float]] = {}
        for (_case, _parent, name), rec in self.folded.items():
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += rec[0]
            agg["s"] += rec[1]
            agg["self_s"] += rec[2]
        return out


# ---------------------------------------------------------------------------
# wrappers


def span_wrapper(tracer: Tracer, name: str, fn, after=None):
    """Time every call of ``fn`` as span ``name``.

    ``after(result, args, kwargs)`` may record counters from the call's
    arguments and result once the span has closed.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def case_wrapper(tracer: Tracer, name: str, fn):
    """Span for a ``runner.execute_*`` call.

    The outermost one sets the case label (the spec's or group's label)
    for every span the simulation opens.  In a forked worker the records
    are spilled once the call returns with an empty stack.
    """

    @functools.wraps(fn)
    def wrapper(spec, *args, **kwargs):
        previous = tracer.case
        if not previous:
            tracer.case = spec.label()
        tracer.enter(name)
        try:
            return fn(spec, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.case = previous
            if not tracer.stack and os.getpid() != tracer.origin_pid:
                tracer.spill()

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn):
    """Count calls of ``fn`` without opening a span."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def cycles_wrapper(tracer: Tracer, name: str, fn, cycles_of):
    """Span that also counts the simulated cycles the call advanced."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = cycles_of(self)
        tracer.enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.count("pipeline.core.cycles", cycles_of(self) - before)

    return wrapper


# ---------------------------------------------------------------------------
# installation


class Installation:
    """The patches one :func:`install` made, undone by :meth:`uninstall`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(self, module, attr: str, make) -> None:
        """Patch ``module.attr`` and every loaded ``repro`` module that
        holds the same function object under the same name."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        global _ACTIVE
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        if _ACTIVE is self.tracer:
            _ACTIVE = None


def _cache_put_bytes(tracer: Tracer):
    def after(_result, args, _kwargs):
        cache, key = args[0], args[1]
        try:
            size = cache.path_for(key).stat().st_size
        except OSError:
            size = 0
        tracer.count("experiments.cache.bytes_written", size)

    return after


def install(tracer: Tracer) -> Installation:
    """Wrap the public entry points of every measured layer.

    Call before any pool forks, so forked workers inherit the wrappers.
    """
    global _ACTIVE, _FORK_HOOK_REGISTERED
    from repro.core import invariants, multistage
    from repro.experiments import cache, parallel, runner, supervisor
    from repro.memory import hierarchy
    from repro.pipeline import checkpoint, core, frontend, multicore
    from repro.pipeline import replay, result
    from repro.workloads import base

    inst = Installation(tracer)
    t = tracer

    def span(name, after=None):
        return lambda fn: span_wrapper(t, name, fn, after)

    def counter(name, amount):
        return lambda result, args, kwargs: t.count(name, amount(result, args))

    # workloads
    inst.patch_method(base.WorkloadSpec, "make", span("workloads.make_trace"))
    inst.patch_function(
        runner, "make_threaded_traces", span("workloads.make_trace")
    )
    # pipeline.core
    sim = core.CoreSimulator
    inst.patch_method(sim, "__init__", span("pipeline.core.init"))
    inst.patch_method(
        sim, "run",
        lambda fn: cycles_wrapper(t, "pipeline.core.run", fn,
                                  lambda s: s.cycle),
    )
    # The one private hook: ``run()`` binds ``self._step_event`` as its
    # step function, and SimResult's ff/replay counters under-report.
    inst.patch_method(
        sim, "_step_event",
        lambda fn: count_wrapper(t, "pipeline.core.steps", fn),
    )
    inst.patch_method(
        frontend.Frontend, "deliver", span("pipeline.frontend.deliver")
    )
    # memory
    for attr in ("dload", "dstore", "ifetch", "probe_latency"):
        inst.patch_method(hierarchy.MemoryHierarchy, attr, span(f"memory.{attr}"))
    # core: accountants and the invariant guard
    for attr in ("observe", "observe_repeat", "finalize"):
        inst.patch_method(
            multistage.MultiStageCollector, attr, span(f"core.collector.{attr}")
        )
    inst.patch_method(
        invariants.InvariantGuard, "check", span("core.invariants.verify")
    )
    # skip engines
    inst.patch_method(
        replay.ReplayEngine, "on_cycle", span("pipeline.replay.on_cycle")
    )
    # multicore engine
    inst.patch_method(
        multicore.MulticoreSimulator, "run",
        lambda fn: cycles_wrapper(
            t, "pipeline.multicore.run", fn,
            lambda s: sum(c.cycle for c in s.cores),
        ),
    )
    inst.patch_method(sim, "step_cycle", span("pipeline.multicore.step_cycle"))
    # checkpoints
    inst.patch_method(sim, "snapshot", span("pipeline.checkpoint.snapshot"))
    inst.patch_method(
        multicore.MulticoreSimulator, "snapshot",
        span("pipeline.checkpoint.snapshot"),
    )
    inst.patch_function(
        checkpoint, "save_checkpoint",
        span("pipeline.checkpoint.save",
             counter("pipeline.checkpoint.bytes", lambda r, a: len(a[1]))),
    )
    inst.patch_method(sim, "from_snapshot", span("pipeline.checkpoint.restore"))
    inst.patch_method(
        multicore.MulticoreSimulator, "from_snapshot",
        span("pipeline.checkpoint.restore"),
    )
    # results
    inst.patch_method(result.SimResult, "to_dict", span("pipeline.result.to_dict"))
    inst.patch_method(
        result.SimResult, "from_dict", span("pipeline.result.from_dict")
    )
    # harness: cache, scheduler, supervisor
    inst.patch_method(
        cache.DiskCache, "get",
        span("experiments.cache.get",
             counter("experiments.cache.hits", lambda r, a: r is not None)),
    )
    inst.patch_method(
        cache.DiskCache, "put",
        span("experiments.cache.put", _cache_put_bytes(t)),
    )
    inst.patch_method(cache.CaseSpec, "key", span("experiments.cache.key"))
    inst.patch_function(parallel, "run_cases", span("experiments.parallel.run_cases"))
    inst.patch_function(
        parallel, "run_multicore_cases", span("experiments.parallel.run_cases")
    )
    inst.patch_function(
        supervisor, "run_supervised",
        span("experiments.supervisor.run_supervised", _supervision_counts(t)),
    )
    for attr in CASE_ENTRY_POINTS:
        inst.patch_function(
            runner, attr, lambda fn, a=attr: case_wrapper(t, f"runner.{a}", fn)
        )

    _ACTIVE = tracer
    if not _FORK_HOOK_REGISTERED:
        os.register_at_fork(after_in_child=_reset_after_fork)
        _FORK_HOOK_REGISTERED = True
    return inst


def _supervision_counts(tracer: Tracer):
    def after(outcome, _args, _kwargs):
        tracer.count("experiments.supervisor.retries", outcome.retries)
        tracer.count("experiments.supervisor.resumes", outcome.resumes)

    return after
