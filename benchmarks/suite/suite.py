"""The four benchmark workloads, run in a child process by ``bench.py``.

``bench.py`` starts this file with a clean environment (no ``REPRO_*``
toggles; cache, checkpoint and failure stores in a scratch directory)::

    python3 benchmarks/suite/suite.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --work DIR
    python3 benchmarks/suite/suite.py --write-golden PATH --work DIR

A run builds its inputs (timed as set-up), runs one untimed warm-up
pass, then timed passes until ``--seconds`` have elapsed (at least one),
and with ``--trace 1`` one more pass under the outside-in tracer.  Every
pass's results are checked against ``golden.json`` when it holds the
seed, else against the first pass of the run.  The last line of stdout
is one JSON object with the raw measurements; ``bench.py`` turns it into
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import trace as tracing  # noqa: E402  (benchmarks/suite/trace.py)

from repro.config.idealize import PERFECT_DCACHE  # noqa: E402
from repro.experiments import (  # noqa: E402
    error,
    flops_study,
    idealization,
    parallel,
    runner,
    supervisor,
)
from repro.experiments.cache import (  # noqa: E402
    ENV_CACHE_DIR,
    TELEMETRY,
    CaseSpec,
    DiskCache,
)

GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEEDS = (1, 2)

#: Trace length of every paper-artifact case (CI scale).
PAPER_INSTRUCTIONS = 3000
#: Worker processes of the paper workloads' batches.
PAPER_JOBS = min(2, os.cpu_count() or 1)

#: sim-suite cells, (workload, preset, runs per pass): each engine or
#: layer dominates one cell and idles in another (see README.md).
#: Registry default trace lengths.  Cells shorter than 0.2 s repeat, so
#: that each cell's accounting-on runs in one pass add up to at least
#: 0.2 s on a 2-vCPU Xeon; the counts are fixed so every pass does the
#: same work.
SIM_CELLS = (
    ("mcf", "bdw", 1),
    ("chase", "bdw", 1),
    ("bwaves", "bdw", 1),
    ("leela", "bdw", 1),
    ("exchange2", "knl", 4),
    ("spin", "knl", 4),
    ("gemm-train-1760-knl", "knl", 2),
    ("conv-vgg-2-fwd", "skx", 1),
)

SOCKET_WORKLOAD = "conv-vgg-2-fwd"
SOCKET_PRESET = "skx"
SOCKET_CORES = 4
CHECKPOINT_INTERVAL = 40_000
#: Every socket dies once right after its first checkpoint lands.
FAULT_PLAN = {"*": {"kind": "sigkill_mid_case", "times": 1}}

#: Input traces are built this many times in set-up; the median counts.
TRACE_BUILDS = 3

#: SimResult fields left out of the golden digest: host time and the
#: skip-engine telemetry, which are not simulated results.
TELEMETRY_FIELDS = (
    "wall_seconds",
    "ff_windows",
    "ff_cycles_skipped",
    "replay_windows",
    "replay_cycles_skipped",
)


def _canonical_sha(result, drop: tuple[str, ...]) -> str:
    data = result.to_dict()
    for name in drop:
        data.pop(name, None)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_entry(result) -> list:
    """``[sha256 of the canonical result, committed uops]``."""
    return [_canonical_sha(result, TELEMETRY_FIELDS), result.committed_uops]


def timing_entry(result) -> str:
    """Digest of the timing fields only (everything but the stacks)."""
    return _canonical_sha(result, TELEMETRY_FIELDS + ("report",))


def load_golden(seed: int, group: str, path: Path = GOLDEN_PATH) -> dict | None:
    """The committed digests of one workload group for ``seed``, if any."""
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    return data.get("seeds", {}).get(str(seed), {}).get(group)


class Checker:
    """Counts operations and failed operations against a reference.

    The reference maps an operation key (a cache key or a sim-suite cell)
    to its digest entry.  With a committed golden it is fixed and an
    unknown key fails; without one, the first entry seen for each key
    (the warm-up pass) becomes the reference.
    """

    def __init__(self, golden: dict | None) -> None:
        self.locked = golden is not None
        self.reference: dict[str, list] = dict(golden or {})
        self.attempted = 0
        self.failed = 0

    def check_one(self, key: str, entry: list | None) -> bool:
        self.attempted += 1
        expected = self.reference.get(key)
        if entry is None:
            ok = False
        elif expected is None:
            ok = not self.locked
            if ok:
                self.reference[key] = entry
        else:
            ok = list(expected) == list(entry)
        if not ok:
            self.failed += 1
        return ok

    def check_set(self, digest: dict[str, list]) -> None:
        """Check a whole result set: every reference key must be present
        and equal, and no key may be extra."""
        for key in sorted(set(self.reference) | set(digest)):
            self.check_one(key, digest.get(key))

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def reference_uops(self) -> int:
        return sum(int(entry[1]) for entry in self.reference.values())


@dataclass
class Pass:
    """What one pass did.  ``wall_s`` covers the work only, not checks."""

    wall_s: float = 0.0
    sim_s: float = 0.0
    fused_runs_saved: int = 0
    error: str | None = None
    cache_dir: Path | None = None
    #: sim-suite: (cell key, result or None, seconds) per execute_spec.
    ops: list = field(default_factory=list)
    #: socket-recover: per-core result lists, one per socket.
    sockets: list = field(default_factory=list)
    #: paper-warm: simulations and disk hits during the pass.
    sims: int = 0
    disk_hits: int = 0
    #: Filled by ``verify``: the results (for simulated statistics).
    results: list = field(default_factory=list)


def _run_guarded(fn) -> str | None:
    """Run one pass body; an exception becomes the pass's error text (its
    missing results then count as failed operations)."""
    try:
        fn()
    except Exception as exc:  # the benchmark reports failures, never hides them
        return f"{type(exc).__name__}: {exc}"
    return None


def check_cache(checker: Checker, root: Path) -> list:
    """Check every result in a cache directory; returns the results.

    Entries are read back through DiskCache, which drops undecodable or
    invariant-violating ones (they then count as missing).
    """
    cache = DiskCache(root)
    results = {}
    for path in cache.entries():
        result = cache.get(path.stem)
        if result is not None:
            results[path.stem] = result
    checker.check_set({key: digest_entry(r) for key, r in results.items()})
    return list(results.values())


def paper_artifacts(seed: int, jobs: int) -> None:
    """Regenerate Table I and Figs. 1-5 (plus the 4-core Fig. 5 socket)."""
    n = PAPER_INSTRUCTIONS
    idealization.table1_rows(instructions=n, seed=seed, jobs=jobs)
    runner.run_case("mcf", "bdw", instructions=n, seed=seed)  # Fig. 1
    for preset in ("bdw", "knl"):
        error.figure2_errors(preset, instructions=n, seed=seed, jobs=jobs)
    for case in idealization.FIG3_CASES:
        idealization.fig3_case(case, instructions=n, seed=seed, jobs=jobs)
    flops_study.figure4_differences(instructions=n, seed=seed, jobs=jobs)
    flops_study.figure5_case(instructions=n, seed=seed, jobs=jobs)
    flops_study.figure5_socket_case(instructions=n, seed=seed, jobs=jobs)


def _telemetry_pass(body) -> Pass:
    """Time ``body`` and record the harness telemetry it moved."""
    sim0 = TELEMETRY.sim_seconds
    fused0 = TELEMETRY.fused_runs_saved
    sims0 = TELEMETRY.sim_invocations
    hits0 = TELEMETRY.disk_hits
    start = time.perf_counter()
    err = _run_guarded(body)
    wall = time.perf_counter() - start
    return Pass(
        wall_s=wall,
        sim_s=TELEMETRY.sim_seconds - sim0,
        fused_runs_saved=TELEMETRY.fused_runs_saved - fused0,
        sims=TELEMETRY.sim_invocations - sims0,
        disk_hits=TELEMETRY.disk_hits - hits0,
        error=err,
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    golden_group = ""
    #: Worker processes the workload's batches may use.
    jobs = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.checker = Checker(load_golden(seed, self.golden_group))

    def setup(self) -> list[float]:
        """Build the inputs TRACE_BUILDS times; returns each build's
        seconds.  The trace memo keeps the last build for the passes."""
        times = []
        for _ in range(TRACE_BUILDS):
            runner.clear_cache(disk=False)
            start = time.perf_counter()
            self.build_inputs()
            times.append(time.perf_counter() - start)
        return times

    def build_inputs(self) -> None:
        """Build the input traces the passes use (none for the paper
        workloads: a paper pass builds its own, from a cleared memo)."""

    def warm_up(self) -> None:
        self.verify(self.run_pass())

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def verify(self, p: Pass) -> None:
        raise NotImplementedError

    def pass_rate(self, p: Pass) -> float:
        """Committed uops per second of one pass (uops of the reference)."""
        return self.checker.reference_uops() / p.wall_s

    def cell_overheads(self, passes: list[Pass]) -> dict:
        """Per-cell accounting overheads; only sim-suite has cells."""
        return {"overall": 0.0, "cells": {}}

    def finish(self) -> None:
        """Checks that need the whole run (after the last pass)."""


class PaperCold(Workload):
    name = "paper-cold"
    golden_group = "paper"
    jobs = PAPER_JOBS

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self._count = 0

    def run_pass(self) -> Pass:
        self._count += 1
        cache_dir = self.work / f"paper-cache-{self._count}"
        os.environ[ENV_CACHE_DIR] = str(cache_dir)
        runner.clear_cache(disk=False)
        p = _telemetry_pass(lambda: paper_artifacts(self.seed, self.jobs))
        p.cache_dir = cache_dir
        return p

    def verify(self, p: Pass) -> None:
        p.results = check_cache(self.checker, p.cache_dir)
        shutil.rmtree(p.cache_dir, ignore_errors=True)


class PaperWarm(Workload):
    name = "paper-warm"
    golden_group = "paper"
    jobs = PAPER_JOBS

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.cache_dir = work / "paper-cache"
        self.cached: list = []

    def warm_up(self) -> None:
        # Populate the cache once (an untimed cold pass), check it, then
        # run the untimed warm pass.
        os.environ[ENV_CACHE_DIR] = str(self.cache_dir)
        runner.clear_cache(disk=False)
        paper_artifacts(self.seed, self.jobs)
        self.cached = check_cache(self.checker, self.cache_dir)
        self.verify(self.run_pass())

    def run_pass(self) -> Pass:
        runner.clear_cache(disk=False)
        return _telemetry_pass(lambda: paper_artifacts(self.seed, self.jobs))

    def verify(self, p: Pass) -> None:
        # One operation per cached case.  The memo is cleared before the
        # pass, so each must be one disk hit; a simulation means a lookup
        # missed.  The entries' contents are re-checked in ``finish``.
        expected = len(self.checker.reference)
        if p.error is not None:
            failed = expected
        else:
            failed = min(expected, p.sims + max(0, expected - p.disk_hits))
        self.checker.count(expected, failed)
        p.results = self.cached

    def finish(self) -> None:
        check_cache(self.checker, self.cache_dir)


class SimSuite(Workload):
    name = "sim-suite"
    golden_group = "sim-suite"

    def build_inputs(self) -> None:
        for workload, _preset, _runs in SIM_CELLS:
            runner.get_trace(workload, None, self.seed)

    def run_pass(self) -> Pass:
        ops = []
        sim0 = TELEMETRY.sim_seconds
        start = time.perf_counter()
        for workload, preset, runs in SIM_CELLS:
            for _ in range(runs):
                for accounting in (True, False):
                    spec = CaseSpec(
                        workload=workload, preset=preset, seed=self.seed,
                        accounting=accounting,
                    )
                    box = []
                    t0 = time.perf_counter()
                    _run_guarded(
                        lambda s=spec: box.append(runner.execute_spec(s))
                    )
                    ops.append((cell_key(workload, preset, accounting),
                                box[0] if box else None,
                                time.perf_counter() - t0))
        return Pass(
            wall_s=time.perf_counter() - start,
            sim_s=TELEMETRY.sim_seconds - sim0,
            ops=ops,
        )

    def verify(self, p: Pass) -> None:
        on_timing = None
        seen = set()
        for key, result, _seconds in p.ops:
            entry = digest_entry(result) if result is not None else None
            ok = self.checker.check_one(key, entry)
            # Accounting is observational: the off run of a pair must
            # reproduce the on run's timing exactly.
            timing = timing_entry(result) if result is not None else None
            if key.endswith("#on"):
                on_timing = timing
                if result is not None and key not in seen:
                    seen.add(key)
                    p.results.append(result)
            elif ok and timing != on_timing:
                self.checker.failed += 1

    def cell_seconds(self, passes: list[Pass]) -> dict[str, dict[str, list]]:
        """Per cell: the seconds of every on and off run of ``passes``."""
        out: dict[str, dict[str, list]] = {}
        for p in passes:
            for key, _result, seconds in p.ops:
                cell, variant = key.split("#")
                out.setdefault(cell, {"on": [], "off": []})[variant].append(
                    seconds
                )
        return out

    def cell_uops(self) -> dict[str, int]:
        return {
            key.split("#")[0]: int(entry[1])
            for key, entry in self.checker.reference.items()
            if key.endswith("#on")
        }

    def pass_rate(self, p: Pass) -> float:
        """Geometric mean over cells of uops per second, accounting on."""
        uops = self.cell_uops()
        rates = [
            uops[cell] / statistics.median(seconds["on"])
            for cell, seconds in self.cell_seconds([p]).items()
        ]
        return math.exp(sum(math.log(r) for r in rates) / len(rates))

    def cell_overheads(self, passes: list[Pass]) -> dict:
        """Per cell: uops/s with accounting on and the on/off host-time
        overhead, from the medians of the untraced runs.  ``overall`` is
        the geometric mean of the per-cell on/off ratios, minus one."""
        uops = self.cell_uops()
        cells = {}
        logs = []
        for cell, seconds in self.cell_seconds(passes).items():
            on = statistics.median(seconds["on"])
            off = statistics.median(seconds["off"])
            cells[cell] = {
                "uops_per_s": uops[cell] / on,
                "overhead": on / off - 1.0,
                "on_s": on,
                "off_s": off,
                "runs": len(seconds["on"]),
            }
            logs.append(math.log(on / off))
        return {"overall": math.exp(sum(logs) / len(logs)) - 1.0,
                "cells": cells}


def cell_key(workload: str, preset: str, accounting: bool) -> str:
    return f"{workload}-{preset}#{'on' if accounting else 'off'}"


class SocketRecover(Workload):
    name = "socket-recover"
    golden_group = "socket-recover"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.specs = socket_specs(seed)

    def build_inputs(self) -> None:
        runner.get_threaded_traces(
            SOCKET_WORKLOAD, SOCKET_CORES, None, self.seed
        )

    def warm_up(self) -> None:
        # The warm-up runs both sockets uninterrupted; for seeds without
        # a golden it is the reference the resumed passes must reproduce.
        box = []
        err = _run_guarded(lambda: box.append(parallel.run_multicore_cases(
            self.specs, jobs=1, use_cache=False, keep_going=True,
        )))
        self.verify(Pass(error=err, sockets=box[0] if box else []))

    def run_pass(self) -> Pass:
        box = []
        supervisor.fault_plan = FAULT_PLAN
        try:
            p = _telemetry_pass(lambda: box.append(parallel.run_multicore_cases(
                self.specs, jobs=1, use_cache=False, keep_going=True,
                checkpoint_interval=CHECKPOINT_INTERVAL, retry_backoff=0,
            )))
        finally:
            supervisor.fault_plan = None
        p.sockets = box[0] if box else []
        return p

    def verify(self, p: Pass) -> None:
        sockets = list(p.sockets) + [None] * (len(self.specs) - len(p.sockets))
        for spec, per_core in zip(self.specs, sockets):
            for core in range(SOCKET_CORES):
                result = per_core[core] if per_core else None
                self.checker.check_one(
                    spec.member_key(core),
                    digest_entry(result) if result is not None else None,
                )
                if result is not None:
                    p.results.append(result)


def socket_specs(seed: int) -> list[CaseSpec]:
    return [
        CaseSpec(workload=SOCKET_WORKLOAD, preset=SOCKET_PRESET, seed=seed,
                 cores=SOCKET_CORES, idealization=ideal)
        for ideal in (None, PERFECT_DCACHE)
    ]


WORKLOADS = {
    cls.name: cls for cls in (PaperCold, PaperWarm, SimSuite, SocketRecover)
}


# ---------------------------------------------------------------------------
# metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_stats(results: list) -> dict[str, float]:
    """Simulated miss and mispredict ratios summed over ``results``."""
    acc = {"l1d": [0, 0], "l2": [0, 0]}
    lookups = mispredicts = 0
    for result in results:
        for level, pair in acc.items():
            stats = result.memory_stats.get(level, {})
            pair[0] += stats.get("misses", 0)
            pair[1] += stats.get("accesses", 0)
        lookups += result.branch_lookups
        mispredicts += result.branch_mispredicts
    return {
        "memory.l1d.miss_ratio": _ratio(*acc["l1d"]),
        "memory.l2.miss_ratio": _ratio(*acc["l2"]),
        "branch.mispredict_ratio": _ratio(mispredicts, lookups),
    }


def layer_metrics(
    wl: Workload, tracer: tracing.Tracer, traced: Pass, passes: list[Pass]
) -> dict[str, float]:
    """Every per-layer metric, grouped by layer; 0 where the workload
    leaves a layer idle."""
    spans = tracer.totals()
    counts = tracer.counts
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m: dict[str, float] = {}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    def calls_and_self(*names: str) -> None:
        for name in names:
            m[f"{name}.calls"] = span(name)["calls"]
            m[f"{name}.self_s"] = span(name)["self_s"]

    def count(name: str) -> float:
        return counts.get(name, 0)

    m["workloads.make_trace.calls"] = span("workloads.make_trace")["calls"]
    m["workloads.make_trace.s"] = span("workloads.make_trace")["s"]
    m["pipeline.core.init.s"] = span("pipeline.core.init")["s"]
    m["pipeline.core.run.self_s"] = span("pipeline.core.run")["self_s"]
    m["pipeline.core.steps"] = count("pipeline.core.steps")
    m["pipeline.core.cycles"] = count("pipeline.core.cycles")
    m["pipeline.core.cycles_per_step"] = _ratio(
        count("pipeline.core.cycles"), count("pipeline.core.steps")
    )
    calls_and_self(
        "pipeline.frontend.deliver",
        "memory.dload", "memory.dstore", "memory.ifetch",
        "memory.probe_latency",
    )
    m.update(simulated_stats(traced.results))
    calls_and_self(
        "core.collector.observe", "core.collector.observe_repeat",
        "core.collector.finalize",
    )
    cells = wl.cell_overheads(passes)
    m["core.acct_overhead_frac"] = cells["overall"]
    calls_and_self("core.invariants.verify", "pipeline.replay.on_cycle")
    m["pipeline.multicore.run.self_s"] = span("pipeline.multicore.run")["self_s"]
    calls_and_self(
        "pipeline.multicore.step_cycle",
        "pipeline.checkpoint.snapshot", "pipeline.checkpoint.save",
        "pipeline.checkpoint.restore",
    )
    m["pipeline.checkpoint.bytes"] = count("pipeline.checkpoint.bytes")
    calls_and_self(
        "pipeline.result.to_dict", "pipeline.result.from_dict",
        "experiments.cache.get", "experiments.cache.put",
        "experiments.cache.key",
    )
    m["experiments.cache.bytes_written"] = count(
        "experiments.cache.bytes_written"
    )
    m["experiments.cache.hit_ratio"] = _ratio(
        count("experiments.cache.hits"), span("experiments.cache.get")["calls"]
    )
    m["experiments.parallel.run_cases.self_s"] = span(
        "experiments.parallel.run_cases"
    )["self_s"]
    m["experiments.parallel.fused_runs_saved"] = traced.fused_runs_saved
    m["experiments.parallel.worker_busy_frac"] = statistics.median(
        _ratio(p.sim_s, p.wall_s * wl.jobs) for p in passes
    )
    calls_and_self("experiments.supervisor.run_supervised")
    m["experiments.supervisor.retries"] = count(
        "experiments.supervisor.retries"
    )
    m["experiments.supervisor.resumes"] = count(
        "experiments.supervisor.resumes"
    )
    for workload, preset, _runs in SIM_CELLS:
        cell = f"{workload}-{preset}"
        info = cells["cells"].get(cell, {"uops_per_s": 0.0, "overhead": 0.0})
        m[f"cell.{cell}.uops_per_s"] = info["uops_per_s"]
        m[f"cell.{cell}.acct_overhead_frac"] = info["overhead"]
    m["trace.overhead_frac"] = (
        traced.wall_s / statistics.median(p.wall_s for p in passes) - 1.0
    )
    return m


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it waited for (MiB)."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# entry points


def measure(name: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    """One benchmark run of one workload; returns the raw measurements."""
    wl = WORKLOADS[name](seed, work)
    build_s = wl.setup()
    wl.warm_up()
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = wl.run_pass()
        wl.verify(p)
        passes.append(p)
    layers = None
    cells = wl.cell_overheads(passes)
    if trace:
        spill = work / "spans"
        spill.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer(spill)
        installation = tracing.install(tracer)
        try:
            # One input build joins the traced pass, so the trace shows
            # what set-up costs too; the pass alone is timed.
            runner.clear_cache(disk=False)
            wl.build_inputs()
            traced = wl.run_pass()
        finally:
            installation.uninstall()
        tracer.merge_spill_files()
        wl.verify(traced)
        layers = layer_metrics(wl, tracer, traced, passes)
    wl.finish()
    return {
        "workload": name,
        "seed": seed,
        "golden": wl.checker.locked,
        "trace_build_s": build_s,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_uops_per_s": [wl.pass_rate(p) for p in passes],
        "errors": sorted({p.error for p in passes if p.error}),
        "attempted": wl.checker.attempted,
        "failed": wl.checker.failed,
        "cells": cells["cells"],
        "layers": layers,
        "peak_rss_mb": peak_rss_mb(),
    }


def write_golden(path: Path, work: Path) -> None:
    """Regenerate the digests of every workload group for GOLDEN_SEEDS.

    Paper cases come from one cold pass; sim-suite cells from one run of
    each cell with accounting on and off; sockets from uninterrupted
    runs (the resumed runs of socket-recover must reproduce them).
    """
    seeds = {}
    for seed in GOLDEN_SEEDS:
        groups = {}
        cold = PaperCold(seed, work)
        cold.checker = Checker(None)
        cold.verify(cold.run_pass())
        groups["paper"] = cold.checker.reference
        sim = SimSuite(seed, work)
        sim.checker = Checker(None)
        runner.clear_cache(disk=False)
        sim.verify(sim.run_pass())
        groups["sim-suite"] = sim.checker.reference
        sock = SocketRecover(seed, work)
        sock.checker = Checker(None)
        sock.warm_up()
        groups["socket-recover"] = sock.checker.reference
        for name, group in groups.items():
            print(f"seed {seed}: {name}: {len(group)} cases", flush=True)
        seeds[str(seed)] = groups
    doc = {
        "schema": 1,
        "about": (
            "SHA-256 of each case's canonical SimResult.to_dict() (without "
            "wall_seconds and the ff_*/replay_* telemetry) and its committed "
            "uops; regenerate with: python3 benchmarks/suite/bench.py "
            "--write-golden"
        ),
        "paper_instructions": PAPER_INSTRUCTIONS,
        "seeds": seeds,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--write-golden", type=Path)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    if args.write_golden is not None:
        write_golden(args.write_golden, args.work)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.work)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
