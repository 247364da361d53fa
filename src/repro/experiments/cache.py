"""Content-addressed persistent result cache for the experiment harness.

Every experiment in this reproduction is a fan-out of independent
``run_case`` simulations, and the same (workload, config, idealization)
cases recur across Table I, Fig. 2, Fig. 3 and the FLOPS studies.  This
module gives those cases a durable identity:

* :class:`CaseSpec` — the full description of one simulation.  Its
  :meth:`CaseSpec.key` is a SHA-256 over a canonical JSON dump of every
  input that can change the result (workload name, instruction count,
  seeds, the *resolved* config's fields, idealization, wrong-path mode,
  warmup fraction, and the accounting schema version), so the key is a
  content address: equal inputs map to the same key in every process and
  every session.
* :class:`Job` — the harness's unit of work: one or more cases served by
  one timing run (a single case, a fused group or an N-core socket).
* :class:`DiskCache` — a pickle-per-entry store under
  ``results/.cache/`` (override with ``REPRO_CACHE_DIR``), sharded by the
  first two hex digits of the key.  Entries are written atomically and a
  truncated/corrupt/stale-schema entry is treated as a miss and deleted,
  never raised.
* :class:`HarnessTelemetry` — process-wide hit/miss/simulation counters
  (the "zero simulator invocations on a warm cache" guarantee is asserted
  against :attr:`HarnessTelemetry.sim_invocations`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config.cores import CoreConfig
from repro.core import invariants
from repro.config.idealize import Idealization
from repro.config.presets import get_preset
from repro.core.multistage import CollectorSpec
from repro.core.wrongpath import WrongPathMode
from repro.pipeline.result import ACCOUNTING_SCHEMA_VERSION, SimResult

#: Fraction of the trace used to warm caches/TLBs/predictor before the
#: measured region begins (the paper fast-forwards 10B instructions).
DEFAULT_WARMUP_FRACTION = 0.3

#: Environment variable overriding the on-disk cache location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``results/.cache``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / ".cache"


@dataclass(frozen=True)
class CaseSpec:
    """Everything that identifies one simulation case.

    Exactly one of ``preset`` (a registry name) or ``config`` (an explicit
    :class:`CoreConfig`, used by the multicore harness for per-thread
    variants) must be given.  ``seed`` seeds the trace generator;
    ``sim_seed`` the simulator (defaults to ``seed + 777``, matching the
    historical ``run_case`` behaviour).
    """

    workload: str
    preset: str | None = None
    config: CoreConfig | None = None
    idealization: Idealization | None = None
    instructions: int | None = None
    seed: int = 1
    mode: WrongPathMode = WrongPathMode.EXACT
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    sim_seed: int | None = None
    #: Accounting configuration — deliberately *excluded* from the timing
    #: key: collectors are observational, so cases differing only here
    #: share one pipeline run under fused execution.
    accounting: bool = True
    topdown: bool = False
    accounting_width: int | None = None
    #: Core count.  1 (default) is the historical single-core case — its
    #: fingerprint, key and cache entries are byte-identical to before the
    #: multi-core engine existed.  > 1 runs the workload's threaded
    #: decomposition on the shared-memory engine as ONE case (one socket
    #: run); per-core results are published under :meth:`member_key`.
    cores: int = 1

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.config is None):
            raise ValueError(
                "CaseSpec needs exactly one of preset= or config="
            )
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    @property
    def simulate_seed(self) -> int:
        return self.sim_seed if self.sim_seed is not None else self.seed + 777

    def resolved_config(self) -> CoreConfig:
        """The final machine config: preset/explicit plus idealization."""
        config = self.config
        if config is None:
            assert self.preset is not None
            config = get_preset(self.preset)
        if self.idealization is not None:
            config = self.idealization.apply(config)
        return config

    def collector_spec(self) -> CollectorSpec:
        """The collector this case wants attached to its timing run."""
        return CollectorSpec(
            accounting=self.accounting,
            topdown=self.topdown,
            accounting_width=self.accounting_width,
        )

    def timing_fingerprint(self) -> dict:
        """Canonical identity of the *timing* this case needs: trace,
        machine config, wrong-path mode, warmup and seeds — everything
        except the accounting configuration.  Cases sharing this
        fingerprint are provably served by one pipeline run (collectors
        are observational), which is what fused execution exploits.
        """
        fp = {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "workload": self.workload,
            "instructions": self.instructions,
            "trace_seed": self.seed,
            "sim_seed": self.simulate_seed,
            "mode": self.mode.value,
            "warmup_fraction": self.warmup_fraction,
            "idealization": (
                self.idealization.fingerprint()
                if self.idealization is not None
                else None
            ),
            "config": self.resolved_config().fingerprint(),
        }
        if self.cores > 1:
            # Multicore identity fields appear ONLY for cores > 1, so
            # every pre-existing single-core key stays byte-identical.
            # The schema marker versions the engine's key-relevant
            # semantics (trace decomposition, seed/warmup derivation,
            # arbitration) independently of the accounting schema.
            fp["cores"] = self.cores
            fp["multicore_schema"] = 1
        return fp

    def timing_key(self) -> str:
        """SHA-256 content address of :meth:`timing_fingerprint`."""
        text = json.dumps(
            self.timing_fingerprint(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def fingerprint(self) -> dict:
        """Canonical JSON-able identity of this case (hashed into the key).

        Accounting fields are included only when they differ from the
        historical defaults, so every pre-existing cache key (default
        multi-stage accounting) is byte-identical to what it always was —
        fused execution never invalidates a warm cache.
        """
        fp = self.timing_fingerprint()
        if not self.accounting:
            fp["accounting"] = False
        if self.topdown:
            fp["topdown"] = True
        if self.accounting_width is not None:
            fp["accounting_width"] = self.accounting_width
        return fp

    def key(self) -> str:
        """Content address: SHA-256 of the canonical fingerprint."""
        text = json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for telemetry and logs."""
        machine = self.preset or self.resolved_config().name
        ideal = f"+{self.idealization.name}" if self.idealization else ""
        acct = ""
        if not self.accounting:
            acct = "#noacc"
        elif self.topdown:
            acct = "#td"
        socket = f"x{self.cores}" if self.cores > 1 else ""
        return f"{self.workload}@{machine}{ideal}{acct}{socket}"

    def member_fingerprint(self, core: int) -> dict:
        """Identity of one core's slice of this case.

        For ``cores == 1`` it is :meth:`fingerprint`, as the member key is
        the case key, so single-core cache entries keep their bytes.
        """
        fp = self.fingerprint()
        if self.cores > 1:
            fp["multicore_member"] = core
        return fp

    def member_key(self, core: int) -> str:
        """Cache key for core ``core``'s result of a multi-core case.

        For ``cores == 1`` the member key IS the case key: a 1-core
        socket is the historical single-core case, sharing its cache
        entry.
        """
        if self.cores == 1 and core == 0:
            return self.key()
        text = json.dumps(
            self.member_fingerprint(core), sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def member_keys(self, key: str) -> list[str]:
        """Every core's cache key, in core order, given this case's own
        ``key`` (which a 1-core case's only member key equals, so a warm
        lookup hashes nothing twice)."""
        if self.cores == 1:
            return [key]
        return [self.member_key(core) for core in range(self.cores)]

    def member_label(self, core: int) -> str:
        """Label of core ``core``'s result: ``label[coreN]`` for a socket,
        the case label for a 1-core case."""
        if self.cores == 1:
            return self.label()
        return f"{self.label()}[core{core}]"


@dataclass(frozen=True)
class Job:
    """The harness's one unit of work: every case one timing run serves.

    A single case is a one-member job.  A fused group is a job with two
    or more members that share one :meth:`CaseSpec.timing_key` and
    differ only in accounting configuration: one pipeline run carries
    every member's collector.  A socket is a one-member job whose case
    has ``cores > 1``: one engine run yields one result per core.  A job
    is attempted, checkpointed, timed out and retried as a unit, and
    yields ``len(specs) * cores`` results, member-major, core-minor;
    each member's results are published under the member's own keys.
    """

    specs: tuple[CaseSpec, ...]
    #: Each member's :meth:`CaseSpec.key`, in member order.  Computed
    #: here unless the caller already holds them, so a job hashes each
    #: member once however often the harness asks for its keys.
    keys: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a Job needs at least one member")
        if not self.keys:
            keys = tuple(spec.key() for spec in self.specs)
            object.__setattr__(self, "keys", keys)
        if len(self.specs) == 1:
            return
        if any(spec.cores > 1 for spec in self.specs):
            # The multi-core engine returns results for its first
            # collector only, so a socket cannot carry fused members.
            raise ValueError("multi-core cases cannot be fused")
        timing_keys = {spec.timing_key() for spec in self.specs}
        if len(timing_keys) != 1:
            raise ValueError(
                "Job members must share one timing key, "
                f"got {len(timing_keys)} distinct timings"
            )

    @property
    def cores(self) -> int:
        return self.specs[0].cores

    def key(self) -> str:
        """Content address of the job (its checkpoints live under this).

        A one-member job's key is its case key.  A fused job's is derived
        from the sorted member keys: any change to the membership or to
        any member's identity moves it, so a checkpoint can never be
        resumed by a differently-composed job.
        """
        if len(self.keys) == 1:
            return self.keys[0]
        text = "\n".join(sorted(self.keys))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def label(self) -> str:
        first = self.specs[0].label()
        if len(self.specs) == 1:
            return first
        return f"{first} (+{len(self.specs) - 1} fused)"

    def result_labels(self) -> list[str]:
        """Invariant-guard context of every result, in result order."""
        return [
            spec.member_label(core)
            for spec in self.specs
            for core in range(self.cores)
        ]

    def split(self, results: list) -> list[tuple[CaseSpec, str, list]]:
        """Each member with its key and its per-core slice of ``results``."""
        n = self.cores
        return [
            (spec, key, results[i * n:(i + 1) * n])
            for i, (spec, key) in enumerate(zip(self.specs, self.keys))
        ]


@dataclass
class HarnessTelemetry:
    """Process-wide harness counters (reset between experiments/tests).

    ``sim_invocations`` counts simulations performed *on behalf of this
    process* — in-process runs and pool-worker runs alike (the parent
    increments when it collects a worker result), so a warm-cache rerun
    asserting "zero simulator invocations" sees through the pool.
    """

    sim_invocations: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    corrupt_entries: int = 0
    uops_simulated: int = 0
    sim_seconds: float = 0.0
    #: Checkpoint resumes: how many runs continued from a snapshot, and
    #: the total committed instructions those snapshots preserved.
    resume_events: int = 0
    resumed_instructions: int = 0
    #: Fused execution: timing groups run as one pipeline pass, and how
    #: many whole simulations that fusion avoided (members minus one per
    #: group).
    fused_groups: int = 0
    fused_runs_saved: int = 0
    #: (case label, simulated wall seconds) per simulation, newest last.
    case_seconds: list[tuple[str, float]] = field(default_factory=list)

    def reset(self) -> None:
        self.sim_invocations = 0
        self.memo_hits = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.corrupt_entries = 0
        self.uops_simulated = 0
        self.sim_seconds = 0.0
        self.resume_events = 0
        self.resumed_instructions = 0
        self.fused_groups = 0
        self.fused_runs_saved = 0
        self.case_seconds.clear()

    def record_simulation(
        self, label: str, committed_uops: int, wall_seconds: float
    ) -> None:
        """One simulator invocation that committed ``committed_uops``."""
        self.sim_invocations += 1
        self.uops_simulated += committed_uops
        self.sim_seconds += wall_seconds
        self.case_seconds.append((label, wall_seconds))

    def record_resume(self, committed_instrs: int) -> None:
        """A run continued from a checkpoint holding this much progress."""
        self.resume_events += 1
        self.resumed_instructions += committed_instrs

    def record_fusion(self, groups: int, runs_saved: int) -> None:
        """A batch fused ``groups`` timing groups, avoiding this many
        whole simulations."""
        self.fused_groups += groups
        self.fused_runs_saved += runs_saved

    def counters(self) -> dict[str, float]:
        return {
            "sim_invocations": self.sim_invocations,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "corrupt_entries": self.corrupt_entries,
            "uops_simulated": self.uops_simulated,
            "sim_seconds": self.sim_seconds,
            "resume_events": self.resume_events,
            "resumed_instructions": self.resumed_instructions,
            "fused_groups": self.fused_groups,
            "fused_runs_saved": self.fused_runs_saved,
        }


#: The process-wide telemetry instance shared by runner and scheduler.
TELEMETRY = HarnessTelemetry()


class DiskCache:
    """Pickle-per-entry content-addressed store, shared across processes.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` where each payload is
    ``{"schema": int, "spec": fingerprint, "result": SimResult.to_dict()}``.
    Writes go through an atomic rename so concurrent pool workers (or
    parallel pytest sessions) can never expose a torn entry; any
    unreadable or stale-schema entry is deleted and reported as a miss.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> SimResult | None:
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != ACCOUNTING_SCHEMA_VERSION
            ):
                raise ValueError("stale or malformed cache entry")
            result = SimResult.from_dict(payload["result"])
            violations = invariants.check_result(result)
            if violations:
                # An entry that decodes but breaks the accounting
                # identities (poisoned by an older bug or by bit rot) is
                # just as unusable as a truncated one: self-heal by
                # evicting and recomputing.
                raise ValueError(
                    f"cache entry violates invariants: {violations[0]}"
                )
            return result
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated pickle, stale schema, unreadable file, invariant
            # violation: a cache must degrade to a miss, never crash the
            # experiment.
            TELEMETRY.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, spec_fingerprint: dict, result: SimResult) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "spec": spec_fingerprint,
            "result": result.to_dict(),
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A read-only cache directory degrades to write-through misses.
            pass
        finally:
            # The temp file must not survive ANY exit path — including
            # interrupts and non-OSError failures mid-pickle.  After a
            # successful rename the unlink is a no-op FileNotFoundError.
            try:
                tmp.unlink()
            except OSError:
                pass

    def purge_tmp(self, *, max_age_seconds: float = 0.0) -> int:
        """Sweep stale ``*.tmp<pid>`` files left behind by killed writers.

        With ``max_age_seconds`` > 0 only files older than that are
        removed (so a concurrent writer's in-flight temp file survives).
        Returns how many were deleted.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        now = time.time()
        for path in self.root.glob("??/*.pkl.tmp*"):
            try:
                if (
                    max_age_seconds > 0
                    and now - path.stat().st_mtime < max_age_seconds
                ):
                    continue
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.pkl"))

    def purge(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.purge_tmp()
        if self.root.is_dir():
            for shard in self.root.glob("??"):
                try:
                    shard.rmdir()  # only empty shards; non-empty raise
                except OSError:
                    pass
        return removed

    def stats(self) -> dict[str, object]:
        """On-disk footprint plus this process's hit/miss counters."""
        entries = self.entries()
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            **TELEMETRY.counters(),
        }


def get_disk_cache() -> DiskCache:
    """The cache at the currently configured root (env read per call, so
    tests can repoint ``REPRO_CACHE_DIR`` at a temp dir)."""
    return DiskCache()
