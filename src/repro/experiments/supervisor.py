"""Supervised execution of case batches: deadlines, retries, fault reports.

PR 1's scheduler had no failure story: one crashed or hung worker raised
out of ``future.result()`` and discarded the entire batch.  Sensitivity
sweeps in the style of Pompougnac/Dutilleul et al. run hundreds of
perturbed simulations per figure; at that scale individual failures are
routine and a batch must survive them.  This module wraps every case in a
**supervised attempt**:

* a per-case deadline, scaled from the spec's instruction count
  (override with ``case_timeout=`` / ``--case-timeout`` /
  ``$REPRO_CASE_TIMEOUT``);
* bounded retries with exponential backoff for transient failures
  (crashes, timeouts, corrupt payloads, invariant violations);
* automatic pool rebuild when the ``ProcessPoolExecutor`` breaks
  (a worker died hard), and graceful degradation to in-process serial
  execution once it has broken :data:`POOL_BREAK_LIMIT` times; a broken
  pool charges a failed attempt only to the jobs that had started in it;
* per-case classification — ``crash`` / ``timeout`` / ``invariant`` /
  ``corrupt-payload`` — collected into a :class:`FailureReport` and
  persisted as ``results/failures/<key>.json`` so a later run can
  re-attempt exactly the failed cases (successes delete their stale
  record);
* a ``KeyboardInterrupt`` anywhere in the batch cancels pending futures
  and reaps the pool instead of stranding orphan workers;
* **crash recovery via checkpoints**: with checkpointing active
  (``checkpoint_interval=`` / ``--checkpoint-interval`` /
  ``$REPRO_CHECKPOINT_INTERVAL``), workers snapshot mid-simulation and a
  retry resumes from the newest valid checkpoint (corrupt files are
  checksum-detected and evicted, falling back to older ones, then a
  fresh start) with bitwise-identical results; checkpoints are cleared
  once the case's result is safely published.

Every supervision path is exercised by tests through a **deterministic
fault-injection hook**: set :data:`fault_plan` (monkeypatchable) or
``$REPRO_FAULT_PLAN`` (JSON) to make chosen cases crash, abort the worker
process, hang, or return corrupted payloads for their first N attempts.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core import invariants
from repro.experiments import runner
from repro.experiments.cache import CaseSpec, Job
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.result import SimResult
from repro.store import Store, env_number

#: Environment variable: one deadline (seconds) for every case.
ENV_CASE_TIMEOUT = "REPRO_CASE_TIMEOUT"
#: Environment variable: JSON fault plan (see :func:`get_fault_plan`).
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"
#: Environment variable overriding the failure-report directory.
ENV_FAILURES_DIR = "REPRO_FAILURES_DIR"
#: Environment variable capping how many failure reports are retained.
ENV_MAX_FAILURES = "REPRO_MAX_FAILURES"

#: Keep the newest this-many failure reports (older ones are evicted by
#: :func:`save_failure`); override with ``$REPRO_MAX_FAILURES``.
DEFAULT_MAX_FAILURES = 200

#: Total attempts per case (first try + retries).
DEFAULT_MAX_ATTEMPTS = 3
#: Backoff before retry round r: ``DEFAULT_BACKOFF * 2**(r-1)``, capped.
DEFAULT_BACKOFF = 0.1
BACKOFF_CAP = 2.0
#: After this many ``BrokenProcessPool`` events the batch goes serial.
POOL_BREAK_LIMIT = 2

#: Deadline scaling: BASE + PER_INSTRUCTION * instruction count.
BASE_DEADLINE_SECONDS = 20.0
PER_INSTRUCTION_SECONDS = 0.002
FALLBACK_INSTRUCTIONS = 100_000

#: Schema of the persisted failure records.
FAILURE_SCHEMA = 1

#: Deterministic fault plan (tests monkeypatch this; ``None`` defers to
#: ``$REPRO_FAULT_PLAN``).  Mapping of case matcher -> fault dict:
#: ``{"mcf@tiny": {"kind": "crash", "times": 1}}``.  A matcher is a case
#: label, a >= 8 char prefix of the case key, or ``"*"`` (every case).
#: Kinds: ``crash`` (raise), ``abort`` (kill the worker process),
#: ``hang`` (sleep ``seconds``, default 30), ``interrupt``
#: (KeyboardInterrupt), ``corrupt`` (ship a damaged payload; ``style`` in
#: {"cycles", "schema", "garbage"}), ``sigkill_mid_case`` (SIGKILL the
#: worker right after its first checkpoint lands — the retry must resume),
#: ``truncate_checkpoint`` (tear the newest checkpoint file before the
#: attempt — the recovery ladder must evict it and fall back).  ``times``
#: (default 1) faults the first N attempts only, so retries can be seen
#: to recover.
fault_plan: dict | None = None

#: Every fault kind the injection hook understands.
FAULT_KINDS = frozenset(
    {
        "crash",
        "abort",
        "hang",
        "interrupt",
        "corrupt",
        "sigkill_mid_case",
        "truncate_checkpoint",
    }
)


class FaultInjected(RuntimeError):
    """Deterministic fault raised by the injection hook."""


class CorruptPayload(RuntimeError):
    """A worker shipped a payload that cannot be decoded into a result."""


class _NotStarted(BrokenProcessPool):
    """A broken pool failed a job before its attempt began."""


class CaseDeadlineExceeded(TimeoutError):
    """An in-process case ran past its deadline (SIGALRM path)."""


class BatchFailure(RuntimeError):
    """A batch ended with unrecovered case failures (``keep_going=False``).

    Carries the per-key :class:`FailureReport` mapping; the same reports
    are persisted in :data:`FAILURE_STORE` before this is raised.
    """

    def __init__(self, failures: dict[str, "FailureReport"]) -> None:
        self.failures = dict(failures)
        shown = list(self.failures.values())[:5]
        summary = ", ".join(
            f"{r.label} ({r.classification})" for r in shown
        )
        if len(self.failures) > len(shown):
            summary += ", ..."
        super().__init__(
            f"{len(self.failures)} case(s) failed after supervision: "
            f"{summary}; reports persisted under {FAILURE_STORE.root} "
            "(see `repro failures list`; rerun with keep_going=True / "
            "--keep-going for partial results)"
        )


class IncompleteBatch(RuntimeError):
    """A ``keep_going`` batch left a hole this experiment cannot tolerate.

    Partial batches drop failed cases from reports and figures, but some
    results are meaningless without specific cases (a study without its
    baseline, a socket aggregate missing a thread).  Experiments raise
    this instead of returning a silently-wrong artifact; the failed
    cases' reports are already persisted in :data:`FAILURE_STORE`.
    """


@dataclass(slots=True)
class Attempt:
    """One supervised try of one case."""

    attempt: int
    classification: str
    error: str
    elapsed_seconds: float
    executor: str  # "pool" or "serial"


@dataclass(slots=True)
class FailureReport:
    """Why one case was given up on, with its full attempt history."""

    key: str
    label: str
    classification: str
    attempts: list[Attempt] = field(default_factory=list)
    spec: dict = field(default_factory=dict)
    #: Committed-instruction progress preserved in checkpoints: the most
    #: recent resume's starting point, else the newest surviving
    #: checkpoint's progress, else None (the case never checkpointed).
    resumed_from: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": FAILURE_SCHEMA,
            "key": self.key,
            "label": self.label,
            "classification": self.classification,
            "attempts": [asdict(a) for a in self.attempts],
            "spec": self.spec,
            "resumed_from": self.resumed_from,
            "saved_unix": time.time(),
        }


@dataclass(slots=True)
class SupervisionOutcome:
    """What :func:`run_supervised` resolved and what it gave up on."""

    #: Each published member's key -> its per-core results.
    results: dict[str, list[SimResult]] = field(default_factory=dict)
    failures: dict[str, FailureReport] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    #: Cases that continued from a checkpoint instead of starting over.
    resumes: int = 0
    #: Committed instructions those resumes preserved (work not redone).
    resumed_instructions: int = 0


# ---------------------------------------------------------------------------
# failure-report store (results/failures/<key>.json)


#: The failure-report store.  Writes are fsynced: a report records
#: attempts that cannot be recomputed cheaply.
FAILURE_STORE = Store(ENV_FAILURES_DIR, "failures", "*.json", fsync=True)


def failure_path(key: str) -> Path:
    return FAILURE_STORE.root / f"{key}.json"


def max_failures() -> int:
    """Retention cap for ``results/failures/``: ``$REPRO_MAX_FAILURES``
    or :data:`DEFAULT_MAX_FAILURES`.  Zero or negative disables eviction.
    """
    cap = env_number(ENV_MAX_FAILURES, int, "an integer report count")
    return DEFAULT_MAX_FAILURES if cap is None else cap


def save_failure(report: FailureReport) -> None:
    """Persist one report atomically (rename over any older record).

    The store is capped afterwards: only the newest :func:`max_failures`
    reports survive, so an unlucky month of sweeps cannot grow
    ``results/failures/`` without bound.
    """
    text = json.dumps(report.to_json_dict(), indent=2)
    try:
        FAILURE_STORE.write(failure_path(report.key), text.encode("utf-8"))
    except OSError:
        pass
    FAILURE_STORE.keep_newest(max_failures())


def _read_failure(path: Path) -> dict | None:
    """The record at ``path``, or ``None`` if it is unreadable or of
    another :data:`FAILURE_SCHEMA`."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        isinstance(record, dict)
        and record.get("schema") == FAILURE_SCHEMA
        and "key" in record
    ):
        return record
    return None


def load_failure(key: str) -> dict | None:
    """The persisted record for one case key, or ``None``."""
    return _read_failure(failure_path(key))


def list_failures() -> list[dict]:
    """Every readable current-schema record, newest first (by save time)."""
    records = [
        record for path in FAILURE_STORE.files()
        if (record := _read_failure(path)) is not None
    ]
    return sorted(
        records,
        key=lambda r: (-float(r.get("saved_unix", 0.0)),
                       r.get("label", ""), r["key"]),
    )


def failed_keys() -> set[str]:
    """Case keys with a persisted failure record (for targeted reruns)."""
    return {record["key"] for record in list_failures()}


def discard_failure(key: str) -> None:
    """Drop the stale record for a case that has since succeeded."""
    try:
        failure_path(key).unlink()
    except OSError:
        pass


def clear_failures() -> int:
    """Delete every failure record; returns how many were removed."""
    return FAILURE_STORE.purge()


# ---------------------------------------------------------------------------
# deterministic fault injection


def _validate_plan(plan: dict, source: str) -> dict:
    """Reject malformed fault plans with an actionable message.

    ``source`` names where the plan came from (the env var or the module
    attribute) so the error points at the thing to fix.  Always raises
    ``ValueError`` subclasses, matching the historical contract.
    """
    if not isinstance(plan, dict):
        raise ValueError(
            f"{source} must be a JSON object mapping case matchers to "
            f"fault dicts, got {type(plan).__name__}"
        )
    for matcher, fault in plan.items():
        if not isinstance(fault, dict):
            raise ValueError(
                f"{source}[{matcher!r}] must be a fault object like "
                f'{{"kind": "crash"}}, got {fault!r}'
            )
        kind = fault.get("kind")
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"{source}[{matcher!r}] has unknown fault kind {kind!r}; "
                f"known kinds: {', '.join(sorted(FAULT_KINDS))}"
            )
    return plan


def get_fault_plan() -> dict | None:
    """The active fault plan: module override, else ``$REPRO_FAULT_PLAN``.

    Both sources are validated; a malformed plan raises ``ValueError``
    naming the source, the offending entry and (for unparseable env
    JSON) the error position inside the text — never a silent no-fault
    run with a typo'd plan.
    """
    if fault_plan is not None:
        return _validate_plan(fault_plan, "fault_plan")
    env = os.environ.get(ENV_FAULT_PLAN)
    if not env:
        return None
    try:
        plan = json.loads(env)
    except json.JSONDecodeError as exc:
        window = env[max(0, exc.pos - 20):exc.pos + 20]
        raise ValueError(
            f"{ENV_FAULT_PLAN} is not valid JSON: {exc.msg} at position "
            f"{exc.pos} (near {window!r})"
        ) from None
    except ValueError as exc:  # pragma: no cover - non-decode JSON error
        raise ValueError(
            f"{ENV_FAULT_PLAN} is not valid JSON: {exc}"
        ) from None
    return _validate_plan(plan, ENV_FAULT_PLAN)


def _fault_for(plan: dict | None, job: Job, attempt: int) -> dict | None:
    """The fault entry that applies to this (job, attempt), if any.

    A job matches through its own label/key *or* through any member's,
    so a plan targeting ``mcf@tiny`` still fires when that case rides
    inside a fused run.
    """
    if not plan:
        return None
    labels = {job.label()} | {spec.label() for spec in job.specs}
    keys = {job.key(), *job.keys}
    for matcher, fault in plan.items():
        if matcher == "*" or matcher in labels or (
            len(matcher) >= 8
            and any(key.startswith(matcher) for key in keys)
        ):
            if attempt < int(fault.get("times", 1)):
                return fault
    return None


def _corrupt_payload(payload: dict, style: str):
    """Damage a result payload the way a buggy worker or transport would.

    The first result is damaged: one bad member or core must poison the
    whole job (it retries as a unit).
    """
    if style == "garbage":
        return b"\x00not a result payload\x00"
    members = [dict(member) for member in payload["members"]]
    if style == "schema":
        members[0]["schema"] = -999
    else:  # "cycles": breaks every stack-total identity
        members[0]["cycles"] = int(members[0]["cycles"]) * 2 + 9973
    return {**payload, "members": members}


def _trigger_fault(fault: dict, *, in_pool: bool) -> None:
    """Run the pre-execution part of a fault (corrupt is post-execution)."""
    kind = fault.get("kind")
    if kind == "crash":
        raise FaultInjected("injected crash")
    if kind == "interrupt":
        raise KeyboardInterrupt
    if kind == "abort":
        if in_pool:
            os._exit(70)  # hard worker death -> BrokenProcessPool
        raise FaultInjected("injected abort (in-process: degraded to crash)")
    if kind == "hang":
        time.sleep(float(fault.get("seconds", 30.0)))


def _truncate_newest_checkpoint(key: str) -> None:
    """Tear the newest checkpoint file the way a crashed writer or a bad
    disk would (the recovery ladder must evict it, not resume into it)."""
    paths = ckpt.list_case_checkpoints(key)
    if not paths:
        return
    path = paths[-1]
    try:
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(max(size // 2, len(ckpt.MAGIC)))
    except OSError:  # pragma: no cover - racing unlink
        pass


def _supervised_worker(
    job: Job,
    attempt: int,
    plan: dict | None,
    in_pool: bool = True,
    checkpoint_interval: int | None = None,
) -> dict | bytes:
    """One supervised attempt: inject any planned fault, then simulate.

    Runs in a pool worker (the plan travels as an argument so spawn
    children see it too) or in-process for the serial path.  Ships the
    job's results as ``{"members": [payload, ...]}``, one ``to_dict``
    payload per result, member-major, core-minor, so both paths exercise
    the same schema-versioned round trip; a resumed run notes its
    starting progress under the ``"_resumed_from"`` key, which the
    parent pops before validation.
    """
    fault = _fault_for(plan, job, attempt)
    on_checkpoint = None
    if fault is not None:
        kind = fault.get("kind")
        if kind == "truncate_checkpoint":
            _truncate_newest_checkpoint(job.key())
        elif kind == "sigkill_mid_case":
            if not checkpoint_interval:
                # No checkpoint will ever land: die immediately so the
                # retry demonstrates fresh-start recovery instead.
                if in_pool:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise FaultInjected(
                    "injected sigkill (no checkpointing active)"
                )
            if in_pool:
                def on_checkpoint(path, instrs):
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                # In-process SIGKILL would take the whole supervisor
                # down; degrade to an exception *after* the checkpoint
                # has landed, so the serial retry still resumes.
                def on_checkpoint(path, instrs):
                    raise FaultInjected(
                        "injected mid-case death after checkpoint"
                    )
        else:
            _trigger_fault(fault, in_pool=in_pool)
    results, resumed = runner.execute_spec_checkpointed(
        job, checkpoint_interval, on_checkpoint
    )
    payload: dict = {"members": [result.to_dict() for result in results]}
    if resumed is not None:
        payload["_resumed_from"] = resumed
    if fault is not None and fault.get("kind") == "corrupt":
        payload = _corrupt_payload(payload, fault.get("style", "cycles"))
    return payload


#: In a pool worker: the round's start flags, one byte per submitted job
#: (see :meth:`_Supervision.pool_round`).
_started_flags = None


def _init_pool_worker(started_flags) -> None:
    """Pool-worker initializer: freeze the inherited garbage (see
    :meth:`_Supervision.pool_round`) and keep the round's start flags."""
    global _started_flags
    gc.freeze()
    _started_flags = started_flags


def _pool_attempt(slot: int, *args) -> dict | bytes:
    """A pool attempt: flag job ``slot`` as started, then run
    :func:`_supervised_worker` with ``args``."""
    _started_flags[slot] = 1
    return _supervised_worker(*args)


# ---------------------------------------------------------------------------
# deadlines


def resolve_case_timeout(explicit: float | None = None) -> float | None:
    """The uniform deadline override: argument, else ``$REPRO_CASE_TIMEOUT``.

    ``None`` means "scale per case from the instruction count".
    """
    if explicit is not None:
        if explicit <= 0:
            raise ValueError(
                f"case timeout must be positive, got {explicit}"
            )
        return explicit
    value = env_number(ENV_CASE_TIMEOUT, float, "a number of seconds")
    if value is not None and value <= 0:
        raise ValueError(f"{ENV_CASE_TIMEOUT} must be positive, got {value}")
    return value


def case_deadline(spec: CaseSpec, override: float | None = None) -> float:
    """Seconds this case may run: override, else scaled from its size.

    A job gets its first member's deadline: content-shared members
    share one simulation, so the job's wall clock is one member's —
    that is the entire point of fusion.
    """
    if override is not None:
        return override
    instructions = spec.instructions
    if instructions is None:
        try:
            from repro.workloads.registry import get_workload

            instructions = get_workload(spec.workload).default_instructions
        except Exception:  # unknown workload: fall back to a generous size
            instructions = FALLBACK_INSTRUCTIONS
    return BASE_DEADLINE_SECONDS + PER_INSTRUCTION_SECONDS * instructions


def _call_with_deadline(fn, deadline: float | None):
    """Run ``fn`` under a SIGALRM deadline where the platform allows it.

    Serial in-process execution has no pool to time out against; on Unix
    main threads an interval timer enforces the deadline, elsewhere the
    call runs unguarded.  The timer is disarmed the moment the call
    returns.
    """
    if deadline is None or not hasattr(signal, "setitimer"):
        return fn()

    def _on_alarm(signum, frame):
        raise CaseDeadlineExceeded(
            f"in-process case exceeded its {deadline:.1f}s deadline"
        )

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not the main thread
        return fn()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# the supervisor


def validate_payload(payload, job: Job) -> list[SimResult]:
    """Decode and guard a worker payload: one result per member and core.

    Every result is decoded and invariant-checked independently under
    its own context (the member's label, ``label[coreN]`` for a socket's
    cores): one broken result fails the whole job, which retries as a
    unit.  Raises :class:`CorruptPayload` when the payload cannot be
    decoded or holds the wrong number of results, and
    :class:`repro.core.invariants.InvariantViolation` when a decoded
    result breaks the accounting identities in strict mode.
    """
    members = payload.get("members") if isinstance(payload, dict) else None
    if not isinstance(members, list):
        raise CorruptPayload(
            f"worker returned {type(payload).__name__}, not a result payload"
        )
    labels = job.result_labels()
    if len(members) != len(labels):
        raise CorruptPayload(
            f"payload has {len(members)} results for {len(labels)} "
            f"expected by {job.label()}"
        )
    results = []
    for label, member in zip(labels, members):
        try:
            result = SimResult.from_dict(member)
        except Exception as exc:
            raise CorruptPayload(
                f"undecodable result payload for {label}: {exc}"
            ) from exc
        invariants.verify_result(result, context=label)
        results.append(result)
    return results


def _format_error(exc: BaseException) -> str:
    """Compact traceback text for a failure record."""
    lines = traceback.format_exception_only(type(exc), exc)
    return "".join(lines).strip()[:2000]


def _classify(exc: Exception, deadline: float) -> tuple[str, str]:
    """Failure classification and error text for one failed attempt."""
    if isinstance(exc, (FutureTimeout, TimeoutError)):
        return "timeout", f"no result within the {deadline:.1f}s deadline"
    if isinstance(exc, BrokenProcessPool):
        return "crash", f"worker pool broke: {exc}"
    if isinstance(exc, invariants.InvariantViolation):
        return "invariant", _format_error(exc)
    if isinstance(exc, CorruptPayload):
        return "corrupt-payload", _format_error(exc)
    return "crash", _format_error(exc)


def _pop_resumed(payload) -> int | None:
    """Extract a worker's resume marker before validation."""
    if isinstance(payload, dict):
        resumed = payload.pop("_resumed_from", None)
        if resumed is not None:
            return int(resumed)
    return None


@dataclass
class _Supervision:
    """State one :func:`run_supervised` call threads through its rounds."""

    plan: dict | None
    outcome: SupervisionOutcome
    use_cache: bool
    timeout_override: float | None
    checkpoint_interval: int | None
    attempts: dict[str, list[Attempt]]
    #: Job key -> the committed progress its latest resume started from.
    resumed: dict[str, int] = field(default_factory=dict)

    def collect(
        self, key: str, job: Job, fetch, executor: str, started=None,
    ) -> type[Exception] | None:
        """Fetch one attempt's payload, then publish it or record why not.

        ``fetch(deadline)`` returns the worker payload: a pool future's
        result or an in-process call.  Returns the type of the attempt's
        exception, or None once the job's results are published.  (Not
        the exception itself: its traceback would keep the failed
        simulation's frames alive.)  A broken pool fails every
        uncollected job; ``started()`` tells whether this one had begun,
        and one that had not returns :class:`_NotStarted` and records no
        attempt.
        """
        begun = time.perf_counter()
        deadline = case_deadline(job.specs[0], self.timeout_override)
        try:
            payload = fetch(deadline)
            resumed = _pop_resumed(payload)
            results = validate_payload(payload, job)
        except Exception as exc:
            if (
                started is not None
                and isinstance(exc, BrokenProcessPool)
                and not started()
            ):
                return _NotStarted
            classification, error = _classify(exc, deadline)
            if classification == "timeout":
                self.outcome.timeouts += 1
            history = self.attempts[key]
            history.append(
                Attempt(
                    attempt=len(history),
                    classification=classification,
                    error=error,
                    elapsed_seconds=time.perf_counter() - begun,
                    executor=executor,
                )
            )
            return type(exc)
        if executor == "pool":
            # The workers' telemetry died with the workers: the parent
            # re-records the run and any resume, one record per pipeline
            # run (see runner.record_run).
            runner.record_run(job, results, resumed)
        if resumed is not None:
            self.outcome.resumes += 1
            self.outcome.resumed_instructions += resumed
            self.resumed[key] = resumed
        self._publish(key, job, results)
        return None

    def _publish(self, key: str, job: Job, results: list[SimResult]) -> None:
        """Publish every member's results under the member's own key.

        A fused job populates exactly the cache entries its unfused
        members would.  The job's checkpoints (under the job key) are
        cleared only after every member is published: clearing earlier
        would lose the recovery point for a crash between finish and
        publish.
        """
        for spec, member_key, per_core in job.split(results):
            if self.use_cache:
                runner.store_results(spec, member_key, per_core)
            self.outcome.results[member_key] = per_core
            discard_failure(member_key)
        ckpt.clear_checkpoints(key)

    def pool_round(
        self, pending: list[tuple[str, Job]], jobs: int,
        mp_start_method: str | None,
    ) -> tuple[list[tuple[str, Job]], list[tuple[str, Job]], bool]:
        """One pool pass over ``pending``.

        Returns the jobs charged a failed attempt, the jobs a broken
        pool failed before they started (re-queued uncharged), and
        whether the pool broke.
        """
        context = multiprocessing.get_context(mp_start_method)
        # One byte per job, set by the worker as the attempt begins.  A
        # dead worker fails every uncollected future of the pool, but only
        # the jobs that had begun are charged: the others did nothing, and
        # charging them would also advance their fault-plan attempt index.
        started = context.RawArray("b", len(pending))
        # A forked worker inherits the parent's uncollected garbage, which
        # can hold an earlier round's executor.  Collecting it in the
        # worker would run that executor's weakref callback, which takes a
        # lock a parent thread may have held at fork time: the worker
        # hangs.  ``gc.freeze`` in the initializer keeps every inherited
        # object out of the worker's collections.
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), mp_context=context,
            initializer=_init_pool_worker, initargs=(started,),
        )
        retry: list = []
        unstarted: list = []
        broke = False
        try:
            submitted = [
                (
                    key,
                    job,
                    pool.submit(
                        _pool_attempt, slot, job, len(self.attempts[key]),
                        self.plan, True, self.checkpoint_interval,
                    ),
                )
                for slot, (key, job) in enumerate(pending)
            ]
            # Deterministic collection: submission order, not completion
            # order.
            for slot, (key, job, future) in enumerate(submitted):
                failure = self.collect(
                    key, job,
                    lambda deadline, f=future: f.result(timeout=deadline),
                    "pool", lambda slot=slot: bool(started[slot]),
                )
                if failure is not None:
                    future.cancel()
                    # If a worker died hard, every uncollected future of
                    # this pool raises BrokenProcessPool too; all of them
                    # go again in a rebuilt pool (or serially, if this
                    # keeps happening).
                    broke = broke or issubclass(failure, BrokenProcessPool)
                    if failure is _NotStarted:
                        unstarted.append((key, job))
                    else:
                        retry.append((key, job))
        except KeyboardInterrupt:
            # Ctrl-C: cancel everything still queued and reap the pool so
            # no orphan workers keep simulating a batch nobody will
            # collect.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        # A broken pool's manager thread closes the pool's wakeup pipe
        # as it exits; the interpreter's exit hook writes to that pipe
        # without the shutdown lock, so it must not outlive this round.
        # Its workers are already terminated: the join is short.
        pool.shutdown(wait=broke, cancel_futures=True)
        return retry, unstarted, broke

    def serial_round(
        self, pending: list[tuple[str, Job]]
    ) -> list[tuple[str, Job]]:
        """One in-process pass over ``pending``; returns the retry list.

        The executor records telemetry in-process, so unlike the pool
        path nothing is re-recorded here.
        """
        retry: list = []
        for key, job in pending:
            attempt_no = len(self.attempts[key])

            def fetch(deadline, job=job, attempt_no=attempt_no):
                return _call_with_deadline(
                    lambda: _supervised_worker(
                        job, attempt_no, self.plan, in_pool=False,
                        checkpoint_interval=self.checkpoint_interval,
                    ),
                    deadline,
                )

            if self.collect(key, job, fetch, "serial") is not None:
                # The failed attempt's simulator is one large reference
                # cycle: reclaim it now, not whenever the collector next
                # reaches the oldest generation, so that a retry never
                # holds two simulators.
                gc.collect()
                retry.append((key, job))
        return retry


def run_supervised(
    items: list[Job],
    *,
    jobs: int,
    mp_start_method: str | None = None,
    use_cache: bool = True,
    case_timeout: float | None = None,
    max_attempts: int | None = None,
    retry_backoff: float | None = None,
    checkpoint_interval: int | None = None,
) -> SupervisionOutcome:
    """Resolve :class:`~repro.experiments.cache.Job` items under supervision.

    Returns a :class:`SupervisionOutcome` mapping each published member's
    key to its per-core results, and each given-up member's key to a
    persisted :class:`FailureReport` — never an exception for an
    individual job failure (``KeyboardInterrupt`` excepted).  A job is
    attempted, timed out and retried as one unit under its job key; a
    given-up job persists one report per member (each member's key is
    what a later targeted rerun would look up).

    With checkpointing active (``checkpoint_interval=`` argument, else
    ``$REPRO_CHECKPOINT_INTERVAL``), a retried job resumes from the
    newest valid checkpoint its dead predecessor left behind instead of
    starting over; checkpoints are cleared once the job's results are
    published, and a job given up on records its preserved progress in
    its members' :class:`FailureReport`.
    """
    plan = get_fault_plan()
    if max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    backoff = DEFAULT_BACKOFF if retry_backoff is None else retry_backoff
    if checkpoint_interval is None:
        checkpoint_interval = ckpt.checkpoint_interval_default()
    pending = [(job.key(), job) for job in items]
    state = _Supervision(
        plan=plan,
        outcome=SupervisionOutcome(),
        use_cache=use_cache,
        timeout_override=resolve_case_timeout(case_timeout),
        checkpoint_interval=checkpoint_interval,
        attempts={key: [] for key, _ in pending},
    )
    outcome = state.outcome
    pool_breaks = 0
    prefer_serial = jobs <= 1 or len(pending) == 1
    round_no = 0
    while pending:
        if round_no and backoff > 0:
            time.sleep(min(BACKOFF_CAP, backoff * 2 ** (round_no - 1)))
        degraded = pool_breaks >= POOL_BREAK_LIMIT
        unstarted: list = []
        if prefer_serial or degraded:
            if degraded and not prefer_serial:
                outcome.serial_fallback = True
            retry = state.serial_round(pending)
        else:
            retry, unstarted, broke = state.pool_round(
                pending, jobs, mp_start_method
            )
            if broke:
                pool_breaks += 1
                if pool_breaks < POOL_BREAK_LIMIT:
                    outcome.pool_rebuilds += 1
        # Jobs a broken pool failed before they began go again as they
        # were: no attempt, no retry.  Pool breaks are bounded by
        # POOL_BREAK_LIMIT, after which every job runs serially.
        pending = unstarted
        for key, job in retry:
            history = state.attempts[key]
            if len(history) < max_attempts:
                pending.append((key, job))
                outcome.retries += 1
                continue
            # How far checkpoints provably got this job: the last
            # observed resume, else the newest surviving file.
            progress = state.resumed.get(key, ckpt.newest_progress(key))
            for spec, member_key in zip(job.specs, job.keys):
                report = FailureReport(
                    key=member_key,
                    label=spec.label(),
                    classification=history[-1].classification,
                    attempts=list(history),
                    spec=spec.fingerprint(),
                    resumed_from=progress,
                )
                outcome.failures[report.key] = report
                save_failure(report)
        round_no += 1
    return outcome
