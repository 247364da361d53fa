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
  execution once it has broken :data:`POOL_BREAK_LIMIT` times;
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
from repro.experiments.cache import CaseSpec, FusedGroup
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.result import SimResult

#: One supervised unit of work: a single case or a fused timing group.
#: Groups duck-type the CaseSpec surface the supervisor reads (key/label/
#: fingerprint/instructions/workload), so deadlines, retries and fault
#: matching treat them uniformly; only payload validation and publishing
#: fan back out to the members.
CaseItem = "CaseSpec | FusedGroup"

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


class CaseDeadlineExceeded(TimeoutError):
    """An in-process case ran past its deadline (SIGALRM path)."""


class BatchFailure(RuntimeError):
    """A batch ended with unrecovered case failures (``keep_going=False``).

    Carries the per-key :class:`FailureReport` mapping; the same reports
    are persisted under :func:`failures_dir` before this is raised.
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
            f"{summary}; reports persisted under {failures_dir()} "
            "(see `repro failures list`; rerun with keep_going=True / "
            "--keep-going for partial results)"
        )


class IncompleteBatch(RuntimeError):
    """A ``keep_going`` batch left a hole this experiment cannot tolerate.

    Partial batches drop failed cases from reports and figures, but some
    results are meaningless without specific cases (a study without its
    baseline, a socket aggregate missing a thread).  Experiments raise
    this instead of returning a silently-wrong artifact; the failed
    cases' reports are already persisted under :func:`failures_dir`.
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

    results: dict[str, SimResult] = field(default_factory=dict)
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


def failures_dir() -> Path:
    """Failure-record root: ``$REPRO_FAILURES_DIR`` or ``results/failures``."""
    env = os.environ.get(ENV_FAILURES_DIR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "failures"


def failure_path(key: str) -> Path:
    return failures_dir() / f"{key}.json"


def max_failures() -> int:
    """Retention cap for ``results/failures/``: ``$REPRO_MAX_FAILURES``
    or :data:`DEFAULT_MAX_FAILURES`.  Zero or negative disables eviction.
    """
    raw = os.environ.get(ENV_MAX_FAILURES, "").strip()
    if not raw:
        return DEFAULT_MAX_FAILURES
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_MAX_FAILURES} must be an integer report count, "
            f"got {raw!r}"
        ) from None


def _evict_old_failures(cap: int) -> None:
    """Keep only the newest ``cap`` reports (by mtime, ties by name)."""
    root = failures_dir()
    if cap <= 0 or not root.is_dir():
        return
    paths = []
    for path in root.glob("*.json"):
        try:
            paths.append((path.stat().st_mtime, path.name, path))
        except OSError:  # pragma: no cover - racing unlink
            pass
    if len(paths) <= cap:
        return
    paths.sort()
    for _, _, path in paths[: len(paths) - cap]:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink
            pass


def save_failure(report: FailureReport) -> None:
    """Persist one report atomically (rename over any older record).

    The temp file is fsynced before the rename so a machine-level crash
    cannot publish a torn record, and the store is capped afterwards:
    only the newest :func:`max_failures` reports survive, so an unlucky
    month of sweeps cannot grow ``results/failures/`` without bound.
    """
    path = failure_path(report.key)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass
    _evict_old_failures(max_failures())


def load_failure(key: str) -> dict | None:
    """The persisted record for one case key, or ``None``."""
    try:
        return json.loads(failure_path(key).read_text())
    except (OSError, ValueError):
        return None


def list_failures() -> list[dict]:
    """Every readable failure record, newest first (by save time)."""
    root = failures_dir()
    if not root.is_dir():
        return []
    records = []
    for path in sorted(root.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and "key" in record:
            records.append(record)
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
    root = failures_dir()
    if not root.is_dir():
        return 0
    removed = 0
    for path in root.glob("*.json"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


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


def _fault_for(plan: dict | None, spec, attempt: int) -> dict | None:
    """The fault entry that applies to this (case, attempt), if any.

    A fused group matches through its own label/key *or* through any
    member's, so a plan targeting ``mcf@tiny`` still fires when that case
    rides inside a fused run.
    """
    if not plan:
        return None
    if isinstance(spec, FusedGroup):
        labels = {spec.label()}
        labels.update(member.label() for member in spec.specs)
        keys = [spec.key()]
        keys.extend(member.key() for member in spec.specs)
    else:
        labels = {spec.label()}
        keys = [spec.key()]
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

    A fused payload is damaged in its first member — one bad member must
    poison the whole group (the group retries as a unit).
    """
    if style == "garbage":
        return b"\x00not a result payload\x00"
    damaged = dict(payload)
    for group_key in ("fused", "cores"):
        if group_key in damaged:
            members = [dict(m) for m in damaged[group_key]]
            members[0] = _corrupt_payload(members[0], style)
            damaged[group_key] = members
            return damaged
    if style == "schema":
        damaged["schema"] = -999
    else:  # "cycles": breaks every stack-total identity
        damaged["cycles"] = int(damaged["cycles"]) * 2 + 9973
    return damaged


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
    spec,
    attempt: int,
    plan: dict | None,
    in_pool: bool = True,
    checkpoint_interval: int | None = None,
) -> dict | bytes:
    """One supervised attempt: inject any planned fault, then simulate.

    Runs in a pool worker (the plan travels as an argument so spawn
    children see it too) or in-process for the serial path.  Ships the
    result as a ``to_dict`` payload either way, so both paths exercise
    the same schema-versioned round trip; a resumed run notes its
    starting progress under the ``"_resumed_from"`` key, which the
    parent pops before schema validation.  A :class:`FusedGroup` runs as
    one fused simulation and ships ``{"fused": [payload, ...]}`` with one
    member payload per spec, in group order; a multi-core case
    (``spec.cores > 1``) runs as one lockstep engine and ships
    ``{"cores": [payload, ...]}`` with one payload per core, in core
    order.
    """
    fault = _fault_for(plan, spec, attempt)
    on_checkpoint = None
    if fault is not None:
        kind = fault.get("kind")
        if kind == "truncate_checkpoint":
            _truncate_newest_checkpoint(spec.key())
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
    if isinstance(spec, FusedGroup):
        results, resumed = runner.execute_fused_checkpointed(
            spec, checkpoint_interval, on_checkpoint
        )
        payload: dict = {"fused": [r.to_dict() for r in results]}
    elif getattr(spec, "cores", 1) > 1:
        results, resumed = runner.execute_multicore_checkpointed(
            spec, checkpoint_interval, on_checkpoint
        )
        payload = {"cores": [r.to_dict() for r in results]}
    else:
        result, resumed = runner.execute_spec_checkpointed(
            spec, checkpoint_interval, on_checkpoint
        )
        payload = result.to_dict()
    if resumed is not None:
        payload["_resumed_from"] = resumed
    if fault is not None and fault.get("kind") == "corrupt":
        payload = _corrupt_payload(payload, fault.get("style", "cycles"))
    return payload


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
    env = os.environ.get(ENV_CASE_TIMEOUT)
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"{ENV_CASE_TIMEOUT} must be a number of seconds, "
                f"got {env!r}"
            ) from None
        if value <= 0:
            raise ValueError(
                f"{ENV_CASE_TIMEOUT} must be positive, got {value}"
            )
        return value
    return None


def case_deadline(spec, override: float | None = None) -> float:
    """Seconds this case may run: override, else scaled from its size.

    A fused group gets the same scaled deadline as any of its members:
    every member shares one timing, and the attached collectors cost
    O(1) per cycle, so the group's wall clock is one member's — that is
    the entire point of fusion.
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


def validate_payload(payload, spec: CaseSpec) -> SimResult:
    """Decode and guard a worker payload (shared by pool and serial paths).

    Raises :class:`CorruptPayload` when the payload cannot be decoded and
    :class:`repro.core.invariants.InvariantViolation` when the decoded
    result breaks the accounting identities in strict mode.
    """
    if not isinstance(payload, dict):
        raise CorruptPayload(
            f"worker returned {type(payload).__name__}, not a result payload"
        )
    try:
        result = SimResult.from_dict(payload)
    except Exception as exc:
        raise CorruptPayload(f"undecodable result payload: {exc}") from exc
    invariants.verify_result(result, context=spec.label())
    return result


def validate_group_payload(
    payload, group: FusedGroup
) -> list[SimResult]:
    """Decode and guard a fused-run payload: one result per member.

    Every member result is decoded and invariant-checked independently
    under its own label — one broken collector's stack fails the whole
    group (it retries as a unit), exactly as a lone bad case would fail
    itself.
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("fused"), list
    ):
        raise CorruptPayload(
            f"worker returned {type(payload).__name__}, not a fused "
            "result payload"
        )
    members = payload["fused"]
    if len(members) != len(group.specs):
        raise CorruptPayload(
            f"fused payload has {len(members)} member results for "
            f"{len(group.specs)} specs"
        )
    return [
        validate_payload(member, spec)
        for spec, member in zip(group.specs, members)
    ]


def validate_multicore_payload(
    payload, spec: CaseSpec
) -> list[SimResult]:
    """Decode and guard a multi-core payload: one result per core.

    Each core's result is decoded and invariant-checked independently
    under a ``[coreN]`` context — one core's broken accounting fails the
    whole socket (the engine retries as a unit; per-core timings are
    coupled through the shared backend and cannot be recomputed alone).
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("cores"), list
    ):
        raise CorruptPayload(
            f"worker returned {type(payload).__name__}, not a multi-core "
            "result payload"
        )
    members = payload["cores"]
    if len(members) != spec.cores:
        raise CorruptPayload(
            f"multi-core payload has {len(members)} core results for "
            f"{spec.cores} cores"
        )
    results = []
    for core, member in enumerate(members):
        if not isinstance(member, dict):
            raise CorruptPayload(
                f"core {core} payload is {type(member).__name__}, not a "
                "result payload"
            )
        try:
            result = SimResult.from_dict(member)
        except Exception as exc:
            raise CorruptPayload(
                f"undecodable core {core} payload: {exc}"
            ) from exc
        invariants.verify_result(
            result, context=f"{spec.label()}[core{core}]"
        )
        results.append(result)
    return results


def _validate(payload, spec):
    """Route a payload to case, group or multi-core validation."""
    if isinstance(spec, FusedGroup):
        return validate_group_payload(payload, spec)
    if getattr(spec, "cores", 1) > 1:
        return validate_multicore_payload(payload, spec)
    return validate_payload(payload, spec)


def _format_error(exc: BaseException) -> str:
    """Compact traceback text for a failure record."""
    lines = traceback.format_exception_only(type(exc), exc)
    return "".join(lines).strip()[:2000]


def _record(
    attempts: dict[str, list[Attempt]],
    key: str,
    classification: str,
    error: str,
    started: float,
    executor: str,
) -> None:
    history = attempts[key]
    history.append(
        Attempt(
            attempt=len(history),
            classification=classification,
            error=error,
            elapsed_seconds=time.perf_counter() - started,
            executor=executor,
        )
    )


def _publish(
    outcome: SupervisionOutcome,
    key: str,
    spec,
    result,
    use_cache: bool,
) -> None:
    """Publish a validated result (or, for a group, every member's).

    A fused group's members each land in the cache and the outcome under
    their *own* case key — a fused batch populates exactly the same cache
    entries an unfused one would.  The group's checkpoints (stored under
    the group key) are cleared only after every member is published.
    """
    if isinstance(spec, FusedGroup):
        for member, member_result in zip(spec.specs, result):
            member_key = member.key()
            if use_cache:
                runner.store_result(member_key, member, member_result)
            outcome.results[member_key] = member_result
            discard_failure(member_key)
        ckpt.clear_checkpoints(key)
        return
    if getattr(spec, "cores", 1) > 1:
        # Per-core results land in the cache under their member keys; the
        # outcome maps the socket key to the whole per-core list.
        if use_cache:
            runner.store_multicore_result(spec, result)
        outcome.results[key] = result
        discard_failure(key)
        ckpt.clear_checkpoints(key)
        return
    if use_cache:
        runner.store_result(key, spec, result)
    outcome.results[key] = result
    discard_failure(key)
    # Only after the result is safely published do the case's checkpoints
    # become dead weight; clearing earlier would lose the recovery point
    # for a crash between finish and publish.
    ckpt.clear_checkpoints(key)


def _pop_resumed(payload) -> int | None:
    """Extract a worker's resume marker before schema validation."""
    if isinstance(payload, dict):
        resumed = payload.pop("_resumed_from", None)
        if resumed is not None:
            return int(resumed)
    return None


def _pool_round(
    pending: list,
    *,
    jobs: int,
    mp_start_method: str | None,
    plan: dict | None,
    attempts: dict[str, list[Attempt]],
    outcome: SupervisionOutcome,
    timeout_override: float | None,
    use_cache: bool,
    checkpoint_interval: int | None = None,
    resumed: dict[str, int] | None = None,
) -> tuple[list[tuple[str, CaseSpec]], bool]:
    """One pool pass over ``pending``; returns (retry list, pool broke)."""
    context = None
    if mp_start_method is not None:
        context = multiprocessing.get_context(mp_start_method)
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)), mp_context=context
    )
    retry: list = []
    broke = False
    try:
        submitted = [
            (
                key,
                spec,
                pool.submit(
                    _supervised_worker, spec, len(attempts[key]), plan,
                    True, checkpoint_interval,
                ),
            )
            for key, spec in pending
        ]
        # Deterministic collection: submission order, not completion order.
        for key, spec, future in submitted:
            started = time.perf_counter()
            deadline = case_deadline(spec, timeout_override)
            try:
                payload = future.result(timeout=deadline)
                case_resumed = _pop_resumed(payload)
                result = _validate(payload, spec)
            except (FutureTimeout, TimeoutError):
                future.cancel()
                outcome.timeouts += 1
                _record(
                    attempts, key, "timeout",
                    f"no result within the {deadline:.1f}s deadline",
                    started, "pool",
                )
                retry.append((key, spec))
            except BrokenProcessPool as exc:
                # A worker died hard.  Every uncollected future of this
                # pool is about to raise the same thing; record and retry
                # them all in a rebuilt pool (or serially, if this keeps
                # happening).
                broke = True
                _record(
                    attempts, key, "crash",
                    f"worker pool broke: {exc}", started, "pool",
                )
                retry.append((key, spec))
            except invariants.InvariantViolation as exc:
                _record(
                    attempts, key, "invariant", _format_error(exc),
                    started, "pool",
                )
                retry.append((key, spec))
            except CorruptPayload as exc:
                _record(
                    attempts, key, "corrupt-payload", _format_error(exc),
                    started, "pool",
                )
                retry.append((key, spec))
            except Exception as exc:  # worker raised: a crash
                _record(
                    attempts, key, "crash", _format_error(exc),
                    started, "pool",
                )
                retry.append((key, spec))
            else:
                # The workers' telemetry died with the workers: the
                # parent re-records the run and any resume, one record
                # per pipeline run (see runner.record_run).
                runner.record_run(
                    spec,
                    result if isinstance(result, list) else [result],
                    case_resumed,
                )
                if case_resumed is not None:
                    outcome.resumes += 1
                    outcome.resumed_instructions += case_resumed
                    if resumed is not None:
                        resumed[key] = case_resumed
                _publish(outcome, key, spec, result, use_cache)
    except KeyboardInterrupt:
        # Ctrl-C: cancel everything still queued and reap the pool so no
        # orphan workers keep simulating a batch nobody will collect.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=False, cancel_futures=True)
    return retry, broke


def _serial_round(
    pending: list,
    *,
    plan: dict | None,
    attempts: dict[str, list[Attempt]],
    outcome: SupervisionOutcome,
    timeout_override: float | None,
    use_cache: bool,
    checkpoint_interval: int | None = None,
    resumed: dict[str, int] | None = None,
) -> list[tuple[str, CaseSpec]]:
    """One in-process pass over ``pending``; returns the retry list.

    ``execute_spec_checkpointed`` records telemetry in-process, so
    unlike the pool path nothing is re-recorded here.
    """
    retry: list = []
    for key, spec in pending:
        started = time.perf_counter()
        deadline = case_deadline(spec, timeout_override)
        attempt_no = len(attempts[key])
        try:
            payload = _call_with_deadline(
                lambda s=spec, a=attempt_no: _supervised_worker(
                    s, a, plan, in_pool=False,
                    checkpoint_interval=checkpoint_interval,
                ),
                deadline,
            )
            case_resumed = _pop_resumed(payload)
            result = _validate(payload, spec)
        except (FutureTimeout, TimeoutError):
            outcome.timeouts += 1
            _record(
                attempts, key, "timeout",
                f"no result within the {deadline:.1f}s deadline",
                started, "serial",
            )
            retry.append((key, spec))
        except invariants.InvariantViolation as exc:
            _record(
                attempts, key, "invariant", _format_error(exc),
                started, "serial",
            )
            retry.append((key, spec))
        except CorruptPayload as exc:
            _record(
                attempts, key, "corrupt-payload", _format_error(exc),
                started, "serial",
            )
            retry.append((key, spec))
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            _record(
                attempts, key, "crash", _format_error(exc),
                started, "serial",
            )
            retry.append((key, spec))
        else:
            if case_resumed is not None:
                outcome.resumes += 1
                outcome.resumed_instructions += case_resumed
                if resumed is not None:
                    resumed[key] = case_resumed
            _publish(outcome, key, spec, result, use_cache)
    return retry


def run_supervised(
    items: list,
    *,
    jobs: int,
    mp_start_method: str | None = None,
    use_cache: bool = True,
    case_timeout: float | None = None,
    max_attempts: int | None = None,
    retry_backoff: float | None = None,
    checkpoint_interval: int | None = None,
) -> SupervisionOutcome:
    """Resolve ``(key, spec)`` cases under supervision.

    Returns a :class:`SupervisionOutcome` with one result or one
    persisted :class:`FailureReport` per input key — never an exception
    for an individual case failure (``KeyboardInterrupt`` excepted).

    An item's spec may be a :class:`FusedGroup`: the group is attempted,
    timed out and retried as one unit under its group key, but its
    members' results are published under their own case keys, and a
    given-up group persists one failure report per member (each member's
    key is what a later targeted rerun would look up).

    With checkpointing active (``checkpoint_interval=`` argument, else
    ``$REPRO_CHECKPOINT_INTERVAL``), a retried case resumes from the
    newest valid checkpoint its dead predecessor left behind instead of
    starting over; checkpoints are cleared once the case's result is
    published, and a case given up on records its preserved progress in
    its :class:`FailureReport`.
    """
    plan = get_fault_plan()
    if max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    timeout_override = resolve_case_timeout(case_timeout)
    backoff = DEFAULT_BACKOFF if retry_backoff is None else retry_backoff
    if checkpoint_interval is None:
        checkpoint_interval = ckpt.checkpoint_interval_default()

    outcome = SupervisionOutcome()
    attempts: dict[str, list[Attempt]] = {key: [] for key, _ in items}
    resumed: dict[str, int] = {}
    pending = list(items)
    pool_breaks = 0
    prefer_serial = jobs <= 1 or len(items) == 1
    round_no = 0
    while pending:
        if round_no and backoff > 0:
            time.sleep(min(BACKOFF_CAP, backoff * 2 ** (round_no - 1)))
        degraded = pool_breaks >= POOL_BREAK_LIMIT
        if prefer_serial or degraded:
            if degraded and not prefer_serial:
                outcome.serial_fallback = True
            retry = _serial_round(
                pending, plan=plan, attempts=attempts, outcome=outcome,
                timeout_override=timeout_override, use_cache=use_cache,
                checkpoint_interval=checkpoint_interval, resumed=resumed,
            )
        else:
            retry, broke = _pool_round(
                pending, jobs=jobs, mp_start_method=mp_start_method,
                plan=plan, attempts=attempts, outcome=outcome,
                timeout_override=timeout_override, use_cache=use_cache,
                checkpoint_interval=checkpoint_interval, resumed=resumed,
            )
            if broke:
                pool_breaks += 1
                if pool_breaks < POOL_BREAK_LIMIT:
                    outcome.pool_rebuilds += 1
        next_pending: list = []
        for key, spec in retry:
            if len(attempts[key]) >= max_attempts:
                # How far checkpoints provably got this case: the last
                # observed resume, else the newest surviving file.
                progress = resumed.get(key, ckpt.newest_progress(key))
                members = (
                    spec.specs if isinstance(spec, FusedGroup) else (spec,)
                )
                for member in members:
                    member_key = member.key() if member is not spec else key
                    report = FailureReport(
                        key=member_key,
                        label=member.label(),
                        classification=attempts[key][-1].classification,
                        attempts=list(attempts[key]),
                        spec=member.fingerprint(),
                        resumed_from=progress,
                    )
                    outcome.failures[member_key] = report
                    save_failure(report)
            else:
                next_pending.append((key, spec))
                outcome.retries += 1
        pending = next_pending
        round_no += 1
    return outcome
