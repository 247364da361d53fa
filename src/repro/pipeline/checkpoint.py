"""Crash-safe checkpoint files for a running :class:`CoreSimulator`.

A checkpoint is one file::

    REPRO-CKPT\n
    {json header}\n
    <pickle payload bytes>

The header carries the checkpoint schema version, the SHA-256 of the raw
payload bytes, the payload length, and a small metadata dict (committed
instruction count, cycle, workload/config names).  Readers verify magic,
schema, length and checksum before unpickling anything, so a torn or
bit-flipped file is always detected as :class:`CheckpointError` — never
silently resumed into wrong data.

The payload holds mutable simulator state only, never the input trace.
It is a plain pickled envelope (program identities, config, construction
kwargs) around a separately pickled state blob in which every trace
:class:`~repro.isa.instructions.Instruction` is stored as a
``(program, position)`` reference.  The caller supplies the program(s)
on restore; :func:`unpack_snapshot` compares them with the identities in
the envelope before the state blob is resolved against them, so a
checkpoint never resumes into a different trace.

Writes are atomic: payload lands in a same-directory temp file which is
fsynced and then ``os.replace``d over the final name (the same discipline
as ``DiskCache.put``), so a crash mid-write leaves either the old
checkpoint or none, never a partial one.

Checkpoints live under ``results/.checkpoints/<case-key>/`` (override with
``REPRO_CHECKPOINT_DIR``), one subdirectory per case, one file per
snapshot named ``ckpt_<committed-instructions>.rck``.  Recovery walks the
ladder newest -> older -> fresh start, unlinking any checkpoint whose
checksum fails on the way down.

Once a case's result is published, :func:`clear_checkpoints` renames its
directory to ``<root>/.reaping/<key>-<pid>-<n>`` and one background
reaper thread per process deletes it from a queue.  On ext4, unlinking a
file whose data was fsynced measured 36-62 ms and removing its directory
~36 ms, while the rename costs ~0 ms, so the caller never waits on the
deletion.  The case's path is free at once: a rerun of the same case
writes fresh checkpoints while the old ones are still being deleted.
Recovery and listing never read ``.reaping``, so a crash mid-deletion
leaves only ``.reaping`` debris (swept by ``clear_checkpoints()``),
never a resumable stale checkpoint.  An ``atexit`` hook drains the
reaper, and a forked child starts with fresh reaper state.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import itertools
import json
import os
import pickle
import queue
import shutil
import threading
import time
from array import array
from pathlib import Path
from typing import Sequence

from repro.isa.instructions import Instruction, Program

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "ENV_CHECKPOINT_DIR",
    "ENV_CHECKPOINT_INTERVAL",
    "REAPING_DIR",
    "checkpoint_dir_for",
    "checkpoint_interval_default",
    "checkpoint_root",
    "clear_checkpoints",
    "drain_reaper",
    "instruction_refs",
    "latest_valid_checkpoint",
    "list_case_checkpoints",
    "list_checkpoints",
    "load_checkpoint",
    "newest_progress",
    "pack_snapshot",
    "program_identity",
    "save_checkpoint",
    "unpack_snapshot",
]

#: Bump whenever the snapshot payload layout changes; older files are
#: rejected (and evicted by the recovery ladder) instead of misread.
#: 2: multi-collector snapshots — kwargs carry the collector-spec tuple
#: and the state holds one collector slot per spec.
#: 3: state-only payloads — the envelope carries program identities
#: instead of the programs, and trace instructions are references.
#: 4: the simulator kwargs carry one ``reference`` switch instead of
#: three per-engine switches.
#: 5: the frontend state drops its decode rows; restore derives the
#: expansion from the pending instruction.
CHECKPOINT_SCHEMA = 5

#: First line of every checkpoint file.
MAGIC = b"REPRO-CKPT\n"

#: Snapshot cadence in committed instructions.  Unset/empty/0 = off.
ENV_CHECKPOINT_INTERVAL = "REPRO_CHECKPOINT_INTERVAL"

#: Override the checkpoint store root (default results/.checkpoints/).
ENV_CHECKPOINT_DIR = "REPRO_CHECKPOINT_DIR"

_FILE_PREFIX = "ckpt_"
_FILE_SUFFIX = ".rck"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, corrupt, or incompatible."""


def checkpoint_interval_default() -> int | None:
    """Resolve ``REPRO_CHECKPOINT_INTERVAL`` (inherited by pool workers).

    Returns ``None`` when checkpointing is off — the default.  A
    malformed value raises :class:`CheckpointError` naming the variable
    and the offending text, so a typo'd environment surfaces at case
    start instead of as a silent no-checkpoint run.
    """
    raw = os.environ.get(ENV_CHECKPOINT_INTERVAL, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise CheckpointError(
            f"{ENV_CHECKPOINT_INTERVAL} must be an integer number of "
            f"committed instructions, got {raw!r}"
        ) from None
    return value if value > 0 else None


# ---------------------------------------------------------------------------
# Program identity and state payloads


def program_identity(program: Program) -> dict:
    """Cheap content identity of an input trace.

    Name, instruction count, micro-op count, and a SHA-256 over the
    machine-native ``array('q')`` bytes of every instruction's pc and
    every micro-op's address (checkpoints are host-local files).  Two
    traces from different workloads, lengths or seeds differ here.
    Memoized on the program (dropped by :meth:`Program.extend`), so a
    trace is hashed once however many engines snapshot or restore it.
    """
    if program._identity is None:
        instrs = program.instructions
        pcs = array("q", [instr.pc for instr in instrs])
        addrs = array(
            "q", [uop.addr for instr in instrs for uop in instr.uops]
        )
        digest = hashlib.sha256(pcs.tobytes())
        digest.update(addrs.tobytes())
        program._identity = {
            "name": program.name,
            "instructions": len(pcs),
            "uops": len(addrs),
            "sha256": digest.hexdigest(),
        }
    return program._identity


def _check_identity(saved: Sequence[dict], supplied: Sequence[dict]) -> None:
    """Raise :class:`CheckpointError` unless the supplied programs'
    identities equal the ones the checkpoint was taken with."""
    if len(saved) != len(supplied):
        raise CheckpointError(
            f"checkpoint was taken with {len(saved)} program(s), "
            f"{len(supplied)} supplied"
        )
    for index, (want, got) in enumerate(zip(saved, supplied)):
        if want != got:
            fields = sorted(k for k in want.keys() | got.keys()
                            if want.get(k) != got.get(k))
            raise CheckpointError(
                f"program {index} ({got.get('name')!r}) does not match the "
                f"checkpoint's trace {want.get('name')!r}: "
                f"{', '.join(fields)} differ"
            )


def instruction_refs(programs: Sequence[Program]) -> dict[int, tuple]:
    """``id(instruction) -> (program index, position)`` for every
    instruction of ``programs``: the references :func:`pack_snapshot`
    writes in place of the instructions themselves."""
    refs: dict[int, tuple] = {}
    for p, program in enumerate(programs):
        refs.update(
            (id(instr), (p, i)) for i, instr in enumerate(program.instructions)
        )
    return refs


class _SnapshotPickler(pickle.Pickler):
    """Pickles snapshot payloads with trace instructions as references."""

    def __init__(self, file, refs: dict[int, tuple]) -> None:
        super().__init__(file)
        self._refs = refs

    def persistent_id(self, obj):
        if type(obj) is Instruction:
            ref = self._refs.get(id(obj))
            if ref is None:
                raise CheckpointError(
                    f"state references an instruction at pc {obj.pc:#x} "
                    "that is not in the simulated program"
                )
            return ref
        return None


class _SnapshotUnpickler(pickle.Unpickler):
    """Resolves :class:`_SnapshotPickler` references against the programs."""

    def __init__(self, file, programs: Sequence[Program]) -> None:
        super().__init__(file)
        self._programs = programs

    def persistent_load(self, ref):
        p, i = ref
        return self._programs[p].instructions[i]


def pack_snapshot(
    envelope: dict, identities: list[dict], state, refs: dict[int, tuple]
) -> bytes:
    """Serialize one snapshot payload.

    ``state`` is pickled in one pass (the memo keeps shared objects such
    as in-flight micro-ops shared) with each trace instruction written as
    its ``refs`` entry; the resulting blob and the program ``identities``
    join the plain-data ``envelope`` (config, construction kwargs).
    """
    def dump(obj) -> bytes:
        buffer = io.BytesIO()
        _SnapshotPickler(buffer, refs).dump(obj)
        return buffer.getvalue()

    return dump({**envelope, "programs": identities, "state": dump(state)})


def unpack_snapshot(
    payload: bytes, programs: Sequence[Program]
) -> tuple[dict, object]:
    """Inverse of :func:`pack_snapshot` against caller-supplied programs.

    Returns ``(envelope, state)``.  Raises :class:`CheckpointError`
    before touching the state blob if any program differs from the one
    the snapshot was taken with.
    """
    envelope = pickle.loads(payload)
    _check_identity(
        envelope["programs"], [program_identity(p) for p in programs]
    )
    state = _SnapshotUnpickler(io.BytesIO(envelope["state"]), programs).load()
    return envelope, state


# ---------------------------------------------------------------------------
# File format


def save_checkpoint(path: Path, payload: bytes, meta: dict) -> None:
    """Atomically write ``payload`` (+ checksummed header) to ``path``."""
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "meta": meta,
    }
    blob = (
        MAGIC
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
        + payload
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            try:
                tmp.unlink()
            except OSError:
                pass


def load_checkpoint(path: Path) -> tuple[bytes, dict]:
    """Read and verify a checkpoint; returns ``(payload, meta)``.

    Raises :class:`CheckpointError` on any defect (missing file, bad
    magic, unparseable or wrong-schema header, truncated payload,
    checksum mismatch).  Never unpickles unverified bytes.
    """
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    newline = blob.find(b"\n", len(MAGIC))
    if newline < 0:
        raise CheckpointError(f"{path} is truncated (no header line)")
    try:
        header = json.loads(blob[len(MAGIC):newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}")
    if not isinstance(header, dict):
        raise CheckpointError(f"{path} has a corrupt header (not an object)")
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path} has checkpoint schema {schema!r}, expected "
            f"{CHECKPOINT_SCHEMA}"
        )
    payload = blob[newline + 1:]
    expected_len = header.get("payload_bytes")
    if expected_len != len(payload):
        raise CheckpointError(
            f"{path} is truncated: header promises {expected_len} payload "
            f"bytes, file holds {len(payload)}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"{path} fails its SHA-256 payload checksum (corrupt)"
        )
    meta = header.get("meta")
    return payload, meta if isinstance(meta, dict) else {}


# ---------------------------------------------------------------------------
# Per-case checkpoint store


def checkpoint_root() -> Path:
    """Directory holding per-case checkpoint subdirectories."""
    env = os.environ.get(ENV_CHECKPOINT_DIR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / ".checkpoints"


def checkpoint_dir_for(key: str) -> Path:
    """Subdirectory holding one case's checkpoints (not created here)."""
    return checkpoint_root() / key


def checkpoint_path(key: str, committed_instrs: int) -> Path:
    """Canonical file name for a snapshot at ``committed_instrs``."""
    return checkpoint_dir_for(key) / (
        f"{_FILE_PREFIX}{committed_instrs:012d}{_FILE_SUFFIX}"
    )


def _progress_of(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)):
        return None
    digits = name[len(_FILE_PREFIX):-len(_FILE_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_case_checkpoints(key: str) -> list[Path]:
    """One case's checkpoint files, oldest (least progress) first."""
    directory = checkpoint_dir_for(key)
    if not directory.is_dir():
        return []
    found = [
        (progress, path)
        for path in directory.iterdir()
        if (progress := _progress_of(path)) is not None
    ]
    found.sort()
    return [path for _, path in found]


def newest_progress(key: str) -> int | None:
    """Committed-instruction count of the newest on-disk checkpoint.

    Filename-derived only (no verification) — used for reporting how far
    a crashed case had provably gotten, not for resuming.
    """
    paths = list_case_checkpoints(key)
    return _progress_of(paths[-1]) if paths else None


def latest_valid_checkpoint(key: str) -> tuple[Path, bytes, dict] | None:
    """Newest checkpoint for ``key`` that passes verification.

    The recovery ladder: try the newest file; if it is corrupt or
    truncated, unlink it and fall back to the next-newest; with none
    left, return ``None`` (fresh start).  Corruption is never an error
    here — only a rung down the ladder.
    """
    for path in reversed(list_case_checkpoints(key)):
        try:
            payload, meta = load_checkpoint(path)
        except CheckpointError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
            continue
        return path, payload, meta
    return None


# ---------------------------------------------------------------------------
# Background reaper (see the module docstring)

#: Subdirectory of the checkpoint root holding directories awaiting
#: deletion.  Recovery and listing never look inside it.
REAPING_DIR = ".reaping"

_reaper_lock = threading.Lock()
_reaper_queue: queue.Queue | None = None
_aside_serial = itertools.count(1)


def _reaper_loop(work: queue.Queue) -> None:
    while True:
        path = work.get()
        try:
            shutil.rmtree(path, ignore_errors=True)
        finally:
            work.task_done()


def _reap(path: Path) -> None:
    """Queue ``path`` for deletion, starting the reaper on first use."""
    global _reaper_queue
    with _reaper_lock:
        if _reaper_queue is None:
            _reaper_queue = queue.Queue()
            threading.Thread(
                target=_reaper_loop, args=(_reaper_queue,),
                name="checkpoint-reaper", daemon=True,
            ).start()
        _reaper_queue.put(path)


def drain_reaper() -> None:
    """Block until every directory queued for deletion is gone."""
    with _reaper_lock:
        work = _reaper_queue
    if work is not None:
        work.join()


def _reset_reaper_in_child() -> None:
    """A forked child has no reaper thread, and may have inherited its
    locks held: give it fresh state (the parent still deletes what it
    queued)."""
    global _reaper_lock, _reaper_queue
    _reaper_lock = threading.Lock()
    _reaper_queue = None


atexit.register(drain_reaper)
os.register_at_fork(after_in_child=_reset_reaper_in_child)


def _delete_in_place(directory: Path) -> int:
    """Synchronously delete one case directory's checkpoint and temp
    files, then the directory if that left it empty; returns the
    checkpoint files removed."""
    removed = 0
    try:
        paths = list(directory.iterdir())
    except OSError:
        return 0
    for path in paths:
        is_ckpt = _progress_of(path) is not None
        is_tmp = f"{_FILE_SUFFIX}.tmp" in path.name
        if not (is_ckpt or is_tmp):
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink
            continue
        if is_ckpt:
            removed += 1
    try:
        directory.rmdir()
    except OSError:
        pass
    return removed


def clear_checkpoints(key: str | None = None) -> int:
    """Delete checkpoints (one case's, or all); returns files removed.

    One case's directory is renamed into :data:`REAPING_DIR` and deleted
    there by the background reaper (:func:`drain_reaper` waits for it):
    the case's path is free at once, and the caller never waits on the
    unlinks.  If the rename fails, the files are deleted in place.
    Clearing every case stays synchronous: it deletes in place, drains
    the reaper and sweeps whatever a crashed process left in
    :data:`REAPING_DIR`.  Leftover temp files go too, so an interrupted
    writer never accumulates garbage.
    """
    if key is None:
        root = checkpoint_root()
        removed = 0
        if root.is_dir():
            for directory in root.iterdir():
                if directory.name != REAPING_DIR and directory.is_dir():
                    removed += _delete_in_place(directory)
        drain_reaper()
        shutil.rmtree(root / REAPING_DIR, ignore_errors=True)
        return removed
    directory = checkpoint_dir_for(key)
    if not directory.is_dir():
        return 0
    removed = len(list_case_checkpoints(key))
    aside = directory.parent / REAPING_DIR / (
        f"{key}-{os.getpid()}-{next(_aside_serial)}"
    )
    try:
        aside.parent.mkdir(exist_ok=True)
        os.rename(directory, aside)
    except OSError:
        return _delete_in_place(directory)
    _reap(aside)
    return removed


def list_checkpoints() -> list[dict]:
    """Summaries for ``repro checkpoints list``: one row per case."""
    root = checkpoint_root()
    if not root.is_dir():
        return []
    rows: list[dict] = []
    for directory in sorted(
        p for p in root.iterdir() if p.is_dir() and p.name != REAPING_DIR
    ):
        paths = list_case_checkpoints(directory.name)
        if not paths:
            continue
        newest = paths[-1]
        meta: dict = {}
        try:
            _, meta = load_checkpoint(newest)
        except CheckpointError:
            pass
        rows.append(
            {
                "key": directory.name,
                "checkpoints": len(paths),
                "newest_instrs": _progress_of(newest) or 0,
                "case": meta.get("case", "?"),
                "bytes": sum(p.stat().st_size for p in paths),
                "age_seconds": max(
                    0.0, time.time() - newest.stat().st_mtime
                ),
            }
        )
    return rows
