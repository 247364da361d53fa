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

The payload is the pickled simulator itself, never the input trace: two
pickles back to back, the program identities and then the
:class:`~repro.pipeline.core.CoreSimulator` (or
:class:`~repro.pipeline.multicore.MulticoreSimulator`) as one object
graph.  Each :class:`~repro.isa.instructions.Program`, its instruction
list and every trace :class:`~repro.isa.instructions.Instruction` are
written as references (``(program, position)`` for an instruction), and
so are the simulator's identity-compared sentinels.  The caller supplies
the program(s) on restore; :func:`unpack_snapshot` compares them with
the saved identities before the simulator pickle is resolved against
them, so a checkpoint never resumes into a different trace.  The format
follows the in-memory representation: any change to a simulator class's
attributes bumps :data:`CHECKPOINT_SCHEMA`.

Checkpoints live in :data:`STORE` (a :class:`repro.store.Store`) under
``results/.checkpoints/<case-key>/`` (override with
``REPRO_CHECKPOINT_DIR``), one subdirectory per case, one file per
snapshot named ``ckpt_<committed-instructions>.rck``.  Writes are atomic
and fsynced, so a crash mid-write leaves either the old checkpoint or
none, never a partial one.  Recovery walks the ladder newest -> older ->
fresh start, discarding any checkpoint that fails its checks on the way
down.

Once a case's result is published, :func:`clear_checkpoints` discards
its directory: the store renames it into ``.reaping`` and its
background reaper deletes it, so the caller never waits on the unlinks
and the case's path is free at once (a rerun of the same case writes
fresh checkpoints while the old ones are still being deleted).
Recovery and listing never read ``.reaping``, so a crash mid-deletion
leaves only ``.reaping`` debris (swept by ``clear_checkpoints()``),
never a resumable stale checkpoint.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import pickle
import time
from array import array
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from repro.isa.instructions import Instruction, Program
from repro.store import Store, env_number

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "ENV_CHECKPOINT_DIR",
    "ENV_CHECKPOINT_INTERVAL",
    "STORE",
    "checkpoint_dir_for",
    "checkpoint_interval_default",
    "clear_checkpoints",
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
#: 6: the payload is the pickled simulator, with the programs, their
#: instruction lists and the sentinels as references.
#: 7: the memory hierarchy drops its fill-completion heap.
#: 8: program identities digest every instruction and micro-op field.
#: 9: one ``reference`` flag replaces the simulator's event, fast-forward
#: and scan switches; the FU pool drops its unpipelined-class set.
#: 10: one collector per simulator — the collector list, its spec tuple,
#: the fused results and the uniform-width flag are gone.
#: 11: retained observations are write-once — the simulator drops its
#: private buffer pair and collector epoch, a retained buffer holds only
#: its observation, and the replay engine its spare-buffer list.
CHECKPOINT_SCHEMA = 11

#: First line of every checkpoint file.
MAGIC = b"REPRO-CKPT\n"

#: Snapshot cadence in committed instructions.  Unset/empty/0 = off.
ENV_CHECKPOINT_INTERVAL = "REPRO_CHECKPOINT_INTERVAL"

#: Override the checkpoint store root (default results/.checkpoints/).
ENV_CHECKPOINT_DIR = "REPRO_CHECKPOINT_DIR"

_FILE_PREFIX = "ckpt_"
_FILE_SUFFIX = ".rck"

#: The checkpoint store.  Writes are fsynced: a lost checkpoint costs
#: the simulation it saved.
STORE = Store(
    ENV_CHECKPOINT_DIR, ".checkpoints", f"*/{_FILE_PREFIX}*{_FILE_SUFFIX}",
    fsync=True,
)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, corrupt, or incompatible."""


def checkpoint_interval_default() -> int | None:
    """Resolve ``REPRO_CHECKPOINT_INTERVAL`` (inherited by pool workers).

    Returns ``None`` when checkpointing is off — the default.  A
    malformed value raises :class:`CheckpointError` naming the variable
    and the offending text, so a typo'd environment surfaces at case
    start instead of as a silent no-checkpoint run.
    """
    value = env_number(
        ENV_CHECKPOINT_INTERVAL, int,
        "an integer number of committed instructions", CheckpointError,
    )
    return value if value is not None and value > 0 else None


# ---------------------------------------------------------------------------
# Program identity and state payloads


#: Every scalar field of an :class:`Instruction` and of a
#: :class:`~repro.isa.uops.MicroOp`, in identity-encoding order; the
#: remaining fields (``Instruction.uops``, ``MicroOp.srcs``) are tuples,
#: encoded as their length and then their elements.
INSTRUCTION_SCALARS = (
    "pc", "length", "is_branch", "taken", "target", "microcoded",
    "decode_cycles", "yield_cycles", "barrier",
)
MICRO_OP_SCALARS = ("uclass", "dst", "addr", "size", "lanes", "width_lanes")

_instruction_scalars = attrgetter(*INSTRUCTION_SCALARS)
_micro_op_scalars = attrgetter(*MICRO_OP_SCALARS)


def _encode_instruction(instr: Instruction) -> tuple[int, ...]:
    """Every field of ``instr`` and of its micro-ops as integers; the
    encoding is self-delimiting, so a concatenation of encodings splits
    back into instructions one way only."""
    out = [*_instruction_scalars(instr), len(instr.uops)]
    for uop in instr.uops:
        out.extend(_micro_op_scalars(uop))
        out.append(len(uop.srcs))
        out.extend(uop.srcs)
    return tuple(out)


def program_identity(program: Program) -> dict:
    """Content identity of an input trace: equal exactly when the traces
    compare equal.

    Name, instruction count, micro-op count, and a SHA-256 over every
    field of every instruction and micro-op, as machine-native
    ``array('q')`` bytes (checkpoints are host-local files).  The digest
    covers a table of the distinct instruction encodings, in order of
    first appearance, and then each instruction's position in that table.
    The decoder interns instructions, so equal instructions are mostly
    one object: each distinct object is encoded once, and equal objects
    built apart still share one table entry.  Memoized on the program
    (dropped by :meth:`Program.extend`), so a trace is hashed once
    however many engines snapshot or restore it.
    """
    if program._identity is None:
        table: dict[tuple[int, ...], int] = {}
        position_of: dict[int, int] = {}
        positions = array("q")
        for instr in program.instructions:
            position = position_of.get(id(instr))
            if position is None:
                encoding = _encode_instruction(instr)
                position = table.setdefault(encoding, len(table))
                position_of[id(instr)] = position
            positions.append(position)
        encodings = array("q", [len(table)])
        for encoding in table:
            encodings.extend(encoding)
        digest = hashlib.sha256(encodings.tobytes())
        digest.update(positions.tobytes())
        program._identity = {
            "name": program.name,
            "instructions": len(positions),
            "uops": program.uop_count,
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


def _sentinels() -> tuple:
    """The simulator's identity-compared module constants, in reference
    order: a pickled copy would compare unequal by identity."""
    from repro.pipeline.core import _PENDING, _UNSCHED_SIG

    return (_PENDING, _UNSCHED_SIG)


def _snapshot_refs(programs: Sequence[Program]) -> dict[int, tuple]:
    """``id(object) -> reference`` for everything :func:`pack_snapshot`
    writes as a reference instead of a value: each program (``(p,
    "program")``), its instruction list (``(p, "instructions")``), each
    of its instructions (``(p, position)``) and each sentinel
    (``("sentinel", index)``)."""
    refs: dict[int, tuple] = {
        id(obj): ("sentinel", s) for s, obj in enumerate(_sentinels())
    }
    for p, program in enumerate(programs):
        refs[id(program)] = (p, "program")
        refs[id(program.instructions)] = (p, "instructions")
        refs.update(
            (id(instr), (p, i)) for i, instr in enumerate(program.instructions)
        )
    return refs


class _SnapshotPickler(pickle.Pickler):
    """Pickles a simulator with its trace and sentinels as references."""

    def __init__(self, file, refs: dict[int, tuple]) -> None:
        super().__init__(file)
        self._refs = refs

    def persistent_id(self, obj):
        ref = self._refs.get(id(obj))
        if ref is None and type(obj) in (Instruction, Program):
            raise CheckpointError(
                f"state references a {type(obj).__name__} that is not "
                "one of the simulated programs"
            )
        return ref


class _SnapshotUnpickler(pickle.Unpickler):
    """Resolves :class:`_SnapshotPickler` references against the programs."""

    def __init__(self, file, programs: Sequence[Program]) -> None:
        super().__init__(file)
        self._programs = programs

    def persistent_load(self, ref):
        where, what = ref
        if where == "sentinel":
            return _sentinels()[what]
        program = self._programs[where]
        if what == "program":
            return program
        if what == "instructions":
            return program.instructions
        return program.instructions[what]


def pack_snapshot(sim, programs: Sequence[Program]) -> bytes:
    """Serialize a simulator that runs ``programs`` into one payload.

    The payload is two pickles back to back: the programs' identities,
    then ``sim`` itself in one pass (the memo keeps shared objects such
    as in-flight micro-ops shared), with every :func:`_snapshot_refs`
    object written as its reference.  The reference table is built once
    per simulator and memoized on its ``_instruction_refs``.
    """
    if sim._instruction_refs is None:
        sim._instruction_refs = _snapshot_refs(programs)
    buffer = io.BytesIO()
    pickle.dump([program_identity(p) for p in programs], buffer)
    _SnapshotPickler(buffer, sim._instruction_refs).dump(sim)
    return buffer.getvalue()


def unpack_snapshot(payload: bytes, programs: Sequence[Program], kind: type):
    """Inverse of :func:`pack_snapshot` against caller-supplied programs.

    Returns the simulator, which must be a ``kind``.  Raises
    :class:`CheckpointError` before touching the simulator pickle if any
    program differs from the one the snapshot was taken with, and after
    it if the payload holds another kind of simulator.
    """
    stream = io.BytesIO(payload)
    _check_identity(
        pickle.load(stream), [program_identity(p) for p in programs]
    )
    sim = _SnapshotUnpickler(stream, programs).load()
    if type(sim) is not kind:
        raise CheckpointError(
            f"checkpoint holds a {type(sim).__name__}, not a {kind.__name__}"
        )
    return sim


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
    STORE.write(path, blob)


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


def checkpoint_dir_for(key: str) -> Path:
    """Subdirectory holding one case's checkpoints (not created here)."""
    return STORE.root / key


def checkpoint_path(key: str, committed_instrs: int) -> Path:
    """Canonical file name for a snapshot at ``committed_instrs``."""
    return checkpoint_dir_for(key) / (
        f"{_FILE_PREFIX}{committed_instrs:012d}{_FILE_SUFFIX}"
    )


def _progress_of(path: Path) -> int | None:
    """The progress in a checkpoint file's name, if it holds one."""
    digits = path.name[len(_FILE_PREFIX):-len(_FILE_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_case_checkpoints(key: str) -> list[Path]:
    """One case's checkpoint files, oldest (least progress) first: the
    progress in a name is zero-padded, so name order is progress order."""
    return sorted(
        checkpoint_dir_for(key).glob(f"{_FILE_PREFIX}*{_FILE_SUFFIX}")
    )


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
    truncated, discard it and fall back to the next-newest; with none
    left, return ``None`` (fresh start).  Corruption is never an error
    here — only a rung down the ladder.
    """
    for path in reversed(list_case_checkpoints(key)):
        try:
            payload, meta = load_checkpoint(path)
        except CheckpointError:
            STORE.discard(path)
            continue
        return path, payload, meta
    return None


def clear_checkpoints(key: str | None = None) -> int:
    """Delete checkpoints (one case's, or all); returns files removed.

    One case's directory is discarded (:meth:`Store.discard`): its path
    is free at once, and the caller never waits on the unlinks.
    Clearing every case purges the store synchronously, with the
    ``.reaping`` debris and the temp files of interrupted writers.
    """
    if key is None:
        return STORE.purge()
    directory = checkpoint_dir_for(key)
    if not directory.is_dir():
        return 0
    removed = len(list_case_checkpoints(key))
    STORE.discard(directory)
    return removed


def list_checkpoints() -> list[dict]:
    """Summaries for ``repro checkpoints list``: one row per case."""
    rows: list[dict] = []
    for key, group in itertools.groupby(
        STORE.files(), key=lambda path: path.parent.name
    ):
        paths = list(group)
        newest = paths[-1]
        meta: dict = {}
        try:
            _, meta = load_checkpoint(newest)
        except CheckpointError:
            pass
        rows.append(
            {
                "key": key,
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
