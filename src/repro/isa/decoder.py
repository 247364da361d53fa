"""Instruction builders: the decoder's macro-op -> micro-op expansion rules.

Workload generators construct traces through these builders rather than
assembling :class:`MicroOp` tuples by hand.  The builders encode the decode
conventions the paper relies on:

* **Load-op splitting** — an FP instruction with a memory operand decodes
  into a LOAD micro-op feeding the compute micro-op (Sec. V-B: "A VFP
  instruction that has a memory operand is split into two micro-operations:
  one load and one VFP calculation").  This is what makes the KNL-JIT sgemm
  kernels memory-bound in the FLOPS stack.
* **Microcoded instructions** — multi-micro-op instructions that occupy the
  microcode sequencer for several decode cycles, producing the `Microcode`
  stall component seen for povray on KNL (Fig. 3d).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.isa.instructions import Instruction
from repro.isa.registers import FIRST_VEC_REG, NO_REG, NUM_VEC_REGS
from repro.isa.uops import MicroOp, UopClass

#: Default macro-instruction length in bytes (x86 average is ~4).
DEFAULT_LENGTH = 4

#: Entries the intern table holds before a miss clears it.  Every
#: registry workload at 3,000 instructions (a paper pass's length)
#: decodes 13,793 distinct instructions; the cap bounds a long-lived
#: process that never clears the table.
INTERN_CAP = 65_536

#: Intern table of decoded instructions: ``(build, pc, *arguments) ->
#: Instruction``.  :class:`Instruction`/:class:`MicroOp` are frozen and
#: built for sharing, so every builder returns the interned object when
#: the pc and all its arguments match: a loop re-decoding a pc with the
#: same arguments, and two workloads emitting the same trace, share one
#: object per distinct instruction (equal traces then compare by
#: identity, element for element).  The key is the whole decode, so a
#: memory-operand instruction whose address changes per iteration gets
#: one entry per address.  The table is bounded by :data:`INTERN_CAP`
#: and by the trace memo's lifetime:
#: :func:`repro.experiments.runner.clear_cache` clears both.
_INTERNED: dict[tuple, Instruction] = {}


def clear_intern_table() -> None:
    """Drop every interned instruction (traces keep their own)."""
    _INTERNED.clear()


def intern_table_size() -> int:
    """Number of distinct decodes currently interned."""
    return len(_INTERNED)


def _interned(build: Callable[..., Instruction], *args) -> Instruction:
    """``build(*args)``, interned by the builder and its full arguments.

    A miss builds (and so validates) a fresh instruction; a full table is
    cleared first, so it never holds more than :data:`INTERN_CAP`.
    """
    key = (build, *args)
    instr = _INTERNED.get(key)
    if instr is None:
        if len(_INTERNED) >= INTERN_CAP:
            _INTERNED.clear()
        instr = _INTERNED[key] = build(*args)
    return instr


#: Vector registers reserved as load-op / microcode temporaries.  Rotating
#: through a pool avoids serializing unrelated load-op instructions on a
#: single temp register.
_TEMP_POOL_SIZE = 8
_TEMP_BASE = FIRST_VEC_REG + NUM_VEC_REGS - _TEMP_POOL_SIZE


def _temp_reg(pc: int, slot: int = 0) -> int:
    """Pick a temporary vector register deterministically from the pc."""
    return _TEMP_BASE + ((pc >> 2) + slot) % _TEMP_POOL_SIZE


def _build_single(
    pc: int, uclass: UopClass, dst: int, srcs: tuple, length: int
) -> Instruction:
    uop = MicroOp(uclass, srcs=srcs, dst=dst)
    return Instruction(pc=pc, length=length, uops=(uop,))


def nop(pc: int, *, length: int = DEFAULT_LENGTH) -> Instruction:
    """A no-op macro instruction (still occupies pipeline slots)."""
    return _interned(_build_single, pc, UopClass.NOP, NO_REG, (), length)


def alu(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Single-cycle integer ALU instruction."""
    return _interned(
        _build_single, pc, UopClass.ALU, dst, tuple(srcs), length
    )


def mul(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Multi-cycle integer multiply."""
    return _interned(
        _build_single, pc, UopClass.MUL, dst, tuple(srcs), length
    )


def div(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Long-latency integer divide."""
    return _interned(
        _build_single, pc, UopClass.DIV, dst, tuple(srcs), length
    )


def _build_load(
    pc: int, dst: int, addr: int, addr_srcs: tuple, size: int, length: int
) -> Instruction:
    uop = MicroOp(
        UopClass.LOAD, srcs=addr_srcs, dst=dst, addr=addr, size=size
    )
    return Instruction(pc=pc, length=length, uops=(uop,))


def load(
    pc: int,
    dst: int,
    addr: int,
    *,
    addr_srcs: Sequence[int] = (),
    size: int = 8,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Scalar load from ``addr`` into ``dst``."""
    return _interned(
        _build_load, pc, dst, addr, tuple(addr_srcs), size, length
    )


def _build_store(
    pc: int, src: int, addr: int, addr_srcs: tuple, size: int, length: int
) -> Instruction:
    uop = MicroOp(
        UopClass.STORE,
        srcs=(src, *addr_srcs),
        dst=NO_REG,
        addr=addr,
        size=size,
    )
    return Instruction(pc=pc, length=length, uops=(uop,))


def store(
    pc: int,
    src: int,
    addr: int,
    *,
    addr_srcs: Sequence[int] = (),
    size: int = 8,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Scalar store of ``src`` to ``addr``."""
    return _interned(
        _build_store, pc, src, addr, tuple(addr_srcs), size, length
    )


def _build_branch(
    pc: int, taken: bool, target: int, srcs: tuple, length: int
) -> Instruction:
    return Instruction(
        pc=pc,
        length=length,
        uops=(MicroOp(UopClass.BRANCH, srcs=srcs),),
        is_branch=True,
        taken=taken,
        target=target,
    )


def branch(
    pc: int,
    *,
    taken: bool,
    target: int,
    srcs: Sequence[int] = (),
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Conditional branch with resolved direction and target."""
    return _interned(
        _build_branch, pc, taken, target, tuple(srcs), length
    )


def _build_vector(
    pc: int,
    uclass: UopClass,
    dst: int,
    srcs: tuple,
    lanes: int,
    width_lanes: int,
    mem_addr: int | None,
    addr_srcs: tuple,
    mem_size: int,
    length: int,
) -> Instruction:
    if mem_addr is None:
        uop = MicroOp(
            uclass,
            srcs=srcs,
            dst=dst,
            lanes=lanes,
            width_lanes=width_lanes,
        )
        return Instruction(pc=pc, length=length, uops=(uop,))
    # Memory-operand form: decode splits into load + compute micro-ops.
    temp = _temp_reg(pc)
    load_uop = MicroOp(
        UopClass.LOAD,
        srcs=addr_srcs,
        dst=temp,
        addr=mem_addr,
        size=mem_size,
    )
    compute = MicroOp(
        uclass,
        srcs=(*srcs, temp),
        dst=dst,
        lanes=lanes,
        width_lanes=width_lanes,
    )
    return Instruction(pc=pc, length=length, uops=(load_uop, compute))


def _vector_compute(
    uclass: UopClass,
    pc: int,
    dst: int,
    srcs: Sequence[int],
    *,
    lanes: int,
    width_lanes: int,
    mem_addr: int | None,
    addr_srcs: Sequence[int],
    mem_size: int,
    length: int,
) -> Instruction:
    """Shared builder for vector FP / vector int compute instructions."""
    return _interned(
        _build_vector, pc, uclass, dst, tuple(srcs), lanes, width_lanes,
        mem_addr, tuple(addr_srcs), mem_size, length,
    )


def fp_add(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 64,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """(Vector) FP add; one FLOP per active lane."""
    return _vector_compute(
        UopClass.FP_ADD, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=mem_addr,
        addr_srcs=addr_srcs, mem_size=mem_size, length=length,
    )


def fp_mul(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 64,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """(Vector) FP multiply; one FLOP per active lane."""
    return _vector_compute(
        UopClass.FP_MUL, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=mem_addr,
        addr_srcs=addr_srcs, mem_size=mem_size, length=length,
    )


def fma(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 64,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """(Vector) fused multiply-add; two FLOPs per active lane.

    With ``mem_addr`` set, this decodes into a load micro-op plus an FMA
    micro-op dependent on it — the KNL-JIT sgemm code style.
    """
    return _vector_compute(
        UopClass.FMA, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=mem_addr,
        addr_srcs=addr_srcs, mem_size=mem_size, length=length,
    )


def vec_int(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Integer SIMD op: occupies a vector unit but performs zero FLOPs."""
    return _vector_compute(
        UopClass.VEC_INT, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=None,
        addr_srcs=(), mem_size=0, length=length,
    )


def _build_broadcast(
    pc: int,
    dst: int,
    srcs: tuple,
    width_lanes: int,
    mem_addr: int | None,
    addr_srcs: tuple,
    mem_size: int,
    length: int,
) -> Instruction:
    if mem_addr is None:
        uop = MicroOp(
            UopClass.BROADCAST,
            srcs=srcs,
            dst=dst,
            lanes=width_lanes,
            width_lanes=width_lanes,
        )
        return Instruction(pc=pc, length=length, uops=(uop,))
    temp = _temp_reg(pc)
    load_uop = MicroOp(
        UopClass.LOAD,
        srcs=addr_srcs,
        dst=temp,
        addr=mem_addr,
        size=mem_size,
    )
    bcast = MicroOp(
        UopClass.BROADCAST,
        srcs=(temp,),
        dst=dst,
        lanes=width_lanes,
        width_lanes=width_lanes,
    )
    return Instruction(pc=pc, length=length, uops=(load_uop, bcast))


def broadcast(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 8,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Broadcast a scalar into all vector lanes (SKX sgemm code style).

    With ``mem_addr`` set, decodes into load + broadcast micro-ops.
    """
    return _interned(
        _build_broadcast, pc, dst, tuple(srcs), width_lanes,
        mem_addr, tuple(addr_srcs), mem_size, length,
    )


def _build_microcoded_fp(
    pc: int,
    dst: int,
    srcs: tuple,
    n_uops: int,
    decode_cycles: int | None,
    length: int,
) -> Instruction:
    uops: list[MicroOp] = []
    prev = NO_REG
    for slot in range(n_uops):
        uclass = UopClass.FP_MUL if slot % 2 == 0 else UopClass.FP_ADD
        uop_srcs = srcs if prev == NO_REG else (prev,)
        uop_dst = dst if slot == n_uops - 1 else _temp_reg(pc, slot)
        uops.append(MicroOp(uclass, srcs=uop_srcs, dst=uop_dst))
        prev = uop_dst
    return Instruction(
        pc=pc,
        length=length,
        uops=tuple(uops),
        microcoded=True,
        decode_cycles=n_uops if decode_cycles is None else decode_cycles,
    )


def microcoded_fp(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    n_uops: int = 4,
    decode_cycles: int | None = None,
    length: int = DEFAULT_LENGTH + 4,
) -> Instruction:
    """A microcoded multi-micro-op scalar FP instruction (povray-like).

    Decodes into a chain of ``n_uops`` dependent scalar FP micro-ops, and
    charges ``decode_cycles`` (default ``n_uops``) of microcode-sequencer
    decode time in the frontend.
    """
    if n_uops < 2:
        raise ValueError("a microcoded instruction needs at least 2 micro-ops")
    return _interned(
        _build_microcoded_fp, pc, dst, tuple(srcs), n_uops, decode_cycles,
        length,
    )


def _build_sync(
    pc: int, cycles: int, barrier: bool, length: int
) -> Instruction:
    return Instruction(
        pc=pc,
        length=length,
        uops=(MicroOp(UopClass.SYNC),),
        yield_cycles=cycles,
        barrier=barrier,
    )


def sync_yield(
    pc: int,
    cycles: int,
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Synchronization point that deschedules the core for ``cycles``.

    Models threads yielding on a barrier/lock; the descheduled time appears
    as the `Unsched` component in IPC and FLOPS stacks (Fig. 5).
    """
    if cycles <= 0:
        raise ValueError("yield must cover at least one cycle")
    return _interned(_build_sync, pc, cycles, False, length)


def barrier(
    pc: int,
    cycles: int,
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Explicit thread barrier with a local release latency of ``cycles``.

    Under the multi-core engine the core parks here until the last
    sibling arrives; the wait plus the release latency land in the
    `Unsched` component (Fig. 5).  On a standalone single core (or a
    1-core engine) nobody can be waited on, so the instruction degrades
    to exactly ``sync_yield(pc, cycles)``.
    """
    if cycles <= 0:
        raise ValueError("a barrier must cover at least one cycle")
    return _interned(_build_sync, pc, cycles, True, length)
