"""Macro-instruction and program containers.

A macro instruction is the fetch/decode-level unit: it has a program counter
and byte length (driving instruction-cache behaviour), optional branch
semantics (driving the branch predictor), and a tuple of already-decoded
micro-ops (driving everything downstream of decode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.isa.uops import MicroOp, UopClass


@dataclass(frozen=True, slots=True)
class Instruction:
    """A decoded macro instruction in a functional-first trace.

    Because traces are functional-first (the correct path is known before
    timing simulation), branches carry their resolved direction and target.
    The frontend still runs a real branch predictor against them and injects
    wrong-path work on mispredictions.
    """

    pc: int
    #: Instruction length in bytes; drives I-cache line crossings.
    length: int
    #: Decoded micro-ops, in program order.
    uops: tuple[MicroOp, ...]
    #: True for control-flow instructions.
    is_branch: bool = False
    #: Resolved direction (meaningful only if ``is_branch``).
    taken: bool = False
    #: Resolved target address (meaningful only if ``is_branch`` and taken).
    target: int = 0
    #: True if the instruction requires the microcode sequencer to decode.
    microcoded: bool = False
    #: Extra decode cycles charged by the microcode sequencer.
    decode_cycles: int = 0
    #: Cycles the core is descheduled at this instruction (sync/yield).
    yield_cycles: int = 0
    #: True for an explicit multi-core barrier: under a
    #: :class:`~repro.pipeline.multicore.MulticoreSimulator` the core
    #: additionally parks until every sibling core arrives; standalone it
    #: behaves exactly like a plain sync/yield of ``yield_cycles``.
    barrier: bool = False

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("instruction length must be positive")
        if not self.uops and self.yield_cycles == 0:
            raise ValueError("instruction must carry micro-ops or a yield")
        if self.barrier and self.yield_cycles <= 0:
            raise ValueError("a barrier must carry a positive yield latency")
        if self.is_branch and not any(
            u.uclass is UopClass.BRANCH for u in self.uops
        ):
            raise ValueError("branch instruction must contain a BRANCH micro-op")

    @property
    def fallthrough(self) -> int:
        """Address of the next sequential instruction."""
        return self.pc + self.length

    @property
    def next_pc(self) -> int:
        """Resolved next program counter (target if a taken branch)."""
        if self.is_branch and self.taken:
            return self.target
        return self.fallthrough

    @property
    def uop_count(self) -> int:
        return len(self.uops)


@dataclass(slots=True)
class Program:
    """An ordered dynamic instruction trace plus summary statistics.

    ``Program`` is the unit handed to the simulator.  It is immutable in
    spirit: simulations never mutate it, so one instance can back many runs
    (baseline and idealized configurations share the trace, as in the paper's
    methodology).  Trace analyses every simulation needs (the micro-op
    count, the replay period, the checkpoint identity) are memoized on the instance, so a program
    must not be mutated after its first simulation; :meth:`extend` is the
    one mutator and drops the memos.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    #: Memo of :attr:`uop_count` (None until first read).
    _uop_count: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memo of :func:`repro.pipeline.replay.find_period` (False until
    #: first computed; None is a valid "aperiodic" result).
    _period: tuple[int, int] | None | bool = field(
        default=False, init=False, repr=False, compare=False
    )
    #: Memo of :func:`repro.pipeline.checkpoint.program_identity` (None
    #: until first computed).
    _identity: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def extend(self, instrs: Iterable[Instruction]) -> None:
        self.instructions.extend(instrs)
        self._uop_count = None
        self._period = False
        self._identity = None

    @property
    def uop_count(self) -> int:
        """Total micro-ops in the trace."""
        if self._uop_count is None:
            self._uop_count = sum(len(i.uops) for i in self.instructions)
        return self._uop_count

    @property
    def branch_count(self) -> int:
        return sum(1 for i in self.instructions if i.is_branch)

    @property
    def load_count(self) -> int:
        return sum(
            1
            for i in self.instructions
            for u in i.uops
            if u.uclass is UopClass.LOAD
        )

    @property
    def store_count(self) -> int:
        return sum(
            1
            for i in self.instructions
            for u in i.uops
            if u.uclass is UopClass.STORE
        )

    @property
    def flop_count(self) -> int:
        """Total floating-point operations in the trace."""
        return sum(u.flops for i in self.instructions for u in i.uops)

    @property
    def vfp_uop_count(self) -> int:
        return sum(
            1 for i in self.instructions for u in i.uops if u.is_vfp
        )

    def summary(self) -> dict[str, float]:
        """Descriptive statistics used by tests and reports."""
        n_instr = len(self.instructions)
        n_uops = self.uop_count
        return {
            "instructions": n_instr,
            "uops": n_uops,
            "uops_per_instr": n_uops / n_instr if n_instr else 0.0,
            "branches": self.branch_count,
            "loads": self.load_count,
            "stores": self.store_count,
            "flops": self.flop_count,
            "vfp_uops": self.vfp_uop_count,
            "vfp_uop_fraction": self.vfp_uop_count / n_uops if n_uops else 0.0,
        }


def concat_programs(name: str, parts: Sequence[Program]) -> Program:
    """Concatenate traces back to back into a single program."""
    merged = Program(name)
    for part in parts:
        merged.extend(part.instructions)
    return merged
