"""Dynamic (in-flight) micro-op records.

The static trace (:class:`repro.isa.MicroOp`) is immutable; every dynamic
instance in the pipeline gets one :class:`InflightUop` carrying its
execution state.  The attribute set doubles as the
:class:`repro.core.blame.BlamableUop` protocol used by the accountants.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction
from repro.isa.uops import FLOPS_PER_LANE, MicroOp, UopClass

#: Functional-unit pool indices (see
#: :class:`repro.pipeline.resources.FunctionalUnitPool`).
POOL_ALU = 0
POOL_MUL = 1
POOL_VU = 2
POOL_LOAD = 3
POOL_STORE = 4
POOL_BRANCH = 5

#: UopClass value -> FU pool index (kept in UopClass declaration order).
_POOL_OF: tuple[int, ...] = (
    POOL_ALU,     # NOP
    POOL_ALU,     # ALU
    POOL_MUL,     # MUL
    POOL_MUL,     # DIV
    POOL_BRANCH,  # BRANCH
    POOL_LOAD,    # LOAD
    POOL_STORE,   # STORE
    POOL_VU,      # FP_ADD
    POOL_VU,      # FP_MUL
    POOL_VU,      # FP_DIV
    POOL_VU,      # FMA
    POOL_VU,      # VEC_INT
    POOL_VU,      # BROADCAST
    POOL_ALU,     # SYNC
)

#: Int-indexed lookups for the constructor fast path (one InflightUop is
#: built per dynamic micro-op; dict/enum lookups here showed in profiles).
_OPS_OF: tuple[int, ...] = tuple(
    FLOPS_PER_LANE.get(UopClass(i), 0) for i in range(len(UopClass))
)
_IS_VU_NONVFP: tuple[bool, ...] = tuple(
    UopClass(i) in (UopClass.VEC_INT, UopClass.BROADCAST)
    for i in range(len(UopClass))
)
_LOAD = UopClass.LOAD
_STORE = UopClass.STORE
_BRANCH = UopClass.BRANCH


class InflightUop:
    """One micro-op instance flowing through the pipeline."""

    __slots__ = (
        "uop",
        "instr",
        "seq",
        "block_id",
        "wrong_path",
        "last_of_instr",
        # dependence tracking
        "producers",
        "consumers",
        "deps_left",
        # execution state
        "issued",
        "done",
        "squashed",
        # classification for the accountants (BlamableUop protocol)
        "is_load",
        "is_store",
        "is_branch",
        "multi_cycle",
        "dcache_miss",
        # branch state
        "mispredicted",
        # scheduler state (event-driven issue)
        "parked",
        "waiters",
        # precomputed fast-path constants
        "pool",
        "ops",
        "is_vu_nonvfp",
    )

    def __init__(
        self,
        uop: MicroOp,
        instr: Instruction | None,
        seq: int,
        block_id: int,
        *,
        wrong_path: bool = False,
        last_of_instr: bool = False,
        multi_cycle: bool = False,
    ) -> None:
        self.producers: list[InflightUop] = []
        self.consumers: list[InflightUop] = []
        self.uop = uop
        self.instr = instr
        self.seq = seq
        self.block_id = block_id
        self.wrong_path = wrong_path
        self.last_of_instr = last_of_instr
        self.deps_left = 0
        self.issued = False
        self.done = False
        self.squashed = False
        uclass = uop.uclass
        is_load = uclass is _LOAD
        self.is_load = is_load
        self.is_store = uclass is _STORE
        self.is_branch = uclass is _BRANCH
        self.multi_cycle = multi_cycle or is_load
        self.dcache_miss = False
        self.mispredicted = False
        self.parked = False
        self.waiters = None
        self.pool = _POOL_OF[uclass]
        self.ops = _OPS_OF[uclass]
        self.is_vu_nonvfp = _IS_VU_NONVFP[uclass]

    @property
    def ready(self) -> bool:
        """All register operands available (memory conflicts checked at
        issue time by the scheduler)."""
        return self.deps_left == 0

    def first_unfinished_producer(self) -> "InflightUop | None":
        """prod(i) for the issue-stage accountant: the first producer whose
        result is still outstanding (Table II, issue column, line 10)."""
        for producer in self.producers:
            if not producer.done:
                return producer
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (
                ("W", self.wrong_path),
                ("I", self.issued),
                ("D", self.done),
                ("S", self.squashed),
            )
            if on
        )
        return f"<uop#{self.seq} {self.uop.uclass.name} {flags}>"


class UopPool:
    """Free-list recycler for :class:`InflightUop` records.

    Building one record per dynamic micro-op showed up in per-cycle
    profiles; the pipeline retires ~ROB-size records at a time, so a small
    free list covers the whole run.  The frontend mints records by
    popping ``_free`` inline (:meth:`Frontend.deliver`), refilling every
    slot from its per-class rows.  The core releases records at commit,
    squash and wrong-path writeback after severing every dependence edge
    that still points at them, so a recycled record can never be reached
    through a stale reference (stale scheduler-queue entries are detected
    by their snapshotted ``seq`` no longer matching).
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: list[InflightUop] = []

    def release(self, uop: InflightUop) -> None:
        """Return a record whose dynamic life is over to the free list."""
        uop.producers.clear()
        uop.consumers.clear()
        uop.waiters = None
        self._free.append(uop)

    def __len__(self) -> int:
        return len(self._free)
