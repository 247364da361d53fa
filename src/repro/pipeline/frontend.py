"""Frontend: fetch, branch prediction, decode and micro-op delivery.

The frontend walks the functional-first trace, paying instruction-cache
latency per fetched line, consulting the branch predictor on every branch,
and expanding macro-ops into micro-ops (rate-limited by the microcode
sequencer for microcoded instructions).  On a misprediction it switches to
**wrong-path mode**, synthesizing micro-ops from the configured wrong-path
template until the core resolves the branch and redirects it; the
correct-path trace position is untouched, so fetch resumes exactly at the
fall-through/target instruction after the redirect penalty.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

from repro.config.cores import CoreConfig
from repro.core.components import Component
from repro.branch.predictors import BranchPredictor
from repro.isa.instructions import Instruction, Program
from repro.isa.registers import NUM_INT_REGS
from repro.isa.uops import MicroOp, UopClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.inflight import (
    _IS_VU_NONVFP,
    _OPS_OF,
    _POOL_OF,
    InflightUop,
    UopPool,
)

#: Integer registers the wrong-path synthesizer rotates through.
_WP_REG_BASE = NUM_INT_REGS - 8
_WP_REG_COUNT = 8
#: Destination registers / singleton source tuples by rotation offset
#: (one tuple allocation per synthesized micro-op showed in profiles).
_WP_DSTS = tuple(_WP_REG_BASE + i for i in range(_WP_REG_COUNT))
_WP_SRC1 = tuple((r,) for r in _WP_DSTS)
# The synthesizer's uop cache packs (uclass, dst offset, src offset) into
# one int key: 4 bits each for the offsets requires the rotation window
# to stay within 15 registers.
assert _WP_REG_COUNT <= 15


class Frontend:
    """Delivers renamed-ready micro-ops into the dispatch queue."""

    def __init__(
        self,
        program: Program,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        *,
        seed: int = 12345,
        pool: UopPool | None = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self._instructions = program.instructions
        self._count = len(self._instructions)
        self._idx = 0
        #: Dynamic micro-op records come from the core's shared free-list
        #: pool (a private one when constructed standalone in tests).
        self._pool = UopPool() if pool is None else pool
        # Current macro-op expansion state: an index cursor over the
        # micro-ops of the current instruction (see _start_instr).
        self._decoded: tuple[MicroOp, ...] = ()
        self._decoded_idx = 0
        self._decoded_len = 0
        self._pending_instr: Instruction | None = None
        # Monotonic micro-op sequence and basic-block counters.
        self.seq = 0
        self.block = 0
        # Stall state.
        self._stall_until = 0
        self._stall_reason: Component | None = None
        self._last_reason: Component | None = None
        self._last_line = -1
        # Wrong-path state.
        self.wrong_path = False
        self.resolving_branch: InflightUop | None = None
        self._wp_prev_dst = -1
        self._wp_counter = 0
        self._wp_data_addr = 1 << 22
        self._rng = random.Random(seed)
        # Synchronization barrier state.
        self.waiting_sync: InflightUop | None = None
        # Statistics.
        self.delivered = 0
        self.delivered_wrong = 0
        self.icache_stall_cycles = 0
        #: uclass -> every static classification a minted record copies:
        #: (is_load, is_store, is_branch, multi_cycle, fu_pool,
        #: flops_per_lane, is_vu_nonvfp).  Each is a function of the
        #: micro-op class and the core config alone, so this one table
        #: serves the correct and the wrong path without any decode.
        self._class_rows = tuple(
            (
                uclass is UopClass.LOAD,
                uclass is UopClass.STORE,
                uclass is UopClass.BRANCH,
                config.latency_of(uclass) > 1 or uclass is UopClass.LOAD,
                _POOL_OF[uclass],
                _OPS_OF[uclass],
                _IS_VU_NONVFP[uclass],
            )
            for uclass in UopClass
        )
        # Per-uop hot-path constants hoisted out of the delivery loop.
        self._decode_width = config.decode_width
        self._micro_rate = config.microcode_uops_per_cycle
        self._line_bits = hierarchy.l1i.line_bits
        self._l1i_latency = hierarchy.l1i.latency
        #: Synthesized non-load wrong-path micro-ops recur from a small
        #: set of (class, srcs, dst) combinations; MicroOp is immutable
        #: and built for sharing, so cache instead of reconstructing.
        #: Keyed by ``(uclass << 8) | (dst_off << 4) | src_off`` — the
        #: three coordinates packed into one int (tuple keys showed in
        #: mispredict-heavy profiles).
        self._wp_uop_cache: dict[int, MicroOp] = {}

    # -- status ------------------------------------------------------------------

    @property
    def trace_exhausted(self) -> bool:
        return (
            self._idx >= self._count
            and self._decoded_idx >= self._decoded_len
        )

    @property
    def idle(self) -> bool:
        """True once the frontend will never deliver again."""
        return (
            self.trace_exhausted
            and not self.wrong_path
            and self.waiting_sync is None
        )

    def reason(self, cycle: int) -> Component | None:
        """Why the frontend is not (fully) delivering this cycle.

        The fused event step (``CoreSimulator._step_event``) inlines this
        logic on its per-cycle sampling path; keep the branch order here
        and there in sync.
        """
        if self.waiting_sync is not None:
            return Component.UNSCHED
        if cycle < self._stall_until:
            return self._stall_reason
        if self.wrong_path:
            return Component.BPRED
        if self.trace_exhausted:
            return None
        if (
            self._pending_instr is not None
            and self._pending_instr.microcoded
        ):
            return Component.MICROCODE
        return self._last_reason

    def next_event(self, cycle: int) -> float:
        """Earliest future cycle at which frontend behaviour can change
        on its own — the fast-forward engine's frontend bound.

        Returns ``cycle`` itself while the frontend is actively
        delivering (no skipping allowed), the stall end while fetch is
        stalled (the stall's expiry changes :meth:`reason` even if the
        queue stays full), and +inf when only a core-side event (sync
        release, branch resolution) can wake it.
        """
        if self.waiting_sync is not None:
            # Released by the core at sync commit; core-side events cap
            # the skip window.
            return math.inf
        if cycle < self._stall_until:
            return float(self._stall_until)
        if self.idle:
            return math.inf
        return float(cycle)

    def note_skipped_cycles(self, cycle: int, k: int, had_room: bool) -> None:
        """Mirror per-cycle bookkeeping for ``k`` fast-forwarded cycles.

        :meth:`deliver` counts serial I-cache stall cycles when it is
        called with queue room during a stall; skipped cycles must add
        the same amount so frontend statistics match a cycle-by-cycle
        run exactly.
        """
        if (
            had_room
            and self.waiting_sync is None
            and cycle < self._stall_until
            and self._stall_reason is Component.ICACHE
        ):
            self.icache_stall_cycles += min(k, self._stall_until - cycle)

    def fingerprint(self, cycle: int) -> tuple:
        """Delivery-state snapshot for the replay engine, shift-normalized.

        Trace position, ``seq`` and ``block`` are deliberately excluded —
        the engine compares them modulo the detected period and shifts
        them on a jump.  Counters are excluded (delta-advanced).  The
        stall deadline is expressed relative to ``cycle``; ``_last_line``
        stays absolute because loop bodies refetch the same lines each
        iteration.  The wrong-path RNG state is included verbatim: it
        never revisits a prior state once consumed, so any window that
        contains wrong-path delivery self-excludes.
        """
        stall = self._stall_until - cycle
        return (
            self._pending_instr,
            self._decoded_idx,
            self._decoded_len,
            stall if stall > 0 else 0,
            self._stall_reason,
            self._last_reason,
            self._last_line,
            self.wrong_path,
            self.resolving_branch is None,
            self.waiting_sync is None,
            self._wp_prev_dst,
            self._wp_counter,
            self._wp_data_addr,
            self._rng.getstate(),
        )

    def snapshot(self) -> dict:
        """Picklable full state for the checkpoint engine.

        Everything mutable goes in: trace/decode position, stall state,
        wrong-path machinery (including the RNG via ``getstate``), sync
        barrier, and the delivery counters.  The in-flight uop references
        (``resolving_branch``, ``waiting_sync``) are stored as live
        objects — the simulator pickles its whole state in one pass, so
        the memo keeps them identical to the ROB/scheduler entries.
        The ``_wp_uop_cache`` memo is deliberately excluded: it is
        rebuilt on demand and carries no behaviour.  So is ``_decoded``,
        which is always the pending instruction's micro-ops: restore
        derives it, and a mid-expansion cursor resumes on the same uops.
        """
        return {
            "idx": self._idx,
            "decoded_idx": self._decoded_idx,
            "decoded_len": self._decoded_len,
            "pending_instr": self._pending_instr,
            "seq": self.seq,
            "block": self.block,
            "stall_until": self._stall_until,
            "stall_reason": self._stall_reason,
            "last_reason": self._last_reason,
            "last_line": self._last_line,
            "wrong_path": self.wrong_path,
            "resolving_branch": self.resolving_branch,
            "wp_prev_dst": self._wp_prev_dst,
            "wp_counter": self._wp_counter,
            "wp_data_addr": self._wp_data_addr,
            "rng": self._rng.getstate(),
            "waiting_sync": self.waiting_sync,
            "delivered": self.delivered,
            "delivered_wrong": self.delivered_wrong,
            "icache_stall_cycles": self.icache_stall_cycles,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot`; mutates this frontend in place."""
        self._idx = state["idx"]
        self._decoded_idx = state["decoded_idx"]
        self._decoded_len = state["decoded_len"]
        self._pending_instr = state["pending_instr"]
        pending = self._pending_instr
        self._decoded = () if pending is None else pending.uops
        self.seq = state["seq"]
        self.block = state["block"]
        self._stall_until = state["stall_until"]
        self._stall_reason = state["stall_reason"]
        self._last_reason = state["last_reason"]
        self._last_line = state["last_line"]
        self.wrong_path = state["wrong_path"]
        self.resolving_branch = state["resolving_branch"]
        self._wp_prev_dst = state["wp_prev_dst"]
        self._wp_counter = state["wp_counter"]
        self._wp_data_addr = state["wp_data_addr"]
        self._rng.setstate(state["rng"])
        self.waiting_sync = state["waiting_sync"]
        self.delivered = state["delivered"]
        self.delivered_wrong = state["delivered_wrong"]
        self.icache_stall_cycles = state["icache_stall_cycles"]

    def shift(
        self, cycle: int, cycles: int, instrs: int, seqs: int, blocks: int
    ) -> None:
        """Advance trace position and name spaces after a replay jump."""
        self._idx += instrs
        self.seq += seqs
        self.block += blocks
        if self._stall_until > cycle:
            self._stall_until += cycles

    # -- control from the core ------------------------------------------------

    def redirect(self, cycle: int) -> None:
        """Mispredicted branch resolved: flush and refetch correct path."""
        self.wrong_path = False
        self.resolving_branch = None
        self._decoded = ()
        self._decoded_idx = 0
        self._decoded_len = 0
        self._pending_instr = None
        self._stall(cycle + self.config.redirect_penalty, Component.BPRED)
        self._last_line = -1
        self.block += 1

    def sync_released(self) -> None:
        """The yield following a sync instruction has completed."""
        self.waiting_sync = None

    def _stall(self, until: float, reason: Component) -> None:
        if until > self._stall_until:
            self._stall_until = int(until)
        self._stall_reason = reason
        self._last_reason = reason

    # -- delivery ----------------------------------------------------------------

    def deliver(self, cycle: int, room: int, out=None):
        """Produce up to decode-width micro-ops for the dispatch queue.

        Appends into ``out`` when given (the core passes its uop queue
        directly, avoiding a per-cycle list) and always returns it.
        """
        if out is None:
            out = []
        if room <= 0 or self.waiting_sync is not None:
            return out
        if cycle < self._stall_until:
            if self._stall_reason is Component.ICACHE:
                self.icache_stall_cycles += 1
            return out
        width = self._decode_width
        budget = room if room < width else width
        if self.wrong_path:
            self._deliver_wrong_path(budget, out)
            return out
        micro_budget = self._micro_rate
        delivered_any = False
        # Pool acquire and the non-branch _finish_instr fast path are
        # inlined: both ran once per delivered micro-op / instruction,
        # and the per-class rows carry every static classification so
        # the record is filled with plain slot stores.
        class_rows = self._class_rows
        seq = self.seq
        block = self.block
        n_delivered = 0
        free = self._pool._free
        free_pop = free.pop
        out_append = out.append
        while budget > 0:
            instr = self._pending_instr
            if instr is not None:
                # Drain the current expansion through a local cursor: the
                # per-uop attribute churn on self showed in profiles.
                uops = self._decoded
                dlen = self._decoded_len
                idx = self._decoded_idx
                microcoded = instr.microcoded
                halt = False
                while idx < dlen and budget > 0:
                    if microcoded:
                        if micro_budget <= 0:
                            self._last_reason = Component.MICROCODE
                            halt = True
                            break
                        micro_budget -= 1
                    uop = uops[idx]
                    (
                        is_load, is_store, is_branch, multi_cycle,
                        pool_idx, ops, is_vu_nonvfp,
                    ) = class_rows[uop.uclass]
                    idx += 1
                    last = idx == dlen
                    if free:
                        # Recycled records arrive with empty edge lists
                        # and parked/waiters cleared (UopPool.release
                        # invariant); deps_left is assigned at rename.
                        inflight = free_pop()
                        inflight.uop = uop
                        inflight.instr = instr
                        inflight.seq = seq
                        inflight.block_id = block
                        inflight.wrong_path = False
                        inflight.last_of_instr = last
                        inflight.issued = False
                        inflight.done = False
                        inflight.squashed = False
                        inflight.is_load = is_load
                        inflight.is_store = is_store
                        inflight.is_branch = is_branch
                        inflight.multi_cycle = multi_cycle
                        inflight.dcache_miss = False
                        inflight.mispredicted = False
                        inflight.parked = False
                        inflight.pool = pool_idx
                        inflight.ops = ops
                        inflight.is_vu_nonvfp = is_vu_nonvfp
                    else:
                        inflight = InflightUop(
                            uop, instr, seq, block,
                            last_of_instr=last,
                            multi_cycle=multi_cycle,
                        )
                    seq += 1
                    n_delivered += 1
                    if is_load:
                        # Loads publish their address to the wrong-path
                        # synthesizer.
                        self._wp_data_addr = uop.addr
                    out_append(inflight)
                    delivered_any = True
                    budget -= 1
                    if last:
                        self._pending_instr = None
                        if instr.yield_cycles > 0 or instr.is_branch:
                            self.seq = seq
                            if not self._finish_instr(
                                instr, inflight, cycle
                            ):
                                halt = True
                            else:
                                block = self.block
                        break  # expansion done; advance to the next instr
                self._decoded_idx = idx
                if halt:
                    break
                if idx >= dlen and self._pending_instr is instr:
                    # Degenerate empty expansion: retire it so the outer
                    # loop can advance instead of spinning.
                    self._pending_instr = None
                continue
            i = self._idx
            if i >= self._count:
                break
            # _start_instr's fast path inlined: same I-cache line as the
            # previous fetch, not microcoded.  When the whole expansion
            # also fits this cycle's remaining budget — the common case
            # for 1-3 uop instructions under a 4-wide decoder — the uops
            # are minted right here, bypassing the ``_decoded`` cursor
            # state entirely.
            instr = self._instructions[i]
            if (
                (instr.pc >> self._line_bits) == self._last_line
                and not instr.microcoded
            ):
                self._idx = i + 1
                uops = instr.uops
                dlen = len(uops)
                if dlen > budget:
                    self._decoded = uops
                    self._decoded_idx = 0
                    self._decoded_len = dlen
                    self._pending_instr = instr
                    continue
                budget -= dlen
                n_delivered += dlen
                uops_left = dlen
                inflight = None
                for uop in uops:
                    (
                        is_load, is_store, is_branch, multi_cycle,
                        pool_idx, ops, is_vu_nonvfp,
                    ) = class_rows[uop.uclass]
                    uops_left -= 1
                    if free:
                        # Same mint as the drain loop above.
                        inflight = free_pop()
                        inflight.uop = uop
                        inflight.instr = instr
                        inflight.seq = seq
                        inflight.block_id = block
                        inflight.wrong_path = False
                        inflight.last_of_instr = uops_left == 0
                        inflight.issued = False
                        inflight.done = False
                        inflight.squashed = False
                        inflight.is_load = is_load
                        inflight.is_store = is_store
                        inflight.is_branch = is_branch
                        inflight.multi_cycle = multi_cycle
                        inflight.dcache_miss = False
                        inflight.mispredicted = False
                        inflight.parked = False
                        inflight.pool = pool_idx
                        inflight.ops = ops
                        inflight.is_vu_nonvfp = is_vu_nonvfp
                    else:
                        inflight = InflightUop(
                            uop, instr, seq, block,
                            last_of_instr=uops_left == 0,
                            multi_cycle=multi_cycle,
                        )
                    seq += 1
                    if is_load:
                        self._wp_data_addr = uop.addr
                    out_append(inflight)
                if dlen:
                    delivered_any = True
                    if instr.yield_cycles > 0 or instr.is_branch:
                        self.seq = seq
                        if not self._finish_instr(instr, inflight, cycle):
                            break
                        block = self.block
                continue
            if not self._start_instr(cycle):
                break
        self.seq = seq
        self.delivered += n_delivered
        # A successful delivery ends the previous stall's tail: later empty
        # queues are throughput effects, not that stall's aftermath.
        if (
            delivered_any
            and cycle >= self._stall_until
            and not self.wrong_path
        ):
            self._last_reason = None
        return out

    def _start_instr(self, cycle: int) -> bool:
        """Fetch the next macro-op; False if fetch stalled."""
        instr = self._instructions[self._idx]
        line = instr.pc >> self._line_bits
        if line != self._last_line:
            result = self.hierarchy.ifetch(instr.pc, cycle)
            self._last_line = line
            if result.complete > cycle + self._l1i_latency:
                self._stall(result.complete, Component.ICACHE)
                return False
        self._idx += 1
        self._decoded = instr.uops
        self._decoded_idx = 0
        self._decoded_len = len(instr.uops)
        self._pending_instr = instr
        if instr.microcoded and instr.decode_cycles > len(instr.uops):
            # Sequencer setup cycles beyond the per-uop emission rate.
            extra = instr.decode_cycles - len(instr.uops)
            self._stall(cycle + extra, Component.MICROCODE)
            return False
        return True

    def _finish_instr(
        self, instr: Instruction, last_uop: InflightUop, cycle: int
    ) -> bool:
        """Handle end-of-macro-op events; False ends this cycle's delivery."""
        self._pending_instr = None
        if instr.yield_cycles > 0:
            self.waiting_sync = last_uop
            return False
        if not instr.is_branch:
            return True
        self.block += 1
        if self.config.perfect_bpred:
            return True
        prediction = self.predictor.predict(instr.pc)
        mispredicted = not prediction.correct_for(instr.taken, instr.target)
        self.predictor.update(instr.pc, instr.taken, instr.next_pc)
        self.predictor.record(mispredicted)
        if not mispredicted:
            return True
        # Find the BRANCH micro-op of this instruction (the resolver).
        branch_uop = last_uop
        branch_uop.mispredicted = True
        self.wrong_path = True
        self.resolving_branch = branch_uop
        self._wp_prev_dst = -1
        self.block += 1  # wrong-path work gets its own basic block(s)
        return False

    def _deliver_wrong_path(
        self, budget: int, out: list[InflightUop]
    ) -> None:
        """Synthesize wrong-path micro-ops from the configured template."""
        template = self.config.wrong_path
        rng = self._rng
        rng_random = rng.random
        # randrange(-8192, 8192) inlined: CPython's _randbelow draws
        # 15-bit words and rejects >= 16384, so this consumes the exact
        # same underlying bit stream (state and values are identical).
        rng_getrandbits = rng.getrandbits
        # pick_class inlined (one call per synthesized micro-op): same
        # bisect over the cumulative thresholds, same final clamp.
        cum = template._cum
        classes = template._classes
        last_class = len(classes) - 1
        load_probe_prob = template.load_probe_prob
        class_rows = self._class_rows
        load_class = UopClass.LOAD
        alu_class = UopClass.ALU
        wp_cache = self._wp_uop_cache
        wp_cache_get = wp_cache.get
        free = self._pool._free
        free_pop = free.pop
        block = self.block
        seq = self.seq
        wp_counter = self._wp_counter
        wp_prev_dst = self._wp_prev_dst
        out_append = out.append
        for _ in range(budget):
            index = bisect_right(cum, rng_random())
            uclass = classes[last_class if index > last_class else index]
            if uclass is load_class and rng_random() >= load_probe_prob:
                uclass = alu_class
            dst_off = wp_counter % _WP_REG_COUNT
            dst = _WP_DSTS[dst_off]
            wp_counter += 1
            if wp_prev_dst >= 0 and rng_random() < 0.4:
                src_off = wp_prev_dst - _WP_REG_BASE + 1
                srcs: tuple[int, ...] = _WP_SRC1[src_off - 1]
            else:
                src_off = 0
                srcs = ()
            (
                is_load, is_store, is_branch, multi_cycle,
                pool_idx, ops, is_vu_nonvfp,
            ) = class_rows[uclass]
            if is_load:
                off = rng_getrandbits(15)
                while off >= 16384:
                    off = rng_getrandbits(15)
                addr = self._wp_data_addr + off - 8192
                if addr < 0:
                    addr = 0
                uop = MicroOp(uclass, srcs=srcs, dst=dst, addr=addr, size=8)
            else:
                key = (uclass << 8) | (dst_off << 4) | src_off
                uop = wp_cache_get(key)
                if uop is None:
                    uop = MicroOp(uclass, srcs=srcs, dst=dst, addr=-1, size=8)
                    wp_cache[key] = uop
            # Pool acquire inlined (one call per synthesized micro-op
            # showed in mispredict-heavy profiles); same invariants as
            # the correct-path mint in deliver().
            if free:
                inflight = free_pop()
                inflight.uop = uop
                inflight.instr = None
                inflight.seq = seq
                inflight.block_id = block
                inflight.wrong_path = True
                inflight.last_of_instr = True
                inflight.issued = False
                inflight.done = False
                inflight.squashed = False
                inflight.is_load = is_load
                inflight.is_store = is_store
                inflight.is_branch = is_branch
                inflight.multi_cycle = multi_cycle
                inflight.dcache_miss = False
                inflight.mispredicted = False
                inflight.parked = False
                inflight.pool = pool_idx
                inflight.ops = ops
                inflight.is_vu_nonvfp = is_vu_nonvfp
            else:
                inflight = InflightUop(
                    uop, None, seq, block,
                    wrong_path=True,
                    last_of_instr=True,
                    multi_cycle=multi_cycle,
                )
            seq += 1
            wp_prev_dst = dst
            out_append(inflight)
        self.seq = seq
        self.delivered_wrong += budget
        self._wp_counter = wp_counter
        self._wp_prev_dst = wp_prev_dst
