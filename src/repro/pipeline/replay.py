"""Periodic steady-state replay: macro fast-forward for active loop cycles.

The quiescent-cycle fast-forward engine (``CoreSimulator._ff_event``) skips
runs of *stalled* cycles.  This module generalizes the idea to runs of
*identical cycle sequences*: a tight loop in steady state repeats an exact
pattern of dispatch/issue/commit activity every iteration, and once the
machine state provably returns to a prior configuration (modulo a uniform
shift of cycle numbers, sequence numbers and trace position), every later
iteration is a replay of the recorded one.

The engine works in three phases:

1. **Trace period analysis** (:func:`find_period`, init time): find the
   smallest instruction-level period ``L`` such that the trace tail repeats
   with lag ``L``.  Aperiodic traces (pointer chases, random-address SPEC
   models) fail here and the engine never arms — zero per-cycle cost.

2. **Record + confirm** (runtime): starting from a clean boundary cycle
   ``t0``, record the signature-batched observation runs the accounting
   collector receives.  At each later cycle whose trace position is
   congruent to ``t0``'s modulo ``L``, compare a full normalized state
   fingerprint against ``t0``'s.  Equality proves the machine is at an
   exact fixed point modulo the shift: every structure either matches
   bit-for-bit (caches, TLBs, predictor tables, LRU orders) or matches
   after subtracting the cycle/seq/block deltas (ROB, scheduler queues,
   completion times, stall deadlines).

3. **Jump**: with period ``P = t1 - t0`` cycles and ``Δ`` instructions,
   skip ``k = (trace_len - idx) // Δ`` whole periods at once — feed the
   recorded observation runs ``k`` times through the simulator's batch
   flush (the memoized repeat programs, or the proven-equivalent
   ``observe_repeat`` bulk path; the exact flush/merge pattern a
   cycle-by-cycle run would produce, or one flush per recorded
   signature where regrouping the flushes is exact), advance every
   integer counter by ``k`` times its per-period delta, and shift the
   time-valued and seq-valued state forward.  Windows whose float
   accumulators (DRAM queue delay, MSHR waits) advanced are rejected:
   those cannot be bulk-replayed with bitwise-exact arithmetic.

Replay also runs through warmup, where no accountant is attached and
the recorded runs are empty.  A warmup jump stops short of the warmup
boundary — the boundary must be crossed by a commit inside a stepped
cycle, because a replayed step returns before the simulator's warmup
check — and the boundary itself aborts any recording and rearms the
engine (:meth:`ReplayEngine.rearm`), so the measured region replays
exactly as if the engine had first armed there.

Results are bitwise identical to the cycle-by-cycle run by construction;
``tests/test_differential.py`` verifies this against the simulator's
``reference=True`` per-cycle oracle (the full reservation-station scan
over the dict-backed memory walk, every cycle stepped), which never arms
the engine.  Every other simulator arms it when the trace is periodic
and its accounting batches (or is off), except the cores of an N>1
socket; ``replay_windows``/``replay_cycles_skipped`` count every jump it
takes.
"""

from __future__ import annotations

from collections import deque

#: Longest backwards scan for the base lag of the trace tail.
_MAX_BASE_LAG = 512
#: Longest instruction period considered (multiples of the base lag).
_MAX_PERIOD = 2048
#: The periodic region must cover at least this many periods to be usable.
_MIN_REPEATS = 4
#: Traces shorter than this are not worth analyzing.
_MIN_TRACE = 64

#: Recording longer than this many cycles is abandoned (steady-state
#: periods are short; a long window means the loop is not yet steady).
_MAX_RECORD_CYCLES = 8192
#: Fingerprint comparisons per recording attempt before giving up.
_MAX_FP_CHECKS = 8
#: Recording spanning more than this many periods' worth of instructions
#: without confirming is abandoned.
_MAX_SPAN_PERIODS = 32
#: Exponential backoff (cycles) between failed recording attempts.
_BACKOFF_INITIAL = 64
_BACKOFF_MAX = 65536


def find_period(program) -> tuple[int, int] | None:
    """Instruction-level periodicity of the trace tail, memoized on the
    program (:meth:`Program.extend` drops the memo).

    Returns ``(region_start, L)`` such that ``instructions[i + L] ==
    instructions[i]`` for every ``i >= region_start`` (up to the end of
    the trace), or None when no such period exists.  ``==`` is preceded
    by an ``is`` check: trace builders memoize static loop bodies, so the
    common case is identity and costs no deep comparison.

    The search anchors on the last instruction: its nearest earlier
    occurrence gives a base lag, and multiples of that lag are verified
    over the maximal suffix (rotating patterns — e.g. a load address
    cycling through a line — only match at a super-period).  Aperiodic
    traces fail the base-lag scan or the suffix check within one loop
    body's worth of comparisons.
    """
    found = program._period
    if found is False:
        found = program._period = _scan_period(program.instructions)
    return found


def _scan_period(instrs) -> tuple[int, int] | None:
    """The uncached analysis behind :func:`find_period`."""
    n = len(instrs)
    if n < _MIN_TRACE:
        return None
    last = instrs[-1]
    base = 0
    for lag in range(1, min(_MAX_BASE_LAG, n - 1) + 1):
        prev = instrs[-1 - lag]
        if prev is last or prev == last:
            base = lag
            break
    if not base:
        return None
    for mult in range(1, _MAX_PERIOD // base + 1):
        lag = base * mult
        if lag >= n:
            break
        lowest = n
        i = n - 1
        while i >= lag:
            a = instrs[i]
            b = instrs[i - lag]
            if a is not b and a != b:
                break
            lowest = i
            i -= 1
        if lowest >= n:
            continue
        if n - lowest < _MIN_REPEATS * lag:
            continue
        return (lowest - lag, lag)
    return None


class ReplayEngine:
    """Record-and-replay driver owned by one :class:`CoreSimulator`.

    The simulator calls :meth:`on_cycle` at the top of every event-mode
    cycle (before any stage runs) and :meth:`note_cycle` from its
    signature-batching merge/retain sites while a recording is active.
    """

    __slots__ = (
        "_sim", "_region_start", "_period",
        "_recording", "_disabled", "_next_attempt", "_backoff",
        "_t0", "_idx0", "_seq0", "_block0",
        "_fp0", "_counts0", "_floats0", "_checks",
        "_runs", "_sites",
    )

    def __init__(self, sim, region_start: int, period: int) -> None:
        self._sim = sim
        self._region_start = region_start
        self._period = period
        self._recording = False
        self._disabled = False
        self._next_attempt = 0
        self._backoff = _BACKOFF_INITIAL
        self._t0 = 0
        self._idx0 = 0
        self._seq0 = 0
        self._block0 = 0
        self._fp0: tuple | None = None
        self._counts0: list | None = None
        self._floats0: tuple | None = None
        self._checks = 0
        #: Recorded observation runs: [signature, count, buffer] each,
        #: the buffer being the simulator's own (write-once) one.
        self._runs: list[list] = []
        hierarchy = sim.hierarchy
        frontend = sim.frontend
        #: Every integer counter the skipped cycles would have advanced;
        #: each is bumped by k * (its per-period delta) at jump time.
        sites: list[tuple[object, str]] = [
            (sim, "committed_uops"),
            (sim, "committed_instrs"),
            (sim, "ff_windows"),
            (sim, "ff_cycles_skipped"),
            (frontend, "delivered"),
            (frontend, "delivered_wrong"),
            (frontend, "icache_stall_cycles"),
            (sim.predictor, "lookups"),
            (sim.predictor, "mispredicts"),
            (hierarchy, "prefetches_issued"),
            (hierarchy.dram, "accesses"),
            (hierarchy.itlb, "accesses"),
            (hierarchy.itlb, "misses"),
            (hierarchy.dtlb, "accesses"),
            (hierarchy.dtlb, "misses"),
            (hierarchy.prefetcher, "issued"),
            (hierarchy.prefetcher, "triggers"),
        ]
        for level in hierarchy._levels():
            stats = level.cache.stats
            for name in (
                "accesses", "hits", "misses", "evictions",
                "dirty_evictions", "prefetch_fills",
            ):
                sites.append((stats, name))
            sites.append((level.mshr, "acquisitions"))
        self._sites = sites

    # -- per-cycle driver --------------------------------------------------------

    def on_cycle(self, cycle: int) -> int:
        """Advance the engine; returns the number of cycles to skip.

        A non-zero return means the jump already happened: all state has
        been advanced and the caller must only set ``cycle += skipped``
        and end the step without simulating anything.
        """
        sim = self._sim
        frontend = sim.frontend
        if self._recording:
            idx = frontend._idx
            if (
                idx != self._idx0
                and (idx - self._idx0) % self._period == 0
                and self._boundary_ok(frontend)
            ):
                skipped = self._try_confirm(cycle, idx)
                if skipped:
                    return skipped
            if self._recording and (
                cycle - self._t0 > _MAX_RECORD_CYCLES
                or idx - self._idx0 > _MAX_SPAN_PERIODS * self._period
                or self._checks >= _MAX_FP_CHECKS
            ):
                self._abort(cycle)
            return 0
        if self._disabled or cycle < self._next_attempt:
            return 0
        idx = frontend._idx
        if idx < self._region_start:
            return 0
        if idx + 2 * self._period > frontend._count:
            # Too close to the end of the trace to ever profit.
            self._disabled = True
            return 0
        if not self._boundary_ok(frontend):
            return 0
        self._begin(cycle, idx)
        return 0

    def rearm(self) -> None:
        """Drop any recording and return to the constructor state.

        Called at the warmup boundary: accountants attach there, so a
        recording begun during warmup holds no observation runs.
        """
        self._recording = False
        self._sim._replay_rec = False
        self._runs.clear()
        self._disabled = False
        self._next_attempt = 0
        self._backoff = _BACKOFF_INITIAL

    def note_cycle(self, sig: object, k: int, merged: bool) -> None:
        """Record one signature-batching event (``k`` cycles).

        ``merged=True`` means the cycles joined the pending batch; the
        count is folded into the current run.  The first recorded cycle
        may merge into a *pre-window* pending batch — that is safe
        (signature equality implies accounting equivalence, the batching
        invariant) and the run then starts with that batch's buffer.
        Retained buffers are never rewritten, so the run keeps a
        reference.
        """
        runs = self._runs
        if merged and runs:
            runs[-1][1] += k
            return
        runs.append([sig, k, self._sim._bat_cur])

    # -- recording lifecycle -----------------------------------------------------

    def _boundary_ok(self, frontend) -> bool:
        """A window boundary needs a structurally clean frontend/core."""
        sim = self._sim
        return (
            sim.unsched_remaining == 0
            and frontend.waiting_sync is None
            and not frontend.wrong_path
            and frontend.resolving_branch is None
            and frontend._pending_instr is None
            and frontend._decoded_idx >= frontend._decoded_len
        )

    def _begin(self, cycle: int, idx: int) -> None:
        sim = self._sim
        frontend = sim.frontend
        self._recording = True
        sim._replay_rec = True
        self._t0 = cycle
        self._idx0 = idx
        self._seq0 = frontend.seq
        self._block0 = frontend.block
        self._checks = 0
        self._runs.clear()
        self._fp0 = self._fingerprint(cycle)
        self._counts0 = [getattr(o, a) for o, a in self._sites]
        self._floats0 = self._float_counters()

    def _abort(self, cycle: int) -> None:
        self._recording = False
        self._sim._replay_rec = False
        self._runs.clear()
        self._next_attempt = cycle + self._backoff
        if self._backoff < _BACKOFF_MAX:
            self._backoff *= 2

    def _try_confirm(self, cycle: int, idx: int) -> int:
        """Fingerprint check at a candidate boundary; jumps on success."""
        self._checks += 1
        if self._fingerprint(cycle) != self._fp0:
            return 0
        if self._float_counters() != self._floats0:
            # A float accumulator advanced: k-fold replay would need
            # non-exact float arithmetic.  Give up on this loop shape.
            self._abort(cycle)
            return 0
        sim = self._sim
        frontend = sim.frontend
        d_cycles = cycle - self._t0
        d_idx = idx - self._idx0
        k = (frontend._count - idx) // d_idx
        if not sim._warmed:
            # Stop short of the warmup boundary (see the module docstring).
            k = min(
                k,
                (sim.warmup_instructions - 1 - sim.committed_instrs) // d_idx,
            )
        if k <= 0:
            self._abort(cycle)
            return 0
        skipped = self._jump(cycle, k, d_cycles, d_idx)
        # Success: rearm immediately (the next attempt will usually find
        # the trace too short and disable itself).
        self._recording = False
        sim._replay_rec = False
        self._runs.clear()
        self._backoff = _BACKOFF_INITIAL
        self._next_attempt = 0
        return skipped

    # -- the jump ----------------------------------------------------------------

    def _jump(self, cycle: int, k: int, d_cycles: int, d_idx: int) -> int:
        """Advance the machine by ``k`` periods of ``d_cycles`` cycles."""
        sim = self._sim
        frontend = sim.frontend
        jump = k * d_cycles
        seq_shift = k * (frontend.seq - self._seq0)
        block_shift = k * (frontend.block - self._block0)

        self._feed(k)

        counts0 = self._counts0
        for i, (obj, name) in enumerate(self._sites):
            now = getattr(obj, name)
            delta = now - counts0[i]
            if delta:
                setattr(obj, name, now + delta * k)

        # Flag live scheduler-queue entries *before* seqs move: an entry
        # is live only while its snapshotted seq matches an un-issued,
        # un-squashed, un-finished record.  Stale tuples keep their old
        # seq — exactly what a cycle-by-cycle run would hold, and safely
        # inert because seq values are never reused.
        ready = sim._ready
        nonready = sim._nonready
        nonready_vfp = sim._nonready_vfp
        ready_live = [
            u.seq == s and not u.squashed and not u.done and not u.issued
            for s, u in ready
        ]
        nr_live = [
            u.seq == s and not u.squashed and not u.done and not u.issued
            for s, u in nonready
        ]
        nrv_live = [
            u.seq == s and not u.squashed and not u.done and not u.issued
            for s, u in nonready_vfp
        ]
        waiter_sets = []
        for u in sim.rob:
            w = u.waiters
            if w:
                waiter_sets.append((u, [
                    x.seq == s and not x.squashed and not x.done
                    and not x.issued
                    for s, x in w
                ]))

        # Every live record sits in the ROB or the dispatch queue.
        for u in sim.rob:
            u.seq += seq_shift
            u.block_id += block_shift
        for u in sim.uop_queue:
            u.seq += seq_shift
            u.block_id += block_shift

        sim._ready = [
            (s + seq_shift, u) if live else (s, u)
            for (s, u), live in zip(ready, ready_live)
        ]
        sim._nonready = deque(
            (s + seq_shift, u) if live else (s, u)
            for (s, u), live in zip(nonready, nr_live)
        )
        sim._nonready_vfp = deque(
            (s + seq_shift, u) if live else (s, u)
            for (s, u), live in zip(nonready_vfp, nrv_live)
        )
        for u, flags in waiter_sets:
            u.waiters = [
                (s + seq_shift, x) if live else (s, x)
                for (s, x), live in zip(u.waiters, flags)
            ]

        # Completion buckets: all keys are >= cycle (past buckets were
        # popped in their own cycle's writeback).
        sim.completions = {
            c + jump: bucket for c, bucket in sim.completions.items()
        }

        frontend.shift(cycle, jump, k * d_idx, seq_shift, block_shift)
        sim.fu.shift_time(cycle, jump)
        sim.hierarchy.shift_time(cycle, jump)

        sim.replay_windows += 1
        sim.replay_cycles_skipped += jump
        return jump

    def _feed(self, k: int) -> None:
        """Deliver the recorded runs ``k`` times to the collector.

        Replays the exact flush/merge sequence a cycle-by-cycle run would
        produce: the signature stream of the skipped cycles is periodic
        (state periodicity makes behaviour periodic, and signatures are
        shift-invariant), so it equals the recorded stream repeated ``k``
        times, seeded with — and leaving behind — the simulator's pending
        batch.  The recorded buffers are the simulator's own retained
        ones and each flush goes through its batch delivery, so a repeat
        program is memoized once for both.  When :meth:`_fold` proves the
        order of those flushes immaterial, each signature is flushed once
        with its total count instead.
        """
        sim = self._sim
        if sim.collector is None or not self._runs:
            return
        folded = self._fold(k)
        if folded is not None:
            sig_p, k_p, buf_p = folded
        else:
            apply_batch = sim._apply_batch
            sig_p = sim._bat_sig
            k_p = sim._bat_k
            buf_p = sim._bat_cur
            for _ in range(k):
                for run in self._runs:
                    if k_p and run[0] == sig_p:
                        k_p += run[1]
                    else:
                        if k_p:
                            apply_batch(buf_p, k_p)
                        sig_p = run[0]
                        k_p = run[1]
                        buf_p = run[2]
        sim._bat_cur = buf_p
        sim._bat_sig = sig_p
        sim._bat_k = k_p

    def _fold(self, k: int):
        """Flush the :meth:`_feed` stream once per signature, or return
        None, having applied nothing, when that could change a bit.

        Equal signatures account identically (the batching invariant).
        With every program compiled and every normalizer carry at 0 (no
        program moves a carry), each flush adds exact dyadics, so the
        additions may be regrouped: one flush per signature with its
        total count, in first-appearance order, which keeps the
        counters' key order.  The stream's last merge group stays
        pending as in the walk; it is returned as ``(sig, count, buf)``.
        """
        sim = self._sim
        runs = self._runs
        k_p = sim._bat_k
        totals: dict = {}
        if k_p:
            totals[sim._bat_sig] = [sim._bat_cur, k_p]
        for sig, n, buf in runs:
            totals.setdefault(sig, [buf, 0])[1] += n * k
        last = runs[-1][0]
        t = len(runs) - 1
        while t and runs[t - 1][0] == last:
            t -= 1
        tail = sum(run[1] for run in runs[t:])
        buf_t = runs[t][2]
        if t == 0:
            # One signature throughout: every period, and a matching
            # pending batch, merge into the trailing group.
            tail *= k
            if k_p and sim._bat_sig == last:
                tail += k_p
                buf_t = sim._bat_cur
        totals[last][1] -= tail
        flushes = [(buf, n) for buf, n in totals.values() if n]
        for buf, _ in flushes:
            prog = sim._batch_program(buf)
            if prog is False or any(norm.carry for norm in prog[1]):
                return None
        for buf, n in flushes:
            sim._apply_batch(buf, n)
        return last, tail, buf_t

    # -- state fingerprint -------------------------------------------------------

    def _float_counters(self) -> tuple:
        """Float accumulators that must not advance inside a window."""
        hierarchy = self._sim.hierarchy
        vals = [hierarchy.dram.total_queue_delay]
        for level in hierarchy._levels():
            vals.append(level.mshr.total_wait)
            vals.append(level.mshr.max_wait)
        return tuple(vals)

    def _fingerprint(self, cycle: int) -> tuple:
        """Full machine state, normalized modulo the period shift.

        Sequence numbers are taken relative to the next seq the frontend
        will assign, block ids relative to the current block, and every
        absolute cycle value relative to ``cycle``.  Counters, batching
        state, free lists and identity-validated memo caches are
        excluded: counters are delta-advanced, the pending batch is
        handled by :meth:`_feed`, and the rest is behaviourally inert.
        """
        sim = self._sim
        frontend = sim.frontend
        seq0 = frontend.seq
        block0 = frontend.block

        def rel(u) -> tuple:
            waiters = u.waiters
            return (
                u.seq - seq0,
                u.block_id - block0,
                u.uop,
                u.instr,
                u.wrong_path,
                u.last_of_instr,
                u.deps_left,
                u.issued,
                u.done,
                u.dcache_miss,
                u.mispredicted,
                u.parked,
                tuple(p.seq - seq0 for p in u.producers),
                None if waiters is None else tuple(
                    s - seq0 for s, x in waiters
                    if x.seq == s and not x.squashed
                ),
            )

        rob_fp = tuple(rel(u) for u in sim.rob)
        queue_fp = tuple(rel(u) for u in sim.uop_queue)
        # _ready order is normalized by select's sort, so only the live
        # membership matters; _nonready order is dispatch order and is
        # kept (dead entries are skipped by every reader).
        ready_fp = tuple(sorted(
            s - seq0 for s, u in sim._ready
            if u.seq == s and not u.squashed and not u.done and not u.issued
        ))
        nonready_fp = tuple(
            s - seq0 for s, u in sim._nonready
            if u.seq == s and not u.squashed and u.deps_left > 0
        )
        nonready_vfp_fp = tuple(
            s - seq0 for s, u in sim._nonready_vfp
            if u.seq == s and not u.squashed and u.deps_left > 0
        )
        comp_fp = tuple(sorted(
            (c - cycle, tuple(
                (None, True) if u.squashed else (u.seq - seq0, False)
                for u in bucket
            ))
            for c, bucket in sim.completions.items()
        ))
        lw_fp = tuple(
            None if w is None else w.seq - seq0 for w in sim.last_writer
        )
        ps_fp = tuple(sorted(
            (addr, u.seq - seq0)
            for addr, u in sim.pending_stores.items()
        ))
        # The issue-obs cache is observable state only while it is valid
        # for reuse; otherwise the next select recomputes it from scratch.
        if sim._rs_quiet and not sim._rs_dirty:
            cache = sim._resolve_issue_obs()
            cache_fp: object = (
                None if cache[0] is None else cache[0].seq - seq0,
                cache[1],
                cache[2],
                None if cache[3] is None else cache[3].seq - seq0,
                cache[4],
            )
        else:
            cache_fp = None
        return (
            rob_fp,
            queue_fp,
            ready_fp,
            nonready_fp,
            nonready_vfp_fp,
            comp_fp,
            lw_fp,
            ps_fp,
            sim._parked,
            sim._rs_count,
            sim._rs_correct,
            sim._rs_vfp,
            sim.sq_count,
            sim._rs_dirty,
            sim._rs_quiet,
            sim._has_correct_waiting,
            cache_fp,
            frontend.fingerprint(cycle),
            sim.predictor.fingerprint(),
            sim.hierarchy.fingerprint(cycle),
            sim.fu.fingerprint(cycle),
        )
