"""The out-of-order core simulator: the per-cycle loop wiring all stages.

Stage order within a cycle is writeback -> commit -> issue -> dispatch ->
fetch/decode, which gives the standard timing: a micro-op dispatched in
cycle t can issue at t+1, and a completing producer wakes consumers in time
for same-cycle issue (back-to-back single-cycle chains execute at one op per
cycle).  One :class:`CycleObservation` is filled per cycle and handed to the
accounting collector — the paper's measurement point.

The default path skips provably repetitive cycles (quiescent-cycle
fast-forward, periodic replay) and reports them in the ``ff_*``/
``replay_*`` counters; ``reference=True`` simulates every cycle over the
dict-backed memory walk.  Both give bitwise-identical results.
"""

from __future__ import annotations

import math
import time
from collections import deque
from pathlib import Path

from repro.branch.predictors import make_predictor
from repro.config.cores import CoreConfig
from repro.core.components import Component
from repro.core.multistage import (
    CollectorSpec,
    FanoutCollector,
    MultiStageCollector,
)
from repro.core.observation import CycleObservation
from repro.core.wrongpath import WrongPathMode
from repro.isa.instructions import Program
from repro.isa.registers import TOTAL_REGS
from repro.isa.uops import UopClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import checkpoint as _ckpt
from repro.pipeline.frontend import Frontend
from repro.pipeline.inflight import POOL_MUL, InflightUop, UopPool
from repro.pipeline.replay import ReplayEngine, find_period
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.result import SimResult

#: Safety net against scheduling bugs: no realistic trace needs more cycles.
_MAX_CYCLES_PER_UOP = 400

class _UopSnapshot:
    """Frozen :class:`repro.core.blame.BlamableUop` attribute set.

    A batched observation outlives the cycle it was recorded in, but the
    micro-op records it points at keep evolving (and can be recycled by
    the pool).  Retaining a snapshot of exactly the attributes the
    accountants read makes the held observation immune to both.
    """

    __slots__ = (
        "is_load", "dcache_miss", "issued", "done", "multi_cycle",
        "block_id",
    )


class _ObsBuffer:
    """A retainable observation plus its three blamed-uop snapshots.

    ``delta`` memoizes the collector's per-cycle accounting program for
    this observation (see ``MultiStageCollector.repeat_program``):
    ``None`` means unbuilt, ``False`` means the observation (or the
    attached collector) is not k-scalable and the generic
    ``observe_repeat`` chain must run.  ``delta_epoch`` ties the memo to
    one collector generation — ``_rewrap_collector`` bumps the epoch, so
    programs never outlive the stacks they point into.  Both slots are
    transient: pickling (checkpoints) drops them.
    """

    __slots__ = ("obs", "head", "producer", "vfp", "delta", "delta_epoch")

    def __init__(self) -> None:
        self.obs = CycleObservation()
        self.head = _UopSnapshot()
        self.producer = _UopSnapshot()
        self.vfp = _UopSnapshot()
        self.delta = None
        self.delta_epoch = 0

    def __getstate__(self):
        return (self.obs, self.head, self.producer, self.vfp)

    def __setstate__(self, state):
        self.obs, self.head, self.producer, self.vfp = state
        self.delta = None
        self.delta_epoch = 0


#: Batch signature for a descheduled (Unsched) cycle.
_UNSCHED_SIG = ("unsched",)

#: Placeholder in ``_issue_obs_cache`` for a producer field whose value
#: has not been resolved yet (lazy mode): the ``_oldest_live`` walk and
#: the producer scan are deferred until something actually reads it.
_PENDING = object()

#: Bound on the signature -> retained-observation cache: above this many
#: distinct signatures the overflow path falls back to recycling a
#: private buffer pair (the pre-cache behaviour).  Real traces stay far
#: below it — the cache exists because steady-state loops cycle through a
#: handful of signatures, re-filling ~30 observation fields each time.
_SIG_CACHE_CAP = 8192

#: Serialized stand-in for the :data:`_PENDING` sentinel in a checkpoint
#: payload.  The sentinel is compared by identity, so it cannot survive a
#: pickle round trip; snapshot/restore swap it for this token and back.
#: (Resolving it instead would mutate the ``_nonready`` queues, diverging
#: from the uninterrupted run.)
_PENDING_TOKEN = "__repro_pending__"


class CoreSimulator:
    """Simulates one program on one core configuration."""

    def __init__(
        self,
        program: Program,
        config: CoreConfig,
        *,
        mode: WrongPathMode = WrongPathMode.EXACT,
        accounting: bool = True,
        seed: int = 12345,
        warmup_instructions: int = 0,
        accounting_width: int | None = None,
        topdown: bool = False,
        reference: bool = False,
        legacy_issue_scan: bool = False,
        collectors: "tuple[CollectorSpec, ...] | list[CollectorSpec] | None" = None,
        shared_backend=None,
    ) -> None:
        if config.memory is None:
            raise ValueError("core configuration needs a memory hierarchy")
        self.program = program
        #: Checkpoint-only instruction references, computed on the first
        #: snapshot (see :meth:`snapshot`).
        self._instruction_refs: dict[int, tuple] | None = None
        self.config = config
        self.mode = mode
        self._seed = seed
        # ``reference=True`` is the per-cycle differential oracle: the
        # dict-backed memory walk (:mod:`repro.memory.legacy`), no
        # quiescent-cycle fast-forward, no periodic replay and no squashed
        # completion pruning.  Results are bitwise identical either way;
        # only the ff_*/replay_* counters (always 0 here) differ.
        self._reference = reference
        # ``shared_backend`` (a SharedMemoryBackend) substitutes a
        # socket-shared L3 + DRAM for the private ones; the multi-core
        # engine owns the backend and steps its member cores externally.
        self.hierarchy = MemoryHierarchy(
            config.memory,
            perfect_icache=config.perfect_icache,
            perfect_dcache=config.perfect_dcache,
            fast_path=not reference,
            shared=shared_backend,
        )
        self.predictor = make_predictor(
            config.predictor, config.predictor_bits, config.btb_entries
        )
        #: Free-list recycler shared with the frontend: every dynamic
        #: micro-op record is acquired at delivery and released at commit,
        #: squash, or (for squashed in-flight work) writeback.
        self._pool = UopPool()
        self.frontend = Frontend(
            program, config, self.hierarchy, self.predictor, seed=seed,
            pool=self._pool,
        )
        # The simulator drives a *list* of attached collectors.  The
        # legacy accounting/topdown/accounting_width kwargs describe the
        # historical single collector; ``collectors=`` attaches any
        # combination (multi-stage, top-down, none) to one timing run —
        # the fused-execution substrate.  Timing is observational either
        # way: the attached set never changes a simulated cycle.
        if collectors is None:
            collectors = (
                CollectorSpec(
                    accounting=accounting,
                    topdown=topdown,
                    accounting_width=accounting_width,
                ),
            )
        elif not accounting or topdown or accounting_width is not None:
            raise ValueError(
                "pass either collectors= or the legacy accounting/topdown/"
                "accounting_width arguments, not both"
            )
        specs = tuple(collectors)
        if not specs:
            raise ValueError("collectors= needs at least one CollectorSpec")
        self._collector_specs = specs
        #: W for the accounting algorithms; per collector, overridable to
        #: study the Sec. III-A width-normalization choice (width ablation).
        widths = {
            (
                s.accounting_width
                if s.accounting_width is not None
                else config.accounting_width
            )
            for s in specs
            if s.accounting
        }
        self._accounting = bool(widths)
        self._topdown = any(s.topdown for s in specs if s.accounting)
        self._accounting_width = (
            next(iter(widths))
            if len(widths) == 1
            else config.accounting_width
        )
        self._uniform_width = len(widths) <= 1
        # Accountants attach where measurement starts: at construction
        # without warmup (or with a warmup the trace never completes),
        # otherwise at the warmup boundary (``_end_warmup``) — warmup
        # cycles are never measured, so nothing observes them.
        self.collectors: list[MultiStageCollector | None] = [None] * len(specs)
        self.collector: MultiStageCollector | FanoutCollector | None = None
        self._acc_epoch = 0
        if not 0 < warmup_instructions <= len(program):
            self._build_collectors()
        #: One SimResult per attached collector, filled by ``_finalize``.
        self.fused_results: list[SimResult] = []
        self.fu = FunctionalUnitPool(config)
        #: uclass -> execution latency, precomputed (latency_of's
        #: membership test + dict lookup sat on the issue fast path).
        self._latency_of = tuple(
            config.latency_of(uclass) for uclass in UopClass
        )
        self.rob: deque[InflightUop] = deque()
        self.rs: list[InflightUop] = []
        self.uop_queue: deque[InflightUop] = deque()
        self.last_writer: list[InflightUop | None] = [None] * TOTAL_REGS
        self.pending_stores: dict[int, InflightUop] = {}
        self.completions: dict[int, list[InflightUop]] = {}
        self.sq_count = 0
        self.cycle = 0
        self.committed_uops = 0
        self.committed_instrs = 0
        self.unsched_remaining = 0
        #: Index of this core within a multi-core engine (0 standalone).
        self.core_id = 0
        #: Multi-core barrier plumbing: the engine installs a hook called
        #: at barrier commit; while ``barrier_waiting`` the core is parked
        #: (the engine stops stepping it) until the last sibling arrives
        #: and the engine converts the wait into ``unsched_remaining``.
        #: Standalone (hook is None) a barrier degrades to a plain yield.
        self._barrier_hook = None
        self.barrier_waiting = False
        self._spec_mode = mode is WrongPathMode.SPECULATIVE
        # Warmup emulates the paper's fast-forward: caches, TLBs and the
        # branch predictor train during the first ``warmup_instructions``
        # macro instructions, then the accountants attach.
        self.warmup_instructions = warmup_instructions
        self._warmed = warmup_instructions == 0
        self._measure_cycle0 = 0
        self._measure_uops0 = 0
        # Issue quiescence: when a select/scan issues nothing and no event
        # (wakeup, dispatch, squash, store commit, unpipelined-unit release)
        # has changed scheduler state since, the result is identical —
        # reuse it instead of re-running.  Pure optimization; bitwise
        # identical results.
        self._rs_dirty = True
        self._rs_quiet = False
        self._has_correct_waiting = False
        self._issue_obs_cache: tuple = (None, False, False, None, False)
        # Event-driven issue scheduling (wakeup/select).  The legacy
        # full-RS scan is kept behind ``legacy_issue_scan=True`` for
        # differential verification; both produce bitwise-identical
        # results.  The scan path never fast-forwards or replays.  In
        # event mode ``self.rs`` stays empty and the scheduler state
        # lives in:
        #   _ready        (seq, uop) entries whose operands are all ready,
        #                 walked in seq order by select; lazily pruned
        #                 (an entry is stale once its uop issued, was
        #                 squashed, or the record was recycled — detected
        #                 by the snapshotted seq no longer matching),
        #   _nonready     correct-path entries dispatched with deps_left>0,
        #                 in dispatch (= seq) order; fronts popped once
        #                 permanently invalid (woken, squashed, recycled),
        #   _nonready_vfp the VFP subset of _nonready,
        #   _rs_count / _rs_correct / _rs_vfp   occupancy counters,
        #   _parked       loads waiting on an older same-address store
        #                 (woken by the store's writeback or by a younger
        #                 store taking over the forwarding slot).
        self._event = not legacy_issue_scan
        self._ready: list[tuple[int, InflightUop]] = []
        self._nonready: deque[tuple[int, InflightUop]] = deque()
        self._nonready_vfp: deque[tuple[int, InflightUop]] = deque()
        self._rs_count = 0
        self._rs_correct = 0
        self._rs_vfp = 0
        self._parked = 0
        # Quiescent-cycle fast-forward (event mode, off under
        # ``reference``): when every stage is provably stalled until a
        # known future event, jump there in one step and bulk-account the
        # identical cycles.  Bitwise identical results.
        self._fast_forward = self._event and not reference
        self.ff_windows = 0
        self.ff_cycles_skipped = 0
        # One observation object reused across cycles (per-cycle
        # allocation dominated short-stall profiles); accountants never
        # retain a reference.
        self._obs = CycleObservation() if self._accounting else None
        # Config scalars hoisted for the fused event-mode step.
        self._commit_width = config.commit_width
        self._dispatch_width = config.dispatch_width
        self._rob_size = config.rob_size
        self._rs_size = config.rs_size
        self._sq_size = config.store_queue_size
        self._uq_size = config.uop_queue_size
        self._machine_lanes = config.vector_lanes
        # Signature-batched accounting (event mode, EXACT): consecutive
        # cycles whose accountant-visible observation fields are identical
        # accumulate into one observe_repeat call.  The signature covers
        # exactly the fields the dispatch/issue/commit/flops accountants
        # read in EXACT mode (wrong-path counts are unread there);
        # SPECULATIVE interleaves per-block events with observes and
        # SIMPLE reads wrong counts, so both observe every cycle.  A
        # top-down accountant additionally reads the wrong-path dispatch
        # count every cycle and the nonready producer whenever the RS is
        # non-empty and issue is under width, so with top-down attached
        # the signature widens (``_sig_topdown``): n_dispatch_wrong joins
        # the tuple and the producer pruning keeps only the clauses every
        # attached reader agrees on (observe_repeat is k-observe-exact
        # for the top-down accountant too, so batching stays bitwise).
        # With several collectors attached, batching additionally
        # requires one shared accounting width: the signature's
        # head/producer pruning compares against a single W.  Retained
        # observations use _UopSnapshot copies so later pipeline activity
        # (or pool recycling) cannot mutate a batched cycle's blamed
        # micro-ops.
        self._batch = (
            self._accounting
            and self._event
            and mode is WrongPathMode.EXACT
            and self._uniform_width
        )
        self._sig_topdown = self._batch and self._topdown
        self._bat_sig: object = None
        self._bat_k = 0
        self._bat_cur = _ObsBuffer()
        self._bat_spare = _ObsBuffer()
        # Retained-observation cache: the observation fields accountants
        # can read are fully determined by the batch signature (that is
        # the batching invariant), so a signature seen before can reuse
        # its fully-populated buffer instead of re-filling ~30 fields.
        # Steady-state loops cycle through a handful of signatures, so
        # this turns most _retain calls into one dict hit.  Buffers in
        # the cache are written once and never mutated; the private pair
        # is only recycled by the (pathological) overflow path.
        self._sig_cache: dict[tuple, _ObsBuffer] = {}
        self._bat_private = (self._bat_cur, self._bat_spare)
        self._unsched_buf = _ObsBuffer()
        self._unsched_buf.obs.reset()
        self._unsched_buf.obs.unscheduled = True
        self._acc_width = self._accounting_width
        self._vec_units = config.vector_units
        # Lazy producer resolution: when batching (or not accounting at
        # all), the fused select stores _PENDING for the two producer
        # fields and they are resolved on first read.  Sound because the
        # inputs of the deferred walks only change through events that
        # set ``_rs_dirty`` and therefore force a new select first.
        self._lazy_prod = self._batch or not self._accounting
        # Periodic steady-state replay: record one loop iteration's worth
        # of accounting once the machine provably reaches a fixed point
        # (modulo a uniform shift), then skip whole periods at a time.
        # Bitwise identical results.  Armed only with fast-forward (event
        # mode, not ``reference``), with signature batching (or with
        # accounting off), and only when the trace itself is periodic.
        self.replay_windows = 0
        self.replay_cycles_skipped = 0
        self._replay: ReplayEngine | None = None
        self._replay_rec = False
        if self._fast_forward and (self._batch or not self._accounting):
            region = find_period(program)
            if region is not None:
                self._replay = ReplayEngine(self, region[0], region[1])

    # -- top-level driver --------------------------------------------------------

    def run(
        self,
        max_cycles: int | None = None,
        *,
        checkpoint_interval: int | None = None,
        checkpoint_key: str | None = None,
        on_checkpoint=None,
    ) -> SimResult:
        """Simulate to completion and return the result.

        With ``checkpoint_interval`` set, a crash-safe snapshot is taken
        every that many committed instructions (see
        :mod:`repro.pipeline.checkpoint`); the plain hot loop is used
        otherwise, so checkpointing costs nothing when off.
        """
        if max_cycles is None:
            max_cycles = _MAX_CYCLES_PER_UOP * max(
                self.program.uop_count, 1
            ) + 100_000
        if checkpoint_interval:
            return self._run_checkpointed(
                max_cycles, checkpoint_interval, checkpoint_key,
                on_checkpoint,
            )
        start = time.perf_counter()
        step = self._step_event if self._event else self._step
        # _finished inlined, cheapest-reject first: on almost every cycle
        # the ROB (or the dispatch queue) is non-empty, so the check costs
        # one truthiness test instead of three calls (method + two
        # frontend properties).
        frontend = self.frontend
        rob = self.rob
        queue = self.uop_queue
        while (
            rob
            or queue
            or self.unsched_remaining != 0
            or frontend.waiting_sync is not None
            or frontend.wrong_path
            or frontend._idx < frontend._count
            or frontend._decoded_idx < frontend._decoded_len
        ):
            step()
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(likely a scheduling deadlock) for {self.program.name}"
                )
        return self._finalize(start)

    def _run_checkpointed(
        self,
        max_cycles: int,
        interval: int,
        key: str | None,
        on_checkpoint,
    ) -> SimResult:
        """The run loop with periodic crash-safe snapshots.

        A checkpoint is due every ``interval`` committed instructions; a
        replay/fast-forward jump can cross several due points at once, in
        which case one snapshot is taken and the next due point moves
        past the current progress.  ``on_checkpoint(path, instrs)`` fires
        after each snapshot (``path`` is None when ``key`` is — tests use
        the hook to interrupt; the supervisor's fault injection uses it
        to die deterministically mid-case).
        """
        start = time.perf_counter()
        step = self._step_event if self._event else self._step
        frontend = self.frontend
        rob = self.rob
        queue = self.uop_queue
        next_due = (self.committed_instrs // interval + 1) * interval
        while (
            rob
            or queue
            or self.unsched_remaining != 0
            or frontend.waiting_sync is not None
            or frontend.wrong_path
            or frontend._idx < frontend._count
            or frontend._decoded_idx < frontend._decoded_len
        ):
            step()
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(likely a scheduling deadlock) for {self.program.name}"
                )
            if self.committed_instrs >= next_due:
                next_due = (
                    self.committed_instrs // interval + 1
                ) * interval
                path = None
                if key is not None:
                    path = _ckpt.checkpoint_path(key, self.committed_instrs)
                    _ckpt.save_checkpoint(
                        path, self.snapshot(), self.checkpoint_meta()
                    )
                if on_checkpoint is not None:
                    on_checkpoint(path, self.committed_instrs)
        return self._finalize(start)

    def _finalize(self, start: float) -> SimResult:
        """Flush pending accounting and build one result per collector.

        Every attached collector yields its own :class:`SimResult` in
        :attr:`fused_results` (spec order); all members share the timing
        fields — cycles, commit counts, memory/branch statistics — because
        they observed the same single pipeline run.  The first member is
        returned for the historical single-collector call sites.
        """
        self._flush_batch()
        wall = time.perf_counter() - start
        measured_cycles = self.cycle - self._measure_cycle0
        measured_uops = self.committed_uops - self._measure_uops0
        self.fused_results = [
            SimResult(
                name=self.program.name,
                config_name=self.config.name,
                cycles=measured_cycles,
                committed_uops=measured_uops,
                committed_instrs=self.committed_instrs,
                report=(
                    collector.finalize(
                        measured_cycles,
                        measured_uops,
                        name=self.program.name,
                    )
                    if collector is not None
                    else None
                ),
                memory_stats=self.hierarchy.stats(),
                branch_lookups=self.predictor.lookups,
                branch_mispredicts=self.predictor.mispredicts,
                wrong_path_uops=self.frontend.delivered_wrong,
                wall_seconds=wall,
                ff_windows=self.ff_windows,
                ff_cycles_skipped=self.ff_cycles_skipped,
                replay_windows=self.replay_windows,
                replay_cycles_skipped=self.replay_cycles_skipped,
            )
            for collector in self.collectors
        ]
        return self.fused_results[0]

    def _finished(self) -> bool:
        return (
            self.frontend.idle
            and not self.rob
            and not self.uop_queue
            and self.unsched_remaining == 0
            and not self.barrier_waiting
        )

    def unfinished(self) -> bool:
        """True while stepping this core can still make progress.

        The exact predicate of the :meth:`run` hot loop (plus barrier
        parking), exposed for external steppers — the multi-core engine
        drives cores one cycle at a time and needs per-core completion.
        """
        frontend = self.frontend
        return bool(
            self.rob
            or self.uop_queue
            or self.unsched_remaining != 0
            or self.barrier_waiting
            or frontend.waiting_sync is not None
            or frontend.wrong_path
            or frontend._idx < frontend._count
            or frontend._decoded_idx < frontend._decoded_len
        )

    def step_cycle(self) -> None:
        """Advance exactly one simulated step (external-stepping hook).

        One call advances :attr:`cycle` by at least one (a fast-forward
        or replay window advances it further in the same call).  Callers
        own loop control: check :meth:`unfinished` before stepping and
        bound runaway cycles themselves.
        """
        if self._event:
            self._step_event()
        else:
            self._step()

    # -- checkpoint / resume -----------------------------------------------------

    def checkpoint_meta(self) -> dict:
        """Human-readable header metadata for a checkpoint file."""
        return {
            "case": self.program.name,
            "config": self.config.name,
            "committed_instrs": self.committed_instrs,
            "committed_uops": self.committed_uops,
            "cycle": self.cycle,
        }

    def snapshot(self) -> bytes:
        """Serialize the mutable simulation state into one payload.

        The state is pickled in a *single* pass so the pickle memo
        preserves object identity: an :class:`InflightUop` reachable
        from the ROB, a scheduler deque, ``last_writer`` and a dependence
        edge is stored once and restored as one shared object, exactly
        like the live pipeline.  Only taken between cycles (never
        mid-``_step``), so per-cycle scratch (``self._obs``, the FU pool's
        free-slot counters, the uop free list — a fresh record is
        field-identical to a recycled one) is deliberately excluded.

        The program is an input, not state: the payload stores its
        identity, and every trace instruction the state references is
        written as its position (see
        :func:`repro.pipeline.checkpoint.pack_snapshot`).

        The :data:`_PENDING` sentinel is identity-compared and cannot
        survive pickling; it is tokenized here and re-interned by
        :meth:`_restore_state`.  It must *not* be resolved instead:
        :meth:`_resolve_issue_obs` pops from the ``_nonready`` deques,
        which would diverge from the uninterrupted run.
        """
        if self._instruction_refs is None:
            self._instruction_refs = _ckpt.instruction_refs([self.program])
        return _ckpt.pack_snapshot(
            {
                "config": self.config,
                "kwargs": {
                    "mode": self.mode,
                    "seed": self._seed,
                    "warmup_instructions": self.warmup_instructions,
                    "reference": self._reference,
                    "legacy_issue_scan": not self._event,
                    # The full collector-spec tuple: restoring a fused
                    # run must bring back *all* attached collectors.
                    "collectors": self._collector_specs,
                },
            },
            [_ckpt.program_identity(self.program)],
            self._state_dict(),
            self._instruction_refs,
        )

    def _state_dict(self) -> dict:
        """The picklable mutable-state mapping :meth:`snapshot` wraps.

        Exposed separately so the multi-core engine can compose per-core
        states into one engine-level snapshot (one pickling pass for
        identity preservation) without duplicating config/kwargs per
        core.
        """
        obs_cache = tuple(
            _PENDING_TOKEN if value is _PENDING else value
            for value in self._issue_obs_cache
        )
        bat_sig = self._bat_sig
        state = {
            "rob": self.rob,
            "rs": self.rs,
            "uop_queue": self.uop_queue,
            "last_writer": self.last_writer,
            "pending_stores": self.pending_stores,
            "completions": self.completions,
            "sq_count": self.sq_count,
            "cycle": self.cycle,
            "committed_uops": self.committed_uops,
            "committed_instrs": self.committed_instrs,
            "unsched_remaining": self.unsched_remaining,
            "barrier_waiting": self.barrier_waiting,
            "warmed": self._warmed,
            "measure_cycle0": self._measure_cycle0,
            "measure_uops0": self._measure_uops0,
            "rs_dirty": self._rs_dirty,
            "rs_quiet": self._rs_quiet,
            "has_correct_waiting": self._has_correct_waiting,
            "issue_obs_cache": obs_cache,
            "ready": self._ready,
            "nonready": self._nonready,
            "nonready_vfp": self._nonready_vfp,
            "rs_count": self._rs_count,
            "rs_correct": self._rs_correct,
            "rs_vfp": self._rs_vfp,
            "parked": self._parked,
            "ff_windows": self.ff_windows,
            "ff_cycles_skipped": self.ff_cycles_skipped,
            "bat_sig": bat_sig,
            "bat_k": self._bat_k,
            "bat_cur": self._bat_cur,
            "bat_spare": self._bat_spare,
            "replay_windows": self.replay_windows,
            "replay_cycles_skipped": self.replay_cycles_skipped,
            "replay_rec": self._replay_rec,
            "collectors": self.collectors,
            "replay": (
                self._replay.snapshot() if self._replay is not None else None
            ),
            "hierarchy": self.hierarchy.snapshot(),
            "predictor": self.predictor.snapshot(),
            "frontend": self.frontend.snapshot(),
            "fu": self.fu.snapshot(),
        }
        return state

    def _restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` on a freshly constructed simulator.

        Components are mutated *in place* — the replay engine's shift
        sites and the frontend hold live references to the hierarchy,
        predictor, cache-statistics and counter objects built by
        ``__init__``, so none of them may be replaced wholesale.
        """
        self.rob.clear()
        self.rob.extend(state["rob"])
        self.rs[:] = state["rs"]
        self.uop_queue.clear()
        self.uop_queue.extend(state["uop_queue"])
        self.last_writer[:] = state["last_writer"]
        self.pending_stores.clear()
        self.pending_stores.update(state["pending_stores"])
        self.completions.clear()
        self.completions.update(state["completions"])
        self.sq_count = state["sq_count"]
        self.cycle = state["cycle"]
        self.committed_uops = state["committed_uops"]
        self.committed_instrs = state["committed_instrs"]
        self.unsched_remaining = state["unsched_remaining"]
        self.barrier_waiting = state["barrier_waiting"]
        self._warmed = state["warmed"]
        self._measure_cycle0 = state["measure_cycle0"]
        self._measure_uops0 = state["measure_uops0"]
        self._rs_dirty = state["rs_dirty"]
        self._rs_quiet = state["rs_quiet"]
        self._has_correct_waiting = state["has_correct_waiting"]
        # Re-intern the module-level _PENDING sentinel (identity-compared
        # by _resolve_issue_obs); InflightUop/bool/None values compare
        # unequal to the token string, so the test is exact.
        self._issue_obs_cache = tuple(
            _PENDING if value == _PENDING_TOKEN else value
            for value in state["issue_obs_cache"]
        )
        self._ready[:] = state["ready"]
        self._nonready.clear()
        self._nonready.extend(state["nonready"])
        self._nonready_vfp.clear()
        self._nonready_vfp.extend(state["nonready_vfp"])
        self._rs_count = state["rs_count"]
        self._rs_correct = state["rs_correct"]
        self._rs_vfp = state["rs_vfp"]
        self._parked = state["parked"]
        self.ff_windows = state["ff_windows"]
        self.ff_cycles_skipped = state["ff_cycles_skipped"]
        # Re-intern the _UNSCHED_SIG sentinel (identity-compared in the
        # fused step); no accountant signature equals it — ordinary
        # signatures are longer observation-field tuples.
        bat_sig = state["bat_sig"]
        if bat_sig == _UNSCHED_SIG:
            bat_sig = _UNSCHED_SIG
        self._bat_sig = bat_sig
        self._bat_k = state["bat_k"]
        # The buffers themselves may be swapped wholesale: they are read
        # at call time only and note_cycle always copies, so nothing
        # retains a reference to the constructor-built pair.
        self._bat_cur = state["bat_cur"]
        self._bat_spare = state["bat_spare"]
        self.replay_windows = state["replay_windows"]
        self.replay_cycles_skipped = state["replay_cycles_skipped"]
        self._replay_rec = state["replay_rec"]
        # The pickled collectors (one slot per spec, None for detached
        # members) carry every accountant's mid-run counters; the hot-path
        # view is rebuilt rather than pickled so single/fan-out wrapping
        # stays an implementation detail of this class.
        self.collectors = list(state["collectors"])
        self._rewrap_collector()
        if state["replay"] is not None and self._replay is not None:
            self._replay.restore(state["replay"])
        elif state["replay"] is not None:
            # The checkpoint carries engine state but this simulator has
            # no engine (e.g. a production checkpoint restored under
            # ``reference=True``).  Dropping it is sound — replay never
            # changes results, only skips work — but any in-flight
            # recording is gone, so clear the recording flag with it.
            self._replay_rec = False
        elif self._replay is not None:
            # Conversely the checkpoint was taken with no engine; reset
            # this simulator's engine to its idle state (it attempts
            # recording afresh after the restore).
            self._replay.rearm()
        self.hierarchy.restore(state["hierarchy"])
        self.predictor.restore(state["predictor"])
        self.frontend.restore(state["frontend"])
        self.fu.restore(state["fu"])

    @classmethod
    def from_snapshot(cls, payload: bytes, program: Program) -> "CoreSimulator":
        """Rebuild a mid-run simulator from a :meth:`snapshot` blob.

        ``program`` must be the trace the snapshot was taken with; its
        identity is checked first, and a mismatch raises
        :class:`repro.pipeline.checkpoint.CheckpointError`.
        """
        data, state = _ckpt.unpack_snapshot(payload, [program])
        sim = cls(program, data["config"], **data["kwargs"])
        sim._restore_state(state)
        return sim

    @classmethod
    def resume(cls, path: str | Path, program: Program) -> "CoreSimulator":
        """Rebuild a simulator from a checkpoint *file* and its program.

        Verifies the checksum before unpickling (see
        :func:`repro.pipeline.checkpoint.load_checkpoint`) and the
        program identity before restoring, raising
        :class:`repro.pipeline.checkpoint.CheckpointError` on any defect.
        Continuing the returned simulator with :meth:`run` produces
        results bitwise identical to the uninterrupted run (modulo
        ``wall_seconds``).
        """
        payload, _meta = _ckpt.load_checkpoint(path)
        return cls.from_snapshot(payload, program)

    # -- one cycle ---------------------------------------------------------------

    def _step(self) -> None:
        cycle = self.cycle
        collector = self.collector
        obs = self._obs if collector is not None else None
        if obs is not None:
            obs.reset()

        if self.unsched_remaining > 0:
            # Core descheduled: nothing moves; the cycle is Unsched.
            self.unsched_remaining -= 1
            if self.unsched_remaining == 0:
                self.frontend.sync_released()
            if obs is not None:
                obs.unscheduled = True
                collector.observe(obs)
            self.cycle = cycle + 1
            return

        self._writeback(cycle)
        self._commit(cycle, obs)
        self._issue_scan(cycle, obs)
        self._dispatch(cycle, obs)
        if obs is not None:
            # Sample the frontend condition before this cycle's fetch can
            # clear a just-ended stall's reason: the queue the dispatch
            # stage saw was shaped by that stall.
            obs.fe_reason = self.frontend.reason(cycle)
            obs.wrong_path_active = (
                self.frontend.wrong_path
                or obs.fe_reason is Component.BPRED
            )
        self._fetch(cycle)
        if obs is not None:
            collector.observe(obs)
        self.cycle = cycle + 1
        if not self._warmed and self.committed_instrs >= self.warmup_instructions:
            self._end_warmup()

    def _build_collectors(self) -> None:
        """(Re)build every attached collector from its spec.

        Called where measurement starts — at construction or at the warmup
        boundary — so all attached collectors measure the same cycles.
        """
        config = self.config
        collectors: list[MultiStageCollector | None] = []
        for spec in self._collector_specs:
            if not spec.accounting:
                collectors.append(None)
                continue
            width = (
                spec.accounting_width
                if spec.accounting_width is not None
                else config.accounting_width
            )
            collectors.append(
                MultiStageCollector(
                    width,
                    mode=self.mode,
                    vector_units=config.vector_units,
                    vector_lanes=config.vector_lanes,
                    topdown=spec.topdown,
                )
            )
        self.collectors = collectors
        self._rewrap_collector()

    def _rewrap_collector(self) -> None:
        """Point ``self.collector`` at the hot-path view of the list:
        ``None``, the lone real collector, or a fan-out wrapper."""
        real = [c for c in self.collectors if c is not None]
        if not real:
            self.collector = None
        elif len(real) == 1:
            self.collector = real[0]
        else:
            self.collector = FanoutCollector(real)
        # Invalidate every memoized accounting program: they hold direct
        # references into the previous collector's stacks.
        self._acc_epoch += 1

    def _end_warmup(self) -> None:
        """Start measurement with warm caches/TLBs/predictor state."""
        # Nothing observes warmup, so the batch is empty — unless a
        # checkpoint from a build that accounted warmup was restored;
        # its pending batch belongs to the discarded warmup collectors.
        self._flush_batch()
        self._warmed = True
        self._measure_cycle0 = self.cycle
        self._measure_uops0 = self.committed_uops
        if self._accounting:
            self._build_collectors()
        if self._replay is not None:
            self._replay.rearm()

    # -- signature-batched accounting (event mode) --------------------------------

    def _flush_batch(self) -> None:
        """Deliver the pending run of identical cycles to the collector.

        For a single plain :class:`MultiStageCollector` the per-cycle
        accounting of one observation is (in the shipped pow2-width,
        zero-carry configurations) a fixed list of ``counter += amt * k``
        updates; that list is memoized on the retained buffer
        (``repeat_program``) so steady-state flushes skip the whole
        accountant call chain.  Any condition the program cannot cover —
        fan-out collectors, top-down attachment, non-pow2 widths, a
        non-zero width-normalizer carry — falls back to the generic
        ``observe_repeat`` chain, which is the semantic definition.
        """
        k = self._bat_k
        if k:
            self._bat_k = 0
            self._bat_sig = None
            self._apply_batch(self._bat_cur, k)

    def _batch_program(self, buf: _ObsBuffer):
        """``buf``'s memoized repeat program, built on first use (False
        when the generic ``observe_repeat`` chain must run)."""
        prog = buf.delta
        if prog is None or buf.delta_epoch != self._acc_epoch:
            collector = self.collector
            prog = False
            if type(collector) is MultiStageCollector:
                prog = collector.repeat_program(buf.obs)
            buf.delta = prog
            buf.delta_epoch = self._acc_epoch
        return prog

    def _apply_batch(self, buf: _ObsBuffer, k: int) -> None:
        """Account ``k`` cycles of ``buf``'s observation (see
        :meth:`_flush_batch`); the replay engine feeds skipped periods
        through here too."""
        prog = buf.delta
        if prog is None or buf.delta_epoch != self._acc_epoch:
            prog = self._batch_program(buf)
        if prog is False:
            self.collector.observe_repeat(buf.obs, k)
            return
        entries, norms, flops_stack, flops_val = prog
        if (
            norms[0].carry == 0.0
            and norms[1].carry == 0.0
            and norms[2].carry == 0.0
        ):
            fk = float(k)
            for counters, comp, amt in entries:
                counters[comp] = counters.get(comp, 0.0) + amt * fk
            if flops_stack is not None:
                flops_stack.flops += flops_val * fk
        else:
            self.collector.observe_repeat(buf.obs, k)

    def _retain(
        self,
        sig: tuple,
        k: int,
        n_dispatch: int,
        n_dispatch_wrong: int,
        n_issue: int,
        n_issue_wrong: int,
        n_commit: int,
        flops_issued: float,
        n_vfp: int,
        non_fma_loss: float,
        masked: float,
        queue_empty: bool,
        window_full: bool,
        rob_empty: bool,
        rs_empty: bool,
        structural: bool,
        vfp_in_rs: bool,
        vu_non_vfp: bool,
        vfp_structural: bool,
        wp_active: bool,
        fe_reason: Component | None,
        head: InflightUop | None,
        producer: InflightUop | None,
        vfp_producer: InflightUop | None,
    ) -> None:
        """Flush the previous batch and start a new one for ``sig``.

        The blamed micro-ops are copied into the buffer's snapshots: the
        observation is not consumed until the batch flushes, by which time
        the live records may have issued, completed, or been recycled.

        A signature seen before reuses its cached buffer outright: every
        accountant-readable observation field is a function of the
        signature (the batching invariant — non-signature fields are
        provably unread for that signature), so the first population is
        valid for every recurrence.
        """
        self._flush_batch()
        cached = self._sig_cache.get(sig)
        if cached is not None:
            self._bat_cur = cached
            self._bat_sig = sig
            self._bat_k = k
            return
        if len(self._sig_cache) < _SIG_CACHE_CAP:
            buf = _ObsBuffer()
            self._sig_cache[sig] = buf
        else:
            # Overflow: recycle the private pair (never a cached buffer,
            # and never the one the pending batch still points at).
            buf = self._bat_private[0]
            if buf is self._bat_cur:
                buf = self._bat_private[1]
            buf.delta = None  # contents change: drop the memoized program
        self._bat_cur = buf
        obs = buf.obs
        obs.unscheduled = False
        obs.wrong_path_active = wp_active
        obs.fe_reason = fe_reason
        obs.n_dispatch = n_dispatch
        obs.n_dispatch_wrong = n_dispatch_wrong
        obs.uop_queue_empty = queue_empty
        obs.window_full = window_full
        obs.n_issue = n_issue
        obs.n_issue_wrong = n_issue_wrong
        obs.rs_empty = rs_empty
        obs.structural_stall = structural
        obs.n_commit = n_commit
        obs.rob_empty = rob_empty
        obs.flops_issued = flops_issued
        obs.n_vfp_issued = n_vfp
        obs.non_fma_loss_lanes = non_fma_loss
        obs.masked_lanes = masked
        obs.vfp_in_rs = vfp_in_rs
        obs.vu_used_by_non_vfp = vu_non_vfp
        obs.vfp_structural = vfp_structural
        if head is None:
            obs.rob_head = None
        else:
            snap = buf.head
            snap.is_load = head.is_load
            snap.dcache_miss = head.dcache_miss
            snap.issued = head.issued
            snap.done = head.done
            snap.multi_cycle = head.multi_cycle
            snap.block_id = head.block_id
            obs.rob_head = snap
        if producer is None:
            obs.first_nonready_producer = None
        else:
            snap = buf.producer
            snap.is_load = producer.is_load
            snap.dcache_miss = producer.dcache_miss
            snap.issued = producer.issued
            snap.done = producer.done
            snap.multi_cycle = producer.multi_cycle
            snap.block_id = producer.block_id
            obs.first_nonready_producer = snap
        if vfp_producer is None:
            obs.oldest_vfp_producer = None
        else:
            snap = buf.vfp
            snap.is_load = vfp_producer.is_load
            snap.dcache_miss = vfp_producer.dcache_miss
            snap.issued = vfp_producer.issued
            snap.done = vfp_producer.done
            snap.multi_cycle = vfp_producer.multi_cycle
            snap.block_id = vfp_producer.block_id
            obs.oldest_vfp_producer = snap
        self._bat_sig = sig
        self._bat_k = k

    # -- fused event-mode cycle ---------------------------------------------------

    def _step_event(self) -> None:
        """One cycle of the event-driven pipeline, stages fused inline.

        Semantically identical to :meth:`_step` with the event-mode issue
        select; the fusion removes per-stage call/observation overhead and
        enables signature batching: under ``_batch`` the observation
        object is only materialized when the accountant-visible signature
        changes, and runs of identical cycles collapse into one
        ``observe_repeat`` (bit-identical — observe_repeat itself is the
        proven-equivalent bulk form used by fast-forward).
        """
        cycle = self.cycle
        collector = self.collector
        batch = self._batch

        replay = self._replay
        if replay is not None:
            skipped = replay.on_cycle(cycle)
            if skipped:
                # The engine already advanced all state; it only could
                # not set ``cycle`` (the local is re-read next step).
                self.cycle = cycle + skipped
                return

        if self.unsched_remaining > 0:
            # Core descheduled: nothing moves; the cycle is Unsched.
            self.unsched_remaining -= 1
            if self.unsched_remaining == 0:
                self.frontend.sync_released()
            if collector is not None:
                if batch:
                    if self._bat_sig is _UNSCHED_SIG:
                        self._bat_k += 1
                    else:
                        self._flush_batch()
                        # Preallocated immutable Unsched buffer: nothing
                        # else is observable in a descheduled cycle.
                        self._bat_cur = self._unsched_buf
                        self._bat_sig = _UNSCHED_SIG
                        self._bat_k = 1
                    if self._replay_rec:
                        replay.note_cycle(
                            _UNSCHED_SIG, 1, self._bat_k > 1
                        )
                else:
                    obs = self._obs
                    obs.reset()
                    obs.unscheduled = True
                    collector.observe(obs)
            self.cycle = cycle + 1
            return

        if self._fast_forward and self._rs_quiet and not self._rs_dirty:
            k = self._quiescent_cycles(cycle)
            if k > 0:
                self._ff_event(cycle, k)
                return

        frontend = self.frontend
        completions = self.completions
        spec_mode = self._spec_mode
        wb_free_append = self._pool._free.append

        # ---- writeback ----------------------------------------------------
        finishing = completions.pop(cycle, None)
        if finishing:
            self._rs_dirty = True
            ready_append = self._ready.append
            for uop in finishing:
                if uop.squashed:
                    # UopPool.release inlined (wrong-path writeback is
                    # the hot recycle path under heavy misprediction).
                    uop.producers.clear()
                    uop.consumers.clear()
                    uop.waiters = None
                    wb_free_append(uop)
                    continue
                uop.done = True
                consumers = uop.consumers
                if consumers:
                    for consumer in consumers:
                        if consumer.squashed:
                            continue
                        left = consumer.deps_left - 1
                        consumer.deps_left = left
                        if left == 0:
                            ready_append((consumer.seq, consumer))
                        consumer.producers.remove(uop)
                    consumers.clear()
                waiters = uop.waiters
                if waiters is not None:
                    uop.waiters = None
                    for wseq, load in waiters:
                        if load.seq == wseq and load.parked:
                            load.parked = False
                            self._parked -= 1
                            ready_append((wseq, load))
                if uop.mispredicted:
                    self._squash(uop)
                    frontend.redirect(cycle)
                    if spec_mode and collector is not None:
                        collector.on_squash(uop.block_id)

        # ---- commit -------------------------------------------------------
        rob = self.rob
        n_commit = 0
        if rob and rob[0].done:
            last_writer = self.last_writer
            pending_stores = self.pending_stores
            width = self._commit_width
            committed_uops = self.committed_uops
            while n_commit < width and rob and rob[0].done:
                uop = rob.popleft()
                committed_uops += 1
                n_commit += 1
                if uop.is_store:
                    self.sq_count -= 1
                    addr = uop.uop.addr
                    if pending_stores.get(addr) is uop:
                        del pending_stores[addr]
                        self._rs_dirty = True  # forwarding window closed
                stop = False
                if uop.last_of_instr:
                    self.committed_instrs += 1
                    instr = uop.instr
                    if uop.is_branch and spec_mode and collector is not None:
                        collector.on_block_commit(uop.block_id)
                    if instr is not None and instr.yield_cycles > 0:
                        if instr.barrier and self._barrier_hook is not None:
                            # Park until the last sibling core arrives;
                            # the engine's release converts the wait into
                            # unsched_remaining (a 1-core engine releases
                            # immediately, reducing to the else branch).
                            self.barrier_waiting = True
                            self._barrier_hook(self, instr)
                        else:
                            self.unsched_remaining = instr.yield_cycles
                        stop = True
                dst = uop.uop.dst
                if dst >= 0 and last_writer[dst] is uop:
                    last_writer[dst] = None
                # UopPool.release inlined (one call per committed uop).
                uop.producers.clear()
                uop.consumers.clear()
                uop.waiters = None
                wb_free_append(uop)
                if stop:
                    break
            self.committed_uops = committed_uops
        rob_empty = not rob
        head = rob[0] if rob else None

        # ---- issue --------------------------------------------------------
        if self._rs_quiet and not self._rs_dirty:
            # Nothing changed since a select that issued nothing: reuse it.
            (
                first_producer,
                structural,
                vfp_in_rs,
                oldest_vfp_producer,
                vfp_structural,
            ) = self._issue_obs_cache
            rs_empty = not self._has_correct_waiting
            n_issue = 0
            n_issue_wrong = 0
            flops_issued = 0.0
            n_vfp = 0
            non_fma_loss = 0.0
            masked = 0.0
            vu_non_vfp = False
        else:
            fu = self.fu
            machine_lanes = self._machine_lanes
            pending_stores = self.pending_stores
            # fu.begin_issue inlined (one call per active cycle): reset
            # the per-cycle slot counters, recomputing MUL availability
            # from the unpipelined busy times.
            free = fu._free
            free[:] = fu._free_template
            mul_free = 0
            for busy in fu._mul_busy_until:
                if busy <= cycle:
                    mul_free += 1
            free[1] = mul_free
            issue_free = fu._issue_width
            unpipelined = fu._unpipelined_flags
            n_issue = 0
            n_issue_wrong = 0
            structural = False
            vfp_structural = False
            vu_non_vfp = False
            flops_issued = 0.0
            n_vfp = 0
            non_fma_loss = 0.0
            masked = 0.0
            ready = self._ready
            if ready:
                ready.sort()
                keep: list[tuple[int, InflightUop]] = []
                keep_append = keep.append
                parked = self._parked
                rs_count = self._rs_count
                rs_correct = self._rs_correct
                rs_vfp = self._rs_vfp
                reserve_mul = fu._reserve_mul
                hierarchy = self.hierarchy
                latency_of = self._latency_of
                ceil = math.ceil
                for entry in ready:
                    seq, uop = entry
                    if uop.seq != seq or uop.squashed:
                        continue  # stale: issued+recycled, or squashed
                    static = uop.uop
                    is_load = uop.is_load
                    forward_store: InflightUop | None = None
                    if is_load and not uop.wrong_path:
                        store = pending_stores.get(static.addr)
                        if (
                            store is not None
                            and store.seq < seq
                            and not store.squashed
                        ):
                            if store.done:
                                forward_store = store
                            else:
                                # Address conflict: park on the older store.
                                structural = True
                                uop.parked = True
                                parked += 1
                                if store.waiters is None:
                                    store.waiters = [entry]
                                else:
                                    store.waiters.append(entry)
                                continue
                    pool = uop.pool
                    if issue_free > 0 and free[pool] > 0:
                        # _execute inlined (classification comes from the
                        # precomputed record slots, not the enum).
                        uop.issued = True
                        if is_load:
                            if uop.wrong_path:
                                complete = int(ceil(
                                    hierarchy.probe_latency(static.addr, cycle)
                                ))
                            elif forward_store is not None:
                                complete = cycle + 1
                            else:
                                result = hierarchy.dload(static.addr, cycle)
                                complete = int(ceil(result.complete))
                                uop.dcache_miss = not result.l1_hit
                            if complete <= cycle:
                                complete = cycle + 1
                        elif uop.is_store:
                            if not uop.wrong_path:
                                hierarchy.dstore(static.addr, cycle)
                            complete = cycle + 1
                        else:
                            uclass = static.uclass
                            latency = latency_of[uclass]
                            complete = cycle + latency
                            if complete <= cycle:
                                complete = cycle + 1
                            if pool == POOL_MUL and unpipelined[uclass]:
                                reserve_mul(cycle, latency)
                        bucket = completions.get(complete)
                        if bucket is None:
                            completions[complete] = [uop]
                        else:
                            bucket.append(uop)
                        issue_free -= 1
                        free[pool] -= 1
                        rs_count -= 1
                        if uop.wrong_path:
                            n_issue_wrong += 1
                        else:
                            n_issue += 1
                            rs_correct -= 1
                            ops = uop.ops
                            if ops:
                                rs_vfp -= 1
                                lanes = static.lanes
                                if lanes > machine_lanes:
                                    lanes = machine_lanes
                                flops_issued += ops * lanes
                                n_vfp += 1
                                non_fma_loss += (2 - ops) * lanes
                                masked += machine_lanes - lanes
                            elif uop.is_vu_nonvfp:
                                vu_non_vfp = True
                        continue  # issued: leaves the reservation stations
                    structural = True
                    if not uop.wrong_path and uop.ops:
                        vfp_structural = True
                    keep_append(entry)
                self._ready = keep
                self._parked = parked
                self._rs_count = rs_count
                self._rs_correct = rs_correct
                self._rs_vfp = rs_vfp
            if self._parked:
                structural = True
            fu._issue_free = issue_free
            correct_waiting = self._rs_correct
            vfp_in_rs = self._rs_vfp > 0
            if self._lazy_prod:
                first_producer = _PENDING
                oldest_vfp_producer = _PENDING
            else:
                first_nonready = self._oldest_live(self._nonready)
                oldest_vfp_nonready = self._oldest_live(self._nonready_vfp)
                first_producer = (
                    first_nonready.first_unfinished_producer()
                    if first_nonready is not None
                    else None
                )
                oldest_vfp_producer = (
                    oldest_vfp_nonready.first_unfinished_producer()
                    if oldest_vfp_nonready is not None
                    else None
                )
            self._rs_dirty = False
            self._rs_quiet = n_issue + n_issue_wrong == 0
            self._has_correct_waiting = correct_waiting > 0
            self._issue_obs_cache = (
                first_producer,
                structural,
                vfp_in_rs,
                oldest_vfp_producer,
                vfp_structural,
            )
            rs_empty = correct_waiting == 0

        # ---- dispatch -----------------------------------------------------
        queue = self.uop_queue
        n_dispatch = 0
        n_dispatch_wrong = 0
        queue_empty = False
        window_full = False
        last_block_id = -1
        width = self._dispatch_width
        rob_size = self._rob_size
        rs_size = self._rs_size
        sq_size = self._sq_size
        rs_count = self._rs_count
        rs_correct = self._rs_correct
        rs_vfp = self._rs_vfp
        sq_count = self.sq_count
        rob_len = len(rob)
        pending_stores = self.pending_stores
        last_writer = self.last_writer
        ready_append = self._ready.append
        nonready_append = self._nonready.append
        nonready_vfp_append = self._nonready_vfp.append
        rob_append = rob.append
        while n_dispatch + n_dispatch_wrong < width:
            if not queue:
                queue_empty = True
                break
            uop = queue[0]
            is_store = uop.is_store
            if (
                rob_len >= rob_size
                or rs_count >= rs_size
                or (is_store and sq_count >= sq_size)
            ):
                window_full = True
                break
            queue.popleft()
            # _rename inlined (records come from the pool with
            # deps_left == 0 and empty edge lists).
            static = uop.uop
            deps = 0
            for src in static.srcs:
                producer = last_writer[src]
                if (
                    producer is not None
                    and not producer.done
                    and not producer.squashed
                ):
                    uop.producers.append(producer)
                    producer.consumers.append(uop)
                    deps += 1
            uop.deps_left = deps
            dst = static.dst
            if dst >= 0:
                last_writer[dst] = uop
            rob_append(uop)
            rob_len += 1
            rs_count += 1
            entry = (uop.seq, uop)
            if deps == 0:
                ready_append(entry)
            wrong = uop.wrong_path
            if not wrong:
                rs_correct += 1
                ops = uop.ops
                if ops:
                    rs_vfp += 1
                if deps:
                    nonready_append(entry)
                    if ops:
                        nonready_vfp_append(entry)
            if is_store:
                sq_count += 1
                if not wrong and static.addr >= 0:
                    addr = static.addr
                    prev = pending_stores.get(addr)
                    if prev is not None and prev.waiters is not None:
                        # A younger store takes over the forwarding slot:
                        # wake loads parked on the old one (see _dispatch).
                        waiters = prev.waiters
                        prev.waiters = None
                        for wseq, load in waiters:
                            if load.seq == wseq and load.parked:
                                load.parked = False
                                self._parked -= 1
                                ready_append((wseq, load))
                    pending_stores[addr] = uop
            if wrong:
                n_dispatch_wrong += 1
            else:
                n_dispatch += 1
            last_block_id = uop.block_id
        self._rs_count = rs_count
        self._rs_correct = rs_correct
        self._rs_vfp = rs_vfp
        self.sq_count = sq_count
        if n_dispatch or n_dispatch_wrong:
            self._rs_dirty = True
            if spec_mode and collector is not None and last_block_id >= 0:
                collector.set_block(last_block_id)
        if window_full and head is None and rob:
            head = rob[0]

        # ---- frontend sample + fetch --------------------------------------
        if collector is not None:
            # Sample before fetch can clear a just-ended stall's reason.
            # Frontend.reason inlined (keep the branch order in sync with
            # it): two calls per cycle — the method plus the
            # trace_exhausted property — showed in profiles.
            wrong_path = frontend.wrong_path
            if frontend.waiting_sync is not None:
                fe_reason = Component.UNSCHED
            elif cycle < frontend._stall_until:
                fe_reason = frontend._stall_reason
            elif wrong_path:
                fe_reason = Component.BPRED
            elif (
                frontend._idx >= frontend._count
                and frontend._decoded_idx >= frontend._decoded_len
            ):
                fe_reason = None
            else:
                pending = frontend._pending_instr
                if pending is not None and pending.microcoded:
                    fe_reason = Component.MICROCODE
                else:
                    fe_reason = frontend._last_reason
            wp_active = wrong_path or fe_reason is Component.BPRED
        room = self._uq_size - len(queue)
        if room > 0:
            frontend.deliver(cycle, room, queue)

        # ---- accounting ---------------------------------------------------
        if collector is not None:
            if batch:
                # The blamed-uop sub-signatures cover only what EXACT-mode
                # accountants can read (block_id feeds the speculative
                # counter file, which is None here).  ``False`` marks a
                # field that is provably unread this cycle — the stall
                # branch that would consult it cannot be reached — so
                # cycles may batch across different (unread) micro-ops.
                # Readability is a function of sig-covered fields, so
                # every cycle in a batch agrees with the retained one.
                acc_w = self._acc_width
                if (
                    n_commit >= acc_w
                    and not (
                        window_full
                        and (n_dispatch < acc_w or n_issue < acc_w)
                    )
                ):
                    head_sig: object = False  # f >= 1.0 in every reader
                elif head is None:
                    head_sig = None
                else:
                    head_sig = (
                        head.done, head.is_load, head.dcache_miss,
                        head.issued, head.multi_cycle,
                    )
                # Producer pruning: the issue accountant never reaches
                # prod() when issue is at width, the RS is empty, or the
                # stall is structural; a top-down accountant still reads
                # the producer under structural (its backend split only
                # needs rs non-empty and issue under width), so with one
                # attached only the first two clauses prune.
                if n_issue >= acc_w or rs_empty or (
                    structural and not self._sig_topdown
                ):
                    prod_sig: object = False  # no attached reader reaches it
                    first_producer = None
                else:
                    if first_producer is _PENDING:
                        cache = self._resolve_issue_obs()
                        first_producer = cache[0]
                        oldest_vfp_producer = cache[3]
                    if first_producer is None:
                        prod_sig = None
                    else:
                        prod_sig = (
                            first_producer.is_load,
                            first_producer.dcache_miss,
                            first_producer.issued,
                            first_producer.multi_cycle,
                        )
                if not vfp_in_rs or vu_non_vfp or n_vfp >= self._vec_units:
                    vfp_sig: object = False  # slot loss never reaches it
                    oldest_vfp_producer = None
                else:
                    if oldest_vfp_producer is _PENDING:
                        oldest_vfp_producer = self._resolve_issue_obs()[3]
                    vfp_sig = (
                        None if oldest_vfp_producer is None
                        else oldest_vfp_producer.is_load
                    )
                sig = (
                    n_dispatch, n_issue, n_commit, flops_issued, n_vfp,
                    non_fma_loss, masked, queue_empty, window_full,
                    rob_empty, rs_empty, structural, vfp_in_rs, vu_non_vfp,
                    wp_active, fe_reason, head_sig, prod_sig, vfp_sig,
                    # Top-down reads the wrong-path dispatch count every
                    # cycle; constant otherwise, so the tuple shape (and
                    # the no-top-down batching) is unchanged.
                    n_dispatch_wrong if self._sig_topdown else 0,
                )
                if sig == self._bat_sig:
                    self._bat_k += 1
                    if self._replay_rec:
                        self._replay.note_cycle(sig, 1, True)
                else:
                    self._retain(
                        sig, 1, n_dispatch, n_dispatch_wrong, n_issue,
                        n_issue_wrong, n_commit, flops_issued, n_vfp,
                        non_fma_loss, masked, queue_empty, window_full,
                        rob_empty, rs_empty, structural, vfp_in_rs,
                        vu_non_vfp, vfp_structural, wp_active, fe_reason,
                        head, first_producer, oldest_vfp_producer,
                    )
                    if self._replay_rec:
                        self._replay.note_cycle(sig, 1, False)
            else:
                obs = self._obs
                obs.reset()
                obs.wrong_path_active = wp_active
                obs.fe_reason = fe_reason
                obs.n_dispatch = n_dispatch
                obs.n_dispatch_wrong = n_dispatch_wrong
                obs.uop_queue_empty = queue_empty
                obs.window_full = window_full
                obs.n_issue = n_issue
                obs.n_issue_wrong = n_issue_wrong
                obs.rs_empty = rs_empty
                obs.structural_stall = structural
                obs.first_nonready_producer = first_producer
                obs.n_commit = n_commit
                obs.rob_empty = rob_empty
                obs.rob_head = head
                obs.flops_issued = flops_issued
                obs.n_vfp_issued = n_vfp
                obs.non_fma_loss_lanes = non_fma_loss
                obs.masked_lanes = masked
                obs.vfp_in_rs = vfp_in_rs
                obs.vu_used_by_non_vfp = vu_non_vfp
                obs.vfp_structural = vfp_structural
                obs.oldest_vfp_producer = oldest_vfp_producer
                collector.observe(obs)
        self.cycle = cycle + 1
        if (
            not self._warmed
            and self.committed_instrs >= self.warmup_instructions
        ):
            self._end_warmup()

    def _ff_event(self, cycle: int, k: int) -> None:
        """Fast-forward: jump ``k`` quiescent cycles in one step.

        Batch-aware: when the window's observation signature matches the
        pending batch, the ``k`` cycles merge into it instead of forcing
        a flush on either side; otherwise one ``observe_repeat`` accounts
        them.
        """
        frontend = self.frontend
        room = self._uq_size - len(self.uop_queue)
        frontend.note_skipped_cycles(cycle, k, room > 0)
        self.ff_windows += 1
        self.ff_cycles_skipped += k
        collector = self.collector
        if collector is not None:
            rob = self.rob
            head = rob[0] if rob else None
            rob_empty = not rob
            (
                first_producer,
                structural,
                vfp_in_rs,
                oldest_vfp_producer,
                vfp_structural,
            ) = self._issue_obs_cache
            rs_empty = not self._has_correct_waiting
            queue_empty = not self.uop_queue
            window_full = not queue_empty
            fe_reason = frontend.reason(cycle)
            wp_active = (
                frontend.wrong_path or fe_reason is Component.BPRED
            )
            if self._batch:
                # Same conditional sub-signatures as _step_event; with all
                # counts zero, only the branch conditions can exclude.
                if head is None:
                    head_sig: object = None
                else:
                    head_sig = (
                        head.done, head.is_load, head.dcache_miss,
                        head.issued, head.multi_cycle,
                    )
                if rs_empty or structural:
                    prod_sig: object = False
                    first_producer = None
                else:
                    if first_producer is _PENDING:
                        cache = self._resolve_issue_obs()
                        first_producer = cache[0]
                        oldest_vfp_producer = cache[3]
                    if first_producer is None:
                        prod_sig = None
                    else:
                        prod_sig = (
                            first_producer.is_load,
                            first_producer.dcache_miss,
                            first_producer.issued,
                            first_producer.multi_cycle,
                        )
                if not vfp_in_rs:
                    vfp_sig: object = False
                    oldest_vfp_producer = None
                else:
                    if oldest_vfp_producer is _PENDING:
                        oldest_vfp_producer = self._resolve_issue_obs()[3]
                    vfp_sig = (
                        None if oldest_vfp_producer is None
                        else oldest_vfp_producer.is_load
                    )
                sig = (
                    0, 0, 0, 0.0, 0, 0.0, 0.0, queue_empty, window_full,
                    rob_empty, rs_empty, structural, vfp_in_rs, False,
                    wp_active, fe_reason, head_sig, prod_sig, vfp_sig,
                )
                if sig == self._bat_sig:
                    self._bat_k += k
                    if self._replay_rec:
                        self._replay.note_cycle(sig, k, True)
                else:
                    self._retain(
                        sig, k, 0, 0, 0, 0, 0, 0.0, 0, 0.0, 0.0,
                        queue_empty, window_full, rob_empty, rs_empty,
                        structural, vfp_in_rs, False, vfp_structural,
                        wp_active, fe_reason, head, first_producer,
                        oldest_vfp_producer,
                    )
                    if self._replay_rec:
                        self._replay.note_cycle(sig, k, False)
            else:
                obs = self._obs
                obs.reset()
                obs.rob_empty = rob_empty
                obs.rob_head = head
                obs.first_nonready_producer = first_producer
                obs.structural_stall = structural
                obs.vfp_in_rs = vfp_in_rs
                obs.oldest_vfp_producer = oldest_vfp_producer
                obs.vfp_structural = vfp_structural
                obs.rs_empty = rs_empty
                obs.uop_queue_empty = queue_empty
                obs.window_full = window_full
                obs.fe_reason = fe_reason
                obs.wrong_path_active = wp_active
                collector.observe_repeat(obs, k)
        self.cycle = cycle + k

    # -- quiescent-cycle fast-forward ---------------------------------------------

    def _quiescent_cycles(self, cycle: int) -> int:
        """Length of the provably-stalled window starting at ``cycle``.

        Returns ``k > 0`` only when every stage does nothing for the next
        ``k`` cycles and the per-cycle observation is constant over them:

        * commit blocked (ROB empty or head not done),
        * dispatch blocked (uop queue empty, or its head stopped by a
          full ROB / RS / store queue),
        * issue scan quiet and still valid (checked by the caller via
          ``_rs_quiet``/``_rs_dirty``),
        * no writeback scheduled before ``cycle + k``,
        * frontend inert: stalled past the window, permanently idle, or
          frozen behind a full uop queue.

        ``k`` is bounded by the earliest future event — a completion or
        the frontend stall's expiry — so the window never crosses a cycle
        where anything could change.  In-flight memory fills
        (:meth:`MemoryHierarchy.next_event`) are deliberately *not* part
        of the bound: access timing is computed at request time and no
        memory query happens inside a quiescent window, so a completing
        fill cannot change anything the window observes; demand-miss
        fills coincide with the load's completion event anyway, and
        prefetch fills would only split windows for no reason.  Commit is
        the only place warmup can end, and quiescent windows commit
        nothing, so a window can never cross the warmup boundary.
        """
        rob = self.rob
        if rob and rob[0].done:
            return 0  # commit would retire (and could end warmup / sync)
        queue = self.uop_queue
        if queue:
            head = queue[0]
            if not (
                len(rob) >= self._rob_size
                or self._rs_count >= self._rs_size
                or (head.is_store and self.sq_count >= self._sq_size)
            ):
                return 0  # dispatch would make progress
        completions = self.completions
        wake = min(completions) if completions else math.inf
        if wake <= cycle:
            return 0  # a writeback happens this very cycle
        fe_next = self.frontend.next_event(cycle)
        if fe_next <= cycle:
            room = self._uq_size - len(queue)
            if room > 0:
                return 0  # frontend would deliver into the queue
            # Queue full: _fetch skips deliver() entirely, freezing the
            # frontend (and its reason()) until the core drains the queue.
            fe_next = math.inf
        if fe_next < wake:
            wake = fe_next
        if wake == math.inf:
            return 0  # termination/deadlock: let the normal loop decide
        return int(wake) - cycle

    # -- stages -------------------------------------------------------------------

    def _writeback(self, cycle: int) -> None:
        finishing = self.completions.pop(cycle, None)
        if not finishing:
            return
        self._rs_dirty = True
        release = self._pool.release
        for uop in finishing:
            if uop.squashed:
                # Squash-released work whose completion was still pending;
                # its record becomes recyclable only now.
                release(uop)
                continue
            uop.done = True
            consumers = uop.consumers
            if consumers:
                for consumer in consumers:
                    if consumer.squashed:
                        continue
                    consumer.deps_left -= 1
                    # Sever the back edge so recycling this record cannot
                    # leave a dangling producer reference.  Equivalent for
                    # first_unfinished_producer(): done producers were
                    # skipped anyway.
                    consumer.producers.remove(uop)
                consumers.clear()
            if uop.mispredicted:
                self._squash(uop)
                self.frontend.redirect(cycle)
                if self._spec_mode and self.collector is not None:
                    self.collector.on_squash(uop.block_id)

    def _commit(self, cycle: int, obs: CycleObservation | None) -> None:
        rob = self.rob
        last_writer = self.last_writer
        release = self._pool.release
        width = self.config.commit_width
        n = 0
        while n < width and rob and rob[0].done:
            uop = rob.popleft()
            self.committed_uops += 1
            n += 1
            if uop.is_store:
                self.sq_count -= 1
                addr = uop.uop.addr
                if self.pending_stores.get(addr) is uop:
                    del self.pending_stores[addr]
                    self._rs_dirty = True  # forwarding window closed
            stop = False
            if uop.last_of_instr:
                self.committed_instrs += 1
                instr = uop.instr
                if (
                    uop.is_branch
                    and self._spec_mode
                    and self.collector is not None
                ):
                    self.collector.on_block_commit(uop.block_id)
                if instr is not None and instr.yield_cycles > 0:
                    # Sync point: the core deschedules starting next cycle.
                    if instr.barrier and self._barrier_hook is not None:
                        self.barrier_waiting = True
                        self._barrier_hook(self, instr)
                    else:
                        self.unsched_remaining = instr.yield_cycles
                    stop = True
            # Retirement severs the rename-table entry (rename skips done
            # producers, so dropping it is semantically a no-op) and
            # recycles the record.
            dst = uop.uop.dst
            if dst >= 0 and last_writer[dst] is uop:
                last_writer[dst] = None
            release(uop)
            if stop:
                break
        if obs is not None:
            obs.n_commit = n
            obs.rob_empty = not rob
            obs.rob_head = rob[0] if rob else None

    def _issue_scan(self, cycle: int, obs: CycleObservation | None) -> None:
        """Legacy issue stage: full reservation-station scan.

        Kept behind ``legacy_issue_scan=True`` as the differential
        reference for the event-driven issue phase of :meth:`_step_event`.
        """
        # Note: unpipelined-unit releases coincide with their micro-op's
        # completion, so the writeback dirty flag already covers them.
        if self._rs_quiet and not self._rs_dirty:
            # Nothing changed since a scan that issued nothing: the result
            # is identical.  Fill the observation from the cached scan.
            if obs is not None:
                (
                    obs.first_nonready_producer,
                    obs.structural_stall,
                    obs.vfp_in_rs,
                    obs.oldest_vfp_producer,
                    obs.vfp_structural,
                ) = self._issue_obs_cache
                obs.rs_empty = not self._has_correct_waiting
            return
        fu = self.fu
        config = self.config
        machine_lanes = config.vector_lanes
        pending_stores = self.pending_stores
        # FU availability inlined from FunctionalUnitPool.can_issue/take
        # (two method calls per scanned reservation-station entry).
        free, issue_free, unpipelined = fu.begin_issue(cycle)

        n_issue = 0
        n_issue_wrong = 0
        structural = False
        correct_waiting = 0
        first_nonready: InflightUop | None = None
        vfp_in_rs = False
        vfp_structural = False
        vu_non_vfp = False
        oldest_vfp_nonready: InflightUop | None = None
        flops_issued = 0.0
        n_vfp = 0
        non_fma_loss = 0.0
        masked = 0.0

        new_rs: list[InflightUop] = []
        new_rs_append = new_rs.append
        for uop in self.rs:
            if uop.squashed:
                continue
            static = uop.uop
            if uop.deps_left == 0:
                forward_store: InflightUop | None = None
                conflict = False
                if uop.is_load and not uop.wrong_path:
                    store = pending_stores.get(static.addr)
                    if (
                        store is not None
                        and store.seq < uop.seq
                        and not store.squashed
                    ):
                        if store.done:
                            forward_store = store
                        else:
                            # Address conflict: the load must wait for the
                            # older store (structural 'Other' stall).
                            conflict = True
                if conflict:
                    structural = True
                    correct_waiting += 1
                    new_rs_append(uop)
                    continue
                pool = uop.pool
                if issue_free > 0 and free[pool] > 0:
                    latency = self._execute(uop, cycle, forward_store)
                    issue_free -= 1
                    free[pool] -= 1
                    if pool == POOL_MUL and unpipelined[static.uclass]:
                        fu._reserve_mul(cycle, latency)
                    if uop.wrong_path:
                        n_issue_wrong += 1
                    else:
                        n_issue += 1
                        ops = uop.ops
                        if ops:
                            lanes = static.lanes
                            if lanes > machine_lanes:
                                lanes = machine_lanes
                            flops_issued += ops * lanes
                            n_vfp += 1
                            non_fma_loss += (2 - ops) * lanes
                            masked += machine_lanes - lanes
                        elif uop.is_vu_nonvfp:
                            vu_non_vfp = True
                    continue  # issued: leaves the reservation stations
                structural = True
                if not uop.wrong_path:
                    correct_waiting += 1
                    if uop.ops:
                        vfp_in_rs = True
                        vfp_structural = True
            else:
                if not uop.wrong_path:
                    correct_waiting += 1
                    if first_nonready is None:
                        first_nonready = uop
                    if uop.ops:
                        vfp_in_rs = True
                        if oldest_vfp_nonready is None:
                            oldest_vfp_nonready = uop
            new_rs_append(uop)
        self.rs = new_rs
        self._rs_count = len(new_rs)
        fu._issue_free = issue_free

        first_producer = (
            first_nonready.first_unfinished_producer()
            if first_nonready is not None
            else None
        )
        oldest_vfp_producer = (
            oldest_vfp_nonready.first_unfinished_producer()
            if oldest_vfp_nonready is not None
            else None
        )
        self._rs_dirty = False
        self._rs_quiet = n_issue + n_issue_wrong == 0
        self._has_correct_waiting = correct_waiting > 0
        self._issue_obs_cache = (
            first_producer,
            structural,
            vfp_in_rs,
            oldest_vfp_producer,
            vfp_structural,
        )
        if obs is not None:
            obs.n_issue = n_issue
            obs.n_issue_wrong = n_issue_wrong
            obs.rs_empty = correct_waiting == 0
            obs.structural_stall = structural
            obs.first_nonready_producer = first_producer
            obs.flops_issued = flops_issued
            obs.n_vfp_issued = n_vfp
            obs.non_fma_loss_lanes = non_fma_loss
            obs.masked_lanes = masked
            obs.vfp_in_rs = vfp_in_rs
            obs.vu_used_by_non_vfp = vu_non_vfp
            obs.vfp_structural = vfp_structural
            obs.oldest_vfp_producer = oldest_vfp_producer

    def _resolve_issue_obs(self) -> tuple:
        """Resolve deferred producer fields in ``_issue_obs_cache``.

        Between the select that deferred them and this call, no event
        that could change the answer has occurred (any such event sets
        ``_rs_dirty`` and forces a fresh select), so the resolution is
        identical to eager computation at select time.
        """
        cache = self._issue_obs_cache
        if cache[0] is _PENDING:
            # _oldest_live inlined for both queues (two calls per
            # resolution showed in stall-heavy profiles).
            first_producer = None
            entries = self._nonready
            while entries:
                seq, uop = entries[0]
                if uop.seq == seq and not uop.squashed and uop.deps_left > 0:
                    first_producer = uop.first_unfinished_producer()
                    break
                entries.popleft()
            vfp_producer = None
            entries = self._nonready_vfp
            while entries:
                seq, uop = entries[0]
                if uop.seq == seq and not uop.squashed and uop.deps_left > 0:
                    vfp_producer = uop.first_unfinished_producer()
                    break
                entries.popleft()
            cache = (
                first_producer,
                cache[1],
                cache[2],
                vfp_producer,
                cache[4],
            )
            self._issue_obs_cache = cache
        return cache

    @staticmethod
    def _oldest_live(
        entries: deque[tuple[int, InflightUop]]
    ) -> InflightUop | None:
        """Front of a seq-ordered queue, pruning permanently-dead entries.

        An entry is dead once its record was recycled (snapshotted seq no
        longer matches), its micro-op was squashed, or it became ready
        (``deps_left`` never increases) — all irreversible for that
        dynamic instance, so popped fronts never need to come back.
        """
        while entries:
            seq, uop = entries[0]
            if uop.seq == seq and not uop.squashed and uop.deps_left > 0:
                return uop
            entries.popleft()
        return None

    def _execute(
        self,
        uop: InflightUop,
        cycle: int,
        forward_store: InflightUop | None,
    ) -> int:
        """Start execution; returns the FU occupancy latency."""
        static = uop.uop
        uclass = static.uclass
        uop.issued = True
        if uclass is UopClass.LOAD:
            if uop.wrong_path:
                complete = int(
                    math.ceil(self.hierarchy.probe_latency(static.addr, cycle))
                )
            elif forward_store is not None:
                # Store-to-load forwarding out of the store queue.
                complete = cycle + 1
            else:
                result = self.hierarchy.dload(static.addr, cycle)
                complete = int(math.ceil(result.complete))
                uop.dcache_miss = not result.l1_hit
            latency = 1
        elif uclass is UopClass.STORE:
            if not uop.wrong_path:
                # Stores drain through the store buffer; the access updates
                # cache state and bandwidth but does not stall the pipe.
                self.hierarchy.dstore(static.addr, cycle)
            complete = cycle + 1
            latency = 1
        else:
            latency = self._latency_of[uclass]
            complete = cycle + latency
        if complete <= cycle:
            complete = cycle + 1
        bucket = self.completions.get(complete)
        if bucket is None:
            self.completions[complete] = [uop]
        else:
            bucket.append(uop)
        return latency

    def _dispatch(self, cycle: int, obs: CycleObservation | None) -> None:
        config = self.config
        queue = self.uop_queue
        rob = self.rob
        width = config.dispatch_width
        rob_size = config.rob_size
        rs_size = config.rs_size
        sq_size = config.store_queue_size
        rs_append = self.rs.append
        pending_stores = self.pending_stores
        n = 0
        n_wrong = 0
        queue_empty = False
        window_full = False
        last_block_id = -1
        rename = self._rename
        rob_append = rob.append
        while n + n_wrong < width:
            if not queue:
                queue_empty = True
                break
            uop = queue[0]
            if (
                len(rob) >= rob_size
                or self._rs_count >= rs_size
                or (uop.is_store and self.sq_count >= sq_size)
            ):
                window_full = True
                break
            queue.popleft()
            rename(uop)
            rob_append(uop)
            self._rs_count += 1
            rs_append(uop)
            if uop.is_store:
                self.sq_count += 1
                if not uop.wrong_path and uop.uop.addr >= 0:
                    pending_stores[uop.uop.addr] = uop
            if uop.wrong_path:
                n_wrong += 1
            else:
                n += 1
            last_block_id = uop.block_id
        if n or n_wrong:
            self._rs_dirty = True
            if (
                self._spec_mode
                and self.collector is not None
                and last_block_id >= 0
            ):
                # Accounting happens after dispatch within the cycle, so
                # only the last dispatched micro-op's block matters.
                self.collector.set_block(last_block_id)
        if obs is not None:
            obs.n_dispatch = n
            obs.n_dispatch_wrong = n_wrong
            obs.uop_queue_empty = queue_empty
            obs.window_full = window_full
            if window_full and obs.rob_head is None and rob:
                obs.rob_head = rob[0]

    def _rename(self, uop: InflightUop) -> None:
        last_writer = self.last_writer
        deps = 0
        for src in uop.uop.srcs:
            producer = last_writer[src]
            if (
                producer is not None
                and not producer.done
                and not producer.squashed
            ):
                uop.producers.append(producer)
                producer.consumers.append(uop)
                deps += 1
        # Assigned, not accumulated: pool-recycled records skip the
        # deps_left reset on acquire.
        uop.deps_left = deps
        dst = uop.uop.dst
        if dst >= 0:
            last_writer[dst] = uop

    def _fetch(self, cycle: int) -> None:
        room = self.config.uop_queue_size - len(self.uop_queue)
        if room <= 0:
            return
        self.frontend.deliver(cycle, room, self.uop_queue)

    def _squash(self, branch: InflightUop) -> None:
        """Flush everything younger than the mispredicted ``branch``.

        Squashed records are recycled immediately except issued-but-
        incomplete ones, which a completions bucket still references;
        those are released when their writeback cycle drains the bucket.
        Records still waiting in the reservation stations get their
        dependence edges severed first so a live producer never keeps a
        reference to a recycled consumer.
        """
        boundary = branch.seq
        rob = self.rob
        pending_stores = self.pending_stores
        event = self._event
        releasable: list[InflightUop] = []
        rob_pop = rob.pop
        releasable_append = releasable.append
        rs_count = self._rs_count
        parked = self._parked
        rs_correct = self._rs_correct
        rs_vfp = self._rs_vfp
        while rob and rob[-1].seq > boundary:
            uop = rob_pop()
            uop.squashed = True
            if uop.is_store:
                self.sq_count -= 1
                addr = uop.uop.addr
                if pending_stores.get(addr) is uop:
                    del pending_stores[addr]
            if uop.issued:
                if uop.done:
                    releasable_append(uop)
                # else: a completions bucket still holds it; the skip
                # branch in _writeback releases it.
            else:
                # Still in the reservation stations.
                rs_count -= 1
                if uop.parked:
                    uop.parked = False
                    parked -= 1
                if event and not uop.wrong_path:
                    rs_correct -= 1
                    if uop.ops:
                        rs_vfp -= 1
                for producer in uop.producers:
                    if not producer.done:
                        try:
                            producer.consumers.remove(uop)
                        except ValueError:  # pragma: no cover - defensive
                            pass
                releasable_append(uop)
        self._rs_count = rs_count
        self._parked = parked
        self._rs_correct = rs_correct
        self._rs_vfp = rs_vfp
        for uop in self.uop_queue:
            # Never renamed: no edges to sever.
            uop.squashed = True
            releasable.append(uop)
        self.uop_queue.clear()
        if event and not self._reference:
            # Drop issued-but-incomplete squashed records from their
            # completion buckets so their writeback cycles stop pinning
            # the machine active.  Such a writeback only recycles the
            # record (the squashed branch in _step_event), changing no
            # observable state, and the cycle's signature equals its
            # batch's, so eliding straight across it is bit-identical.
            # Wrong-path loads probe without MSHR entries, so nothing in
            # the memory hierarchy references these records either.
            completions = self.completions
            for when in [
                t for t, bucket in completions.items()
                if any(u.squashed for u in bucket)
            ]:
                live = [u for u in completions[when] if not u.squashed]
                for uop in completions[when]:
                    if uop.squashed:
                        releasable_append(uop)
                if live:
                    completions[when] = live
                else:
                    del completions[when]
        if not event:
            self.rs = [u for u in self.rs if not u.squashed]
            self._rs_count = len(self.rs)
        self._rs_dirty = True
        last_writer: list[InflightUop | None] = [None] * TOTAL_REGS
        for uop in rob:
            dst = uop.uop.dst
            if dst >= 0:
                last_writer[dst] = uop
        self.last_writer = last_writer
        # Recycle after every structure above has been rebuilt: the legacy
        # RS filter and the rename-table rebuild must still see the
        # squashed flags/records in place.  (UopPool.release inlined:
        # mispredict-heavy runs recycle most records through here.)
        free_append = self._pool._free.append
        for uop in releasable:
            uop.producers.clear()
            uop.consumers.clear()
            uop.waiters = None
            free_append(uop)


def simulate(
    program: Program,
    config: CoreConfig,
    *,
    mode: WrongPathMode = WrongPathMode.EXACT,
    accounting: bool = True,
    seed: int = 12345,
    warmup_instructions: int = 0,
    topdown: bool = False,
    reference: bool = False,
    collectors: "tuple[CollectorSpec, ...] | list[CollectorSpec] | None" = None,
) -> SimResult:
    """Convenience wrapper: build a :class:`CoreSimulator` and run it."""
    return CoreSimulator(
        program,
        config,
        mode=mode,
        accounting=accounting,
        seed=seed,
        warmup_instructions=warmup_instructions,
        topdown=topdown,
        reference=reference,
        collectors=collectors,
    ).run()
