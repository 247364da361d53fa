"""Shared-memory multi-core engine: N cores over one L3 + DRAM.

:class:`MulticoreSimulator` steps N :class:`CoreSimulator` instances in
cycle lockstep over a :class:`SharedMemoryBackend` (per-core private
L1/L2/TLBs, one shared L3 cache+MSHR file and one DRAM service queue).
Lockstep is enforced by always stepping the unparked, unfinished core
with the minimum ``(cycle, core index)``: no core's clock ever runs
ahead of a sibling that could still issue a shared-level request at an
earlier cycle, so shared-resource arbitration happens in globally
nondecreasing time with a deterministic round-robin tie-break (lowest
core index first among equal cycles).

Barriers (:func:`repro.isa.decoder.barrier` instructions) park the
committing core; when the last unfinished core arrives at cycle
``R = max(t_i)``, every parked core ``i`` resumes with
``unsched_remaining = (R - t_i) + L_i`` where ``L_i`` is its local
release latency — the wait lands in the Unsched accounting component,
exactly like an OS-level futex sleep in the paper's methodology.  Cores
that finish their trace before reaching a barrier count as implicitly
arrived.  A 1-core engine releases a barrier immediately with
``unsched_remaining = L``, which is the plain sync/yield semantics —
the basis of the engine's bitwise 1-core identity guarantee.

Determinism and soundness rules (see DESIGN.md):

* The periodic-replay engine is **disabled** for N > 1: replay
  fingerprints only core-local state, and a skipped period would also
  skip the core's shared-L3/DRAM traffic, corrupting siblings.  The
  1-core engine keeps replay armed (identity with ``CoreSimulator`` is
  proven over the optimized path, not a detuned one).
* Quiescent-cycle fast-forward stays **enabled** for all N: a provably
  quiescent core makes no memory requests inside the window (the wake
  bound covers the frontend too), in-flight completion times were fixed
  when the requests were issued, and the bound is a pure function of
  core-local state — so skipping the window changes no shared state and
  no scheduling decision.
* The engine holds no hidden state besides the barrier bookkeeping:
  results are a pure function of (programs, config, seeds, kwargs),
  byte-identical across runs, processes, and pool start methods.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from repro.config.cores import CoreConfig
from repro.core.multistage import CollectorSpec
from repro.core.wrongpath import WrongPathMode
from repro.isa.instructions import Instruction, Program
from repro.memory.hierarchy import SharedMemoryBackend
from repro.pipeline import checkpoint as _ckpt
from repro.pipeline.core import _MAX_CYCLES_PER_UOP, CoreSimulator
from repro.pipeline.result import SimResult

__all__ = ["MulticoreResult", "MulticoreSimulator"]


class MulticoreResult:
    """Per-core :class:`SimResult` list plus socket-level summaries."""

    __slots__ = ("per_core",)

    def __init__(self, per_core: Sequence[SimResult]) -> None:
        self.per_core = list(per_core)

    @property
    def cores(self) -> int:
        return len(self.per_core)

    @property
    def cycles(self) -> int:
        """Socket makespan: the slowest core's measured cycles."""
        return max(r.cycles for r in self.per_core)

    @property
    def committed_instrs(self) -> int:
        return sum(r.committed_instrs for r in self.per_core)

    @property
    def committed_uops(self) -> int:
        return sum(r.committed_uops for r in self.per_core)

    def fingerprint(self) -> str:
        """Stable content hash over every core's result (order-sensitive)."""
        import hashlib

        digest = hashlib.sha256()
        for result in self.per_core:
            digest.update(result.fingerprint().encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()[:16]


class MulticoreSimulator:
    """Simulates N programs on N cores sharing an L3 and DRAM.

    ``programs[i]`` runs on core ``i`` with seed ``seeds[i]`` (default
    ``seed + i``) and warmup ``warmup_instructions[i]`` (a scalar applies
    to every core).  All other kwargs mirror :class:`CoreSimulator` and
    apply uniformly.

    Guarantee: a 1-core engine is bitwise identical to a standalone
    :class:`CoreSimulator` with the same arguments — same stacks, same
    telemetry.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        config: CoreConfig,
        *,
        mode: WrongPathMode = WrongPathMode.EXACT,
        seed: int = 12345,
        seeds: Sequence[int] | None = None,
        warmup_instructions: int | Sequence[int] = 0,
        reference: bool = False,
        collector: CollectorSpec = CollectorSpec(),
    ) -> None:
        programs = list(programs)
        if not programs:
            raise ValueError("a multi-core simulation needs at least one core")
        if config.memory is None:
            raise ValueError("core configuration needs a memory hierarchy")
        n = len(programs)
        if seeds is None:
            seeds = tuple(seed + i for i in range(n))
        else:
            seeds = tuple(seeds)
            if len(seeds) != n:
                raise ValueError(
                    f"{len(seeds)} seeds for {n} cores; pass one per core"
                )
        if isinstance(warmup_instructions, int):
            warmups = (warmup_instructions,) * n
        else:
            warmups = tuple(warmup_instructions)
            if len(warmups) != n:
                raise ValueError(
                    f"{len(warmups)} warmup counts for {n} cores"
                )
        self.programs = programs
        self.config = config
        self.name = (
            programs[0].name if n == 1 else f"{programs[0].name}(x{n})"
        )
        # One shared back end in the cores' memory representation
        # (MemoryHierarchy raises on a mismatch).
        self.backend = SharedMemoryBackend(
            config.memory, fast_path=not reference
        )
        self.cores: list[CoreSimulator] = []
        for i, program in enumerate(programs):
            core = CoreSimulator(
                program,
                config,
                mode=mode,
                seed=seeds[i],
                warmup_instructions=warmups[i],
                reference=reference,
                collector=collector,
                shared_backend=self.backend,
            )
            core.core_id = i
            core._barrier_hook = self._on_barrier
            if n > 1:
                # Periodic replay is unsound under sharing (a skipped
                # period skips this core's shared-level traffic), so
                # disarm the engine.  1-core keeps it: the identity
                # guarantee must hold over the optimized path.
                core._replay = None
                core._replay_rec = False
            self.cores.append(core)
        #: core_id -> (arrival cycle, local release latency) for cores
        #: currently parked at the pending barrier.
        self._barrier_wait: dict[int, tuple[int, int]] = {}
        self._done = [False] * n
        #: Checkpoint-only reference table, built on the first snapshot.
        self._instruction_refs: dict[int, tuple] | None = None

    # -- barrier protocol --------------------------------------------------------

    def _on_barrier(self, core: CoreSimulator, instr: Instruction) -> None:
        """Commit-time hook: ``core`` arrived at a barrier this cycle."""
        self._barrier_wait[core.core_id] = (core.cycle, instr.yield_cycles)
        self._maybe_release()

    def _maybe_release(self) -> None:
        """Release the barrier once every unfinished core has arrived.

        Finished cores are implicit arrivals.  Each parked core ``i``
        resumes with ``unsched_remaining = (R - t_i) + L_i`` where
        ``R = max(t_i)``: it burns the cross-core wait plus its local
        release latency as pure Unsched cycles (no pipeline activity, no
        memory traffic), so the out-of-order catch-up interleave after a
        release cannot perturb shared state.
        """
        wait = self._barrier_wait
        if not wait:
            return
        done = self._done
        for i, finished in enumerate(done):
            if not finished and i not in wait:
                return
        release = max(arrived for arrived, _ in wait.values())
        for i, (arrived, latency) in wait.items():
            core = self.cores[i]
            core.unsched_remaining = (release - arrived) + latency
            core.barrier_waiting = False
        wait.clear()

    # -- top-level driver --------------------------------------------------------

    def run(
        self,
        max_cycles: int | None = None,
        *,
        checkpoint_interval: int | None = None,
        checkpoint_key: str | None = None,
        on_checkpoint=None,
    ) -> MulticoreResult:
        """Simulate every core to completion; returns per-core results.

        ``max_cycles`` bounds each individual core's clock; the default
        scales with the largest trace (barrier waits and contention are
        covered by the same generous per-uop slack the single-core bound
        uses).  ``checkpoint_interval`` is measured in *total* committed
        instructions across the socket.
        """
        start = time.perf_counter()
        if max_cycles is None:
            biggest = max(p.uop_count for p in self.programs)
            max_cycles = _MAX_CYCLES_PER_UOP * max(biggest, 1) + 200_000
        cores = self.cores
        n = len(cores)
        done = self._done
        for i, core in enumerate(cores):
            done[i] = not core.unfinished()
        # A resumed snapshot may hold parked cores whose release became
        # due exactly at the snapshot boundary; re-check before stepping.
        self._maybe_release()
        interval = checkpoint_interval or 0
        next_due = 0
        if interval:
            next_due = (
                self._total_committed() // interval + 1
            ) * interval
        while True:
            best = -1
            best_cycle = 0
            for i in range(n):
                if done[i]:
                    continue
                core = cores[i]
                if core.barrier_waiting:
                    continue
                cycle = core.cycle
                if best < 0 or cycle < best_cycle:
                    best = i
                    best_cycle = cycle
            if best < 0:
                if all(done):
                    break
                # Unreachable by construction: the last arrival's hook
                # releases synchronously.  Kept as a hard stop so an
                # engine bug deadlocks loudly instead of spinning.
                raise RuntimeError(
                    "multi-core deadlock: every unfinished core is parked"
                )
            core = cores[best]
            core.step_cycle()
            if core.cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(likely a scheduling deadlock) for core {best} "
                    f"running {core.program.name}"
                )
            if not core.unfinished():
                done[best] = True
                # A core finishing is an implicit barrier arrival: the
                # remaining parked set may now be complete.
                self._maybe_release()
            if interval and self._total_committed() >= next_due:
                next_due = (
                    self._total_committed() // interval + 1
                ) * interval
                path = None
                if checkpoint_key is not None:
                    path = _ckpt.checkpoint_path(
                        checkpoint_key, self._total_committed()
                    )
                    _ckpt.save_checkpoint(
                        path, self.snapshot(), self.checkpoint_meta()
                    )
                if on_checkpoint is not None:
                    on_checkpoint(path, self._total_committed())
        return self._finalize(start)

    def _finalize(self, start: float) -> MulticoreResult:
        """Build per-core results (shared wall clock, engine-wide)."""
        return MulticoreResult(
            [core._finalize(start) for core in self.cores]
        )

    def _total_committed(self) -> int:
        return sum(core.committed_instrs for core in self.cores)

    # -- checkpoint / resume -----------------------------------------------------

    def checkpoint_meta(self) -> dict:
        """Human-readable header metadata for a checkpoint file."""
        return {
            "case": self.name,
            "config": self.config.name,
            "committed_instrs": self._total_committed(),
            "committed_uops": sum(c.committed_uops for c in self.cores),
            "cycle": max(c.cycle for c in self.cores),
            "cores": len(self.cores),
        }

    def snapshot(self) -> bytes:
        """Serialize the engine, mid-run, into one payload.

        The engine is pickled as one object graph, for the same
        identity-preservation reason as :meth:`CoreSimulator.snapshot`:
        the shared L3/DRAM back end is stored once, however many cores
        reference it.  The programs are inputs: the payload holds one
        identity per core (memoized on its program) and writes each
        program and its instructions as references.
        """
        return _ckpt.pack_snapshot(self, self.programs)

    def __getstate__(self) -> dict:
        """Pickled state: everything but the checkpoint reference table."""
        state = self.__dict__.copy()
        state["_instruction_refs"] = None
        return state

    @classmethod
    def from_snapshot(
        cls, payload: bytes, programs: Sequence[Program]
    ) -> "MulticoreSimulator":
        """Rebuild a mid-run engine from a :meth:`snapshot` blob.

        ``programs`` must be the per-core traces the snapshot was taken
        with, in core order; a count or identity mismatch raises
        :class:`repro.pipeline.checkpoint.CheckpointError`.
        """
        return _ckpt.unpack_snapshot(payload, list(programs), cls)

    @classmethod
    def resume(
        cls, path: str | Path, programs: Sequence[Program]
    ) -> "MulticoreSimulator":
        """Rebuild an engine from a checkpoint *file* (verified first)."""
        payload, _meta = _ckpt.load_checkpoint(path)
        return cls.from_snapshot(payload, programs)
