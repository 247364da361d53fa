"""Differential tests for the shared-memory multi-core engine.

The engine's correctness contract has two pillars:

* **1-core identity**: a 1-core :class:`MulticoreSimulator` is bitwise
  identical to a plain :class:`CoreSimulator` — same stacks, telemetry
  and serialized payloads — across presets, wrong-path modes and warmup
  settings.  The lockstep scheduler, the shared-backend plumbing and the
  barrier hook must all be invisible at N=1.

* **Contention oracle**: with shared-resource contention switched off
  (infinite shared-L3 capacity and MSHRs, zero DRAM bandwidth cost,
  disjoint per-core footprints, no barriers), an N-core engine run is
  exactly N independent single-core runs.  With contention on, per-core
  cycle counts are monotonically non-decreasing in the core count and
  the growth is absorbed by the memory components and the barrier-wait
  ``Unsched`` component — per-core stacks always sum to per-core cycles.

Determinism is the third pillar: repeated runs are byte-identical, seeds
are plumbed per core, and harness scheduling (serial vs fork/spawn
pools) never changes a result.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import pytest

from repro.config.cores import CacheConfig, DramConfig
from repro.config.presets import broadwell, tiny_core
from repro.core import invariants
from repro.core.components import Component
from repro.core.wrongpath import WrongPathMode
from repro.experiments import runner
from repro.experiments.cache import TELEMETRY, CaseSpec, Job
from repro.experiments.multicore import simulate_socket
from repro.experiments.parallel import run_cases, run_multicore_cases
from repro.isa import decoder as asm
from repro.pipeline.core import CoreSimulator
from repro.pipeline.multicore import MulticoreSimulator
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.deepbench import threaded_conv_traces
from repro.workloads.registry import make_threaded_traces, make_trace

N = 2000


def _comparable(result) -> dict:
    payload = result.to_dict()
    payload.pop("wall_seconds")
    return payload


def _per_core_comparable(results) -> list[dict]:
    return [_comparable(r) for r in results]


# ---------------------------------------------------------------------------
# pillar 1: 1-core identity


@pytest.mark.parametrize("preset", [tiny_core, broadwell])
@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 600])
def test_one_core_engine_is_bitwise_identical(preset, mode, warmup):
    config = preset()
    trace = make_trace("mcf", N, seed=3)
    single = CoreSimulator(
        trace, config, mode=mode, warmup_instructions=warmup, seed=7
    ).run()
    multi = MulticoreSimulator(
        [trace], config, mode=mode, warmup_instructions=warmup, seeds=(7,)
    ).run()
    assert multi.cores == 1
    assert _comparable(multi.per_core[0]) == _comparable(single)


def test_one_core_engine_matches_across_workload_character():
    """The identity holds on memory-, branch- and sync-heavy traces."""
    config = tiny_core()
    for name in ("mcf", "leela", "conv-vgg-2-fwd"):
        trace = make_trace(name, N, seed=3)
        single = CoreSimulator(trace, config, seed=7).run()
        multi = MulticoreSimulator([trace], config, seeds=(7,)).run()
        assert _comparable(multi.per_core[0]) == _comparable(single), name


def test_one_core_engine_checkpoint_resume_is_identical(tmp_path):
    from repro.pipeline import checkpoint as ckpt

    config = tiny_core()
    trace = make_trace("mcf", N, seed=3)
    baseline = MulticoreSimulator([trace], config, seeds=(7,)).run()

    saved = []

    def capture(path, instrs):
        saved.append((path, instrs))

    sim = MulticoreSimulator([trace], config, seeds=(7,))
    sim.run(
        checkpoint_interval=500, checkpoint_key="one-core-engine",
        on_checkpoint=capture,
    )
    assert saved, "no checkpoint was ever taken"
    path, _instrs = saved[0]
    resumed = MulticoreSimulator.resume(path, [trace]).run()
    assert _per_core_comparable(resumed.per_core) == (
        _per_core_comparable(baseline.per_core)
    )
    ckpt.clear_checkpoints("one-core-engine")


# ---------------------------------------------------------------------------
# pillar 3: determinism


def test_n_core_repeat_runs_are_byte_identical():
    config = tiny_core()
    traces = make_threaded_traces("conv-vgg-2-fwd", 2, 4000, seed=3)
    first = MulticoreSimulator(traces, config, seed=11).run()
    second = MulticoreSimulator(traces, config, seed=11).run()
    assert first.fingerprint() != ""
    assert _per_core_comparable(first.per_core) == (
        _per_core_comparable(second.per_core)
    )


def test_per_core_seeds_are_plumbed():
    """Explicit per-core seeds reach the cores; different seeds on a
    branchy workload change the wrong-path fingerprint."""
    config = tiny_core()
    traces = [make_trace("leela", N, seed=3), make_trace("leela", N, seed=4)]
    base = MulticoreSimulator(traces, config, seeds=(7, 8)).run()
    # Same seeds again: identical.
    again = MulticoreSimulator(traces, config, seeds=(7, 8)).run()
    assert _per_core_comparable(base.per_core) == (
        _per_core_comparable(again.per_core)
    )
    # Per-core runs with the same seed must match the engine's cores
    # when contention cannot occur (exchange2/leela barely touch memory,
    # but use the no-contention config to be exact).
    solo = [
        CoreSimulator(traces[i], config, seed=(7, 8)[i]).run()
        for i in range(2)
    ]
    for engine_result, solo_result in zip(base.per_core, solo):
        assert engine_result.committed_instrs == solo_result.committed_instrs


def test_engine_checkpoint_resume_n_cores(tmp_path):
    from repro.pipeline import checkpoint as ckpt

    config = tiny_core()
    traces = make_threaded_traces("conv-vgg-2-fwd", 2, 4000, seed=3)
    baseline = MulticoreSimulator(traces, config, seed=11).run()

    saved = []
    sim = MulticoreSimulator(traces, config, seed=11)
    sim.run(
        checkpoint_interval=1000, checkpoint_key="two-core-engine",
        on_checkpoint=lambda path, instrs: saved.append(path),
    )
    assert saved
    resumed = MulticoreSimulator.resume(saved[len(saved) // 2], traces).run()
    assert _per_core_comparable(resumed.per_core) == (
        _per_core_comparable(baseline.per_core)
    )
    ckpt.clear_checkpoints("two-core-engine")


class _Interrupted(Exception):
    pass


def _socket_checkpoint(traces, config, key: str):
    """Run a socket to its second checkpoint and die; returns the file."""
    seen = []

    def hook(path, instrs):
        seen.append(path)
        if len(seen) == 2:
            raise _Interrupted

    with pytest.raises(_Interrupted):
        MulticoreSimulator(traces, config, seed=11).run(
            checkpoint_interval=1000, checkpoint_key=key, on_checkpoint=hook,
        )
    return seen[-1]


def test_four_core_payload_holds_no_program(monkeypatch):
    """A socket snapshot carries state only: every trace instruction is
    a reference, and no Program or Instruction is pickled."""
    from repro.isa.instructions import Instruction, Program
    from repro.pipeline import checkpoint as ckpt

    class Strict(ckpt._SnapshotPickler):
        def reducer_override(self, obj):
            if isinstance(obj, (Instruction, Program)):
                raise AssertionError(
                    f"snapshot payload serializes a {type(obj).__name__}"
                )
            return NotImplemented

    monkeypatch.setattr(ckpt, "_SnapshotPickler", Strict)
    config = tiny_core()
    traces = make_threaded_traces("conv-vgg-2-fwd", 4, 4000, seed=3)
    baseline = MulticoreSimulator(traces, config, seed=11).run()
    path = _socket_checkpoint(traces, config, "strict-socket")
    resumed = MulticoreSimulator.resume(path, traces).run()
    assert _per_core_comparable(resumed.per_core) == (
        _per_core_comparable(baseline.per_core)
    )
    ckpt.clear_checkpoints("strict-socket")


def test_socket_resume_refuses_different_programs():
    from repro.pipeline import checkpoint as ckpt

    config = tiny_core()
    traces = make_threaded_traces("conv-vgg-2-fwd", 2, 4000, seed=3)
    path = _socket_checkpoint(traces, config, "socket-mismatch")
    others = {
        "core count": traces + traces[:1],
        "core order": traces[::-1],
        "workload": make_threaded_traces(
            "conv-resnet-2-fwd", 2, 4000, seed=3
        ),
        "length": make_threaded_traces("conv-vgg-2-fwd", 2, 5000, seed=3),
    }
    for what, wrong in others.items():
        with pytest.raises(ckpt.CheckpointError):
            MulticoreSimulator.resume(path, wrong)
            pytest.fail(f"resumed into programs with a different {what}")
    assert MulticoreSimulator.resume(path, traces).cores[0].cycle > 0
    ckpt.clear_checkpoints("socket-mismatch")


def test_mismatching_socket_checkpoint_is_evicted():
    """Runner level: a socket checkpoint taken with other programs under
    this case's key is evicted; the case restarts fresh and finishes
    bitwise identical to an uninterrupted run."""
    from repro.pipeline import checkpoint as ckpt

    spec = CaseSpec(
        workload="conv-vgg-2-fwd", preset="tiny", instructions=4000,
        seed=3, cores=2,
    )
    clean, _ = runner.execute_spec_checkpointed(Job((spec,)), None)
    other = make_threaded_traces("conv-resnet-2-fwd", 2, 4000, seed=3)
    foreign = _socket_checkpoint(
        other, spec.resolved_config(), "socket-foreign"
    )
    planted = ckpt.checkpoint_path(spec.key(), 10**9)
    planted.parent.mkdir(parents=True, exist_ok=True)
    foreign.replace(planted)
    TELEMETRY.reset()
    results, resumed_from = runner.execute_spec_checkpointed(
        Job((spec,)), 1000
    )
    assert resumed_from is None
    assert TELEMETRY.resume_events == 0
    assert not planted.exists()
    assert _per_core_comparable(results) == _per_core_comparable(clean)
    ckpt.clear_checkpoints(spec.key())
    ckpt.clear_checkpoints("socket-foreign")


@pytest.mark.parametrize(
    "method",
    [
        pytest.param(None, id="serial"),
        pytest.param("fork"),
        pytest.param("spawn", marks=pytest.mark.slow),
    ],
)
def test_socket_telemetry_counts_every_core(method):
    """A socket is one simulator invocation carrying the committed uops
    of all its cores, whether it ran in-process or in a pool worker."""
    if method and method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    specs = [
        CaseSpec(
            workload="conv-vgg-2-fwd", preset="tiny", instructions=4000,
            seed=3, cores=cores,
        )
        for cores in (2, 3)
    ]
    TELEMETRY.reset()
    sockets = run_multicore_cases(
        specs, jobs=1 if method is None else 2, use_cache=False,
        mp_start_method=method,
    )
    assert TELEMETRY.sim_invocations == len(specs)
    assert TELEMETRY.uops_simulated == sum(
        result.committed_uops for socket in sockets for result in socket
    )


@pytest.mark.parametrize(
    "method",
    [
        pytest.param("fork"),
        pytest.param("spawn", marks=pytest.mark.slow),
    ],
)
def test_multicore_batch_serial_vs_pool_identical(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    specs = [
        CaseSpec(
            workload="conv-vgg-2-fwd", preset="tiny", instructions=4000,
            seed=3, cores=cores,
        )
        for cores in (1, 2)
    ]
    serial = run_multicore_cases(specs, jobs=1)
    runner.clear_cache()
    pooled = run_multicore_cases(specs, jobs=4, mp_start_method=method)
    for serial_socket, pooled_socket in zip(serial, pooled):
        assert _per_core_comparable(serial_socket) == (
            _per_core_comparable(pooled_socket)
        )


def test_multicore_batch_second_run_from_cache():
    spec = CaseSpec(
        workload="conv-vgg-2-fwd", preset="tiny", instructions=4000,
        seed=3, cores=2,
    )
    first = run_multicore_cases([spec], jobs=1)
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    second = run_multicore_cases([spec], jobs=1)
    assert TELEMETRY.sim_invocations == 0, (
        "warm-cache multicore rerun must not invoke the engine"
    )
    assert _per_core_comparable(first[0]) == _per_core_comparable(second[0])


def test_one_core_socket_spec_is_the_historical_case():
    """cores=1 keeps the historical cache key and the plain trace."""
    spec_multi = CaseSpec(
        workload="mcf", preset="tiny", instructions=N, seed=3, cores=1
    )
    spec_single = CaseSpec(
        workload="mcf", preset="tiny", instructions=N, seed=3
    )
    assert spec_multi.key() == spec_single.key()
    assert spec_multi.member_key(0) == spec_single.key()
    (per_core,) = run_multicore_cases([spec_multi], jobs=1)
    direct = runner.run_spec(spec_single)
    assert len(per_core) == 1
    assert _comparable(per_core[0]) == _comparable(direct)


def test_multicore_keys_leave_single_core_fingerprints_untouched():
    base = CaseSpec(workload="mcf", preset="tiny", instructions=N)
    multi = CaseSpec(workload="mcf", preset="tiny", instructions=N, cores=4)
    assert "cores" not in base.timing_fingerprint()
    assert multi.timing_fingerprint()["cores"] == 4
    assert multi.timing_fingerprint()["multicore_schema"] == 1
    assert multi.member_key(0) != multi.member_key(1)
    assert multi.label().endswith("x4")
    with pytest.raises(ValueError):
        CaseSpec(workload="mcf", preset="tiny", cores=0)


def test_run_cases_rejects_multicore_specs():
    with pytest.raises(ValueError, match="run_multicore_cases"):
        run_cases(
            [CaseSpec(workload="mcf", preset="tiny", cores=2)], jobs=1
        )


# ---------------------------------------------------------------------------
# pillar 2: contention oracle


def _no_contention_config():
    """tiny core with a shared level that cannot couple the cores:
    enormous shared L3 and MSHR pool, DRAM with latency but zero
    per-line bandwidth cost."""
    config = tiny_core()
    memory = dataclasses.replace(
        config.memory,
        l3=CacheConfig(64 * 1024 * 1024, 16, latency=20, mshrs=64),
        dram=DramConfig(latency=60, cycles_per_line=0.0),
    )
    return dataclasses.replace(config, name="tiny-nc", memory=memory)


def _disjoint_load_trace(core: int, n: int) -> "Program":
    """A barrier-free load/ALU loop over a per-core-disjoint footprint."""
    b = TraceBuilder(f"disjoint-t{core}", seed=1 + core)
    base = DATA_BASE + core * 0x100_0000
    pc0 = b.pc
    for i in range(n):
        b.at(pc0 + (i % 8) * 4)
        if i % 3 == 0:
            addr = base + (i * 7 % 512) * 64
            b.emit(asm.load(b.pc, dst=2, addr=addr, addr_srcs=(1,)))
        else:
            reg = 2 + i % 4
            b.emit(asm.alu(b.pc, dst=reg, srcs=(reg,)))
    return b.program()


def test_no_contention_engine_equals_independent_cores():
    """Infinite shared bandwidth/capacity: N-core == N solo runs."""
    config = _no_contention_config()
    traces = [_disjoint_load_trace(core, N) for core in range(3)]
    engine = MulticoreSimulator(
        traces, config, seeds=(7, 8, 9)
    ).run()
    for core, trace in enumerate(traces):
        solo = CoreSimulator(
            trace, config, seed=7 + core
        ).run()
        assert engine.per_core[core].cycles == solo.cycles, f"core {core}"
        engine_report = engine.per_core[core].report
        solo_report = solo.report
        for stage in ("dispatch", "issue", "commit"):
            assert getattr(engine_report, stage).to_dict() == (
                getattr(solo_report, stage).to_dict()
            ), f"core {core} {stage}"


def _contended_config():
    """tiny core with a small shared L3 and slow, narrow DRAM."""
    config = tiny_core()
    memory = dataclasses.replace(
        config.memory,
        l3=CacheConfig(8 * 1024, 2, latency=20, mshrs=2),
        dram=DramConfig(latency=120, cycles_per_line=16.0),
    )
    return dataclasses.replace(config, name="tiny-ct", memory=memory)


def test_contended_cycles_monotonic_in_core_count():
    """Adding cores to a contended socket never speeds a core up, and
    the slowdown is absorbed by memory components plus Unsched.

    Every core runs the *same* program at every core count (disjoint
    footprints, no barriers), so core ``i``'s cycle count is directly
    comparable across socket sizes.
    """
    config = _contended_config()
    traces = [_disjoint_load_trace(core, N) for core in range(4)]
    per_count: dict[int, list] = {}
    for cores in (1, 2, 4):
        result = MulticoreSimulator(
            traces[:cores], config,
            seeds=tuple(7 + i for i in range(cores)),
        ).run()
        per_count[cores] = list(result.per_core)
    for smaller, larger in ((1, 2), (2, 4)):
        for core in range(smaller):
            assert (
                per_count[larger][core].cycles
                >= per_count[smaller][core].cycles
            ), f"core {core} sped up going {smaller} -> {larger} cores"
    # Per-core stacks always sum to per-core cycles (invariant guard)...
    for cores in (2, 4):
        for result in per_count[cores]:
            assert not invariants.check_result(result)
    # ...and the whole slowdown lands in the memory + Unsched components
    # (the work per core is identical, so base/ALU/branch terms cannot
    # move).
    solo = per_count[1][0].report.commit
    contended = per_count[4][0].report.commit
    delta_cycles = per_count[4][0].cycles - per_count[1][0].cycles
    assert delta_cycles > 0, "the contended config produced no contention"
    absorbed = (
        contended.get(Component.DCACHE) - solo.get(Component.DCACHE)
    ) + (
        contended.get(Component.UNSCHED) - solo.get(Component.UNSCHED)
    )
    assert absorbed == pytest.approx(delta_cycles, rel=0.01)


def conv_cfg():
    from repro.workloads.deepbench import conv_configs

    for cfg in conv_configs():
        if cfg.name == "conv-vgg-2":
            return cfg
    raise AssertionError("conv-vgg-2 config missing")


def test_unsched_absorbs_injected_imbalance():
    """A 2-core socket with one idle-ish core: the light core's barrier
    waits show up as Unsched and its stack still sums to its cycles."""
    config = tiny_core()
    traces = threaded_conv_traces(
        conv_cfg(), "fwd", 2, 3000, seed=3, imbalance=1.0
    )
    result = MulticoreSimulator(traces, config, seed=11).run()
    light, heavy = result.per_core
    assert light.committed_instrs < heavy.committed_instrs
    light_unsched = light.report.commit.get(Component.UNSCHED)
    heavy_unsched = heavy.report.commit.get(Component.UNSCHED)
    assert light_unsched > heavy_unsched > 0
    for core_result in result.per_core:
        assert not invariants.check_result(core_result)


# ---------------------------------------------------------------------------
# simulate_socket ordering + engine integration


def test_simulate_socket_homogeneous_thread_order_is_pinned():
    """per_thread[i] is thread i (trace seed base_seed + i), regardless
    of batch scheduling: the regression guard for the old dict-iteration
    ordering bug."""
    config = tiny_core()
    socket = simulate_socket(
        "leela", config, threads=3, instructions=N, base_seed=5,
        jobs=1, homogeneous=True,
    )
    for thread in range(3):
        direct = runner.run_spec(
            CaseSpec(
                workload="leela", config=config, instructions=N,
                seed=5 + thread, sim_seed=5 + 1000 + thread,
            )
        )
        assert _comparable(socket.per_thread[thread]) == (
            _comparable(direct)
        ), f"thread {thread} out of order"


def test_simulate_socket_engine_runs_contended_cores():
    config = tiny_core()
    socket = simulate_socket(
        "conv-vgg-2-fwd", config, threads=2, instructions=4000,
        base_seed=3, jobs=1,
    )
    assert socket.threads == 2
    assert len(socket.per_thread) == 2
    assert any(
        r.report.commit.get(Component.UNSCHED) > 0
        for r in socket.per_thread
    )
    # Aggregation follows the paper's rules on the engine results too.
    expected = sum(
        r.report.commit.total() for r in socket.per_thread
    ) / 2
    assert socket.commit.total() == pytest.approx(expected)
