"""Shared-memory engine throughput: per-core cost of cycle lockstep.

The multi-core engine steps N cores in cycle lockstep over a shared
L3/DRAM backend in one host thread, so its scheduling loop (the
min-(cycle, index) scan, barrier bookkeeping, shared-level arbitration)
taxes every simulated cycle.  This bench pins that tax with a floor and
reports the contended picture alongside:

* **Floor cell** — a 4-core engine run with contention switched off
  (huge shared L3, zero DRAM bandwidth cost, disjoint per-core
  footprints, no barriers).  The differential suite proves each core's
  result is bitwise identical to a solo ``CoreSimulator`` run there, so
  per-core throughput — committed uops per host-second spent simulating
  that core — divided by the solo run's throughput measures *pure
  engine overhead*.  Lockstep interleaving spreads host time evenly
  across identical cores (host seconds per core = wall / N), so the
  per-core rate equals the aggregate uops-per-wall-second and the ratio
  reduces to aggregate-vs-solo.  It must stay at or above
  :data:`PER_CORE_FLOOR`.

* **Contended cell** — the fig-5 threaded conv kernel on SKX, reported
  without a floor: shared-L3/DRAM contention legitimately inflates
  cycles per uop (that is the effect the engine exists to simulate), so
  uops/s/core drops with simulated slowdown, not engine inefficiency.

Replay is disarmed in every cell: the workloads are periodic, so the
steady-state replay engine would legally skip most of the 1-core run
(it is unsound under sharing and auto-disarmed for N > 1), turning the
ratio into replay-vs-no-replay instead of engine-vs-solo.  The solo
cells null the engine object — the same disarm the multi-core engine
applies to its member cores — keeping both cells on the identical
stepping path.  Fast-forward stays on everywhere; it is sound for any
N.

The measured cells land in ``results/BENCH_multicore.json`` (uploaded
as a CI artifact) next to the committed reference numbers.
"""

from __future__ import annotations

import dataclasses
import json
import time

from repro.config.cores import CacheConfig, DramConfig
from repro.config.presets import skylake_x, tiny_core
from repro.isa import decoder as asm
from repro.pipeline.core import CoreSimulator
from repro.pipeline.multicore import MulticoreSimulator
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_threaded_traces

from benchmarks.conftest import RESULTS_DIR

BASELINE_PATH = RESULTS_DIR / "BENCH_multicore.json"

CORES = 4
REPEATS = 3
FLOOR_INSTRUCTIONS = 8_000
CONV_WORKLOAD = "conv-vgg-2-fwd"
CONV_INSTRUCTIONS = 6_000

#: 4-core engine per-core throughput floor relative to the 1-core solo
#: run on the no-contention cell, same host, no slack (the cells run
#: moments apart in one process, so host drift cancels).  The per-core
#: simulated work is identical by construction and host time divides
#: evenly under lockstep, so anything below 1.0 is engine scheduling
#: overhead.
PER_CORE_FLOOR = 0.6


def _no_contention_config():
    """tiny core whose shared level cannot couple the cores."""
    config = tiny_core()
    memory = dataclasses.replace(
        config.memory,
        l3=CacheConfig(64 * 1024 * 1024, 16, latency=20, mshrs=64),
        dram=DramConfig(latency=60, cycles_per_line=0.0),
    )
    return dataclasses.replace(config, name="tiny-nc", memory=memory)


def _disjoint_load_trace(core: int, n: int):
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


def _solo(trace, config, *, seed):
    """A 1-core simulator with replay disarmed the engine's way.

    The multi-core engine nulls the replay object on every member core
    (recording and silent skipping included); the solo reference must
    step the same code path or the ratio compares recorder overhead,
    not engine overhead.
    """
    sim = CoreSimulator(trace, config, seed=seed)
    sim._replay = None
    sim._replay_rec = False
    return sim


def _best(make_sim):
    best = None
    for _ in range(REPEATS):
        sim = make_sim()
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, result)
    return best


def _floor_cells() -> dict:
    config = _no_contention_config()
    traces = [_disjoint_load_trace(core, FLOOR_INSTRUCTIONS)
              for core in range(CORES)]
    w_solo, r_solo = _best(lambda: _solo(traces[0], config, seed=7))
    w_eng, r_eng = _best(
        lambda: MulticoreSimulator(
            traces, config,
            seeds=tuple(7 + i for i in range(CORES)),
        )
    )
    solo_rate = r_solo.committed_uops / w_solo
    # Host seconds per core = wall / N under lockstep, so the per-core
    # rate (uops/N) / (wall/N) collapses to the aggregate
    # uops-per-wall-second.
    engine_rate = r_eng.committed_uops / w_eng
    return {
        "config": config.name,
        "instructions": FLOOR_INSTRUCTIONS,
        "single": {
            "cores": 1,
            "wall_seconds": round(w_solo, 4),
            "committed_uops": r_solo.committed_uops,
            "cycles": r_solo.cycles,
            "uops_per_second_per_core": round(solo_rate),
        },
        "engine": {
            "cores": CORES,
            "wall_seconds": round(w_eng, 4),
            "host_seconds_per_core": round(w_eng / CORES, 4),
            "committed_uops": r_eng.committed_uops,
            "makespan_cycles": r_eng.cycles,
            "uops_per_second_per_core": round(engine_rate),
        },
        "per_core_ratio": round(engine_rate / solo_rate, 3),
    }


def _contended_cells() -> dict:
    config = skylake_x()
    (solo_trace,) = make_threaded_traces(
        CONV_WORKLOAD, 1, CONV_INSTRUCTIONS, seed=3
    )
    traces = make_threaded_traces(
        CONV_WORKLOAD, CORES, CONV_INSTRUCTIONS, seed=3
    )
    w_solo, r_solo = _best(lambda: _solo(solo_trace, config, seed=7))
    w_eng, r_eng = _best(
        lambda: MulticoreSimulator(traces, config, seed=7)
    )
    solo_rate = r_solo.committed_uops / w_solo
    engine_rate = r_eng.committed_uops / w_eng
    total_cycles = sum(r.cycles for r in r_eng.per_core)
    return {
        "workload": CONV_WORKLOAD,
        "config": config.name,
        "instructions": CONV_INSTRUCTIONS,
        "single": {
            "cores": 1,
            "wall_seconds": round(w_solo, 4),
            "committed_uops": r_solo.committed_uops,
            "cycles": r_solo.cycles,
            "uops_per_second_per_core": round(solo_rate),
        },
        "engine": {
            "cores": CORES,
            "wall_seconds": round(w_eng, 4),
            "host_seconds_per_core": round(w_eng / CORES, 4),
            "committed_uops": r_eng.committed_uops,
            "makespan_cycles": r_eng.cycles,
            "core_cycles": total_cycles,
            "uops_per_second_per_core": round(engine_rate),
            "core_cycles_per_second": round(total_cycles / w_eng),
        },
        "per_core_ratio": round(engine_rate / solo_rate, 3),
        "note": (
            "informational: contention inflates simulated cycles/uop, so "
            "this ratio measures simulated slowdown, not engine overhead"
        ),
    }


def test_engine_per_core_throughput_floor():
    floor = _floor_cells()
    contended = _contended_cells()
    payload = {
        "bench": "multicore",
        "cores": CORES,
        "repeats": REPEATS,
        "per_core_floor": PER_CORE_FLOOR,
        "replay": "disarmed in every cell",
        "no_contention": floor,
        "contended_conv": contended,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nno-contention: solo "
        f"{floor['single']['uops_per_second_per_core']:,} uops/s/core, "
        f"{CORES}-core engine "
        f"{floor['engine']['uops_per_second_per_core']:,} uops/s/core "
        f"(ratio {floor['per_core_ratio']:.2f}, floor {PER_CORE_FLOOR}); "
        f"contended conv ratio {contended['per_core_ratio']:.2f} "
        f"(informational)"
    )
    assert floor["per_core_ratio"] >= PER_CORE_FLOOR, (
        f"engine per-core throughput ratio {floor['per_core_ratio']:.3f} "
        f"fell below the {PER_CORE_FLOOR} floor ({floor})"
    )
