"""Production vs the per-cycle reference: one differential matrix.

The production simulator is event driven: a wakeup-fed issue select over
flat array-backed caches and TLBs, with quiescent-cycle fast-forward,
periodic replay, signature-batched accounting and squashed-completion
pruning.  ``reference=True`` is the per-cycle definition the paper's
Table II/III algorithms are written against: the staged
full-reservation-station scan over the dict-backed memory walk, every
cycle stepped and observed.  Every cell here runs both on one trace with
one set of keyword arguments and asserts that every architectural number
of the ``SimResult`` (cycles, CPI and FLOPS stacks, cache, TLB and
predictor statistics) is bit for bit equal, that the reference took no
fast-forward or replay window, and that the production run did skip.

Each distinct production-vs-reference run appears exactly once.  The
grid is {exchange2, spin, mcf, bwaves} x {bdw, knl} x every wrong-path
mode x warmup {0, 200}, plus the DRAM-latency pointer chase and the
microcoded povray at warmup 0, cactus, lbm and deepsjeng on the
small-cache ``tiny`` core (the cells that evict and re-touch lines), mcf
and bwaves at warmup 100 and 350, mcf@bdw variants for the simulator
seed, the top-down collector and an accounting-width override, and the
top-down collector on leela, lbm and a GEMM kernel, whose structural
stalls it blames on a producer.  Beyond that grid, every other distinct
2,000-instruction trace appears: imagick, leela, nab and xz on the tiny
core in every mode and on BDW, KNL and SKX; each grid trace once on SKX;
and one DeepBench convolution or GEMM kernel per distinct trace on KNL,
SKX and the tiny core, and on SKX at warmup 200.
Replay engagement and the unit contracts of each engine live in
``test_fast_forward.py``, ``test_replay.py``, ``test_issue_scheduler.py``
and ``test_memory_hotpath.py``.
"""

from __future__ import annotations

import pytest

from repro.config.presets import (
    broadwell,
    knights_landing,
    skylake_x,
    tiny_core,
)
from repro.core.multistage import CollectorSpec
from repro.core.wrongpath import WrongPathMode
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

N = 2_000

CONFIGS = {"bdw": broadwell, "knl": knights_landing, "skx": skylake_x,
           "tiny": tiny_core}

#: Host-side telemetry: the skip-engine counters legitimately differ.
TELEMETRY = ("wall_seconds", "ff_windows", "ff_cycles_skipped",
             "replay_windows", "replay_cycles_skipped")

#: One DeepBench kernel per distinct 2,000-instruction trace: the
#: layer shapes of one convolution family share their first 2,000
#: instructions, and so do the GEMM sizes of one target.
DEEPBENCH = (
    "conv-vgg-1-fwd", "conv-vgg-1-bwd_d", "conv-vgg-1-bwd_f",
    "conv-resnet-1-fwd", "conv-resnet-1-bwd_d", "conv-resnet-1-bwd_f",
    "conv-resnet-2-fwd", "conv-resnet-2-bwd_d", "conv-resnet-2-bwd_f",
    "gemm-train-1760-knl", "gemm-train-1760-skx",
)

#: mcf@bdw variants: extra keyword arguments for both simulators.
VARIANTS = {
    "seed1": {"seed": 1},
    "seed99": {"seed": 99},
    "seed424242": {"seed": 424242},
    "topdown": {"collector": CollectorSpec(topdown=True)},
    "width2": {"collector": CollectorSpec(accounting_width=2)},
}


def _cells():
    cells = []
    for workload in ("exchange2", "spin", "mcf", "bwaves"):
        for cfg in ("bdw", "knl"):
            for mode in WrongPathMode:
                for warmup in (0, 200):
                    cells.append((workload, cfg, mode, warmup, None))
    for workload in ("chase", "povray"):
        for cfg in ("bdw", "knl"):
            for mode in WrongPathMode:
                cells.append((workload, cfg, mode, 0, None))
    # At this length the BDW and KNL caches barely evict a line that is
    # used again; the tiny core's 2 KiB L1s and 16 KiB L2 do, so these
    # cells are the ones that see the LRU order.
    for workload in ("cactus", "lbm", "deepsjeng"):
        for mode in WrongPathMode:
            cells.append((workload, "tiny", mode, 0, None))
    for workload in ("mcf", "bwaves"):
        for cfg in ("bdw", "knl"):
            for warmup in (100, 350):
                cells.append((workload, cfg, WrongPathMode.EXACT, warmup,
                              None))
    for variant in VARIANTS:
        cells.append(("mcf", "bdw", WrongPathMode.EXACT, 0, variant))
    # Top-down reads the producer under a structural stall, where the
    # multi-stage accountants do not; these traces reach that state.
    for workload, cfg, warmups in (
        ("leela", "knl", (0, 200)), ("leela", "tiny", (0, 200)),
        ("lbm", "bdw", (0,)), ("lbm", "skx", (0,)),
        ("gemm-train-1760-skx", "tiny", (0, 200)),
    ):
        for warmup in warmups:
            cells.append((workload, cfg, WrongPathMode.EXACT, warmup,
                          "topdown"))
    # The rest of the SPEC-like set, and every grid trace once on SKX.
    for workload in ("imagick", "leela", "nab", "xz"):
        for mode in WrongPathMode:
            cells.append((workload, "tiny", mode, 0, None))
        for cfg in ("bdw", "knl", "skx"):
            cells.append((workload, cfg, WrongPathMode.EXACT, 0, None))
    for workload in ("exchange2", "spin", "mcf", "bwaves", "chase", "povray",
                     "cactus", "lbm", "deepsjeng"):
        cells.append((workload, "skx", WrongPathMode.EXACT, 0, None))
    # The FLOPS-stack kernels on the paper's KNL and SKX and on the tiny
    # core.  Their loop nests do not mispredict at this length, so the
    # wrong-path modes would repeat one run; the SKX warmup cells cross
    # the stack reset instead.
    for workload in DEEPBENCH:
        for cfg in ("knl", "skx", "tiny"):
            cells.append((workload, cfg, WrongPathMode.EXACT, 0, None))
        cells.append((workload, "skx", WrongPathMode.EXACT, 200, None))
    return [
        pytest.param(
            *cell,
            id="-".join(
                [cell[0], cell[1], cell[2].name, f"w{cell[3]}"]
                + ([cell[4]] if cell[4] else [])
            ),
        )
        for cell in cells
    ]


#: One trace per workload: building one per cell would dominate runtime.
_TRACES: dict[str, object] = {}


def _trace(workload: str):
    if workload not in _TRACES:
        _TRACES[workload] = make_trace(workload, N, 1)
    return _TRACES[workload]


def _comparable(result) -> dict:
    payload = result.to_dict()
    for key in TELEMETRY:
        payload.pop(key)
    return payload


@pytest.mark.parametrize("workload,cfg,mode,warmup,variant", _cells())
def test_production_equals_reference(workload, cfg, mode, warmup, variant):
    trace = _trace(workload)
    kwargs = dict(mode=mode, warmup_instructions=warmup,
                  **VARIANTS.get(variant, {}))
    fast = CoreSimulator(trace, CONFIGS[cfg](), **kwargs)
    result = fast.run()
    ref = CoreSimulator(trace, CONFIGS[cfg](), reference=True, **kwargs)
    expected = ref.run()
    assert _comparable(result) == _comparable(expected)
    assert expected.ff_windows == expected.ff_cycles_skipped == 0
    assert expected.replay_windows == expected.replay_cycles_skipped == 0
    # Every cell's trace has stalled windows: a production run that skips
    # none would compare the reference against itself.
    assert fast.ff_cycles_skipped > 0, "fast-forward never engaged"
