"""Memory fast path: fast-vs-legacy throughput ratios and pinned floors.

The allocation-free memory hot path (flat array-backed cache/TLB sets,
interned hit results) and the skip engines it runs with are proven
bitwise-identical to the per-cycle reference (``reference=True``: the
dict-backed walk, no fast-forward, no replay) by
``tests/test_memory_hotpath.py``; this bench pins down that the
production path is also *fast*, two ways:

* **fast_vs_legacy** — same host, same moment: the production path
  (``fast``) against the ``reference=True`` run (``legacy``),
  best-of-``REPEATS`` interleaved.  Host-drift-immune, enforced by
  :data:`FAST_VS_LEGACY_FLOORS` without slack.
* **active_uops_per_second vs the PR 8 pins** — the committed
  ``results/BENCH_simulator_speed.json`` ``ff_off`` throughputs from
  before this optimization landed (recorded below as
  :data:`PR8_ACTIVE_BASELINE`), enforced by :data:`PR8_SPEEDUP_FLOORS`.

Where the floors landed, honestly: the ≥2x target holds (with 3x+
margin) on the designated memory-bound trace (``chase``, a DRAM-latency
pointer chase — the workload whose active cycles the memory walk
dominated) and on the two loop traces (``exchange2``/``spin``, which the
production path's replay engine accelerates ~5x — far above their
1.1x requirement).  ``mcf`` and
``bwaves`` gain 1.3–1.6x: their active-cycle profiles are dominated by
wrong-path micro-op churn under branch mispredicts (mcf: ~52k
synthesized wrong-path uops per 8k committed) and by dispatch/issue
bookkeeping (bwaves), not by the memory walk this PR removes, so their
floors are pinned at the measured-with-margin 1.25x/1.15x.  The
per-subsystem evidence lives in DESIGN.md §10.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.config.presets import broadwell, knights_landing
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_memory_hotpath.json"

#: Same cells as ``bench_simulator_speed``: (workload, kind, instructions).
MATRIX = (
    ("chase", "memory-bound", 6_000),
    ("mcf", "memory-bound", 8_000),
    ("bwaves", "memory-bound", 10_000),
    ("exchange2", "compute-bound", 30_000),
    ("spin", "compute-bound", 30_000),
)

CONFIGS = (("bdw", broadwell), ("knl", knights_landing))

#: PR 8 ``ff_off`` throughput pins: the ``uops_per_second`` of the
#: committed ``results/BENCH_simulator_speed.json`` as of commit 314aa5c
#: (fused multi-accountant execution — the last state of the simulator
#: before the memory fast path).  ``active_uops_per_second`` is the
#: production path's throughput (the kwargs pinned then ran the same
#: path), so these are the denominators for its speedup floors.
PR8_ACTIVE_BASELINE = {
    ("chase", "bdw"): 7_002,
    ("chase", "knl"): 8_814,
    ("mcf", "bdw"): 11_650,
    ("mcf", "knl"): 16_311,
    ("bwaves", "bdw"): 29_367,
    ("bwaves", "knl"): 34_090,
    ("exchange2", "bdw"): 202_750,
    ("exchange2", "knl"): 176_684,
    ("spin", "bdw"): 86_708,
    ("spin", "knl"): 123_717,
}

#: Speedup floors on ``active_uops_per_second`` versus
#: :data:`PR8_ACTIVE_BASELINE`, enforced without slack (the pins are
#: fixed numbers, so host drift eats into the margin; the floors leave
#: at least ~20% under the measured best-of-5 ratios).
PR8_SPEEDUP_FLOORS = {
    "chase": 2.0,
    "exchange2": 2.0,
    "spin": 2.0,
    "mcf": 1.25,
    "bwaves": 1.15,
}

#: Same-host fast-vs-legacy ratio floors (wall-clock ratio of the two
#: interleaved variants, immune to host drift), no slack.
FAST_VS_LEGACY_FLOORS = {
    "chase": 3.0,
    "exchange2": 2.5,
    "spin": 2.5,
    "mcf": 1.2,
    "bwaves": 1.1,
}

#: Committed-baseline slack for the absolute-throughput floors derived
#: from this bench's own committed JSON (CI and developer hosts differ).
SLACK = 0.25

REPEATS = 5

#: The two timed variants: (name, reference).  ``legacy`` is the true
#: every-cycle reference; ``fast`` is the production path.
_VARIANTS = (
    ("fast", False),
    ("legacy", True),
)


def _time_cell(workload: str, instructions: int, config_fn) -> dict:
    """Best-of-``REPEATS`` for both variants, interleaved round-robin so
    a transient host-load spike lands on both instead of skewing the
    ratio the floors are built from."""
    best: dict[str, tuple] = {}
    for _ in range(REPEATS):
        for name, reference in _VARIANTS:
            trace = make_trace(workload, instructions, 1)
            sim = CoreSimulator(trace, config_fn(), reference=reference)
            start = time.perf_counter()
            result = sim.run()
            wall = time.perf_counter() - start
            if name not in best or wall < best[name][0]:
                best[name] = (wall, result)
    cells = {}
    for name, (wall, result) in best.items():
        cells[name] = {
            "wall_seconds": round(wall, 4),
            "uops_per_second": round(result.committed_uops / wall),
            "committed_uops": result.committed_uops,
            "cycles": result.cycles,
        }
    return cells


def _committed_floor(baseline: dict | None, workload: str, cfg: str) -> int:
    """Floor from the committed JSON (0 only when there is none); a
    missing cell raises, so a renamed cell cannot disable its floor."""
    if baseline is None:
        return 0
    cell = baseline["workloads"][workload]["configs"][cfg]
    return int(cell["fast"]["uops_per_second"] * SLACK)


def test_memory_hotpath_speed(reporter):
    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    workloads: dict[str, dict] = {}
    for workload, kind, instructions in MATRIX:
        configs: dict[str, dict] = {}
        for cfg_name, cfg_fn in CONFIGS:
            timed = _time_cell(workload, instructions, cfg_fn)
            fast, legacy = timed["fast"], timed["legacy"]
            ratio = round(
                legacy["wall_seconds"] / fast["wall_seconds"], 2
            )
            active = fast["uops_per_second"]
            pinned = PR8_ACTIVE_BASELINE[(workload, cfg_name)]
            pr8_speedup = round(active / pinned, 2)
            configs[cfg_name] = {
                "fast": fast,
                "legacy": legacy,
                "fast_vs_legacy": ratio,
                "active_uops_per_second": active,
                "pr8_baseline": pinned,
                "speedup_vs_pr8": pr8_speedup,
            }
            reporter.emit(
                f"{workload:10s} {cfg_name} ({kind}): "
                f"fast={fast['wall_seconds']:.3f}s "
                f"legacy={legacy['wall_seconds']:.3f}s "
                f"ratio={ratio}x  "
                f"active={active:,} uops/s "
                f"({pr8_speedup}x vs PR 8 pin {pinned:,})"
            )
        workloads[workload] = {
            "kind": kind, "instructions": instructions, "configs": configs,
        }

    payload = {
        "bench": "memory_hotpath",
        "repeats": REPEATS,
        "baseline_slack": SLACK,
        "pr8_active_baseline": {
            f"{wl}/{cfg}": v
            for (wl, cfg), v in PR8_ACTIVE_BASELINE.items()
        },
        "pr8_speedup_floors": PR8_SPEEDUP_FLOORS,
        "fast_vs_legacy_floors": FAST_VS_LEGACY_FLOORS,
        "workloads": workloads,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    reporter.emit(f"wrote {BASELINE_PATH.relative_to(RESULTS_DIR.parent)}")

    # Pinned PR 8 speedup floors, no slack.
    for workload, ratio in PR8_SPEEDUP_FLOORS.items():
        for cfg_name, _ in CONFIGS:
            cell = workloads[workload]["configs"][cfg_name]
            pinned = PR8_ACTIVE_BASELINE[(workload, cfg_name)]
            floor = int(pinned * ratio)
            assert cell["active_uops_per_second"] >= floor, (
                f"{workload}/{cfg_name} active_uops_per_second "
                f"{cell['active_uops_per_second']:,} is below the "
                f"{ratio}x memory-fast-path floor {floor:,} "
                f"(PR 8 baseline {pinned:,})"
            )

    # Same-host fast-vs-legacy ratio floors, no slack.
    for workload, ratio in FAST_VS_LEGACY_FLOORS.items():
        for cfg_name, _ in CONFIGS:
            cell = workloads[workload]["configs"][cfg_name]
            assert cell["fast_vs_legacy"] >= ratio, (
                f"{workload}/{cfg_name} fast-vs-legacy ratio "
                f"{cell['fast_vs_legacy']}x is below the {ratio}x floor"
            )

    # Absolute floors against this bench's own committed JSON (with
    # slack, host-dependent).
    for workload, data in workloads.items():
        for cfg_name, cell in data["configs"].items():
            floor = _committed_floor(baseline, workload, cfg_name)
            assert cell["fast"]["uops_per_second"] > floor, (
                f"{workload}/{cfg_name} fell below committed floor "
                f"{floor:,}"
            )
