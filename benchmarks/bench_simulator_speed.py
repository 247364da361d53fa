"""Simulator throughput: committed micro-ops per host second.

Not a paper figure — a harness health metric, useful when sizing traces
and for catching simulator performance regressions.  The matrix covers
memory-bound traces (where the quiescent-cycle fast-forward engine does
its work) and compute-bound loop traces (where the periodic steady-state
replay engine does its work), each on the Broadwell and Knights Landing
presets, timing two variants: ``production`` (the default path, both
skip engines armed) and ``legacy`` (``reference=True``: the per-cycle
reference with the dict-backed memory walk and no skip engines).

Timing is plain ``time.perf_counter`` over full simulations (min of
several repeats) — no pytest-benchmark fixture — so the CI perf-smoke
job can run this file standalone.  Results land in
``results/BENCH_simulator_speed.json`` the way ``bench_runner_scaling``
writes ``results/BENCH_runner_scaling.json``; the committed copy doubles
as the throughput baseline the floor assertions are derived from
(replacing the old magic ``> 5_000`` constant).

Each (workload, config) cell also reports ``active_uops_per_second``,
the quantity the full-scan scheduler floors below are pinned to.  It
was the throughput of a fast-forward-off run; since the memory fast path
landed, that run armed the same skip machinery as the fast-forward-on
and replay-on runs, so the three historical cells (``ff_off``,
``ff_on``, ``replay_on``) all timed the production path.  They are one
``production`` timing now, and every floor keeps its value and its
denominator.  ``legacy`` is the every-cycle reference and the
denominator of the engine-speedup assertions below.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.config.presets import broadwell, knights_landing
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_simulator_speed.json"

#: (workload, kind, instructions).  ``chase`` is the designated
#: memory-bound trace: a DRAM-latency pointer chase with no wrong-path
#: delivery, the fast-forward engine's best case.  ``exchange2`` is the
#: compute-bound guard: nearly every cycle is active, so fast-forward
#: must get out of the way.
MATRIX = (
    ("chase", "memory-bound", 6_000),
    ("mcf", "memory-bound", 8_000),
    ("bwaves", "memory-bound", 10_000),
    ("exchange2", "compute-bound", 30_000),
    ("spin", "compute-bound", 30_000),
)

CONFIGS = (("bdw", broadwell), ("knl", knights_landing))

#: Hard throughput floor for the designated memory-bound trace with
#: fast-forward on (raised from the historical 5,000 once the
#: fast-forward engine landed).
MEMORY_BOUND_FLOOR = 15_000

#: PR 3 active-throughput baselines: the ``ff_off`` ``uops_per_second``
#: of the committed ``results/BENCH_simulator_speed.json`` as of commit
#: 905c8a1 (the last full-RS-scan scheduler).  ``active_uops_per_second``
#: uses the same definition (uops/s with every cycle simulated, i.e.
#: computed over non-skipped cycles only), so these pinned values are the
#: denominators for the event-driven scheduler's speedup floors.
PR3_ACTIVE_BASELINE = {
    ("chase", "bdw"): 2_473,
    ("chase", "knl"): 3_110,
    ("mcf", "bdw"): 5_678,
    ("mcf", "knl"): 7_924,
    ("bwaves", "bdw"): 15_800,
    ("bwaves", "knl"): 19_009,
    ("exchange2", "bdw"): 141_194,
    ("exchange2", "knl"): 117_876,
}

#: Event-driven scheduler speedup floors on ``active_uops_per_second``
#: versus :data:`PR3_ACTIVE_BASELINE`, enforced without slack: the
#: select walk no longer scans the whole reservation station every
#: cycle, so active-cycle throughput must stay ahead of the legacy
#: scheduler by at least these factors.  The exchange2 floor dropped
#: from 1.5 when its load pattern was determinized for the replay
#: engine — the PR 3 pin was measured on the old randomized trace, so
#: the comparison carries extra cross-trace margin.
SCHEDULER_SPEEDUP_FLOORS = {"mcf": 2.0, "bwaves": 1.75, "exchange2": 1.25}

#: PR 5 fast-forward-on baselines: the ``ff_on`` ``uops_per_second`` of
#: the committed ``results/BENCH_simulator_speed.json`` before the
#: periodic steady-state replay engine landed.  The replay engine's
#: value proposition is skipping *active* loop cycles fast-forward can
#: never touch, so its floors are pinned against these.
PR5_FF_BASELINE = {
    ("exchange2", "bdw"): 225_837,
    ("exchange2", "knl"): 193_863,
}

#: Skip-engine speedup floors on the two designated loop traces: the
#: replay-on run must beat the every-cycle ``legacy`` run by at least
#: this wall-clock factor (host-independent ratio, no slack).  Pinned
#: against ``legacy`` rather than the fast-forward-only run because the
#: memory fast path arms replay silently: with it on, ``ff_on`` already
#: replays and the old on-vs-on ratio degenerates to ~1x.
REPLAY_SPEEDUP_FLOORS = {"exchange2": 3.0, "spin": 3.0}

#: Committed-baseline slack: CI and developer machines differ widely, so
#: a run only fails against the baseline when it is slower than
#: ``SLACK`` times the committed number.
SLACK = 0.25

#: Repeats per cell; the minimum is reported.  Host timing on shared
#: machines swings by 10%+, and the no-slack scheduler floors leave only
#: a modest margin, so best-of-5 keeps the floor checks out of the noise.
REPEATS = 5


#: The timed variants per (workload, config) cell: (name, reference).
#: ``legacy`` is the every-cycle reference — dict-backed memory walk, no
#: skip engines — that the engine-speedup assertions divide by.
_VARIANTS = (
    ("legacy", True),
    ("production", False),
)

#: Name of the production cell in committed baselines written before it
#: replaced the ``ff_off``/``ff_on``/``replay_on`` trio (all three timed
#: the production path; the floors read ``ff_on``).
_HISTORICAL_PRODUCTION = "ff_on"


def _time_cells(workload: str, instructions: int, config_fn) -> dict:
    """Best-of-``REPEATS`` timing for all variants of one cell.

    The variants are interleaved round-robin rather than timed in
    separate back-to-back blocks, so a transient host-load spike lands
    on every variant instead of silently skewing the speedup ratios the
    floor assertions are built from.
    """
    best: dict[str, tuple] = {}
    for _ in range(REPEATS):
        for name, reference in _VARIANTS:
            trace = make_trace(workload, instructions, 1)
            sim = CoreSimulator(trace, config_fn(), reference=reference)
            start = time.perf_counter()
            result = sim.run()
            wall = time.perf_counter() - start
            if name not in best or wall < best[name][0]:
                best[name] = (wall, result, sim)
    cells = {}
    for name, (wall, result, sim) in best.items():
        cells[name] = {
            "wall_seconds": round(wall, 4),
            "uops_per_second": round(result.committed_uops / wall),
            "committed_uops": result.committed_uops,
            "cycles": result.cycles,
            "ff_windows": sim.ff_windows,
            "ff_cycles_skipped": sim.ff_cycles_skipped,
            "replay_windows": sim.replay_windows,
            "replay_cycles_skipped": sim.replay_cycles_skipped,
        }
    return cells


def _baseline_cell(baseline: dict, workload: str, cfg: str) -> dict:
    """One committed cell; a missing one raises, so a renamed cell can
    never silently disable its floor."""
    return baseline["workloads"][workload]["configs"][cfg]


def _baseline_floor(baseline: dict | None, workload: str, cfg: str) -> int:
    """Throughput floor for one cell, derived from the committed JSON
    (0 only when there is no committed JSON at all)."""
    if baseline is None:
        return 0
    cell = _baseline_cell(baseline, workload, cfg)
    production = cell.get("production") or cell[_HISTORICAL_PRODUCTION]
    return int(production["uops_per_second"] * SLACK)


def _active_baseline_floor(
    baseline: dict | None, workload: str, cfg: str
) -> int:
    """Active-throughput floor from the committed JSON (with slack)."""
    if baseline is None:
        return 0
    cell = _baseline_cell(baseline, workload, cfg)
    return int(cell["active_uops_per_second"] * SLACK)


def test_simulator_speed(reporter):
    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    workloads: dict[str, dict] = {}
    for workload, kind, instructions in MATRIX:
        configs: dict[str, dict] = {}
        for cfg_name, cfg_fn in CONFIGS:
            timed = _time_cells(workload, instructions, cfg_fn)
            legacy = timed["legacy"]
            production = timed["production"]
            # Both skip engines' speedup versus the every-cycle reference.
            speedup = (
                round(legacy["wall_seconds"] / production["wall_seconds"], 2)
                if production["wall_seconds"] > 0 else None
            )
            active = production["uops_per_second"]
            pr3 = PR3_ACTIVE_BASELINE.get((workload, cfg_name))
            scheduler_speedup = round(active / pr3, 2) if pr3 else None
            configs[cfg_name] = {
                "legacy": legacy,
                "production": production,
                "speedup_vs_legacy": speedup,
                "active_uops_per_second": active,
                "scheduler_speedup_vs_pr3": scheduler_speedup,
            }
            reporter.emit(
                f"{workload:10s} {cfg_name} ({kind}): "
                f"legacy={legacy['wall_seconds']:.3f}s "
                f"production={production['wall_seconds']:.3f}s "
                f"{speedup}x vs legacy "
                f"active={active:,} uops/s ({scheduler_speedup}x vs PR 3) "
                f"(ff {production['ff_windows']} windows "
                f"{production['ff_cycles_skipped']}/{production['cycles']} "
                f"cycles; replay {production['replay_windows']} windows "
                f"{production['replay_cycles_skipped']}/"
                f"{production['cycles']})"
            )
        workloads[workload] = {
            "kind": kind, "instructions": instructions, "configs": configs,
        }

    payload = {
        "bench": "simulator_speed",
        "repeats": REPEATS,
        "memory_bound_trace": "chase",
        "memory_bound_floor_uops_per_second": MEMORY_BOUND_FLOOR,
        "baseline_slack": SLACK,
        "scheduler_speedup_floors": SCHEDULER_SPEEDUP_FLOORS,
        "pr3_active_baseline": {
            f"{wl}/{cfg}": v
            for (wl, cfg), v in PR3_ACTIVE_BASELINE.items()
        },
        "replay_speedup_floors": REPLAY_SPEEDUP_FLOORS,
        "pr5_ff_baseline": {
            f"{wl}/{cfg}": v
            for (wl, cfg), v in PR5_FF_BASELINE.items()
        },
        "workloads": workloads,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    reporter.emit(f"wrote {BASELINE_PATH.relative_to(RESULTS_DIR.parent)}")

    # The designated memory-bound trace must clear the hard floor and
    # show the fast-forward engine actually engaging.
    chase = workloads["chase"]["configs"]["bdw"]
    assert chase["production"]["uops_per_second"] > max(
        MEMORY_BOUND_FLOOR, _baseline_floor(baseline, "chase", "bdw")
    )
    assert chase["speedup_vs_legacy"] >= 3.0
    assert chase["production"]["ff_cycles_skipped"] > 0

    # Every cell stays above its committed-baseline floor (with slack).
    for workload, data in workloads.items():
        for cfg_name, cell in data["configs"].items():
            floor = _baseline_floor(baseline, workload, cfg_name)
            assert cell["production"]["uops_per_second"] > floor, (
                f"{workload}/{cfg_name} fell below baseline floor {floor:,}"
            )
            active_floor = _active_baseline_floor(
                baseline, workload, cfg_name
            )
            assert cell["active_uops_per_second"] > active_floor, (
                f"{workload}/{cfg_name} active throughput fell below "
                f"baseline floor {active_floor:,}"
            )

    # Event-driven scheduler floors: active-cycle throughput versus the
    # pinned PR 3 (full-RS-scan) baselines, no slack.
    for workload, ratio in SCHEDULER_SPEEDUP_FLOORS.items():
        for cfg_name, _ in CONFIGS:
            cell = workloads[workload]["configs"][cfg_name]
            pinned = PR3_ACTIVE_BASELINE[(workload, cfg_name)]
            floor = int(pinned * ratio)
            assert cell["active_uops_per_second"] >= floor, (
                f"{workload}/{cfg_name} active_uops_per_second "
                f"{cell['active_uops_per_second']:,} is below the "
                f"{ratio}x scheduler floor {floor:,} "
                f"(PR 3 baseline {pinned:,})"
            )

    # Periodic-replay floors: the engine must engage on the two loop
    # traces and beat the every-cycle legacy run by the pinned ratio.
    for workload, ratio in REPLAY_SPEEDUP_FLOORS.items():
        for cfg_name, _ in CONFIGS:
            cell = workloads[workload]["configs"][cfg_name]
            assert cell["production"]["replay_cycles_skipped"] > 0, (
                f"replay never engaged on {workload}/{cfg_name}"
            )
            assert cell["speedup_vs_legacy"] >= ratio, (
                f"{workload}/{cfg_name} replay speedup "
                f"{cell['speedup_vs_legacy']}x is below the "
                f"{ratio}x floor"
            )

    # Replay throughput versus the pinned PR 5 (fast-forward-only)
    # baselines, no slack: exchange2 with replay on must run at least
    # 3x the committed fast-forward-on throughput.
    for (workload, cfg_name), pinned in PR5_FF_BASELINE.items():
        cell = workloads[workload]["configs"][cfg_name]
        floor = int(pinned * 3.0)
        assert cell["production"]["uops_per_second"] >= floor, (
            f"{workload}/{cfg_name} production throughput "
            f"{cell['production']['uops_per_second']:,} is below the "
            f"3x floor {floor:,} (PR 5 ff_on baseline {pinned:,})"
        )
