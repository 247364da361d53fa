"""One benchmark for the paper pipeline: four workloads, one schema.

One workload, result as the last line of stdout (the form
``BENCHMARK.json`` names)::

    python3 benchmarks/suite/bench.py --workload paper-cold --seed 1 \\
        --seconds 16 --trace 0

A full set (every workload, one JSON file with host info and, per
workload and metric, the median, quartiles and sample count)::

    python3 benchmarks/suite/bench.py --out set.json [--seed S] [--trace]

Regenerate the golden digests (seeds 1 and 2)::

    python3 benchmarks/suite/bench.py --write-golden

Each workload runs in its own child process (``suite.py``) with every
``REPRO_*`` toggle unset and the result cache, checkpoint and failure
stores pointed at a scratch directory under ``.bench_work/``, removed
when the run ends.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("paper-cold", "paper-warm", "sim-suite", "socket-recover")

#: End-to-end metrics of BENCHMARK.json: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "sim_uops_per_s": ("uops/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Fresh interpreters importing ``repro.cli`` per run; the median counts.
IMPORT_RUNS = 7

#: Wall-clock budget of one workload run, and of a golden rewrite.
RUN_TIMEOUT_S = 170.0
GOLDEN_TIMEOUT_S = 900.0


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s", "lower"
    if last == "uops_per_s":
        return "uops/s", "higher"
    if last == "cycles_per_step":
        return "cycles/step", "higher"
    if last in ("bytes", "bytes_written"):
        return "bytes", "lower"
    if last in ("hit_ratio", "worker_busy_frac"):
        return "ratio", "higher"
    if last.endswith(("_ratio", "_frac")):
        return "ratio", "lower"
    if last == "fused_runs_saved":
        return "count", "higher"
    return "count", "lower"


def clean_env(work: Path) -> dict[str, str]:
    """The environment of a workload child: no ``REPRO_*`` toggles, the
    stores in ``work``, ``src`` importable, and a fixed hash seed (a
    random one changes dict and set layouts, and with them host time,
    from run to run without changing any simulated result)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["REPRO_CHECKPOINT_DIR"] = str(work / "checkpoints")
    env["REPRO_FAILURES_DIR"] = str(work / "failures")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def remove_work(work: Path) -> None:
    """Delete a run's scratch directory, and ``.bench_work`` once empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still uses it
        pass


def run_child(cmd: list[str], env: dict, timeout: float) -> str:
    """Run ``cmd`` in its own process group and return its stdout.

    On timeout the whole group (the child and its pool workers) is
    killed and reaped before the error propagates.
    """
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode}")
    return out


def import_seconds(env: dict) -> list[float]:
    """Seconds a fresh interpreter takes to import ``repro.cli``."""
    times = []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, cwd=ROOT,
            check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(values: list[float], unit: str, better: str, n=None) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "unit": unit, "better": better, "median": median, "q1": q1,
        "q3": q3, "n": len(values) if n is None else n, "values": values,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload, in a clean child process."""
    started = time.perf_counter()
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = clean_env(work)
        imports = import_seconds(env)
        out = run_child(
            [sys.executable, str(HERE / "suite.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--work", str(work)],
            env, RUN_TIMEOUT_S - (time.perf_counter() - started),
        )
    finally:
        remove_work(work)
    raw = json.loads(out.strip().splitlines()[-1])
    build = statistics.median(raw["trace_build_s"])
    walls = raw["pass_wall_s"]
    metrics = {
        "setup_s": summarize(
            [imp + build for imp in imports], *E2E_METRICS["setup_s"]
        ),
        "wall_s": summarize(walls, *E2E_METRICS["wall_s"]),
        # Unbounded: a tail with ten samples beyond it exists only on
        # paper-warm, and it spreads too far across runs to gate on.
        "wall_p90_s": summarize([p90(walls)], "s", "lower", n=len(walls)),
        "sim_uops_per_s": summarize(
            raw["pass_uops_per_s"], *E2E_METRICS["sim_uops_per_s"]
        ),
        "peak_rss_mb": summarize([raw["peak_rss_mb"]],
                                 *E2E_METRICS["peak_rss_mb"]),
        "error_rate": summarize(
            [raw["failed"] / max(raw["attempted"], 1)], "ratio", "lower",
            n=raw["attempted"],
        ),
    }
    layers = None
    if raw["layers"] is not None:
        layers = {
            key: dict(zip(("unit", "better"), layer_unit(key)), value=value)
            for key, value in raw["layers"].items()
        }
    return {
        "workload": name,
        "seed": seed,
        "golden_checked": raw["golden"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "import_s": imports,
        "trace_build_s": raw["trace_build_s"],
        "metrics": metrics,
        "cells": raw["cells"],
        "layers": layers,
    }


def print_record(rec: dict) -> None:
    m = rec["metrics"]
    golden = "goldens" if rec["golden_checked"] else "first pass (no golden)"
    print(
        f"[bench] {rec['workload']} seed={rec['seed']}: "
        f"{rec['attempted']} ops, {rec['failed']} failed "
        f"(checked against {golden})"
    )
    for err in rec["errors"]:
        print(f"  error: {err}")
    passes = m["wall_s"]["n"]
    print(
        f"  setup_s        {m['setup_s']['median']:.4f} s (import median of "
        f"{len(rec['import_s'])} {statistics.median(rec['import_s']):.4f} s"
        f" + inputs median of {len(rec['trace_build_s'])} "
        f"{statistics.median(rec['trace_build_s']):.4f} s)"
    )
    for key in ("wall_s", "sim_uops_per_s"):
        s = m[key]
        print(
            f"  {key:<14} {s['median']:.6g} {s['unit']} (median of {s['n']}"
            f" passes, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        )
    print(
        f"  wall_p90_s     {m['wall_p90_s']['median']:.6g} s "
        f"(p90 of {passes} passes)"
    )
    print(f"  peak_rss_mb    {m['peak_rss_mb']['median']:.1f} MiB")
    print(
        f"  error_rate     {m['error_rate']['median']:.6g} "
        f"({rec['failed']} of {rec['attempted']} ops)"
    )
    for cell, info in rec["cells"].items():
        print(
            f"  cell {cell}: {info['uops_per_s']:,.0f} uops/s; accounting "
            f"on {info['on_s']:.4f} s vs off {info['off_s']:.4f} s "
            f"(overhead {info['overhead']:+.1%} of the off base, median of "
            f"{info['runs']} runs)"
        )
    if rec["layers"]:
        print("  per-layer (one traced pass):")
        for key, info in rec["layers"].items():
            print(f"    {key:<50} {info['value']:.6g} {info['unit']}")


def result_line(rec: dict, trace: bool) -> dict:
    """The result line of one workload run: the end-to-end metrics, or
    with ``trace`` the per-layer ones."""
    if trace:
        metrics = {
            key: {"value": info["value"], "unit": info["unit"]}
            for key, info in rec["layers"].items()
        }
    else:
        metrics = {
            key: {"value": rec["metrics"][key]["median"], "unit": unit}
            for key, (unit, _better) in E2E_METRICS.items()
        }
    return {
        "correct": rec["failed"] == 0 and rec["attempted"] > 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def host_info() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="One benchmark for the paper pipeline."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload run (default: run_seconds of "
             "BENCHMARK.json; 1 with --trace in a full set)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="add one traced pass and report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="write a full set here")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        work = WORK_ROOT / f"golden-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            out = run_child(
                [sys.executable, str(HERE / "suite.py"), "--write-golden",
                 str(HERE / "golden.json"), "--work", str(work)],
                clean_env(work), GOLDEN_TIMEOUT_S,
            )
        finally:
            remove_work(work)
        print(out, end="")
        return 0
    trace = bool(args.trace)
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = 1.0 if trace and args.workload is None else float(
            spec["run_seconds"]
        )
    if args.workload is not None:
        rec = run_workload(args.workload, args.seed, seconds, trace)
        print_record(rec)
        print(json.dumps(result_line(rec, trace)))
        return 0
    if args.out is None:
        parser.error("give --workload NAME or --out PATH")
    records = {}
    for name in WORKLOADS:
        rec = run_workload(name, args.seed, seconds, trace)
        print_record(rec)
        records[name] = rec
    doc = {
        "schema": 1,
        "host": host_info(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": records,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(rec["failed"] for rec in records.values())
    print(f"[bench] wrote {args.out} ({failed} failed ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
