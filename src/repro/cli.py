"""Command-line interface.

Subcommands::

    repro run --workload mcf --core bdw          # one simulation + stacks
    repro workloads                              # list the registry
    repro presets                                # list machine presets
    repro paper [--only NAME ...] [--jobs N]     # paper artifacts + claims
    repro socket --threads 4                     # one multi-core socket
    repro overhead                               # accounting overhead
    repro profile mcf [--core bdw]               # cProfile one simulation
    repro cache stats | clear                    # persistent result cache
    repro failures list | clear                  # persisted failure reports
    repro checkpoints list | clear               # mid-simulation snapshots

Experiment subcommands accept ``--jobs`` (default: ``$REPRO_JOBS`` or the
CPU count; ``auto`` = CPU count minus one) and print a one-line harness
summary — cases scheduled, cache hits, fused groups, wall time and
simulated uops/sec — after their output.  They also accept the
supervision flags ``--case-timeout`` (per-case deadline in seconds;
default scales with each case's instruction count), ``--keep-going``
(finish the batch despite failed cases and report them instead of
aborting), ``--no-strict`` (downgrade accounting invariant violations
from errors to warnings) and ``--checkpoint-interval`` (take a crash-safe
snapshot every N committed instructions so retried cases resume instead
of restarting).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.config.presets import PRESETS, get_preset
from repro.core import invariants
from repro.core.wrongpath import WrongPathMode
from repro.experiments import supervisor
from repro.experiments.overhead import measure_overhead
from repro.experiments.parallel import summarize_since, telemetry_mark
from repro.experiments.runner import clear_cache, run_case
from repro.experiments.cache import get_disk_cache
from repro.pipeline import checkpoint as pipeline_checkpoint
from repro.viz.ascii import render_cpi_stack, render_flops_stack, render_table
from repro.workloads.registry import WORKLOADS




def _cmd_run(args: argparse.Namespace) -> int:
    mode = WrongPathMode(args.mode)
    result = run_case(
        args.workload,
        args.core,
        instructions=args.instructions,
        seed=args.seed,
        mode=mode,
        use_cache=False,
    )
    print(
        f"{args.workload} on {args.core}: "
        f"cycles={result.cycles} uops={result.committed_uops} "
        f"CPI={result.cpi:.3f} IPC={result.ipc:.3f} "
        f"mispredict={result.mispredict_rate:.3f}"
    )
    if result.ff_cycles_skipped or result.replay_cycles_skipped:
        print(
            f"skipped: fast-forward {result.ff_cycles_skipped} cycles "
            f"in {result.ff_windows} windows, replay "
            f"{result.replay_cycles_skipped} cycles in "
            f"{result.replay_windows} windows"
        )
    report = result.report
    assert report is not None
    for stack in (report.dispatch, report.issue, report.commit):
        print()
        print(render_cpi_stack(stack))
    if args.flops and report.flops is not None:
        config = get_preset(args.core)
        print()
        print(
            render_flops_stack(
                report.flops, config.frequency_ghz, config.socket_cores
            )
        )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "models": spec.models,
            "character": spec.character,
            "default_instrs": spec.default_instructions,
        }
        for spec in WORKLOADS.values()
    ]
    print(render_table(rows))
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    rows = []
    for name in PRESETS:
        config = get_preset(name)
        rows.append(
            {
                "name": name,
                "width": config.dispatch_width,
                "rob": config.rob_size,
                "rs": config.rs_size,
                "vpus": config.vector_units,
                "lanes": config.vector_lanes,
                "freq_ghz": config.frequency_ghz,
                "peak_gflops/core": config.peak_flops_per_cycle
                * config.frequency_ghz,
            }
        )
    print(render_table(rows))
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from repro.experiments import paper

    claims = paper.run_artifacts(
        args.only or paper.ARTIFACTS, instructions=args.instructions,
        seed=args.seed, jobs=args.jobs, keep_going=args.keep_going,
        case_timeout=args.case_timeout, echo=print,
    )
    print(paper.render_claims(claims))
    # The claims are stated at the artifacts' own trace lengths; with
    # --instructions they are reported, not enforced (DESIGN.md §13).
    held = all(claim.holds for claim in claims)
    return 0 if held or args.instructions is not None else 1


def _cmd_socket(args: argparse.Namespace) -> int:
    from repro.experiments.multicore import simulate_socket

    config = get_preset(args.core)
    result = simulate_socket(
        args.workload,
        config,
        threads=args.threads,
        instructions=args.instructions,
        jobs=args.jobs,
        keep_going=args.keep_going,
        case_timeout=args.case_timeout,
        homogeneous=args.homogeneous,
    )
    model = "homogeneous clones" if args.homogeneous else (
        "shared-memory engine"
    )
    print(
        f"{args.threads}-thread socket of {args.workload} on "
        f"{args.core} ({model}): aggregate CPI {result.cpi:.3f} "
        f"(thread homogeneity: {100 * result.homogeneity():.1f}% max "
        "deviation)"
    )
    print()
    print(render_cpi_stack(result.commit))
    if result.flops is not None:
        print()
        print(
            render_flops_stack(
                result.flops, config.frequency_ghz, args.threads
            )
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = get_disk_cache()
    if args.action == "clear":
        removed = clear_cache()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache dir: {stats['dir']}")
    print(f"entries:   {stats['entries']}")
    print(f"size:      {stats['bytes'] / 1024:.1f} KiB")
    print(
        "this process: "
        f"{stats['sim_invocations']} simulations, "
        f"{stats['memo_hits']} memo hits, "
        f"{stats['disk_hits']} disk hits, "
        f"{stats['disk_misses']} disk misses, "
        f"{stats['corrupt_entries']} corrupt entries dropped"
    )
    return 0


def _cmd_failures(args: argparse.Namespace) -> int:
    if args.action == "clear":
        removed = supervisor.clear_failures()
        print(
            f"removed {removed} failure report(s) from "
            f"{supervisor.FAILURE_STORE.root}"
        )
        return 0
    records = supervisor.list_failures()
    if not records:
        print(f"no failure reports under {supervisor.FAILURE_STORE.root}")
        return 0
    rows = [
        {
            "key": record["key"][:12],
            "case": record.get("label", "?"),
            "classification": record.get("classification", "?"),
            "attempts": len(record.get("attempts", [])),
        }
        for record in records
    ]
    print(render_table(rows))
    last = records[0]  # newest-first ordering
    attempts = last.get("attempts", [])
    if attempts:
        print()
        print(f"last error of {last.get('label', last['key'][:12])}:")
        print(f"  {attempts[-1].get('error', '?')}")
    return 0


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    if args.action == "clear":
        removed = pipeline_checkpoint.clear_checkpoints()
        print(
            f"removed {removed} checkpoint(s) from "
            f"{pipeline_checkpoint.STORE.root}"
        )
        return 0
    rows = pipeline_checkpoint.list_checkpoints()
    if not rows:
        print(
            f"no checkpoints under {pipeline_checkpoint.STORE.root}"
        )
        return 0
    print(
        render_table(
            [
                {
                    "key": row["key"][:12],
                    "case": row["case"],
                    "checkpoints": row["checkpoints"],
                    "newest_instrs": row["newest_instrs"],
                    "KiB": round(row["bytes"] / 1024, 1),
                    "age_s": round(row["age_seconds"], 1),
                }
                for row in rows
            ]
        )
    )
    return 0


def _jobs_arg(text: str) -> "int | str":
    """``--jobs`` value: a worker count or the literal ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def _artifact_arg(name: str) -> str:
    """``--only`` value: a name from the paper's artifact table."""
    from repro.experiments import paper

    if name not in paper.ARTIFACTS:
        raise argparse.ArgumentTypeError(
            f"unknown artifact {name!r}; choose from "
            + ", ".join(paper.ARTIFACTS)
        )
    return name


def _add_harness_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every batch-scheduling experiment subcommand."""
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="worker processes, or 'auto' for CPU count minus one "
             "(default: $REPRO_JOBS or the CPU count)",
    )
    parser.add_argument(
        "--case-timeout", type=float, default=None, dest="case_timeout",
        help="per-case deadline in seconds (default: $REPRO_CASE_TIMEOUT "
             "or scaled from each case's instruction count)",
    )
    parser.add_argument(
        "--keep-going", action="store_true", dest="keep_going",
        help="finish the batch despite failed cases; failures are "
             "persisted for `repro failures list` instead of aborting",
    )
    parser.add_argument(
        "--no-strict", action="store_true", dest="no_strict",
        help="downgrade accounting invariant violations from errors to "
             "warnings (violating results are still never disk-cached)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=None,
        dest="checkpoint_interval", metavar="N",
        help="write a crash-safe snapshot every N committed instructions "
             "(default: $REPRO_CHECKPOINT_INTERVAL, else off); retried "
             "cases resume from the newest valid checkpoint with bitwise-"
             "identical results",
    )


def _cmd_overhead(args: argparse.Namespace) -> int:
    result = measure_overhead(
        workload=args.workload,
        preset=args.core,
        instructions=args.instructions or 10_000,
    )
    print(
        f"accounting on: {result.seconds_with:.3f}s  "
        f"off: {result.seconds_without:.3f}s  "
        f"overhead: {100 * result.overhead_fraction:.1f}%"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one simulation under cProfile and persist the report."""
    import cProfile
    import io
    import pstats
    import time
    from pathlib import Path

    from repro.pipeline.core import CoreSimulator
    from repro.workloads.registry import make_trace

    instructions = args.instructions or 10_000
    trace = make_trace(args.workload, instructions, args.seed)
    sim = CoreSimulator(trace, get_preset(args.core))

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = sim.run()
    profiler.disable()
    wall = time.perf_counter() - start

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf).strip_dirs()
    stats.sort_stats(args.sort).print_stats(args.top)
    header = (
        f"# repro profile {args.workload} --core {args.core} "
        f"--instructions {instructions}\n"
        f"# cycles={result.cycles} committed_uops={result.committed_uops} "
        f"wall={wall:.3f}s "
        f"uops_per_second={result.committed_uops / wall:,.0f}\n"
        f"# top {args.top} functions by {args.sort} time\n\n"
    )
    report = header + buf.getvalue()

    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        out_dir = Path("results")
        out_dir.mkdir(exist_ok=True)
        out_path = out_dir / f"profile_{args.workload}.txt"
    out_path.write_text(report)

    print(report, end="")
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-stage CPI stacks and FLOPS stacks (ISPASS 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("--workload", default="mcf", choices=sorted(WORKLOADS))
    run.add_argument("--core", default="bdw", choices=sorted(PRESETS))
    run.add_argument("--instructions", type=int, default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--mode",
        default="exact",
        choices=[m.value for m in WrongPathMode],
        help="wrong-path discernment strategy (Sec. III-B)",
    )
    run.add_argument("--flops", action="store_true",
                     help="also print the FLOPS stack")
    run.set_defaults(func=_cmd_run)

    wl = sub.add_parser("workloads", help="list available workloads")
    wl.set_defaults(func=_cmd_workloads)

    pr = sub.add_parser("presets", help="list machine presets")
    pr.set_defaults(func=_cmd_presets)

    pa = sub.add_parser(
        "paper",
        help="regenerate and check Table I, Figs. 1-5, the ablations and "
        "the top-down critique (writes results/paper/)",
    )
    pa.add_argument(
        "--only", nargs="+", type=_artifact_arg, metavar="NAME",
        help="regenerate only these artifacts (default: all; an unknown "
        "name lists the choices)",
    )
    pa.add_argument("--instructions", type=int, default=None)
    pa.add_argument("--seed", type=int, default=1)
    _add_harness_flags(pa)
    pa.set_defaults(func=_cmd_paper)

    sk = sub.add_parser(
        "socket", help="simulate a multi-core socket (paper Sec. IV)"
    )
    sk.add_argument("--workload", default="gemm-train-1760-skx",
                    choices=sorted(WORKLOADS))
    sk.add_argument("--core", default="skx", choices=sorted(PRESETS))
    sk.add_argument("--threads", type=int, default=4)
    sk.add_argument("--instructions", type=int, default=None)
    sk.add_argument(
        "--homogeneous", action="store_true",
        help="run independent per-thread clones (the paper's "
        "homogeneity premise) instead of the shared-memory engine",
    )
    _add_harness_flags(sk)
    sk.set_defaults(func=_cmd_socket)

    ca = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    ca.add_argument("action", choices=("stats", "clear"),
                    help="show footprint/counters, or purge all entries")
    ca.set_defaults(func=_cmd_cache)

    ov = sub.add_parser("overhead", help="measure accounting overhead")
    ov.add_argument("--workload", default="mcf", choices=sorted(WORKLOADS))
    ov.add_argument("--core", default="bdw", choices=sorted(PRESETS))
    ov.add_argument("--instructions", type=int, default=None)
    ov.set_defaults(func=_cmd_overhead)

    prof = sub.add_parser(
        "profile",
        help="cProfile one simulation; report lands in results/",
    )
    prof.add_argument("workload", choices=sorted(WORKLOADS))
    prof.add_argument(
        "--core", "--config", dest="core", default="bdw",
        choices=sorted(PRESETS),
        help="machine preset to profile on (default: bdw)",
    )
    prof.add_argument("--instructions", type=int, default=None)
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument(
        "--top", type=int, default=30,
        help="number of functions in the report",
    )
    prof.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime"),
        help="pstats sort key for the report (default: cumulative)",
    )
    prof.add_argument(
        "--out", default=None, metavar="PATH",
        help="report destination (default: results/profile_<workload>.txt)",
    )
    prof.set_defaults(func=_cmd_profile)

    fl = sub.add_parser(
        "failures", help="inspect or clear persisted batch failure reports"
    )
    fl.add_argument("action", choices=("list", "clear"),
                    help="show failed cases with attempt histories, or "
                         "delete all records")
    fl.set_defaults(func=_cmd_failures)

    ck = sub.add_parser(
        "checkpoints",
        help="inspect or clear crash-recovery simulation snapshots",
    )
    ck.add_argument("action", choices=("list", "clear"),
                    help="show per-case checkpoint progress, or delete "
                         "every snapshot")
    ck.set_defaults(func=_cmd_checkpoints)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "no_strict", False):
        # Both the in-process guard and (via the env var, which pool
        # workers inherit) every worker's guard.
        invariants.set_strict(False)
        os.environ[invariants.ENV_STRICT] = "0"
    interval = getattr(args, "checkpoint_interval", None)
    if interval is not None:
        # Env-var plumbing so pool workers (fork or spawn) inherit the
        # cadence exactly like the other harness toggles.
        os.environ[pipeline_checkpoint.ENV_CHECKPOINT_INTERVAL] = str(
            interval
        )
    # Experiment subcommands (the ones with --jobs) get a harness summary
    # line covering every batch the command scheduled.
    harnessed = hasattr(args, "jobs")
    mark = telemetry_mark() if harnessed else None
    try:
        rc = args.func(args)
    except (supervisor.BatchFailure, supervisor.IncompleteBatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 1
    if mark is not None:
        print()
        print(summarize_since(mark))
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
