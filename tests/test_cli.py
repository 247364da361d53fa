"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import invariants
from repro.experiments import supervisor


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path, monkeypatch):
    """Commands write under ``results/`` of a temp working directory."""
    monkeypatch.chdir(tmp_path)


def test_parser_subcommands():
    parser = build_parser()
    for argv in (
        ["run", "--workload", "mcf"],
        ["workloads"],
        ["presets"],
        ["paper"],
        ["paper", "--only", "fig3a"],
        ["paper", "--only", "fig5", "fig5-socket"],
        ["overhead"],
        ["profile", "mcf"],
        ["profile", "mcf", "--config", "knl"],
        ["failures", "list"],
        ["failures", "clear"],
        ["checkpoints", "list"],
        ["checkpoints", "clear"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_parser_harness_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["paper", "--only", "table1", "--jobs", "2", "--case-timeout", "1.5",
         "--keep-going", "--no-strict"]
    )
    assert args.jobs == 2
    assert args.case_timeout == 1.5
    assert args.keep_going and args.no_strict
    assert args.only == ["table1"]
    defaults = parser.parse_args(["paper"])
    assert defaults.only is None and defaults.instructions is None
    assert defaults.case_timeout is None
    assert not defaults.keep_going and not defaults.no_strict


def test_parser_rejects_unknown_workload():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--workload", "nonexistent"])


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "cactus" in out


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("bdw", "knl", "skx"):
        assert name in out


def test_run_command_prints_stacks(capsys):
    code = main(["run", "--workload", "exchange2", "--core", "tiny",
                 "--instructions", "2000", "--flops"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dispatch" in out and "issue" in out and "commit" in out
    assert "CPI=" in out


def test_run_command_modes(capsys):
    code = main(["run", "--workload", "leela", "--core", "tiny",
                 "--instructions", "2000", "--mode", "simple"])
    assert code == 0
    assert "bpred" in capsys.readouterr().out


def test_overhead_command(capsys):
    code = main(["overhead", "--workload", "exchange2", "--core", "tiny",
                 "--instructions", "1500"])
    assert code == 0
    assert "overhead" in capsys.readouterr().out


def test_profile_command(capsys, tmp_path):
    code = main(["profile", "exchange2", "--core", "tiny",
                 "--instructions", "1500", "--top", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    report = tmp_path / "results" / "profile_exchange2.txt"
    assert report.exists()
    text = report.read_text()
    assert "committed_uops" in text and "_step_event" in text


def test_socket_command(capsys):
    code = main(["socket", "--workload", "exchange2", "--core", "tiny",
                 "--threads", "2", "--instructions", "1500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "socket" in out and "homogeneity" in out


def test_failures_commands(capsys):
    supervisor.clear_failures()
    assert main(["failures", "list"]) == 0
    assert "no failure reports" in capsys.readouterr().out
    supervisor.save_failure(
        supervisor.FailureReport(
            key="cafe" * 16, label="mcf@tiny", classification="timeout",
            attempts=[
                supervisor.Attempt(
                    attempt=0, classification="timeout",
                    error="no result within the 0.3s deadline",
                    elapsed_seconds=0.3, executor="pool",
                )
            ],
        )
    )
    assert main(["failures", "list"]) == 0
    out = capsys.readouterr().out
    assert "mcf@tiny" in out and "timeout" in out
    assert main(["failures", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert supervisor.list_failures() == []


def test_parser_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["paper", "--only", "fig6"])


def test_paper_command_writes_artifact_and_claims(capsys, tmp_path):
    assert main(["paper", "--only", "fig1", "--instructions", "1500"]) == 0
    out = capsys.readouterr().out
    written = tmp_path / "results" / "paper"
    assert [p.name for p in written.iterdir()] == ["fig1.txt"]
    text = (written / "fig1.txt").read_text()
    assert "mcf @ dispatch" in text and "frontend cycles" in text
    assert text in out, "the rendered page is echoed"
    for line in ("fe_dispatch > fe_commit", "be_commit > be_dispatch",
                 "of 2 claims hold", "[harness]"):
        assert line in out


def test_batch_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(
        supervisor, "fault_plan", {"*": {"kind": "crash", "times": 99}}
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["paper", "--only", "fig5", "--jobs", "1",
                 "--instructions", "1500"])
    assert code == 1
    captured = capsys.readouterr()
    assert "failed after supervision" in captured.err
    assert "[harness]" in captured.out, "the summary line still prints"
    supervisor.clear_failures()
    clear_cache()


def test_keep_going_failed_baseline_omits_group(capsys, monkeypatch):
    """A baseline that never recovers drops its whole Table I group."""
    monkeypatch.setattr(
        supervisor, "fault_plan",
        {"mcf@knl": {"kind": "crash", "times": 99}},
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["paper", "--only", "table1", "--jobs", "1",
                 "--instructions", "1500", "--keep-going"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mcf on BDW" in out, "the healthy group still renders"
    assert "mcf on KNL" not in out, "the group without a baseline is gone"
    supervisor.clear_failures()
    clear_cache()


def test_keep_going_failed_ablation_reads_no_data(capsys, monkeypatch):
    """Every case of one ablation failing under --keep-going leaves its
    rows out, and its claims read ``no data``."""
    monkeypatch.setenv(supervisor.ENV_FAULT_PLAN,
                       '{"*": {"kind": "crash", "times": 99}}')
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["paper", "--only", "ablation-width", "--jobs", "1",
                 "--instructions", "1500", "--keep-going"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(no rows)" in out and "spurious issue stall" not in out
    assert out.count("no data") == 3 and "0 of 3 claims hold" in out
    # Each width is its own case and run; both count as failed cases.
    assert "[harness] 2 case lookups: 0 simulated," in out
    assert out.rstrip().endswith("| 2 failed")
    supervisor.clear_failures()
    clear_cache()


def test_keep_going_harness_line_counts_failed_cases(capsys, monkeypatch):
    """A case given up on under --keep-going still counts as a lookup,
    and the harness line says how many failed."""
    monkeypatch.setenv(
        supervisor.ENV_FAULT_PLAN,
        '{"bwaves@bdw+perfect-dcache": {"kind": "crash", "times": 99}}',
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["paper", "--only", "topdown", "--jobs", "1",
                 "--instructions", "1500", "--keep-going"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines if line.startswith("[harness]")]
    assert line.startswith("[harness] 3 case lookups: 2 simulated,")
    assert line.endswith(" | 1 failed")
    # The claims over facts the surviving cases carry still read them;
    # only those over the missing perfect-D$ delta read ``no data``.
    claims = {
        claim: line for line in lines for claim in (
            "frontend_bound > 0.05", "abs(fe_delta) < 0.1 * be_delta",
            "commit_dcache > 0.5 * be_delta",
        ) if line.startswith("topdown") and claim in line
    }
    assert "frontend_bound=" in claims["frontend_bound > 0.05"]
    assert "no data" not in claims["frontend_bound > 0.05"]
    for claim in ("abs(fe_delta) < 0.1 * be_delta",
                  "commit_dcache > 0.5 * be_delta"):
        assert "no data" in claims[claim]
    supervisor.clear_failures()
    clear_cache()


def test_fig1_runs_under_supervision(capsys, monkeypatch):
    """A single case takes the supervised road: a fault plan that kills
    Fig. 1's one case fails the command and leaves a failure report."""
    monkeypatch.setenv(supervisor.ENV_FAULT_PLAN,
                       '{"mcf@bdw": {"kind": "crash", "times": 99}}')
    from repro.experiments.runner import clear_cache

    clear_cache()
    supervisor.clear_failures()
    code = main(["paper", "--only", "fig1", "--instructions", "1500",
                 "--jobs", "1"])
    assert code == 1
    assert "failed after supervision" in capsys.readouterr().err
    assert main(["failures", "list"]) == 0
    assert "mcf@bdw" in capsys.readouterr().out
    supervisor.clear_failures()
    clear_cache()


def test_keep_going_failed_fig1_reads_no_data(capsys, monkeypatch,
                                              tmp_path):
    """Under --keep-going a Fig. 1 case that never recovers leaves an
    empty page whose claims read ``no data``, and the later artifacts
    still run."""
    monkeypatch.setenv(supervisor.ENV_FAULT_PLAN,
                       '{"mcf@bdw": {"kind": "crash", "times": 99}}')
    from repro.experiments.runner import clear_cache

    clear_cache()
    supervisor.clear_failures()
    code = main(["paper", "--only", "fig1", "fig3e", "--instructions",
                 "1500", "--jobs", "1", "--keep-going"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    fig1_claims = [line for line in lines if line.startswith("fig1 ")]
    assert len(fig1_claims) == 2
    assert all("no data" in line for line in fig1_claims)
    pages = tmp_path / "results" / "paper"
    assert (pages / "fig1.txt").read_text() == "\n"
    assert (pages / "fig3e.txt").stat().st_size > 0
    supervisor.clear_failures()
    clear_cache()


def test_cold_width_ablation_runs_each_width_alone(capsys, tmp_path):
    """Each accounting width is its own simulation: a cold
    ``ablation-width`` simulates two cases, fuses nothing and writes the
    committed page byte for byte."""
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["paper", "--only", "ablation-width", "--jobs", "1"])
    assert code == 0
    (line,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("[harness]")
    ]
    assert line.startswith("[harness] 2 case lookups: 2 simulated,")
    assert "fused" not in line
    committed = (Path(__file__).resolve().parents[1] / "results" / "paper"
                 / "ablation-width.txt")
    written = tmp_path / "results" / "paper" / "ablation-width.txt"
    assert written.read_bytes() == committed.read_bytes()
    clear_cache()


def test_keep_going_incomplete_socket_fails_cleanly(capsys, monkeypatch):
    """Aggregates that need every case report IncompleteBatch, not a crash."""
    monkeypatch.setattr(
        supervisor, "fault_plan", {"*": {"kind": "crash", "times": 99}}
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["socket", "--workload", "exchange2", "--core", "tiny",
                 "--threads", "2", "--instructions", "1500", "--keep-going"])
    assert code == 1
    captured = capsys.readouterr()
    assert "needs the whole 2-core engine run" in captured.err
    supervisor.clear_failures()
    clear_cache()
    # The homogeneous oracle path reports per-thread holes the same way.
    code = main(["socket", "--workload", "exchange2", "--core", "tiny",
                 "--threads", "2", "--instructions", "1500", "--keep-going",
                 "--homogeneous"])
    assert code == 1
    captured = capsys.readouterr()
    assert "needs all 2 threads" in captured.err
    supervisor.clear_failures()
    clear_cache()


def test_no_strict_flag_disables_guard(capsys):
    import os

    previous = os.environ.pop(invariants.ENV_STRICT, None)
    try:
        code = main(["paper", "--only", "table1", "--jobs", "1",
                     "--instructions", "1500", "--no-strict"])
        assert code == 0
        assert not invariants.strict_enabled()
        assert os.environ.get(invariants.ENV_STRICT) == "0", (
            "workers must inherit non-strict mode via the environment"
        )
    finally:
        invariants.set_strict(None)
        os.environ.pop(invariants.ENV_STRICT, None)
        if previous is not None:
            os.environ[invariants.ENV_STRICT] = previous
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "profile", "paper"])
@pytest.mark.parametrize("flag", ["--no-fast-forward", "--no-replay"])
def test_engine_switches_are_not_cli_flags(command, flag):
    """The skip engines have one switch, ``reference=True`` in the
    simulator API; the CLI carries no per-engine flags."""
    argv = [command, "mcf"] if command == "profile" else [command]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + [flag])


def test_checkpoints_commands(capsys):
    from repro.pipeline import checkpoint as ckpt

    ckpt.clear_checkpoints()
    capsys.readouterr()
    assert main(["checkpoints", "list"]) == 0
    assert "no checkpoints" in capsys.readouterr().out
    ckpt.save_checkpoint(
        ckpt.checkpoint_path("feed" * 16, 1200),
        b"payload",
        {"case": "mcf", "config": "bdw", "committed_instrs": 1200},
    )
    assert main(["checkpoints", "list"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "1200" in out
    assert main(["checkpoints", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert ckpt.list_checkpoints() == []


def test_checkpoint_interval_flag_sets_env(capsys, monkeypatch):
    import os

    from repro.experiments.runner import clear_cache
    from repro.pipeline.checkpoint import (
        ENV_CHECKPOINT_INTERVAL,
        checkpoint_interval_default,
    )

    monkeypatch.setenv(ENV_CHECKPOINT_INTERVAL, "")
    clear_cache()
    code = main(["paper", "--only", "fig5", "--jobs", "1",
                 "--instructions", "1500", "--checkpoint-interval", "400"])
    assert code == 0
    assert os.environ.get(ENV_CHECKPOINT_INTERVAL) == "400", (
        "workers must inherit the cadence via the environment"
    )
    assert checkpoint_interval_default() == 400
    clear_cache()
    capsys.readouterr()


def test_paper_claims_enforced_only_at_default_lengths(capsys, monkeypatch,
                                                       tmp_path):
    """A failed claim fails the command at the artifacts' own lengths;
    with --instructions it is reported but not enforced."""
    from repro.experiments import paper

    failing = paper.Artifact(
        "stub", lambda batch: batch["instructions"],
        lambda data, emit: emit(f"instructions {data}"),
        lambda data: {"n": data}, (), ("n == -1",),
    )
    monkeypatch.setattr(paper, "ARTIFACTS", {"stub": failing})
    assert main(["paper"]) == 1
    assert main(["paper", "--instructions", "10"]) == 0
    out = capsys.readouterr().out
    assert "FAILS" in out and "0 of 1 claims hold" in out
    assert (tmp_path / "results" / "paper" / "stub.txt").read_text() == (
        "instructions 10\n"
    )
