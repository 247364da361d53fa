"""Crash-safe checkpoint/resume: file format, bitwise-identical restart,
and supervisor-level crash recovery.

The contract under test has three layers:

1. **File format** — checkpoints are magic + checksummed JSON header +
   one pickle payload, written atomically; any torn, bit-flipped or
   stale-schema file is detected as :class:`CheckpointError`, never
   unpickled.
2. **Bitwise-identical restart** — a simulation interrupted at a
   checkpoint and resumed from disk must finish with a ``SimResult``
   identical (everything but host wall time) to an uninterrupted run, in
   every wrong-path mode, with and without warmup, on the production
   path (fast-forward and replay armed) and under ``reference=True``.  The differential matrix here
   enforces that.
3. **Supervised recovery** — a case whose worker is SIGKILLed mid-run is
   retried *from its newest checkpoint* (not from scratch), a corrupt
   checkpoint is evicted down the recovery ladder (older file, else
   fresh start — never an error, never wrong data), and a case given up
   on records how far its checkpoints provably got it.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import threading
from pathlib import Path

import pytest

from repro.config.presets import broadwell, knights_landing
from repro.core.multistage import CollectorSpec
from repro.core.wrongpath import WrongPathMode
from repro.experiments import parallel, runner, supervisor
from repro.experiments.cache import TELEMETRY, CaseSpec, Job
from repro.experiments.parallel import run_cases
from repro.experiments.runner import clear_cache, lookup_cached
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.checkpoint import CheckpointError
from repro.isa.instructions import Instruction, Program
from repro.pipeline.core import CoreSimulator
from repro.workloads.registry import make_trace

N = 2_000

#: Snapshot cadence used throughout: small enough that every test trace
#: crosses several due points before finishing.
INTERVAL = 300


def _start_method() -> str:
    """Pool start method for these tests (CI runs them under spawn too)."""
    return os.environ.get("REPRO_TEST_START_METHOD", "fork")


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_cache()
    TELEMETRY.reset()
    supervisor.clear_failures()
    supervisor.fault_plan = None
    ckpt.clear_checkpoints()
    yield
    supervisor.fault_plan = None
    supervisor.clear_failures()
    clear_cache()
    TELEMETRY.reset()
    ckpt.clear_checkpoints()


def _spec(seed: int = 1) -> CaseSpec:
    return CaseSpec(workload="mcf", preset="tiny", instructions=N, seed=seed)


def _comparable(result) -> dict:
    """Everything that must survive a resume bit-for-bit.

    Only host wall time is excluded — unlike the replay/fast-forward
    differential tests, the engines' skip counters are part of the
    checkpointed state and must match exactly.
    """
    payload = result.to_dict()
    payload.pop("wall_seconds")
    return payload


class _Interrupted(Exception):
    """Raised by the test hook to kill a run at a chosen checkpoint."""


def _run_interrupted_then_resumed(
    trace, config, *, key: str, kills: int = 2, interval: int = INTERVAL,
    **kwargs,
):
    """Run until the ``kills``-th checkpoint, die, resume from disk.

    Returns the resumed run's result.  If the simulation finishes before
    enough checkpoints land (a replay jump can cross several due points
    at once), the newest surviving snapshot is resumed anyway — restoring
    mid-flight state must be exact either way.
    """
    sim = CoreSimulator(trace, config, **kwargs)
    seen = 0

    def hook(path, instrs):
        nonlocal seen
        seen += 1
        if seen >= kills:
            raise _Interrupted

    try:
        sim.run(
            checkpoint_interval=interval, checkpoint_key=key,
            on_checkpoint=hook,
        )
    except _Interrupted:
        pass
    files = ckpt.list_case_checkpoints(key)
    assert files, "the interrupted run never wrote a checkpoint"
    return CoreSimulator.resume(files[-1], trace).run()


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "case" / "ckpt_000000000400.rck"
    meta = {"case": "mcf", "committed_instrs": 400}
    ckpt.save_checkpoint(path, b"\x00payload bytes\xff", meta)
    payload, loaded_meta = ckpt.load_checkpoint(path)
    assert payload == b"\x00payload bytes\xff"
    assert loaded_meta == meta
    assert not list(path.parent.glob("*.tmp*")), "atomic write leaves no tmp"


def test_load_rejects_missing_and_bad_magic(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        ckpt.load_checkpoint(tmp_path / "nope.rck")
    bad = tmp_path / "bad.rck"
    bad.write_bytes(b"definitely not a checkpoint file")
    with pytest.raises(CheckpointError, match="bad magic"):
        ckpt.load_checkpoint(bad)


def test_load_rejects_truncated_header(tmp_path):
    torn = tmp_path / "torn.rck"
    torn.write_bytes(ckpt.MAGIC + b'{"schema": 1')  # no closing newline
    with pytest.raises(CheckpointError, match="truncated"):
        ckpt.load_checkpoint(torn)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.rck"
    ckpt.save_checkpoint(path, b"data", {})
    blob = path.read_bytes()
    newline = blob.find(b"\n", len(ckpt.MAGIC))
    header = json.loads(blob[len(ckpt.MAGIC):newline])
    header["schema"] = ckpt.CHECKPOINT_SCHEMA + 999
    path.write_bytes(
        ckpt.MAGIC + json.dumps(header).encode() + b"\n" + blob[newline + 1:]
    )
    with pytest.raises(CheckpointError, match="schema"):
        ckpt.load_checkpoint(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.rck"
    ckpt.save_checkpoint(path, b"x" * 100, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(CheckpointError, match="truncated"):
        ckpt.load_checkpoint(path)


def test_load_rejects_flipped_payload_byte(tmp_path):
    path = tmp_path / "flip.rck"
    ckpt.save_checkpoint(path, b"y" * 100, {})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="SHA-256"):
        ckpt.load_checkpoint(path)


def test_interval_env_parsing(monkeypatch):
    monkeypatch.delenv(ckpt.ENV_CHECKPOINT_INTERVAL, raising=False)
    assert ckpt.checkpoint_interval_default() is None
    monkeypatch.setenv(ckpt.ENV_CHECKPOINT_INTERVAL, "")
    assert ckpt.checkpoint_interval_default() is None
    monkeypatch.setenv(ckpt.ENV_CHECKPOINT_INTERVAL, "0")
    assert ckpt.checkpoint_interval_default() is None
    monkeypatch.setenv(ckpt.ENV_CHECKPOINT_INTERVAL, "-4")
    assert ckpt.checkpoint_interval_default() is None
    monkeypatch.setenv(ckpt.ENV_CHECKPOINT_INTERVAL, "2500")
    assert ckpt.checkpoint_interval_default() == 2500
    monkeypatch.setenv(ckpt.ENV_CHECKPOINT_INTERVAL, "soon")
    with pytest.raises(CheckpointError) as excinfo:
        ckpt.checkpoint_interval_default()
    assert ckpt.ENV_CHECKPOINT_INTERVAL in str(excinfo.value)
    assert "'soon'" in str(excinfo.value)


# ---------------------------------------------------------------------------
# per-case store and the recovery ladder
# ---------------------------------------------------------------------------


def test_case_store_ordering_and_progress():
    key = "storetest"
    for instrs in (900, 300, 600):
        ckpt.save_checkpoint(
            ckpt.checkpoint_path(key, instrs), b"p", {"n": instrs}
        )
    files = ckpt.list_case_checkpoints(key)
    assert [f.name for f in files] == [
        "ckpt_000000000300.rck",
        "ckpt_000000000600.rck",
        "ckpt_000000000900.rck",
    ], "oldest (least progress) first"
    assert ckpt.newest_progress(key) == 900
    assert ckpt.newest_progress("no-such-case") is None


def test_recovery_ladder_evicts_corrupt_newest():
    key = "laddertest"
    ckpt.save_checkpoint(ckpt.checkpoint_path(key, 300), b"older", {"n": 300})
    newest = ckpt.checkpoint_path(key, 600)
    ckpt.save_checkpoint(newest, b"newer", {"n": 600})
    blob = bytearray(newest.read_bytes())
    blob[-1] ^= 0xFF
    newest.write_bytes(bytes(blob))

    found = ckpt.latest_valid_checkpoint(key)
    assert found is not None
    path, payload, meta = found
    assert payload == b"older" and meta == {"n": 300}
    assert not newest.exists(), "the corrupt rung is evicted on the way down"


def test_recovery_ladder_all_corrupt_means_fresh_start():
    key = "allbadtest"
    for instrs in (300, 600):
        path = ckpt.checkpoint_path(key, instrs)
        ckpt.save_checkpoint(path, b"z" * 50, {})
        path.write_bytes(path.read_bytes()[:-10])
    assert ckpt.latest_valid_checkpoint(key) is None
    assert ckpt.list_case_checkpoints(key) == [], "every bad file evicted"


def test_clear_checkpoints_sweeps_temp_files():
    key = "cleartest"
    ckpt.save_checkpoint(ckpt.checkpoint_path(key, 300), b"p", {})
    orphan = ckpt.checkpoint_dir_for(key) / "ckpt_000000000600.rck.tmp999"
    orphan.write_bytes(b"half-written")
    assert ckpt.clear_checkpoints(key) == 1
    assert not orphan.exists()
    assert not ckpt.checkpoint_dir_for(key).exists()


# ---------------------------------------------------------------------------
# deferred deletion: one case's checkpoints move aside for the reaper
# ---------------------------------------------------------------------------


def _reaping() -> Path:
    return ckpt.checkpoint_root() / ckpt.REAPING_DIR


def _leftovers() -> list[Path]:
    """Every file still under the reaping directory."""
    root = _reaping()
    return [p for p in root.rglob("*") if p.is_file()] if root.is_dir() else []


@pytest.fixture
def held_reaper(monkeypatch):
    """Hold this process's reaper inside its first deletion until the
    test sets the returned ``release`` event (``entered`` is set once it
    is held).  Other processes delete as usual."""
    entered, release = threading.Event(), threading.Event()
    rmtree, owner = shutil.rmtree, os.getpid()

    def held(path, *args, **kwargs):
        if os.getpid() == owner and ckpt.REAPING_DIR in Path(path).parts:
            entered.set()
            release.wait(60)
        return rmtree(path, *args, **kwargs)

    monkeypatch.setattr(shutil, "rmtree", held)
    yield entered, release
    release.set()
    ckpt.drain_reaper()


def test_clear_one_case_counts_files_and_frees_its_path(held_reaper):
    entered, release = held_reaper
    key = "reaptest"
    for instrs in (300, 600, 900):
        ckpt.save_checkpoint(ckpt.checkpoint_path(key, instrs), b"p", {})
    assert ckpt.clear_checkpoints(key) == 3
    assert not ckpt.checkpoint_dir_for(key).exists(), "the path is free"
    assert entered.wait(10)
    assert len(_leftovers()) == 3, "the old files await the reaper"
    # A rerun writes fresh checkpoints while the old ones are deleted;
    # neither recovery nor listing sees the old ones.
    ckpt.save_checkpoint(ckpt.checkpoint_path(key, 300), b"q", {})
    assert [p.name for p in ckpt.list_case_checkpoints(key)] == [
        "ckpt_000000000300.rck"
    ]
    assert [row["key"] for row in ckpt.list_checkpoints()] == [key]
    release.set()
    ckpt.drain_reaper()
    assert _leftovers() == []
    assert ckpt.latest_valid_checkpoint(key)[1] == b"q"


def test_clear_all_sweeps_stale_reaping_debris():
    stale = _reaping() / "deadbeef-999999999-1"
    stale.mkdir(parents=True)
    (stale / "ckpt_000000000300.rck").write_bytes(b"left by a crash")
    ckpt.save_checkpoint(ckpt.checkpoint_path("live", 300), b"p", {})
    assert ckpt.list_checkpoints()[0]["key"] == "live"
    assert len(ckpt.list_checkpoints()) == 1, "listing skips .reaping"
    assert ckpt.clear_checkpoints() == 1
    assert not _reaping().exists()
    assert ckpt.list_checkpoints() == []


def test_clear_deletes_in_place_when_the_rename_fails(monkeypatch):
    key = "norename"
    ckpt.save_checkpoint(ckpt.checkpoint_path(key, 300), b"p", {})

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "rename", refuse)
    assert ckpt.clear_checkpoints(key) == 1
    assert not ckpt.checkpoint_dir_for(key).exists()
    assert _leftovers() == [], "nothing was handed to the reaper"


def _clear_in_child(key: str) -> None:
    """Write, clear and drain one case in a child process."""
    ckpt.save_checkpoint(ckpt.checkpoint_path(key, 300), b"p", {})
    assert ckpt.clear_checkpoints(key) == 1
    ckpt.drain_reaper()
    assert not ckpt.checkpoint_dir_for(key).exists()


def test_pool_round_completes_while_the_reaper_is_mid_delete(held_reaper):
    entered, release = held_reaper
    ckpt.save_checkpoint(ckpt.checkpoint_path("busy", 300), b"p", {})
    ckpt.clear_checkpoints("busy")
    assert entered.wait(10)
    specs = [_spec(seed) for seed in (1, 2)]
    supervisor.fault_plan = {
        specs[0].key(): {"kind": "sigkill_mid_case", "times": 1}
    }
    results = run_cases(
        specs, jobs=2, mp_start_method=_start_method(), retry_backoff=0,
        checkpoint_interval=INTERVAL,
    )
    assert all(result is not None for result in results)
    assert parallel.LAST_BATCH.resumes >= 1
    # A forked child inherits a reaper with work outstanding but not its
    # thread; its own clear and drain must still finish.
    child = multiprocessing.get_context(_start_method()).Process(
        target=_clear_in_child, args=("child",)
    )
    child.start()
    child.join(30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "the child's drain waited on the parent's reaper"
    assert child.exitcode == 0
    release.set()
    ckpt.drain_reaper()
    assert _leftovers() == []
    for spec in specs:
        assert ckpt.list_case_checkpoints(spec.key()) == []


# ---------------------------------------------------------------------------
# differential matrix: interrupt + resume == uninterrupted, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 600])
def test_resume_bitwise_identical_across_modes(mode, warmup):
    trace = make_trace("mcf", N, 1)
    config = broadwell()
    reference = CoreSimulator(
        trace, config, mode=mode, warmup_instructions=warmup
    ).run()
    resumed = _run_interrupted_then_resumed(
        trace, config, key=f"modes-{mode.value}-{warmup}",
        mode=mode, warmup_instructions=warmup,
    )
    assert _comparable(resumed) == _comparable(reference)


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("legacy_issue_scan", [False, True])
def test_resume_bitwise_identical_with_skip_engines(reference,
                                                    legacy_issue_scan):
    """The quiescent fast-forward and steady-state replay engines carry
    mid-flight state (recorded windows, skip counters) that must survive
    the snapshot — including their telemetry, which ``_comparable`` here
    deliberately does *not* exclude.  The per-cycle reference and the
    scan scheduler resume with both engines still off."""
    trace = make_trace("spin", N, 1)
    config = broadwell()
    kwargs = dict(reference=reference, legacy_issue_scan=legacy_issue_scan)
    expected = CoreSimulator(trace, config, **kwargs).run()
    if reference or legacy_issue_scan:
        assert expected.ff_windows == 0 and expected.replay_windows == 0
    else:
        assert expected.ff_windows > 0 and expected.replay_windows > 0
    resumed = _run_interrupted_then_resumed(
        trace, config, key=f"skip-{reference}-{legacy_issue_scan}", **kwargs,
    )
    assert _comparable(resumed) == _comparable(expected)


@pytest.mark.parametrize("workload,preset", [
    ("exchange2", knights_landing),
    ("spin", knights_landing),
    ("bwaves", broadwell),
])
def test_resume_bitwise_identical_across_machines(workload, preset):
    trace = make_trace(workload, N, 1)
    config = preset()
    reference = CoreSimulator(
        trace, config, warmup_instructions=500
    ).run()
    resumed = _run_interrupted_then_resumed(
        trace, config, key=f"mach-{workload}-{config.name}",
        warmup_instructions=500,
    )
    assert _comparable(resumed) == _comparable(reference)


@pytest.mark.parametrize("workload,preset", [
    ("conv-vgg-2-fwd", broadwell),
    ("gemm-train-1760-knl", knights_landing),
])
def test_resume_mid_expansion_is_bitwise_identical(tmp_path, workload,
                                                   preset):
    """A checkpoint taken while an instruction is half delivered (the
    frontend cursor inside its micro-ops) stores no decode rows: restore
    re-derives the expansion from the pending instruction and the run
    finishes bit for bit like an uninterrupted one."""
    trace = make_trace(workload, N, 1)
    config = preset()
    expected = CoreSimulator(trace, config).run()
    sim = CoreSimulator(trace, config)
    fe = sim.frontend
    for _ in range(100_000):
        if (
            sim.committed_instrs >= N // 4
            and 0 < fe._decoded_idx < fe._decoded_len
        ):
            break
        sim._step_event()
    else:
        pytest.fail("no cycle ended with a half-delivered instruction")
    assert "decoded" not in fe.snapshot()
    path = tmp_path / "mid-expansion.rck"
    ckpt.save_checkpoint(path, sim.snapshot(), sim.checkpoint_meta())
    resumed = CoreSimulator.resume(path, trace)
    rfe = resumed.frontend
    assert rfe._decoded is rfe._pending_instr.uops
    assert (rfe._decoded_idx, rfe._decoded_len) == (
        fe._decoded_idx, fe._decoded_len
    )
    assert _comparable(resumed.run()) == _comparable(expected)


def test_resume_from_inside_warmup_region():
    """A checkpoint taken before the measured region starts must restore
    the warmup bookkeeping exactly (measure-start anchors included)."""
    trace = make_trace("mcf", N, 1)
    config = broadwell()
    reference = CoreSimulator(
        trace, config, warmup_instructions=1500
    ).run()
    resumed = _run_interrupted_then_resumed(
        trace, config, key="mid-warmup", kills=1,
        warmup_instructions=1500,
    )
    assert _comparable(resumed) == _comparable(reference)


@pytest.mark.parametrize("workload,preset", [
    ("exchange2", knights_landing),
    ("mcf", broadwell),
])
def test_mid_warmup_checkpoint_holds_no_collector(workload, preset):
    """Accountants attach at the warmup boundary, so a checkpoint taken
    before it carries none; the resumed run attaches them when it crosses
    the boundary and finishes bitwise identical to the uninterrupted run.
    Replay jumps during warmup stop short of the boundary, so even the
    loop trace is still in warmup at its first checkpoint."""
    trace = make_trace(workload, N, 1)
    config = preset()
    reference = CoreSimulator(
        trace, config, warmup_instructions=1500
    ).run()
    sim = CoreSimulator(trace, config, warmup_instructions=1500)

    def hook(path, instrs):
        raise _Interrupted

    key = f"warmup-{workload}"
    with pytest.raises(_Interrupted):
        sim.run(checkpoint_interval=INTERVAL, checkpoint_key=key,
                on_checkpoint=hook)
    (path,) = ckpt.list_case_checkpoints(key)
    payload, _meta = ckpt.load_checkpoint(path)
    _data, state = ckpt.unpack_snapshot(payload, [trace])
    assert not state["warmed"]
    assert state["collectors"] == [None]
    resumed = CoreSimulator.from_snapshot(payload, trace)
    assert resumed.collector is None
    result = resumed.run()
    assert resumed._warmed and resumed.collector is not None
    assert _comparable(result) == _comparable(reference)


@pytest.mark.parametrize("kwargs,key", [
    ({"topdown": True}, "variant-topdown"),
    ({"accounting": False}, "variant-noacct"),
    ({"legacy_issue_scan": True}, "variant-legacy"),
])
def test_resume_bitwise_identical_simulator_variants(kwargs, key):
    trace = make_trace("bwaves", N, 1)
    config = broadwell()
    reference = CoreSimulator(trace, config, **kwargs).run()
    resumed = _run_interrupted_then_resumed(
        trace, config, key=key, **kwargs
    )
    assert _comparable(resumed) == _comparable(reference)


def test_checkpointing_itself_does_not_perturb_the_run():
    """Snapshots are pure observers: a run that checkpoints every 300
    instructions to completion matches a run that never checkpoints."""
    trace = make_trace("mcf", N, 1)
    config = broadwell()
    plain = CoreSimulator(trace, config).run()
    observed = CoreSimulator(trace, config).run(
        checkpoint_interval=INTERVAL, checkpoint_key="observer"
    )
    assert _comparable(observed) == _comparable(plain)
    assert ckpt.list_case_checkpoints("observer"), "snapshots were written"


# ---------------------------------------------------------------------------
# state-only payloads: the program is supplied on restore, identity-checked
# ---------------------------------------------------------------------------


class _StrictPickler(ckpt._SnapshotPickler):
    """Refuses to serialize an input trace or any of its instructions."""

    def reducer_override(self, obj):
        if isinstance(obj, (Instruction, Program)):
            raise AssertionError(
                f"snapshot payload serializes a {type(obj).__name__}"
            )
        return NotImplemented


@pytest.fixture
def strict_pickler(monkeypatch):
    monkeypatch.setattr(ckpt, "_SnapshotPickler", _StrictPickler)


def test_strict_pickler_catches_a_program(strict_pickler):
    """The payload checks below are not vacuous: a program anywhere in
    the envelope or the state trips the strict pickler."""
    trace = make_trace("mcf", 100, 1)
    with pytest.raises(AssertionError, match="Program"):
        ckpt.pack_snapshot({"program": trace}, [], {}, {})
    with pytest.raises(AssertionError, match="Program"):
        ckpt.pack_snapshot({}, [], {"program": trace}, {})


def test_single_core_payload_holds_no_program(strict_pickler):
    trace = make_trace("mcf", N, 1)
    config = broadwell()
    reference = CoreSimulator(trace, config).run()
    resumed = _run_interrupted_then_resumed(trace, config, key="strict-one")
    assert _comparable(resumed) == _comparable(reference)


def test_fused_payload_holds_no_program(strict_pickler):
    trace = make_trace("bwaves", N, 1)
    config = broadwell()
    collectors = (
        CollectorSpec(),
        CollectorSpec(topdown=True),
        CollectorSpec(accounting=False),
    )
    reference = CoreSimulator(trace, config, collectors=collectors)
    reference.run()
    sim = CoreSimulator(trace, config, collectors=collectors)

    def hook(path, instrs):
        raise _Interrupted

    with pytest.raises(_Interrupted):
        sim.run(
            checkpoint_interval=INTERVAL, checkpoint_key="strict-fused",
            on_checkpoint=hook,
        )
    (path,) = ckpt.list_case_checkpoints("strict-fused")
    resumed = CoreSimulator.resume(path, trace)
    resumed.run()
    assert [_comparable(r) for r in resumed.fused_results] == (
        [_comparable(r) for r in reference.fused_results]
    )


def test_restored_state_references_the_supplied_trace():
    """In-flight micro-ops resolve to the supplied program's own
    instruction objects, as in the live pipeline."""
    trace = make_trace("mcf", N, 1)
    sim = CoreSimulator(trace, broadwell())

    def hook(path, instrs):
        if instrs >= 2 * INTERVAL:  # the first snapshot finds an empty ROB
            raise _Interrupted

    with pytest.raises(_Interrupted):
        sim.run(
            checkpoint_interval=INTERVAL, checkpoint_key="refs",
            on_checkpoint=hook,
        )
    newest = ckpt.list_case_checkpoints("refs")[-1]
    payload, _meta = ckpt.load_checkpoint(newest)
    restored = CoreSimulator.from_snapshot(payload, trace)
    owned = {id(instr) for instr in trace.instructions}
    instrs = [u.instr for u in restored.rob if u.instr is not None]
    assert instrs, "the checkpoint caught no in-flight instruction"
    assert all(id(instr) in owned for instr in instrs)


def _altered_pc(trace: Program) -> Program:
    """A copy of ``trace`` (same name and length) with one pc moved."""
    instrs = list(trace.instructions)
    instrs[-1] = dataclasses.replace(instrs[-1], pc=instrs[-1].pc + 4)
    return Program(trace.name, instrs)


@pytest.mark.parametrize("other", [
    pytest.param(lambda trace: make_trace("bwaves", N, 1), id="workload"),
    pytest.param(lambda trace: make_trace("mcf", N + 100, 1), id="length"),
    pytest.param(_altered_pc, id="one-pc"),
])
def test_resume_into_a_different_program_is_refused(other):
    trace = make_trace("mcf", N, 1)
    sim = CoreSimulator(trace, broadwell())

    def hook(path, instrs):
        raise _Interrupted

    with pytest.raises(_Interrupted):
        sim.run(
            checkpoint_interval=INTERVAL, checkpoint_key="mismatch",
            on_checkpoint=hook,
        )
    (path,) = ckpt.list_case_checkpoints("mismatch")
    payload, _meta = ckpt.load_checkpoint(path)
    wrong = other(trace)
    with pytest.raises(CheckpointError, match="does not match"):
        CoreSimulator.from_snapshot(payload, wrong)
    with pytest.raises(CheckpointError, match="does not match"):
        CoreSimulator.resume(path, wrong)
    # The genuine trace still resumes.
    assert CoreSimulator.from_snapshot(payload, trace).committed_instrs > 0


def test_program_identity_separates_traces():
    trace = make_trace("mcf", N, 1)
    identity = ckpt.program_identity(trace)
    assert identity == ckpt.program_identity(make_trace("mcf", N, 1))
    assert identity["instructions"] == len(trace)
    assert identity["uops"] == trace.uop_count
    assert identity != ckpt.program_identity(make_trace("mcf", N, 2))
    assert identity != ckpt.program_identity(_altered_pc(trace))


# ---------------------------------------------------------------------------
# runner-level resume
# ---------------------------------------------------------------------------


class _StopSeeding(Exception):
    pass


def _seed_checkpoints(spec: CaseSpec, *, count: int = 1,
                      interval: int = 400) -> list:
    """Run ``spec`` until ``count`` checkpoints land, then die — leaving
    realistic on-disk snapshots for a recovery test to find."""
    seen = 0

    def hook(path, instrs):
        nonlocal seen
        seen += 1
        if seen >= count:
            raise _StopSeeding

    with pytest.raises(_StopSeeding):
        runner.execute_spec_checkpointed(Job((spec,)), interval, hook)
    files = ckpt.list_case_checkpoints(spec.key())
    assert len(files) >= count
    return files


def test_execute_spec_checkpointed_resumes_from_disk():
    spec = _spec()
    clean = runner.execute_spec(spec)
    ckpt.clear_checkpoints(spec.key())
    TELEMETRY.reset()

    _seed_checkpoints(spec, count=1)
    TELEMETRY.reset()
    (result,), resumed_from = runner.execute_spec_checkpointed(
        Job((spec,)), 400
    )
    assert resumed_from is not None and resumed_from >= 400
    assert _comparable(result) == _comparable(clean)
    assert TELEMETRY.resume_events == 1
    assert TELEMETRY.resumed_instructions == resumed_from


def test_execute_spec_without_interval_never_touches_the_store():
    spec = _spec()
    (result,), resumed_from = runner.execute_spec_checkpointed(
        Job((spec,)), None
    )
    assert resumed_from is None
    assert ckpt.list_case_checkpoints(spec.key()) == []
    assert TELEMETRY.resume_events == 0
    assert result is not None


def _plant(path, key: str, progress: int):
    """Move checkpoint ``path`` into ``key``'s store at ``progress``."""
    planted = ckpt.checkpoint_path(key, progress)
    planted.parent.mkdir(parents=True, exist_ok=True)
    os.replace(path, planted)
    return planted


def test_mismatching_checkpoint_is_evicted_and_case_restarts_fresh():
    """A checkpoint of another trace under this case's key (valid file,
    wrong program) is evicted like a corrupt rung: fresh start, same
    result as an uninterrupted run."""
    spec = _spec()
    clean = runner.execute_spec(spec)
    other = _spec(seed=2)
    foreign = _seed_checkpoints(other, count=1)[-1]
    planted = _plant(foreign, spec.key(), 10**9)
    TELEMETRY.reset()
    (result,), resumed_from = runner.execute_spec_checkpointed(
        Job((spec,)), 400
    )
    assert resumed_from is None
    assert TELEMETRY.resume_events == 0
    assert not planted.exists(), "the mismatching checkpoint was evicted"
    assert _comparable(result) == _comparable(clean)


def test_mismatching_newest_checkpoint_falls_back_to_older_one():
    spec = _spec()
    clean = runner.execute_spec(spec)
    valid = _seed_checkpoints(spec, count=1)[-1]
    progress = ckpt.newest_progress(spec.key())
    foreign = _seed_checkpoints(_spec(seed=2), count=2)[-1]
    planted = _plant(foreign, spec.key(), 10**9)
    (result,), resumed_from = runner.execute_spec_checkpointed(
        Job((spec,)), 400
    )
    assert resumed_from == progress
    assert not planted.exists()
    assert valid.exists()
    assert _comparable(result) == _comparable(clean)


def test_schema_2_checkpoint_is_evicted_and_case_restarts_fresh():
    """A file written under the previous payload layout (schema 2) is
    rejected by its header and evicted, never misread."""
    spec = _spec()
    clean = runner.execute_spec(spec)
    (path,) = _seed_checkpoints(spec, count=1)
    blob = path.read_bytes()
    newline = blob.find(b"\n", len(ckpt.MAGIC))
    header = json.loads(blob[len(ckpt.MAGIC):newline])
    header["schema"] = 2
    path.write_bytes(
        ckpt.MAGIC + json.dumps(header).encode() + b"\n" + blob[newline + 1:]
    )
    TELEMETRY.reset()
    (result,), resumed_from = runner.execute_spec_checkpointed(
        Job((spec,)), 400
    )
    assert resumed_from is None
    assert TELEMETRY.resume_events == 0
    assert _comparable(result) == _comparable(clean)
    for left in ckpt.list_case_checkpoints(spec.key()):
        ckpt.load_checkpoint(left)  # every survivor is a current-schema file


def test_content_shared_job_resumes_bitwise():
    """A job serving equal traces under different names (the Fig. 4
    sgemm kernels) dies after its first checkpoint and resumes; every
    member matches its own uninterrupted unfused run bit for bit."""
    specs = [
        CaseSpec(workload=name, preset="knl", instructions=N)
        for name in ("gemm-train-1760-knl", "gemm-train-2048-knl",
                     "gemm-infer-1024-knl")
    ]
    unfused = run_cases(specs, jobs=1, use_cache=False, fuse=False)
    clear_cache()
    (job,) = parallel._group_jobs({s.key(): s for s in specs}, True)
    assert len(job.specs) == len(specs)

    def hook(path, instrs):
        raise _Interrupted

    with pytest.raises(_Interrupted):
        runner.execute_spec_checkpointed(job, INTERVAL, on_checkpoint=hook)
    assert ckpt.list_case_checkpoints(job.key())
    results, resumed_from = runner.execute_spec_checkpointed(job, INTERVAL)
    assert resumed_from is not None and resumed_from > 0
    for spec, a, b in zip(specs, unfused, results):
        assert _comparable(a) == _comparable(b), spec.label()


# ---------------------------------------------------------------------------
# supervised crash recovery
# ---------------------------------------------------------------------------


def test_sigkill_mid_case_recovers_by_resuming_pool():
    specs = [_spec(seed) for seed in (1, 2)]
    clean = [_comparable(r) for r in run_cases(specs, jobs=1)]
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {
        specs[0].label(): {"kind": "sigkill_mid_case", "times": 1}
    }
    results = run_cases(
        specs, jobs=2, mp_start_method=_start_method(), retry_backoff=0,
        checkpoint_interval=400,
    )
    assert [_comparable(r) for r in results] == clean, (
        "a SIGKILLed-then-resumed case must produce the identical result"
    )
    stats = parallel.LAST_BATCH
    assert stats.failures == 0
    assert stats.resumes >= 1, "the retry resumed instead of restarting"
    assert stats.resumed_instructions >= 400
    assert TELEMETRY.resume_events >= 1, (
        "the parent re-records resumes its dead worker could not report"
    )
    assert "resumed" in stats.summary()
    for spec in specs:
        assert ckpt.list_case_checkpoints(spec.key()) == [], (
            "checkpoints are dead weight once the result is published"
        )
    assert not supervisor.failed_keys()


def test_sigkill_mid_case_recovers_by_resuming_serial():
    spec = _spec()
    clean, = run_cases([spec], jobs=1)
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {"*": {"kind": "sigkill_mid_case", "times": 1}}
    result, = run_cases(
        [spec], jobs=1, retry_backoff=0, checkpoint_interval=400
    )
    assert _comparable(result) == _comparable(clean)
    stats = parallel.LAST_BATCH
    assert stats.resumes == 1 and stats.failures == 0
    assert TELEMETRY.resume_events == 1
    assert ckpt.list_case_checkpoints(spec.key()) == []


def test_sigkill_env_interval_reaches_recovery(monkeypatch):
    """The cadence travels by environment (pool workers inherit it), so
    recovery must also work when nothing passes an explicit interval."""
    spec = _spec()
    clean, = run_cases([spec], jobs=1)
    clear_cache()
    TELEMETRY.reset()
    monkeypatch.setenv(ckpt.ENV_CHECKPOINT_INTERVAL, "400")
    supervisor.fault_plan = {"*": {"kind": "sigkill_mid_case", "times": 1}}
    result, = run_cases([spec], jobs=1, retry_backoff=0)
    assert _comparable(result) == _comparable(clean)
    assert parallel.LAST_BATCH.resumes == 1


def test_sigkill_without_checkpointing_restarts_fresh():
    spec = _spec()
    clean, = run_cases([spec], jobs=1)
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {"*": {"kind": "sigkill_mid_case", "times": 1}}
    result, = run_cases([spec], jobs=1, retry_backoff=0)
    assert _comparable(result) == _comparable(clean)
    stats = parallel.LAST_BATCH
    assert stats.retries >= 1 and stats.resumes == 0, (
        "no checkpoint ever landed, so the retry starts over"
    )


def test_given_up_case_records_checkpoint_progress():
    """Every SIGKILLed attempt still moves the case forward through its
    own checkpoint; the final FailureReport must record how far."""
    spec = _spec()
    supervisor.fault_plan = {
        "*": {"kind": "sigkill_mid_case", "times": 99}
    }
    results = run_cases(
        [spec], jobs=1, keep_going=True, max_attempts=3, retry_backoff=0,
        checkpoint_interval=400,
    )
    assert results == [None]
    report = parallel.LAST_BATCH.failure_reports[spec.key()]
    # Attempt 0 checkpoints at ~400; attempt 1 resumes there and reaches
    # ~800; attempt 2 reaches ~1200 before dying for good.
    assert report.resumed_from is not None
    assert 3 * 400 <= report.resumed_from < N
    record = supervisor.load_failure(spec.key())
    assert record is not None
    assert record["resumed_from"] == report.resumed_from
    assert ckpt.list_case_checkpoints(spec.key()), (
        "a failed case keeps its checkpoints as the next run's head start"
    )


def test_truncated_checkpoint_falls_back_to_older_snapshot():
    spec = _spec()
    clean, = run_cases([spec], jobs=1)
    clear_cache()
    ckpt.clear_checkpoints(spec.key())
    _seed_checkpoints(spec, count=2)
    TELEMETRY.reset()
    supervisor.fault_plan = {
        "*": {"kind": "truncate_checkpoint", "times": 1}
    }
    result, = run_cases(
        [spec], jobs=1, retry_backoff=0, checkpoint_interval=400
    )
    assert _comparable(result) == _comparable(clean), (
        "a torn newest checkpoint must never corrupt the result"
    )
    stats = parallel.LAST_BATCH
    assert stats.failures == 0
    assert stats.resumes == 1, "recovery stepped down to the older snapshot"


def test_truncated_only_checkpoint_falls_back_to_fresh_start():
    spec = _spec()
    clean, = run_cases([spec], jobs=1)
    clear_cache()
    ckpt.clear_checkpoints(spec.key())
    _seed_checkpoints(spec, count=1)
    TELEMETRY.reset()
    supervisor.fault_plan = {
        "*": {"kind": "truncate_checkpoint", "times": 1}
    }
    result, = run_cases(
        [spec], jobs=1, retry_backoff=0, checkpoint_interval=400
    )
    assert _comparable(result) == _comparable(clean)
    stats = parallel.LAST_BATCH
    assert stats.failures == 0
    assert stats.resumes == 0, (
        "the only snapshot was torn: evict it and start fresh, no error"
    )


# ---------------------------------------------------------------------------
# fault-plan validation (actionable errors)
# ---------------------------------------------------------------------------


def test_fault_plan_unknown_kind_is_actionable():
    supervisor.fault_plan = {"*": {"kind": "meteor-strike"}}
    with pytest.raises(ValueError) as excinfo:
        supervisor.get_fault_plan()
    message = str(excinfo.value)
    assert "meteor-strike" in message
    assert "sigkill_mid_case" in message, "known kinds are listed"


def test_fault_plan_non_dict_entry_is_actionable():
    supervisor.fault_plan = {"*": "crash"}
    with pytest.raises(ValueError, match="fault object"):
        supervisor.get_fault_plan()


def test_fault_plan_non_dict_top_level_is_actionable():
    supervisor.fault_plan = ["crash"]
    with pytest.raises(ValueError, match="JSON object"):
        supervisor.get_fault_plan()


def test_fault_plan_env_json_error_names_position(monkeypatch):
    broken = '{"mcf@tiny": {"kind": "crash", }}'
    monkeypatch.setenv(supervisor.ENV_FAULT_PLAN, broken)
    with pytest.raises(ValueError) as excinfo:
        supervisor.get_fault_plan()
    message = str(excinfo.value)
    assert supervisor.ENV_FAULT_PLAN in message
    assert "position" in message
    assert "crash" in message, "the offending neighbourhood is quoted"


def test_fault_plan_env_unknown_kind_names_source(monkeypatch):
    monkeypatch.setenv(
        supervisor.ENV_FAULT_PLAN, json.dumps({"*": {"kind": "sigill"}})
    )
    with pytest.raises(ValueError) as excinfo:
        supervisor.get_fault_plan()
    assert supervisor.ENV_FAULT_PLAN in str(excinfo.value)


# ---------------------------------------------------------------------------
# failure-report store: durability and retention
# ---------------------------------------------------------------------------


def _report(key: str, label: str = "mcf@tiny") -> supervisor.FailureReport:
    return supervisor.FailureReport(
        key=key, label=label, classification="crash",
        attempts=[supervisor.Attempt(
            attempt=0, classification="crash", error="boom",
            elapsed_seconds=0.1, executor="serial",
        )],
        spec={"workload": "mcf"},
    )


def test_save_failure_is_atomic_and_leaves_no_temp_files():
    report = _report("aa" * 32)
    supervisor.save_failure(report)
    root = supervisor.failures_dir()
    assert not list(root.glob("*.tmp*"))
    loaded = supervisor.load_failure(report.key)
    assert loaded is not None and loaded["resumed_from"] is None


def test_failure_store_caps_to_newest(monkeypatch):
    monkeypatch.setenv(supervisor.ENV_MAX_FAILURES, "3")
    keys = [f"{chr(ord('a') + i) * 2}" * 32 for i in range(5)]
    for i, key in enumerate(keys):
        supervisor.save_failure(_report(key))
        # Distinct mtimes (filesystem resolution can tie fast writes).
        os.utime(supervisor.failure_path(key), times=(1000 + i, 1000 + i))
    survivors = {r["key"] for r in supervisor.list_failures()}
    assert survivors == set(keys[-3:]), "only the newest cap survives"


def test_list_failures_newest_first():
    first, second = _report("bb" * 32, label="older"), \
        _report("cc" * 32, label="newer")
    supervisor.save_failure(first)
    supervisor.save_failure(second)
    os.utime(supervisor.failure_path(first.key), times=(1000.0, 1000.0))
    os.utime(supervisor.failure_path(second.key), times=(2000.0, 2000.0))
    # list_failures orders by the record's own save stamp:
    path = supervisor.failure_path(first.key)
    record = json.loads(path.read_text())
    record["saved_unix"] -= 10_000.0
    path.write_text(json.dumps(record))
    labels = [r["label"] for r in supervisor.list_failures()]
    assert labels == ["newer", "older"]


def test_max_failures_env_resolution(monkeypatch):
    monkeypatch.delenv(supervisor.ENV_MAX_FAILURES, raising=False)
    assert supervisor.max_failures() == supervisor.DEFAULT_MAX_FAILURES
    monkeypatch.setenv(supervisor.ENV_MAX_FAILURES, "7")
    assert supervisor.max_failures() == 7
    monkeypatch.setenv(supervisor.ENV_MAX_FAILURES, "0")
    assert supervisor.max_failures() == 0, "zero disables eviction"
    monkeypatch.setenv(supervisor.ENV_MAX_FAILURES, "lots")
    with pytest.raises(ValueError) as excinfo:
        supervisor.max_failures()
    assert supervisor.ENV_MAX_FAILURES in str(excinfo.value)


# ---------------------------------------------------------------------------
# cancellation: Ctrl-C with checkpointing active
# ---------------------------------------------------------------------------


def _assert_no_orphan_files():
    root = ckpt.checkpoint_root()
    if root.is_dir():
        assert not list(root.rglob("*.tmp*")), "no torn snapshot survives"


def test_keyboard_interrupt_serial_preserves_published_work():
    done, interrupted = _spec(1), _spec(2)
    supervisor.fault_plan = {
        interrupted.key()[:16]: {"kind": "interrupt", "times": 1}
    }
    with pytest.raises(KeyboardInterrupt):
        run_cases(
            [done, interrupted], jobs=1, retry_backoff=0,
            checkpoint_interval=INTERVAL,
        )
    assert lookup_cached(done, done.key()) is not None, (
        "work published before Ctrl-C survives it"
    )
    assert ckpt.list_case_checkpoints(done.key()) == [], (
        "the published case's checkpoints were already cleared"
    )
    _assert_no_orphan_files()
    # The harness stays usable: the finished case comes from cache.
    supervisor.fault_plan = None
    TELEMETRY.reset()
    results = run_cases([done, interrupted], jobs=1)
    assert all(r is not None for r in results)
    assert TELEMETRY.sim_invocations == 1


def test_keyboard_interrupt_pool_cancels_and_preserves_published_work():
    done, interrupted = _spec(1), _spec(2)
    supervisor.fault_plan = {
        interrupted.key()[:16]: {"kind": "interrupt", "times": 1}
    }
    with pytest.raises(KeyboardInterrupt):
        run_cases(
            [done, interrupted], jobs=2, mp_start_method=_start_method(),
            retry_backoff=0, checkpoint_interval=INTERVAL,
        )
    # Deterministic collection order: the healthy case was published
    # before the interrupted case's future re-raised Ctrl-C, and the
    # pool was shut down with its pending futures cancelled.
    assert lookup_cached(done, done.key()) is not None
    assert ckpt.list_case_checkpoints(done.key()) == []
    _assert_no_orphan_files()
    supervisor.fault_plan = None
    TELEMETRY.reset()
    results = run_cases([done, interrupted], jobs=1)
    assert all(r is not None for r in results)
    assert TELEMETRY.sim_invocations == 1


# ---------------------------------------------------------------------------
# spawn parity (CI also runs this module's recovery under spawn)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_sigkill_recovery_under_spawn():
    specs = [_spec(seed) for seed in (1, 2)]
    clean = [_comparable(r) for r in run_cases(specs, jobs=1)]
    clear_cache()
    TELEMETRY.reset()
    supervisor.fault_plan = {
        specs[0].label(): {"kind": "sigkill_mid_case", "times": 1}
    }
    results = run_cases(
        specs, jobs=2, mp_start_method="spawn", retry_backoff=0,
        checkpoint_interval=400,
    )
    assert [_comparable(r) for r in results] == clean
    assert parallel.LAST_BATCH.resumes >= 1
    assert parallel.LAST_BATCH.failures == 0
