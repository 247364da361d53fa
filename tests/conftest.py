"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.config.presets import broadwell, knights_landing, tiny_core
from repro.isa import decoder as asm
from repro.isa.instructions import Instruction, Program
from repro.pipeline import checkpoint as ckpt
from repro.workloads.base import DATA_BASE, TraceBuilder


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache(tmp_path_factory):
    """Point the persistent result cache at a per-session temp dir.

    Tests clear and corrupt the cache freely; none of that may touch the
    developer's real ``results/.cache``.  Set via the environment so pool
    worker processes (fork and spawn alike) inherit the same location.
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def _isolated_failures_dir(tmp_path_factory):
    """Point the supervisor's failure-report store at a temp dir.

    Fault-injection tests persist and clear failure records; the real
    ``results/failures`` must stay untouched.  Environment-based for the
    same pool-worker-inheritance reason as the cache fixture.
    """
    failures = tmp_path_factory.mktemp("repro-failures")
    previous = os.environ.get("REPRO_FAILURES_DIR")
    os.environ["REPRO_FAILURES_DIR"] = str(failures)
    yield failures
    if previous is None:
        os.environ.pop("REPRO_FAILURES_DIR", None)
    else:
        os.environ["REPRO_FAILURES_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def _isolated_checkpoint_dir(tmp_path_factory):
    """Point the crash-recovery checkpoint store at a temp dir.

    Checkpoint tests kill simulations mid-flight and corrupt snapshot
    files on purpose; the real ``results/.checkpoints`` must stay
    untouched.  Environment-based so pool workers inherit the location.
    """
    checkpoints = tmp_path_factory.mktemp("repro-checkpoints")
    previous = os.environ.get("REPRO_CHECKPOINT_DIR")
    os.environ["REPRO_CHECKPOINT_DIR"] = str(checkpoints)
    yield checkpoints
    if previous is None:
        os.environ.pop("REPRO_CHECKPOINT_DIR", None)
    else:
        os.environ["REPRO_CHECKPOINT_DIR"] = previous


class _StrictPickler(ckpt._SnapshotPickler):
    """Refuses to serialize a program, an instruction list or an
    instruction by value: each must be written as a reference."""

    def persistent_id(self, obj):
        ref = self._refs.get(id(obj))
        if ref is None:
            if isinstance(obj, (Instruction, Program)):
                kind = type(obj).__name__
            elif type(obj) is list and obj and isinstance(obj[0], Instruction):
                kind = "instruction list"
            else:
                return None
            raise AssertionError(f"snapshot payload serializes a {kind}")
        return ref


@pytest.fixture
def strict_pickler(monkeypatch):
    """Checkpoint payloads pickled through :class:`_StrictPickler`."""
    monkeypatch.setattr(ckpt, "_SnapshotPickler", _StrictPickler)


@pytest.fixture
def tiny():
    """A small core configuration that exposes stalls with short traces."""
    return tiny_core()


@pytest.fixture
def bdw():
    return broadwell()


@pytest.fixture
def knl():
    return knights_landing()


def straightline_alu(n: int, *, ilp: int = 8) -> Program:
    """n independent-chain ALU instructions (ilp parallel chains).

    The pc wraps inside one I-cache line so the instruction stream itself
    never misses (these helpers isolate backend behaviour).
    """
    b = TraceBuilder("straightline", seed=1)
    base = b.pc
    for i in range(n):
        reg = 2 + i % ilp
        b.at(base + (i % 8) * 4)
        b.emit(asm.alu(b.pc, dst=reg, srcs=(reg,)))
    return b.program()


def serial_chain(n: int, kind: str = "alu") -> Program:
    """n instructions forming one serial dependence chain."""
    b = TraceBuilder("chain", seed=1)
    builders = {"alu": asm.alu, "mul": asm.mul, "div": asm.div}
    build = builders[kind]
    base = b.pc
    for i in range(n):
        b.at(base + (i % 8) * 4)
        b.emit(build(b.pc, dst=2, srcs=(2,)))
    return b.program()


def load_loop(
    n: int,
    *,
    lines: int = 4,
    dependent: bool = False,
    stride_lines: int = 1,
) -> Program:
    """n loads walking ``lines`` cache lines (optionally chained)."""
    b = TraceBuilder("loads", seed=1)
    base = b.pc
    for i in range(n):
        addr = DATA_BASE + (i * stride_lines % lines) * 64
        srcs = (2,) if dependent else (1,)
        b.at(base + (i % 8) * 4)
        b.emit(asm.load(b.pc, dst=2, addr=addr, addr_srcs=srcs))
    return b.program()


def branch_loop(
    n: int,
    *,
    pattern: str = "taken",
    body: int = 3,
) -> Program:
    """n loop iterations ending in a branch with the given direction
    pattern ('taken', 'alternate', 'never')."""
    b = TraceBuilder("branches", seed=1)
    loop_pc = b.pc
    for i in range(n):
        b.at(loop_pc)
        for j in range(body):
            reg = 2 + j
            b.emit(asm.alu(b.pc, dst=reg, srcs=(reg,)))
        if pattern == "taken":
            taken = True
        elif pattern == "never":
            taken = False
        else:
            taken = i % 2 == 0
        b.emit(asm.branch(b.pc, taken=taken, target=loop_pc, srcs=(2,)))
    return b.program()
