"""Direct unit tests for pipeline building blocks (frontend, FU pool,
in-flight records, results)."""

import dataclasses

import pytest

from repro.branch.predictors import make_predictor
from repro.config.presets import tiny_core
from repro.core.components import Component
from repro.isa import decoder as asm
from repro.isa.instructions import Program
from repro.isa.uops import UopClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.frontend import Frontend
from repro.pipeline.inflight import InflightUop
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.result import SimResult
from repro.workloads.base import TraceBuilder


def make_frontend(instrs, config=None):
    config = config or tiny_core()
    prog = Program("fe-test")
    prog.extend(instrs)
    hierarchy = MemoryHierarchy(config.memory)
    predictor = make_predictor(config.predictor, config.predictor_bits,
                               config.btb_entries)
    return Frontend(prog, config, hierarchy, predictor), config


def small_loop(n=8):
    b = TraceBuilder("loop", seed=1)
    base = b.pc
    out = []
    for i in range(n):
        b.at(base)
        out.append(b.emit(asm.alu(b.pc, dst=2, srcs=(2,))))
    return out


# --- Frontend ---------------------------------------------------------------

def test_frontend_delivers_in_program_order():
    fe, _ = make_frontend(small_loop(6))
    delivered = []
    cycle = 0
    while not fe.idle and cycle < 200:
        delivered.extend(fe.deliver(cycle, room=8))
        cycle += 1
    assert [u.seq for u in delivered] == sorted(u.seq for u in delivered)
    assert len(delivered) == 6


def test_frontend_respects_room():
    fe, _ = make_frontend(small_loop(8))
    # Drain the initial I-cache stall first.
    cycle = 0
    out = []
    while not out and cycle < 200:
        out = fe.deliver(cycle, room=1)
        cycle += 1
    assert len(out) == 1
    assert fe.deliver(cycle, room=0) == []


def test_frontend_icache_stall_reports_reason():
    fe, config = make_frontend(small_loop(4))
    # First fetch misses the cold I-cache.
    assert fe.deliver(0, room=8) == []
    assert fe.reason(1) is Component.ICACHE


def test_frontend_decode_width_limits_delivery():
    fe, config = make_frontend(small_loop(8))
    cycle = 0
    out = []
    while not out and cycle < 200:
        out = fe.deliver(cycle, room=8)
        cycle += 1
    assert len(out) <= config.decode_width


def test_frontend_microcode_rate_limit():
    b = TraceBuilder("micro", seed=1)
    instrs = [b.emit(asm.microcoded_fp(b.pc, dst=40, srcs=(32,),
                                       n_uops=4))]
    fe, config = make_frontend(instrs)
    cycle = 0
    per_cycle = []
    while not fe.idle and cycle < 300:
        per_cycle.append(len(fe.deliver(cycle, room=8)))
        cycle += 1
    assert max(per_cycle) <= config.microcode_uops_per_cycle


def test_frontend_mispredict_enters_wrong_path():
    b = TraceBuilder("br", seed=1)
    instrs = [
        b.emit(asm.alu(b.pc, dst=2, srcs=(2,))),
        # Taken branch: the cold BTB cannot know the target -> mispredict.
        b.emit(asm.branch(b.pc, taken=True, target=0x400000, srcs=(2,))),
        b.emit(asm.alu(b.pc, dst=3, srcs=(3,))),
    ]
    fe, _ = make_frontend(instrs)
    cycle = 0
    while not fe.wrong_path and cycle < 300:
        fe.deliver(cycle, room=8)
        cycle += 1
    assert fe.wrong_path
    assert fe.resolving_branch is not None
    # Wrong-path delivery produces synthesized micro-ops.
    wrong = fe.deliver(cycle, room=8)
    assert wrong and all(u.wrong_path for u in wrong)
    # Redirect ends wrong-path mode and pays the penalty.
    fe.redirect(cycle)
    assert not fe.wrong_path
    assert fe.deliver(cycle + 1, room=8) == []
    assert fe.reason(cycle + 1) is Component.BPRED


def test_frontend_sync_blocks_until_released():
    b = TraceBuilder("sync", seed=1)
    instrs = [
        b.emit(asm.sync_yield(b.pc, 10)),
        b.emit(asm.alu(b.pc, dst=2, srcs=(2,))),
    ]
    fe, _ = make_frontend(instrs)
    cycle = 0
    delivered = []
    while not delivered and cycle < 300:
        delivered = fe.deliver(cycle, room=8)
        cycle += 1
    assert fe.waiting_sync is not None
    assert fe.deliver(cycle, room=8) == []
    assert fe.reason(cycle) is Component.UNSCHED
    fe.sync_released()
    assert fe.waiting_sync is None


def test_frontend_idle_after_trace():
    fe, _ = make_frontend(small_loop(2))
    for cycle in range(300):
        fe.deliver(cycle, room=8)
    assert fe.idle
    assert fe.reason(301) is None


# --- FunctionalUnitPool -------------------------------------------------------

def test_fu_pool_per_cycle_slots():
    """begin_issue resets every pool's slot count each cycle; the select
    loops take slots by decrementing the returned list in place."""
    config = tiny_core()  # 1 load port
    pool = FunctionalUnitPool(config)
    load = InflightUop(
        asm.load(0, dst=2, addr=64).uops[0], None, 0, 0
    )
    free, issue_width, _ = pool.begin_issue(0)
    assert free[load.pool] == config.load_ports == 1
    assert issue_width == config.issue_width
    free[load.pool] -= 1
    free, _, _ = pool.begin_issue(1)
    assert free[load.pool] == 1


def test_fu_pool_unpipelined_divide_blocks_unit():
    config = tiny_core()  # 1 mul unit; DIV unpipelined, latency 20
    pool = FunctionalUnitPool(config)
    div = InflightUop(asm.div(0, dst=2).uops[0], None, 0, 0)
    free, _, unpipelined = pool.begin_issue(0)
    assert free[div.pool] == 1
    assert unpipelined[UopClass.DIV] and not unpipelined[UopClass.MUL]
    free[div.pool] -= 1
    pool._reserve_mul(0, 20)
    free, _, _ = pool.begin_issue(5)
    assert free[div.pool] == 0  # still busy
    assert pool.fingerprint(5) == (15,)
    free, _, _ = pool.begin_issue(20)
    assert free[div.pool] == 1  # released
    assert pool.fingerprint(20) == ()


def test_fu_pool_reserve_takes_a_free_mul_unit():
    """_reserve_mul overwrites a unit that is free at ``cycle``, never
    one still busy, so two overlapping divides hold two units."""
    pool = FunctionalUnitPool(dataclasses.replace(tiny_core(), mul_units=2))
    pool._reserve_mul(0, 20)
    pool._reserve_mul(1, 20)
    assert sorted(pool._mul_busy_until) == [20, 21]
    assert pool.begin_issue(10)[0][1] == 0
    pool._reserve_mul(20, 20)  # unit 0 is free again at 20
    assert sorted(pool._mul_busy_until) == [21, 40]


# --- InflightUop / SimResult --------------------------------------------------

def test_inflight_first_unfinished_producer():
    producer_a = InflightUop(asm.alu(0, dst=2).uops[0], None, 0, 0)
    producer_b = InflightUop(asm.mul(4, dst=3).uops[0], None, 1, 0)
    consumer = InflightUop(asm.alu(8, dst=4, srcs=(2, 3)).uops[0],
                           None, 2, 0)
    consumer.producers = [producer_a, producer_b]
    assert consumer.first_unfinished_producer() is producer_a
    producer_a.done = True
    assert consumer.first_unfinished_producer() is producer_b
    producer_b.done = True
    assert consumer.first_unfinished_producer() is None


def test_simresult_derived_metrics():
    result = SimResult(
        name="x", config_name="y", cycles=200, committed_uops=100,
        committed_instrs=80, branch_lookups=10, branch_mispredicts=2,
        wall_seconds=0.5,
    )
    assert result.cpi == pytest.approx(2.0)
    assert result.ipc == pytest.approx(0.5)
    assert result.cpi_per_instr == pytest.approx(2.5)
    assert result.mispredict_rate == pytest.approx(0.2)
    assert result.simulated_uops_per_second == pytest.approx(200.0)
    assert result.summary()["cpi"] == pytest.approx(2.0)


def test_simresult_zero_guards():
    result = SimResult(name="x", config_name="y", cycles=0,
                       committed_uops=0, committed_instrs=0)
    assert result.cpi == 0.0
    assert result.ipc == 0.0
    assert result.mispredict_rate == 0.0
    assert result.simulated_uops_per_second == 0.0
