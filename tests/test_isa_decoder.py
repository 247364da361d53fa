"""Unit tests for the instruction builders (decode conventions)."""

import pytest

from repro.experiments import runner
from repro.isa import decoder as asm
from repro.isa.registers import NO_REG
from repro.isa.uops import UopClass
from repro.workloads.registry import make_trace


def test_alu_single_uop():
    instr = asm.alu(0, dst=3, srcs=(1, 2))
    assert instr.uop_count == 1
    assert instr.uops[0].uclass is UopClass.ALU
    assert instr.uops[0].srcs == (1, 2)
    assert instr.uops[0].dst == 3


def test_load_carries_address_sources():
    instr = asm.load(0, dst=2, addr=0x1000, addr_srcs=(5,))
    uop = instr.uops[0]
    assert uop.uclass is UopClass.LOAD
    assert uop.addr == 0x1000
    assert uop.srcs == (5,)


def test_store_reads_data_and_address_registers():
    instr = asm.store(0, src=7, addr=0x40, addr_srcs=(5,))
    uop = instr.uops[0]
    assert uop.uclass is UopClass.STORE
    assert uop.srcs == (7, 5)
    assert uop.dst == NO_REG


def test_fma_register_form_is_single_uop():
    instr = asm.fma(0, dst=40, srcs=(40, 41), lanes=16, width_lanes=16)
    assert instr.uop_count == 1
    assert instr.uops[0].uclass is UopClass.FMA


def test_fma_memory_operand_splits_into_load_plus_fma():
    """Sec. V-B: 'A VFP instruction that has a memory operand is split into
    two micro-operations: one load and one VFP calculation.'"""
    instr = asm.fma(0, dst=40, srcs=(40, 41), lanes=16, width_lanes=16,
                    mem_addr=0x1000, addr_srcs=(1,))
    assert instr.uop_count == 2
    load, fma = instr.uops
    assert load.uclass is UopClass.LOAD
    assert fma.uclass is UopClass.FMA
    # The FMA depends on the load through the decode temp register.
    assert load.dst in fma.srcs


def test_broadcast_memory_form_splits():
    instr = asm.broadcast(0, dst=39, width_lanes=16, mem_addr=0x2000)
    assert instr.uop_count == 2
    load, bcast = instr.uops
    assert load.uclass is UopClass.LOAD
    assert bcast.uclass is UopClass.BROADCAST
    assert load.dst in bcast.srcs


def test_load_op_temp_registers_rotate():
    """Adjacent load-op instructions must not serialize on one temp."""
    temps = set()
    for i in range(8):
        instr = asm.fma(i * 4, dst=40, srcs=(40,), lanes=4, width_lanes=4,
                        mem_addr=0x1000 + i * 64)
        temps.add(instr.uops[0].dst)
    assert len(temps) > 1


def test_microcoded_fp_chain_dependencies():
    instr = asm.microcoded_fp(0, dst=45, srcs=(32, 33), n_uops=4)
    assert instr.microcoded
    assert instr.uop_count == 4
    assert instr.decode_cycles == 4
    # Internal chain: each uop consumes its predecessor's destination.
    for prev, cur in zip(instr.uops, instr.uops[1:]):
        assert prev.dst in cur.srcs
    assert instr.uops[-1].dst == 45


def test_microcoded_fp_minimum_uops():
    with pytest.raises(ValueError):
        asm.microcoded_fp(0, dst=45, n_uops=1)


def test_sync_yield():
    instr = asm.sync_yield(0, 100)
    assert instr.yield_cycles == 100
    assert instr.uops[0].uclass is UopClass.SYNC


def test_sync_yield_requires_positive_cycles():
    with pytest.raises(ValueError):
        asm.sync_yield(0, 0)


def test_branch_has_resolution_info():
    instr = asm.branch(0x100, taken=True, target=0x200, srcs=(4,))
    assert instr.is_branch
    assert instr.taken
    assert instr.target == 0x200


def test_masked_fma_lanes():
    instr = asm.fma(0, dst=40, srcs=(40,), lanes=5, width_lanes=16)
    assert instr.uops[0].lanes == 5
    assert instr.uops[0].flops == 10


# ---------------------------------------------------------------------------
# The intern table: one object per distinct decode
# ---------------------------------------------------------------------------

#: Every builder with a full set of arguments, all passed by keyword.
BUILDERS = {
    "nop": (asm.nop, dict(pc=0x40, length=4)),
    "alu": (asm.alu, dict(pc=0x40, dst=3, srcs=(1, 2), length=4)),
    "mul": (asm.mul, dict(pc=0x40, dst=3, srcs=(1, 2), length=4)),
    "div": (asm.div, dict(pc=0x40, dst=3, srcs=(1, 2), length=4)),
    "load": (asm.load, dict(
        pc=0x40, dst=3, addr=0x1000, addr_srcs=(5,), size=8, length=4,
    )),
    "store": (asm.store, dict(
        pc=0x40, src=3, addr=0x1000, addr_srcs=(5,), size=8, length=4,
    )),
    "branch": (asm.branch, dict(
        pc=0x40, taken=True, target=0x200, srcs=(1, 2), length=4,
    )),
    **{
        name: (builder, dict(
            pc=0x40, dst=3, srcs=(1, 2), lanes=8, width_lanes=16,
            mem_addr=0x2000, addr_srcs=(5,), mem_size=64, length=4,
        ))
        for name, builder in (
            ("fp_add", asm.fp_add), ("fp_mul", asm.fp_mul), ("fma", asm.fma),
        )
    },
    "vec_int": (asm.vec_int, dict(
        pc=0x40, dst=3, srcs=(1, 2), lanes=8, width_lanes=16, length=4,
    )),
    # The memory form reads only its load's temporary, never ``srcs``.
    "broadcast": (asm.broadcast, dict(
        pc=0x40, dst=3, width_lanes=16, mem_addr=0x2000, addr_srcs=(5,),
        mem_size=8, length=4,
    )),
    "broadcast-reg": (asm.broadcast, dict(
        pc=0x40, dst=3, srcs=(1, 2), width_lanes=16, length=4,
    )),
    "microcoded_fp": (asm.microcoded_fp, dict(
        pc=0x40, dst=3, srcs=(1, 2), n_uops=4, decode_cycles=None, length=8,
    )),
    "sync_yield": (asm.sync_yield, dict(pc=0x40, cycles=100, length=4)),
    "barrier": (asm.barrier, dict(pc=0x40, cycles=100, length=4)),
}

#: Per argument, values that differ from every base value above.
CHANGED = {
    "pc": (0x44,),
    "dst": (9,),
    "src": (9,),
    "srcs": ((1, 9), ()),
    "addr": (0x1040,),
    "addr_srcs": ((9,), ()),
    "size": (4,),
    "taken": (False,),
    "target": (0x300,),
    "lanes": (5,),
    "width_lanes": (32,),
    "mem_addr": (0x2040, None),
    "mem_size": (32,),
    "n_uops": (5,),
    "decode_cycles": (2,),
    "cycles": (101,),
    "length": (6,),
}


@pytest.fixture
def empty_table():
    asm.clear_intern_table()
    yield
    asm.clear_intern_table()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_arguments_return_the_same_object(empty_table, name):
    builder, kwargs = BUILDERS[name]
    first = builder(**kwargs)
    assert builder(**kwargs) is first
    # Sequences are keyed by content, not by type.
    as_lists = {
        k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()
    }
    assert builder(**as_lists) is first


@pytest.mark.parametrize("name,arg,value", [
    pytest.param(name, arg, value, id=f"{name}-{arg}={value!r}")
    for name, (_builder, kwargs) in sorted(BUILDERS.items())
    for arg in kwargs
    for value in CHANGED[arg]
])
def test_any_changed_argument_is_a_new_unequal_instruction(
    empty_table, name, arg, value
):
    builder, kwargs = BUILDERS[name]
    base = builder(**kwargs)
    changed = builder(**{**kwargs, arg: value})
    assert changed is not base
    assert changed != base
    assert builder(**kwargs) is base, "the base entry survives"


def test_clear_cache_empties_the_intern_table(empty_table):
    first = asm.alu(0x40, dst=3, srcs=(1, 2))
    runner.get_trace("mcf", 200, 1)
    assert asm.intern_table_size() > 0
    runner.clear_cache(disk=False)
    assert asm.intern_table_size() == 0
    again = asm.alu(0x40, dst=3, srcs=(1, 2))
    assert again is not first and again == first


def test_table_never_grows_past_its_cap(empty_table, monkeypatch):
    monkeypatch.setattr(asm, "INTERN_CAP", 16)
    reference = []
    for i in range(100):
        reference.append(asm.load(0x40 + 4 * i, dst=3, addr=0x1000 + 64 * i))
        assert asm.intern_table_size() <= 16
    rebuilt = [
        asm.load(0x40 + 4 * i, dst=3, addr=0x1000 + 64 * i)
        for i in range(100)
    ]
    assert rebuilt == reference
    assert any(a is not b for a, b in zip(rebuilt, reference)), (
        "overflow cleared the table"
    )
    assert asm.intern_table_size() <= 16


def test_equal_traces_share_every_instruction_object(empty_table):
    """The sgemm kernels of one code style emit one trace: built in one
    table's lifetime they share every object, so comparing them is an
    identity walk; a build after a clear is equal but not shared."""
    train = make_trace("gemm-train-1760-knl", 1500, 1)
    infer = make_trace("gemm-infer-512-knl", 1500, 1)
    assert len(train) == len(infer)
    assert all(a is b for a, b in zip(train, infer))
    asm.clear_intern_table()
    again = make_trace("gemm-train-1760-knl", 1500, 1)
    assert again.instructions == train.instructions
    assert all(a is not b for a, b in zip(again, train))
