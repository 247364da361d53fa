"""Cache keys derived through the machine memo.

``CaseSpec`` keys reuse a per-process memo of each distinct machine's
canonical JSON (idealization plus resolved config) instead of walking the
config for every key.  The differential matrix below pins every key the
harness derives to the un-memoized definition: SHA-256 over the canonical
JSON of a fingerprint built with ``config_fingerprint`` afresh.  The
lifecycle tests pin when the memo fills, when it empties and that no
caller can reach its contents.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config.cores import config_fingerprint
from repro.config.idealize import IDEALIZATIONS
from repro.config.presets import PRESETS, get_preset
from repro.core.wrongpath import WrongPathMode
from repro.experiments import error, flops_study, idealization, runner
from repro.experiments.cache import (
    TELEMETRY,
    TRACE_NAME_FIELDS,
    CaseSpec,
    machine_memo_size,
)
from repro.pipeline.result import ACCOUNTING_SCHEMA_VERSION

#: The first of the paper's single-structure idealizations.
IDEAL = next(iter(IDEALIZATIONS.values()))

ACCOUNTING = (
    {},
    {"accounting": False},
    {"topdown": True},
    {"accounting_width": 8},
)


@pytest.fixture(autouse=True)
def _cold_memo():
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    yield
    runner.clear_cache(disk=False)
    TELEMETRY.reset()


def _matrix() -> list[CaseSpec]:
    """Every preset x idealization x mode x accounting x core count, one
    explicit-config case, and two whose workload is spelled like the
    key builder's placeholders."""
    specs = [
        CaseSpec(
            workload="mcf", preset=preset, idealization=ideal, mode=mode,
            cores=cores, instructions=3000, **accounting,
        )
        for preset in sorted(PRESETS)
        for ideal in (None, *IDEALIZATIONS.values())
        for mode in (WrongPathMode.EXACT, WrongPathMode.SIMPLE)
        for accounting in ACCOUNTING
        for cores in (1, 4)
    ]
    config = get_preset("knl")
    specs.append(CaseSpec(workload="gemm-train-1760-knl", config=config,
                          cores=4, sim_seed=9))
    specs.append(CaseSpec(workload="\x00config\x00", preset="tiny"))
    specs.append(CaseSpec(workload='x"\x00idealization\x00', preset="tiny",
                          idealization=IDEAL))
    return specs


def _reference_case(spec: CaseSpec) -> dict:
    """The case fingerprint's definition, walked afresh."""
    fp = {
        "schema": ACCOUNTING_SCHEMA_VERSION,
        "workload": spec.workload,
        "instructions": spec.instructions,
        "trace_seed": spec.seed,
        "sim_seed": spec.simulate_seed,
        "mode": spec.mode.value,
        "warmup_fraction": spec.warmup_fraction,
        "idealization": (
            config_fingerprint(spec.idealization)
            if spec.idealization is not None
            else None
        ),
        "config": config_fingerprint(spec.resolved_config()),
    }
    if spec.cores > 1:
        fp["cores"] = spec.cores
        fp["multicore_schema"] = 1
    if not spec.accounting:
        fp["accounting"] = False
    if spec.topdown:
        fp["topdown"] = True
    if spec.accounting_width is not None:
        fp["accounting_width"] = spec.accounting_width
    return fp


def _sha(fp: dict) -> str:
    text = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check(spec: CaseSpec) -> None:
    case = _reference_case(spec)
    assert spec.fingerprint() == case
    assert spec.key() == _sha(case)
    name_free = dict(case)
    for name in TRACE_NAME_FIELDS:
        del name_free[name]
    assert spec.name_free_key() == _sha(name_free)
    for core in range(spec.cores):
        member = dict(case)
        if spec.cores > 1:
            member["multicore_member"] = core
        assert spec.member_fingerprint(core) == member
        assert spec.member_key(core) == _sha(member)


def test_keys_equal_the_unmemoized_definition():
    """Every key, name-free key and member key equals the un-memoized
    definition, from a cleared memo and again from a warm one."""
    specs = _matrix()
    assert len(specs) == len(PRESETS) * 5 * 2 * 4 * 2 + 3
    assert machine_memo_size() == 0
    for spec in specs:
        _check(spec)
    warm = machine_memo_size()
    assert warm == len(PRESETS) * 5 + 1, "one entry per machine"
    for spec in specs:
        _check(spec)
    assert machine_memo_size() == warm


def test_equal_machines_share_an_entry():
    """Equal presets and idealizations share one entry however the specs
    are built; an explicit config is its own machine."""
    CaseSpec(workload="mcf", preset="bdw").key()
    CaseSpec(workload="leela", preset="bdw", seed=2, cores=2).key()
    assert machine_memo_size() == 1
    CaseSpec(workload="mcf", preset="bdw", idealization=IDEAL).key()
    assert machine_memo_size() == 2
    config = get_preset("bdw")
    CaseSpec(workload="mcf", config=config).key()
    CaseSpec(workload="mcf", config=config, seed=3).key()
    assert machine_memo_size() == 3


def test_clear_cache_empties_the_memo():
    CaseSpec(workload="mcf", preset="tiny").key()
    assert machine_memo_size() == 1
    runner.clear_cache(disk=False)
    assert machine_memo_size() == 0


@pytest.mark.parametrize("edit", [
    pytest.param(lambda fp: fp["config"].update(rob_size=1), id="config"),
    pytest.param(lambda fp: fp["config"]["memory"]["l1d"].clear(),
                 id="nested"),
    pytest.param(lambda fp: fp["config"]["latencies"].pop("FMA"),
                 id="latencies"),
    pytest.param(lambda fp: fp["idealization"].clear(), id="idealization"),
])
def test_edited_fingerprints_never_reach_the_memo(edit):
    """Every returned fingerprint is the caller's own: editing one, at any
    depth, changes no later key or fingerprint."""
    spec = CaseSpec(workload="mcf", preset="bdw", idealization=IDEAL,
                    cores=2)
    keys = (spec.key(), spec.name_free_key(), spec.member_key(1))
    fingerprint = spec.fingerprint()
    for fp in (spec.fingerprint(), spec.member_fingerprint(1)):
        edit(fp)
    assert (spec.key(), spec.name_free_key(), spec.member_key(1)) == keys
    assert spec.fingerprint() == fingerprint == _reference_case(spec)


def _paper_pass(n: int) -> None:
    """Table I and Figs. 1-5 plus the 4-core Fig. 5 socket, serially."""
    idealization.table1_rows(instructions=n, seed=1, jobs=1)
    runner.run_case("mcf", "bdw", instructions=n, seed=1)
    for preset in ("bdw", "knl"):
        error.figure2_errors(preset, instructions=n, seed=1, jobs=1)
    for case in idealization.FIG3_CASES:
        idealization.fig3_case(case, instructions=n, seed=1, jobs=1)
    flops_study.figure4_differences(instructions=n, seed=1, jobs=1)
    flops_study.figure5_case(instructions=n, seed=1, jobs=1)
    flops_study.figure5_socket_case(instructions=n, seed=1, jobs=1)


def test_a_warm_paper_pass_keeps_one_entry_per_machine():
    """A warm pass keys over a hundred cases but walks each of its 14
    machines (preset, idealization) once."""
    _paper_pass(1500)
    runner.clear_cache(disk=False)
    TELEMETRY.reset()
    assert machine_memo_size() == 0
    _paper_pass(1500)
    assert TELEMETRY.sim_invocations == 0
    assert TELEMETRY.disk_hits > 100
    assert machine_memo_size() == 14
