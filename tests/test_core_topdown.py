"""Unit tests for the Yasin top-down baseline (paper Sec. II)."""

import pytest

from repro.core.components import Component
from repro.core.observation import CycleObservation
from repro.core.topdown import (
    BackendDetail,
    FrontendDetail,
    TopDownAccountant,
    TopLevel,
)


class FakeUop:
    def __init__(self, *, is_load=False, dcache_miss=False, issued=True,
                 done=False, multi_cycle=False):
        self.is_load = is_load
        self.dcache_miss = dcache_miss
        self.issued = issued
        self.done = done
        self.multi_cycle = multi_cycle


def finalize(acct, cycles):
    return acct.finalize(cycles)


def test_full_retiring_cycle():
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(n_dispatch=4))
    report = finalize(acct, 1)
    assert report.level1[TopLevel.RETIRING] == pytest.approx(1.0)


def test_level1_is_a_partition():
    acct = TopDownAccountant(4)
    observations = [
        CycleObservation(n_dispatch=2, uop_queue_empty=True,
                         fe_reason=Component.ICACHE),
        CycleObservation(n_dispatch=0, n_dispatch_wrong=4,
                         wrong_path_active=True),
        CycleObservation(n_dispatch=0, window_full=True,
                         rob_head=FakeUop(is_load=True, dcache_miss=True)),
        CycleObservation(n_dispatch=4),
    ]
    for obs in observations:
        acct.observe(obs)
    report = finalize(acct, len(observations))
    assert sum(report.level1.values()) == pytest.approx(len(observations))
    assert sum(report.level1_fractions().values()) == pytest.approx(1.0)


def test_wrong_path_slots_are_bad_speculation():
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(n_dispatch=0, n_dispatch_wrong=4,
                                  wrong_path_active=True))
    report = finalize(acct, 1)
    assert report.level1[TopLevel.BAD_SPECULATION] == pytest.approx(1.0)


def test_frontend_priority_over_backend():
    """The paper's critique: when frontend and backend stall together,
    top-down's dispatch-based level 1 charges the frontend."""
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(
        n_dispatch=0, uop_queue_empty=True, fe_reason=Component.ICACHE,
        window_full=True,
        rob_head=FakeUop(is_load=True, dcache_miss=True),
    ))
    report = finalize(acct, 1)
    assert report.level1.get(TopLevel.FRONTEND_BOUND, 0.0) == (
        pytest.approx(1.0)
    )
    assert report.level1.get(TopLevel.BACKEND_BOUND, 0.0) == 0.0


def test_window_full_is_backend_bound():
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(
        n_dispatch=1, window_full=True,
        rob_head=FakeUop(is_load=True, dcache_miss=True),
    ))
    report = finalize(acct, 1)
    assert report.level1[TopLevel.BACKEND_BOUND] == pytest.approx(0.75)


def test_frontend_detail_microcode():
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(
        n_dispatch=0, uop_queue_empty=True,
        fe_reason=Component.MICROCODE))
    report = finalize(acct, 1)
    assert report.frontend_detail[FrontendDetail.MICROCODE] == 1.0


def test_backend_detail_memory_vs_core():
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(
        n_dispatch=4, n_issue=0,
        first_nonready_producer=FakeUop(is_load=True, dcache_miss=True)))
    acct.observe(CycleObservation(
        n_dispatch=4, n_issue=0,
        first_nonready_producer=FakeUop(issued=True, multi_cycle=True)))
    report = finalize(acct, 2)
    assert report.backend_detail[BackendDetail.MEMORY_BOUND] == 1.0
    assert report.backend_detail[BackendDetail.CORE_BOUND] == 1.0


def test_lower_levels_do_not_sum_to_cycles():
    """Sec. II: "the components at the lower levels do not add up to the
    total cycle count" — by construction the details are measured at
    different stages with different denominators."""
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(
        n_dispatch=0, uop_queue_empty=True, fe_reason=Component.ICACHE,
        n_issue=0, rs_empty=False,
        first_nonready_producer=FakeUop(is_load=True, dcache_miss=True)))
    report = finalize(acct, 1)
    detail_total = (sum(report.frontend_detail.values())
                    + sum(report.backend_detail.values()))
    assert detail_total != pytest.approx(1.0)


def test_memory_bound_cpi_units():
    acct = TopDownAccountant(4)
    acct.observe(CycleObservation(
        n_dispatch=4, n_issue=0,
        first_nonready_producer=FakeUop(is_load=True, dcache_miss=True)))
    report = finalize(acct, 1)
    assert report.memory_bound_cpi(10) == pytest.approx(0.1)
    assert report.memory_bound_cpi(0) == 0.0


def test_integration_with_simulator(tiny):
    from repro.core.multistage import CollectorSpec
    from repro.pipeline.core import simulate
    from tests.conftest import load_loop

    result = simulate(load_loop(800, lines=4096, stride_lines=7), tiny,
                      collector=CollectorSpec(topdown=True))
    report = result.report.topdown
    assert report is not None
    fractions = report.level1_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    # A miss-heavy load loop is mostly backend bound.
    assert fractions[TopLevel.BACKEND_BOUND] > 0.3
