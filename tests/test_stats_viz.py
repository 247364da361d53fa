"""Tests for the stats helpers and the ASCII/CSV presentation layer."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import Component, FlopsComponent
from repro.core.stack import CpiStack, FlopsStack
from repro.stats.descriptive import BoxStats, boxplot_stats, mean, quantile
from repro.viz.ascii import (
    render_boxplot_table,
    render_cpi_stack,
    render_flops_stack,
    render_table,
)
from repro.viz.export import rows_to_csv, write_csv


def test_boxplot_five_numbers():
    box = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert box.low == 1.0
    assert box.median == 3.0
    assert box.high == 5.0
    assert box.q1 == 2.0
    assert box.q3 == 4.0
    assert box.n == 5
    assert box.iqr == pytest.approx(2.0)


def test_boxplot_single_value():
    box = boxplot_stats([7.0])
    assert box.low == box.median == box.high == 7.0


def test_boxplot_rejects_empty():
    with pytest.raises(ValueError):
        boxplot_stats([])


def test_mean_and_quantile():
    assert mean([1.0, 3.0]) == 2.0
    assert quantile([0.0, 10.0], 0.5) == 5.0
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        mean([])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_FINITE, min_size=1, max_size=40),
    q=st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_quantile_and_boxplot_match_numpy(values, q):
    """The pure-Python quantiles reproduce ``numpy.quantile``'s default
    rule exactly, and the boxplot's five numbers follow from them.
    Near the float range the interpolation overflows; NaN then counts
    as equal to NaN, since both sides perform the same operations."""
    np = pytest.importorskip("numpy")

    def same(ours, theirs):
        theirs = float(theirs)
        return ours == theirs or (ours != ours and theirs != theirs)

    assert same(quantile(values, q), np.quantile(values, q))
    box = boxplot_stats(values)
    assert box.low == float(np.min(values))
    assert box.high == float(np.max(values))
    assert same(box.q1, np.quantile(values, 0.25))
    assert same(box.median, np.quantile(values, 0.5))
    assert same(box.q3, np.quantile(values, 0.75))
    assert box.n == len(values)


def test_cli_import_does_not_load_numpy():
    """numpy is a development dependency only: importing the CLI (and
    with it every runtime module it pulls in) must not load it."""
    code = "import sys, repro.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_render_table_alignment_and_none():
    text = render_table([
        {"name": "a", "value": 1.23456, "extra": None},
        {"name": "bb", "value": 2.0, "extra": "x"},
    ])
    lines = text.splitlines()
    assert len(lines) == 4  # header, divider, two rows
    assert "1.235" in text
    assert "-" in lines[2]  # None rendered as '-'


def test_render_table_empty():
    assert render_table([]) == "(no rows)"


def test_render_cpi_stack_contains_components():
    stack = CpiStack(stage="dispatch", cycles=100.0, instructions=100,
                     name="demo")
    stack.add(Component.BASE, 60.0)
    stack.add(Component.DCACHE, 40.0)
    text = render_cpi_stack(stack)
    assert "base" in text and "dcache" in text
    assert "CPI=1.000" in text


def test_render_flops_stack_reports_peak_fraction():
    stack = FlopsStack(cycles=100.0, peak_per_cycle=64.0, name="kernel")
    stack.add(FlopsComponent.BASE, 50.0)
    stack.add(FlopsComponent.MEM, 50.0)
    text = render_flops_stack(stack, frequency_ghz=1.0)
    assert "50% of peak" in text
    assert "mem" in text


def test_render_boxplot_table():
    stats = {"dispatch": BoxStats(-1.0, -0.5, 0.0, 0.5, 1.0, 10)}
    text = render_boxplot_table(stats, title="Errors")
    assert "Errors" in text
    assert "dispatch" in text


def test_csv_roundtrip(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "a,b"
    path = write_csv(tmp_path / "out" / "data.csv", rows)
    assert path.read_text() == text


def test_csv_empty():
    assert rows_to_csv([]) == ""
