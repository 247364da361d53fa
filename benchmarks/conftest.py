"""Shared infrastructure for the benchmark harness.

Every bench runs one measurement or ablation (timed through
pytest-benchmark with a single round — the experiments are simulations,
not microbenchmarks), prints its rows, and writes them to
``results/<bench>.txt`` so they survive the pytest run.  The paper's
tables and figures are regenerated by ``repro paper``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: Where regenerated tables/figures are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


class Reporter:
    """Prints and persists one bench's regenerated output."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def emit(self, text: str = "") -> None:
        self.lines.append(text)

    def flush(self) -> None:
        body = "\n".join(self.lines) + "\n"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(body)
        print(f"\n=== {self.name} ===")
        print(body)


@pytest.fixture
def reporter(request):
    rep = Reporter(request.node.name.replace("[", "-").replace("]", ""))
    yield rep
    rep.flush()


def run_once(benchmark, func):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
