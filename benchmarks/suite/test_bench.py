"""Self-tests of the benchmark suite (not tier-1).

    python -m pytest benchmarks/suite

The last test runs one pass of every workload, traced, and takes about
two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench  # noqa: E402
import compare  # noqa: E402
import suite  # noqa: E402
import trace as tracing  # noqa: E402

from repro.experiments import runner  # noqa: E402
from repro.experiments.cache import CaseSpec  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_nested_fake_spans():
    # a [0, 10] holds b [1, 6], which holds c [2, 5]; then d [7, 8] in a.
    tracer = tracing.Tracer(clock=_fake_clock([0, 1, 2, 5, 6, 7, 8, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    totals = tracer.totals()
    assert totals["c"] == {"calls": 1, "s": 3, "self_s": 3}
    assert totals["b"] == {"calls": 1, "s": 5, "self_s": 2}
    assert totals["d"] == {"calls": 1, "s": 1, "self_s": 1}
    assert totals["a"] == {"calls": 1, "s": 10, "self_s": 4}
    assert set(tracer.folded) == {
        ("", "b", "c"), ("", "a", "b"), ("", "a", "d"), ("", "", "a"),
    }


def test_wrappers_fold_repeated_calls_by_parent():
    tracer = tracing.Tracer(clock=_fake_clock(range(100)))
    leaf = tracing.span_wrapper(tracer, "leaf", lambda: None)

    def body():
        leaf()
        leaf()

    outer = tracing.span_wrapper(tracer, "outer", body)
    outer()
    # outer [0, 5]; leaf [1, 2] and [3, 4].
    assert tracer.folded[("", "outer", "leaf")][:3] == [2, 2, 2]
    assert tracer.totals()["outer"]["self_s"] == 3


def test_merge_worker_span_files(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer.enter("parent")
    tracer.exit()
    pids = []
    for calls in (2, 3):
        pid = os.fork()
        if pid == 0:  # a worker: starts empty, spills, exits
            try:
                tracer.reset()
                for _ in range(calls):
                    tracer.enter("work")
                    tracer.exit()
                tracer.count("steps", calls)
                tracer.spill()
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
    assert len(list(tmp_path.glob("spans-*.jsonl"))) == 2
    assert tracer.merge_spill_files() == 2
    totals = tracer.totals()
    assert totals["work"]["calls"] == 5
    assert totals["parent"]["calls"] == 1
    assert tracer.counts["steps"] == 5
    assert not list(tmp_path.glob("spans-*.jsonl"))


def test_perturbed_golden_is_a_failed_op():
    result = runner.execute_spec(
        CaseSpec(workload="mcf", preset="tiny", instructions=500)
    )
    entry = suite.digest_entry(result)
    assert suite.digest_entry(result) == entry  # canonical: repeatable

    good = suite.Checker({"case": entry})
    assert good.check_one("case", entry)
    assert (good.attempted, good.failed) == (1, 0)

    perturbed = suite.Checker({"case": ["0" * 64, entry[1]]})
    assert not perturbed.check_one("case", entry)
    assert (perturbed.attempted, perturbed.failed) == (1, 1)

    # A result set missing a golden case, or holding an unknown one,
    # fails that operation too.
    strict = suite.Checker({"case": entry, "gone": entry})
    strict.check_set({"case": entry, "extra": entry})
    assert (strict.attempted, strict.failed) == (3, 2)


def test_without_golden_the_first_pass_is_the_reference():
    checker = suite.Checker(None)
    checker.check_set({"a": ["x", 1]})
    checker.check_set({"a": ["y", 1]})
    assert (checker.attempted, checker.failed) == (2, 1)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(base, base, "lower", 0.1, True) == "unchanged"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1,
                           True) == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1,
                           True) == "better"
    # A clear gain without ten pairs cannot be claimed.
    assert compare.verdict(base[:3], [0.5, 0.5, 0.5], "lower", 0.1,
                           True) == "unresolved"
    noisy = [1.0, 1.5, 0.6, 1.4]
    assert compare.verdict(noisy, noisy, "lower", 0.1, False) == "unresolved"
    assert compare.verdict([0.0], [0.01], "lower", 0.0, False) == "worse"


def test_bench_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/bench.py", "--workload",
         "sim-suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_one_traced_pass_of_each_workload(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == {k: unit for k, (unit, _) in bench.E2E_METRICS.items()}

    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--out", str(out),
         "--trace", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == list(bench.WORKLOADS)
    for name, rec in doc["workloads"].items():
        assert rec["attempted"] > 0 and rec["failed"] == 0, (name, rec)
        untraced = bench.result_line(rec, trace=False)
        traced = bench.result_line(rec, trace=True)
        assert untraced["correct"] and traced["correct"]
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == e2e
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers
        assert all(v["value"] > 0 for v in untraced["metrics"].values())
    assert not (ROOT / ".bench_work").exists() or not any(
        (ROOT / ".bench_work").iterdir()
    )


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Keep the in-process simulations of these tests out of results/."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    monkeypatch.setenv("REPRO_FAILURES_DIR", str(tmp_path / "failures"))
