"""Evaluation harness: one module per paper experiment family.

* :mod:`repro.experiments.runner` — cached simulation driver (memo,
  persistent disk cache, simulator).
* :mod:`repro.experiments.cache` — case specs, content-addressed keys and
  the on-disk result store.
* :mod:`repro.experiments.parallel` — the batch scheduler dispatching
  case lists across worker processes.
* :mod:`repro.experiments.supervisor` — worker supervision: per-case
  deadlines, bounded retries, pool rebuild / serial fallback, persisted
  failure reports and deterministic fault injection.
* :mod:`repro.experiments.idealization` — CPI deltas from perfected
  structures (Table I, Fig. 3 case studies).
* :mod:`repro.experiments.error` — per-component error distributions for
  single stacks vs. the multi-stage bounds (Fig. 2).
* :mod:`repro.experiments.flops_study` — CPI-vs-FLOPS stack comparisons on
  the DeepBench-like kernels (Fig. 4, Fig. 5).
* :mod:`repro.experiments.paper` — the artifact table behind
  ``repro paper``: each paper table/figure's compute, render and claims.
* :mod:`repro.experiments.overhead` — accounting overhead measurement
  (Sec. IV, "<1% simulation time" claim).
"""

from repro.experiments.cache import CaseSpec
from repro.experiments.error import (
    ComponentError,
    figure2_errors,
    summarize_errors,
)
from repro.experiments.flops_study import (
    figure4_differences,
    figure5_case,
)
from repro.experiments.idealization import (
    IdealizationStudy,
    fig3_case,
    run_study,
    table1_rows,
)
from repro.experiments.overhead import measure_overhead
from repro.experiments.parallel import resolve_jobs, run_cases
from repro.experiments.runner import clear_cache, run_case
from repro.experiments.supervisor import (
    BatchFailure,
    FailureReport,
    IncompleteBatch,
    run_supervised,
)

__all__ = [
    "BatchFailure",
    "CaseSpec",
    "ComponentError",
    "FailureReport",
    "IdealizationStudy",
    "IncompleteBatch",
    "clear_cache",
    "fig3_case",
    "figure2_errors",
    "figure4_differences",
    "figure5_case",
    "measure_overhead",
    "resolve_jobs",
    "run_case",
    "run_cases",
    "run_study",
    "run_supervised",
    "summarize_errors",
    "table1_rows",
]
