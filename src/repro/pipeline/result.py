"""Simulation results: cycles, commit counts, stacks and substrate stats."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field

from repro.core.multistage import MultiStageReport

#: Version of the accounting/result schema.  Part of every disk-cache key
#: and stored payload: bump it whenever the meaning of a counter, a stack
#: component set, or any :class:`SimResult` field changes, so stale cached
#: results are treated as misses instead of silently reused.
ACCOUNTING_SCHEMA_VERSION = 2


@dataclass(slots=True)
class SimResult:
    """Everything one core simulation produced."""

    name: str
    config_name: str
    cycles: int
    #: Correct-path micro-ops committed (the CPI denominator; the paper's
    #: accounting operates on micro-ops, Sec. V-B).
    committed_uops: int
    #: Correct-path macro instructions committed.
    committed_instrs: int
    #: Multi-stage CPI stacks (and FLOPS stack), if accounting was enabled.
    report: MultiStageReport | None = None
    #: Per-structure memory hierarchy statistics.
    memory_stats: dict = field(default_factory=dict)
    #: Branch predictor statistics.
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    #: Wrong-path micro-ops the frontend injected.
    wrong_path_uops: int = 0
    #: Host wall-clock seconds spent simulating.
    wall_seconds: float = 0.0
    #: Quiescent-cycle fast-forward telemetry (windows taken / cycles
    #: skipped).  Host-side performance counters: they never influence
    #: simulated results, which are bitwise identical either way.
    ff_windows: int = 0
    ff_cycles_skipped: int = 0
    #: Periodic steady-state replay telemetry (same contract).
    replay_windows: int = 0
    replay_cycles_skipped: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed micro-op."""
        if self.committed_uops == 0:
            return 0.0
        return self.cycles / self.committed_uops

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.committed_uops / self.cycles

    @property
    def cpi_per_instr(self) -> float:
        """Cycles per committed macro instruction."""
        if self.committed_instrs == 0:
            return 0.0
        return self.cycles / self.committed_instrs

    @property
    def mispredict_rate(self) -> float:
        if self.branch_lookups == 0:
            return 0.0
        return self.branch_mispredicts / self.branch_lookups

    @property
    def simulated_uops_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.committed_uops / self.wall_seconds

    def to_dict(self) -> dict:
        """Full serialization: every field survives a round trip.

        Used by the parallel harness (worker -> parent transport) and the
        on-disk result cache, so nothing here may be lossy.
        """
        return {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "name": self.name,
            "config_name": self.config_name,
            "cycles": self.cycles,
            "committed_uops": self.committed_uops,
            "committed_instrs": self.committed_instrs,
            "report": self.report.to_dict() if self.report else None,
            "memory_stats": self.memory_stats,
            "branch_lookups": self.branch_lookups,
            "branch_mispredicts": self.branch_mispredicts,
            "wrong_path_uops": self.wrong_path_uops,
            "wall_seconds": self.wall_seconds,
            "ff_windows": self.ff_windows,
            "ff_cycles_skipped": self.ff_cycles_skipped,
            "replay_windows": self.replay_windows,
            "replay_cycles_skipped": self.replay_cycles_skipped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        schema = data.get("schema")
        if schema != ACCOUNTING_SCHEMA_VERSION:
            raise ValueError(
                f"result schema {schema!r} != {ACCOUNTING_SCHEMA_VERSION}"
            )
        report = data["report"]
        return cls(
            name=data["name"],
            config_name=data["config_name"],
            cycles=data["cycles"],
            committed_uops=data["committed_uops"],
            committed_instrs=data["committed_instrs"],
            report=MultiStageReport.from_dict(report) if report else None,
            memory_stats=data["memory_stats"],
            branch_lookups=data["branch_lookups"],
            branch_mispredicts=data["branch_mispredicts"],
            wrong_path_uops=data["wrong_path_uops"],
            wall_seconds=data["wall_seconds"],
            ff_windows=data.get("ff_windows", 0),
            ff_cycles_skipped=data.get("ff_cycles_skipped", 0),
            replay_windows=data.get("replay_windows", 0),
            replay_cycles_skipped=data.get("replay_cycles_skipped", 0),
        )

    def renamed(self, name: str) -> "SimResult":
        """A deep copy attributed to program ``name`` in every name field
        (the result, its report and its stacks): one run over a trace
        serves every equal trace under that trace's own name."""
        result = copy.deepcopy(self)
        result.name = name
        report = result.report
        if report is not None:
            report.name = name
            for stack in (report.dispatch, report.issue, report.commit,
                          report.flops):
                if stack is not None:
                    stack.name = name
        return result

    def fingerprint(self) -> str:
        """Short stable content hash of the fully serialized result.

        Used by the invariant guard's round-trip check and by failure
        reports to identify exactly which payload a worker shipped.
        """
        text = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def summary(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "uops": self.committed_uops,
            "instructions": self.committed_instrs,
            "cpi": self.cpi,
            "ipc": self.ipc,
            "mispredict_rate": self.mispredict_rate,
            "wall_seconds": self.wall_seconds,
        }
