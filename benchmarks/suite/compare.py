"""Compare full benchmark sets written by ``bench.py --out``.

    python3 benchmarks/suite/compare.py BASE.json NEW.json
    python3 benchmarks/suite/compare.py B1.json N1.json B2.json N2.json ...

Files alternate base and new; each (base, new) pair should come from
runs made back to back on one host, alternating which side runs first.
For every workload and end-to-end metric the tool prints the new median
as a ratio of the base median, with the base, and one verdict:

* ``better``: at least 10 pairs, the new side wins at least 9 of every
  10 of them (ties count for neither), and the medians differ by more
  than the base's spread (the distance between its quartiles);
* ``worse``: the new median is worse than the base median by more than
  the metric's bound in ``BENCHMARK.json`` (``error_rate``: any rise);
* ``unresolved``: the base spread is wider than the bound and not every
  new sample beats every base sample, or the new side is better by more
  than the bound without enough pairs to claim it;
* ``unchanged``: otherwise.

With one pair, the spread and samples come from the passes inside each
file; with several pairs, from the per-file medians.  Exit status is 1
when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench import quartiles

ROOT = Path(__file__).resolve().parents[2]

#: Pairs needed before a gain may be claimed, and the share they must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, float]:
    spec = json.loads(path.read_text())
    bounds = {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
    bounds["error_rate"] = 0.0
    return bounds


def _better(a: float, b: float, direction: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(
    base: list[float], new: list[float], direction: str, bound: float,
    paired: bool,
) -> str:
    """One of better / worse / unchanged / unresolved (see module doc)."""
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    if bound == 0.0:  # absolute: any rise is a regression
        if _better(base_median, new_median, direction):
            return "worse"
        return "unchanged"
    spread = q3 - q1
    if paired and len(base) >= MIN_PAIRS:
        wins = sum(_better(n, b, direction) for b, n in zip(base, new))
        if (
            wins >= WIN_SHARE * len(base)
            and abs(new_median - base_median) > spread
        ):
            return "better"
    change = (new_median - base_median) / base_median
    worse_by = change if direction == "lower" else -change
    if worse_by > bound:
        return "worse"
    dominates = all(_better(n, b, direction) for b in base for n in new)
    if spread / base_median > bound and not dominates:
        return "unresolved"
    if -worse_by > bound:
        return "unresolved"
    return "unchanged"


def samples(doc: dict, workload: str, metric: str) -> list[float]:
    return list(doc["workloads"][workload]["metrics"][metric]["values"])


def compare(docs: list[dict], bounds: dict[str, float]) -> list[dict]:
    """Rows of (workload, metric, base, new, ratio, verdict)."""
    bases, news = docs[0::2], docs[1::2]
    paired = len(bases) > 1
    rows = []
    for workload, rec in bases[0]["workloads"].items():
        for metric, info in rec["metrics"].items():
            if metric not in bounds:
                continue
            if paired:
                base = [d["workloads"][workload]["metrics"][metric]["median"]
                        for d in bases]
                new = [d["workloads"][workload]["metrics"][metric]["median"]
                       for d in news]
            else:
                base = samples(bases[0], workload, metric)
                new = samples(news[0], workload, metric)
            base_median = statistics.median(base)
            new_median = statistics.median(new)
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": info["unit"],
                "base": base_median,
                "new": new_median,
                "ratio": new_median / base_median if base_median else None,
                "bound": bounds[metric],
                "verdict": verdict(
                    base, new, info["better"], bounds[metric], paired
                ),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path,
                        help="BASE NEW [BASE NEW ...]")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("give files in (base, new) pairs")
    docs = [json.loads(path.read_text()) for path in args.files]
    rows = compare(docs, load_bounds())
    for row in rows:
        ratio = (
            f"ratio {row['ratio']:.4f} of base {row['base']:.6g} {row['unit']}"
            if row["ratio"] is not None
            else f"no ratio: base is {row['base']:.6g}"
        )
        print(
            f"{row['workload']:<15} {row['metric']:<15} "
            f"{row['new']:.6g} {row['unit']:<7} {ratio:<48} "
            f"{row['verdict']} (bound {row['bound']:.0%})"
        )
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
