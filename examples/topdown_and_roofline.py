#!/usr/bin/env python3
"""Top-down baseline and roofline positioning.

Two extensions bundled with the reproduction:

* the Yasin-style **top-down** hierarchy (the baseline the paper discusses
  in Sec. II) computed side by side with the multi-stage stacks — and the
  case where its dispatch-priority level 1 misleads;
* **roofline positioning** from FLOPS stacks (Sec. III-C: FLOPS stacks
  "augment the roofline model by identifying specific causes why an
  application does not reach its theoretical performance").

Run:  python examples/topdown_and_roofline.py
"""

from repro import get_preset, make_trace, simulate
from repro.core.components import Component
from repro.core.multistage import CollectorSpec
from repro.core.roofline import roofline_point
from repro.core.topdown import TopLevel


def topdown_demo() -> None:
    # bwaves: frontend and backend stall at the same time.
    trace = make_trace("bwaves")
    config = get_preset("bdw")
    result = simulate(trace, config,
                      collector=CollectorSpec(topdown=True),
                      warmup_instructions=len(trace) // 3)
    topdown = result.report.topdown
    fractions = topdown.level1_fractions()

    print("Top-down level 1 (bwaves on BDW):")
    for level in TopLevel:
        print(f"  {level.value:<16} {fractions[level]:6.1%}")
    commit_dcache = result.report.commit.component_cpi(Component.DCACHE)
    print(
        f"\nTop-down charges {fractions[TopLevel.FRONTEND_BOUND]:.0%} of "
        "slots to the frontend, yet the multi-stage commit stack shows a "
        f"{commit_dcache:.2f}-CPI dcache component — and a perfect L1I "
        "gains ~nothing here (run `python -m repro paper --only fig3c`).\n"
        "That is the paper's Sec. II critique of dispatch-priority "
        "accounting, measured."
    )


def roofline_demo() -> None:
    config = get_preset("skx")
    print("\nRoofline positions (SKX, per core):")
    for name in ("gemm-train-1760-skx", "conv-vgg-2-fwd"):
        trace = make_trace(name, 15_000)
        result = simulate(trace, config)  # no warmup: traffic == flops window
        point = roofline_point(result, config)
        bound = "compute" if point.compute_bound else "bandwidth"
        limiter = point.dominant_limiter()
        print(
            f"  {name:<22} AI={point.arithmetic_intensity:6.1f} flop/B  "
            f"{point.achieved_gflops:6.1f} of "
            f"{point.roof_gflops:6.1f} GFLOPS ({bound}-bound roof, "
            f"{point.roof_fraction:.0%}); FLOPS stack blames: "
            f"{limiter.value if limiter else 'nothing'}"
        )
    print(
        "\nThe roofline says how far below the roof a kernel sits; the "
        "FLOPS stack says why — the paper's proposed pairing."
    )


if __name__ == "__main__":
    topdown_demo()
    roofline_demo()
