#!/usr/bin/env python
"""Characterisation deep-dive: the paper's design flow, step by step.

Reproduces Sec. II-B / IV-A interactively:

1. static timing analysis of both design variants (conventional vs.
   critical-range) and the Fig. 3 timing-wall comparison,
2. gate-level simulation of a characterisation program,
3. dynamic timing analysis: per-cycle slack, the Fig. 5 histogram, the
   Fig. 6 limiting-stage shares,
4. per-instruction extraction into the delay LUT (Table II), with the
   static fallback for under-characterised instructions.

Run:  python examples/characterize_core.py
"""

from repro.dta.extraction import extract_lut_arrays
from repro.flow.characterize import characterize_program
from repro.sim.trace import Stage
from repro.timing.design import build_design
from repro.timing.profiles import DesignVariant
from repro.timing.sta import run_sta
from repro.timing.wall import compare_walls
from repro.workloads.randomgen import generate_characterization_program


def main():
    # -- step 1: implementation & STA ------------------------------------
    conventional = build_design(DesignVariant.CONVENTIONAL)
    optimized = build_design(DesignVariant.CRITICAL_RANGE)
    print("=== Step 1: static timing analysis ===")
    for design in (conventional, optimized):
        report = run_sta(design.netlist)
        print(f"{design.name}: STA period {report.critical_delay_ps:.0f} ps "
              f"({1e6 / report.critical_delay_ps:.0f} MHz), "
              f"critical path {report.critical_path}")
    wall_conv, wall_opt = compare_walls(
        conventional.netlist, optimized.netlist
    )
    print(wall_conv.summary())
    print(wall_opt.summary())

    # -- step 2: gate-level simulation -------------------------------------
    print("\n=== Step 2: gate-level simulation (directed semi-random) ===")
    program = generate_characterization_program(seed=1, length=800,
                                                repeats=2)
    _, _, run = characterize_program(program, optimized, keep_run=True)
    dta = run.dta
    print(f"{run.program_name}: {run.num_cycles} cycles "
          f"@ sim period {dta.sim_period_ps:.0f} ps")

    # -- step 3: dynamic timing analysis -----------------------------------
    print("\n=== Step 3: dynamic timing analysis ===")
    print(f"mean per-cycle worst delay: {dta.mean_cycle_delay_ps:.0f} ps "
          f"(static bound {optimized.static_period_ps:.0f} ps)")
    print(f"genie-aided speedup bound: "
          f"{dta.genie_speedup_percent(optimized.static_period_ps):.1f} %")
    shares = dta.limiting_stage_shares()
    print("limiting-stage shares: " + ", ".join(
        f"{stage.name} {100 * shares[stage]:.1f}%" for stage in Stage
    ))

    # -- step 4: instruction timing extraction ------------------------------
    print("\n=== Step 4: per-instruction extraction (Table II) ===")
    lut = extract_lut_arrays(dta, run.compiled, optimized.static_period_ps,
                             min_occurrences=20)
    print(lut.render(classes=[
        "l.add(i)", "l.and(i)", "l.bf", "l.j", "l.lwz", "l.mul(i)",
        "l.sll(i)", "l.xor(i)", "<bubble>",
    ]))

    fallbacks = [
        cls for cls in lut.classes() if not lut.is_characterized(cls)
    ]
    if fallbacks:
        print(f"static-fallback classes (too few occurrences): {fallbacks}")

    # sanity: the extraction must stay below the STA bound everywhere
    worst = max(lut.class_max(cls) for cls in lut.classes()
                if lut.is_characterized(cls))
    margin = optimized.static_period_ps - worst
    print(f"\nworst characterised delay {worst:.0f} ps -> "
          f"{margin:.0f} ps of static margin never used at runtime")
    assert margin > 0


if __name__ == "__main__":
    main()
