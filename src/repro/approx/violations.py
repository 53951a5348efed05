"""Over-scaling evaluation: run faster than safe, count what breaks.

:meth:`repro.api.Session.overscaling` applies ``overscale_factor < 1.0``
to the periods of an instruction-LUT policy, replays the ground-truth
excitation model, and reports which cycles violated timing, in which
stage groups, and the error statistics of the affected EX-stage results
(the multiplier being the prime candidate, per the paper's discussion).

The evaluation runs on the compiled-trace artifact: periods come from the
vectorized policy protocol and the violation scan is one array comparison
of the compiled delay matrix — only the (sparse) violating EX cells
replay per-record state to synthesise the corrupted results.  The scan is
spec-aware: columns are labelled by their canonical stage group and the
EX column is the pipeline spec's.  The original per-record loop is the
test oracle in ``tests/oracle.py``, which
``tests/test_batch_equivalence.py`` holds this engine bit-identical to on
the default pipeline.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.approx.errors import (
    approximate_value,
    error_magnitude_bits,
    relative_error,
)
from repro.clocking.policies import InstructionLutPolicy
from repro.dta.compiled import get_compiled_trace
from repro.sim import vector


@dataclass
class ApproximateResult:
    """One corrupted EX result."""

    cycle: int
    mnemonic: str
    exact_value: int
    approx_value: int
    corrupted_bits: int

    @property
    def relative_error(self):
        return relative_error(self.exact_value, self.approx_value)


@dataclass
class OverscalingReport:
    """Outcome of one over-scaled run."""

    program_name: str
    overscale_factor: float
    num_cycles: int
    total_time_ps: float
    violation_cycles: int = 0
    violations_by_stage: dict = field(default_factory=dict)
    violations_by_class: dict = field(default_factory=dict)
    approx_results: list = field(default_factory=list)

    @property
    def violation_rate(self):
        return self.violation_cycles / self.num_cycles if self.num_cycles else 0.0

    @property
    def mean_relative_error(self):
        if not self.approx_results:
            return 0.0
        return sum(r.relative_error for r in self.approx_results) / len(
            self.approx_results
        )

    @property
    def mean_corrupted_bits(self):
        if not self.approx_results:
            return 0.0
        return sum(r.corrupted_bits for r in self.approx_results) / len(
            self.approx_results
        )

    def summary(self):
        return (
            f"{self.program_name} @ x{self.overscale_factor:.2f}: "
            f"{self.violation_cycles}/{self.num_cycles} violating cycles "
            f"({100 * self.violation_rate:.2f} %), "
            f"{len(self.approx_results)} approximate results, "
            f"mean corrupted bits {self.mean_corrupted_bits:.1f}"
        )


#: Overshoot below this is float noise, not a timing violation.
_OVERSHOOT_TOLERANCE_PS = 1e-9


def _evaluate_overscaling_impl(program, design, lut, overscale_factor,
                               max_cycles=2_000_000):
    """Run a program with LUT periods scaled by ``overscale_factor`` —
    the scan engine behind :meth:`repro.api.Session.overscaling`.

    A factor of 1.0 reproduces the paper's error-free operation; smaller
    factors trade accuracy for speed.  Functional execution is unchanged
    (the architectural model stays exact); errors are accounted on the
    side, which is sufficient for error-rate/error-magnitude statistics.

    Runs through the compiled trace (cached per program × design): the
    scaled periods are one vectorized policy call, the violation scan one
    array comparison.
    """
    if not 0.0 < overscale_factor <= 1.0:
        raise ValueError("overscale_factor must be in (0, 1]")

    spec = design.pipeline_spec
    ex_column = spec.ex_index
    compiled = get_compiled_trace(program, design, max_cycles=max_cycles)
    policy = InstructionLutPolicy(lut)
    periods = policy.periods_for(compiled) * overscale_factor

    report = OverscalingReport(
        program_name=program.name,
        overscale_factor=overscale_factor,
        num_cycles=compiled.num_cycles,
        # in-order Python sum, matching the per-record accumulation
        total_time_ps=sum(periods.tolist()),
    )
    overshoot = compiled.delays - periods[:, None]
    mask = overshoot > _OVERSHOOT_TOLERANCE_PS
    report.violation_cycles = int(mask.any(axis=1).sum())
    # per-record EX state is only needed at violating EX cells; a trace
    # rehydrated from the artifact store carries none, so re-simulate in
    # that (rare) case
    records = compiled.trace.records if compiled.trace is not None else None
    if records is None and mask[:, ex_column].any():
        records = vector.simulate(
            program, max_cycles=max_cycles, spec=spec
        ).trace.records
    # argwhere walks row-major — the same (cycle, column) order as the
    # per-record loop, so the per-stage/per-class dicts build identically
    for cycle, column in np.argwhere(mask):
        cycle = int(cycle)
        column = int(column)
        stage = spec.stage_label(column).name
        report.violations_by_stage[stage] = (
            report.violations_by_stage.get(stage, 0) + 1
        )
        driver_class = compiled.class_name_at(cycle, column)
        report.violations_by_class[driver_class] = (
            report.violations_by_class.get(driver_class, 0) + 1
        )
        if column != ex_column:
            continue
        record = records[cycle]
        if record.ex_operands is None:
            continue
        view = record.view(ex_column)
        ex_timing = design.profile.ex_spec(view.timing_class)
        bits = error_magnitude_bits(
            float(overshoot[cycle, column]), ex_timing.spread_ps
        )
        a, b = record.ex_operands
        exact = (a * b) & 0xFFFFFFFF   # representative result
        report.approx_results.append(
            ApproximateResult(
                cycle=record.cycle,
                mnemonic=view.mnemonic,
                exact_value=exact,
                approx_value=approximate_value(
                    exact, bits, salt=record.cycle
                ),
                corrupted_bits=bits,
            )
        )
    return report
