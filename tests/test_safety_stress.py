"""Safety stress tests: random programs against the characterised LUT.

The central claim — the predictive scheme never causes timing violations —
must hold for programs the characterisation never saw, including ones that
deliberately hit every worst-case operand pattern.  Random generator
programs are the hardest adversary our model admits: they mix every
instruction class with worst-pattern idioms at random sites.
"""

import pytest

from repro.clocking.generator import (
    MultiPLLClockGenerator,
    TunableRingOscillator,
)
from repro.clocking.policies import ExOnlyLutPolicy, InstructionLutPolicy
from repro.workloads.randomgen import generate_characterization_program

#: Fresh seeds, disjoint from the characterisation suite's (1, 2).
STRESS_SEEDS = (11, 12, 13, 14, 15)


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_random_program_safety(evaluate_one, lut, seed):
    program = generate_characterization_program(
        seed=seed, length=300, repeats=1
    )
    result = evaluate_one(program, InstructionLutPolicy(lut))
    assert result.is_safe, (
        f"seed {seed}: {len(result.violations)} violations, first: "
        f"{result.violations[0] if result.violations else None}"
    )
    assert result.speedup_percent > 0


@pytest.mark.parametrize("seed", STRESS_SEEDS[:2])
def test_random_program_safety_ex_only(evaluate_one, lut, seed):
    program = generate_characterization_program(
        seed=seed, length=300, repeats=1
    )
    result = evaluate_one(program, ExOnlyLutPolicy(lut))
    assert result.is_safe


@pytest.mark.parametrize("generator_factory", [
    lambda: TunableRingOscillator(step_ps=25.0),
    lambda: TunableRingOscillator(step_ps=100.0),
    lambda: MultiPLLClockGenerator(),
], ids=["ring25", "ring100", "pll"])
def test_random_program_safety_quantized(evaluate_one, lut, generator_factory):
    program = generate_characterization_program(
        seed=21, length=300, repeats=1
    )
    result = evaluate_one(
        program, InstructionLutPolicy(lut),
        generator=generator_factory(),
    )
    assert result.is_safe


def test_worst_pattern_storm(design, evaluate_one, lut):
    """A program that is nothing but worst-case idioms back to back."""
    from repro.asm import assemble

    body = []
    for _ in range(40):
        body.extend([
            "    l.add   r5, r22, r22",
            "    l.mul   r6, r22, r22",
            "    l.xor   r7, r22, r22",
            "    l.slli  r8, r22, 31",
            "    l.lwz   r9, 0(r21)",
            "    l.sw    4(r21), r22",
            "    l.sfeq  r22, r22",
        ])
    source = "\n".join(
        [
            "start:",
            "    l.movhi r21, 0xffff",
            "    l.ori   r21, r21, 0xfff0",
            "    l.movhi r22, 0xffff",
            "    l.ori   r22, r22, 0xffff",
        ]
        + body
        + ["    l.nop 0x1", "    l.nop", "    l.nop"]
    )
    program = assemble(source, name="worst-pattern-storm")
    result = evaluate_one(program, InstructionLutPolicy(lut))
    assert result.is_safe
    # every EX delay is at its class maximum here, so the measured average
    # period must be close to the mix's LUT average — still well below
    # the static period
    assert result.average_period_ps < design.static_period_ps
