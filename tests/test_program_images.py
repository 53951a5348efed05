"""Pinned program images.

The characterisation programs, the bundled kernels and the perfbench
stream programs are built by the random generator and the assembler.
Their content hashes are pinned in ``golden/program_images.json``, so a
draw or assembler change that moves one byte fails here and names the
program.
"""

import json
import pathlib

import pytest

from repro.lab.store import program_fingerprint
from repro.stream.sources import random_source
from repro.workloads import all_kernels, characterization_suite

PINS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "program_images.json")
    .read_text()
)

#: The ``stream_random`` workload's programs (perfbench STREAM_PROGRAMS).
STREAM_PROGRAMS = {"count": 12, "length": 400, "repeats": 2}


def test_characterization_suite_images():
    programs = characterization_suite()
    assert sorted(program.name for program in programs) == sorted(
        PINS["characterization_suite"]
    )
    for program in programs:
        assert program_fingerprint(program) == (
            PINS["characterization_suite"][program.name]
        ), program.name


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
def test_kernel_image(kernel):
    assert program_fingerprint(kernel.program()) == PINS["kernels"][kernel.name]


def test_every_kernel_pinned():
    assert sorted(kernel.name for kernel in all_kernels()) == sorted(
        PINS["kernels"]
    )


@pytest.mark.parametrize("seed", [1, 42])
def test_stream_program_images(seed):
    pinned = PINS[f"random_source/{seed}"]
    programs = list(random_source(seed, **STREAM_PROGRAMS))
    assert len(programs) == len(pinned)
    for index, (program, expected) in enumerate(zip(programs, pinned)):
        assert program_fingerprint(program) == expected, (
            f"random_source({seed}) program {index} ({program.name})"
        )
