"""One ISS pass per program per process.

``predecode.collect`` keeps a program's halted architectural run on its
decoded image and serves every later budget the run fits, so the kernels
that characterisation simulates (at ``gatesim.MAX_CYCLES``) are not
stepped again when a sweep evaluates them (at its own ``max_cycles``).
A budget below the cached step count raises the ``SimulationError`` a
fresh pass raises, read off the cached run without stepping, and a
budget overrun steps the dispatch loop once: there is no second ISS to
re-run it on.  Every error text equals the test oracle's.
"""

import pytest

from repro.api import Session
from repro.asm import assemble
from repro.dta.compiled import clear_compiled_cache
from repro.sim import SimulationError, predecode, vector
from repro.workloads import resolve_program
from repro.workloads.suite import CHARACTERIZATION_KERNELS, suite_names

import oracle


@pytest.fixture
def passes(monkeypatch):
    """Fresh image cache and stats; returns the list of programs the
    dispatch loop stepped, in order."""
    clear_compiled_cache()
    predecode.clear_images()
    predecode.reset_stats()
    stepped = []
    step_loop = predecode._collect_impl

    def counting(image, program, max_cycles):
        stepped.append(program.name)
        return step_loop(image, program, max_cycles)

    monkeypatch.setattr(predecode, "_collect_impl", counting)
    yield stepped
    predecode.clear_images()


def _outcome(program, max_cycles):
    """``(num_cycles, retired, registers)`` of a pipeline run, or the
    text of its ``SimulationError``."""
    try:
        run = vector.simulate(program, max_cycles=max_cycles)
    except SimulationError as error:
        return str(error)
    return run.num_cycles, run.num_retired, list(run.state.regs)


def _oracle_error(program, max_cycles):
    with pytest.raises(SimulationError) as error:
        oracle.iss_data(program, max_cycles)
    return str(error.value)


def test_characterisation_kernels_step_once(passes):
    session = Session()
    assert session.lut is not None
    after_characterisation = predecode.stats()
    assert after_characterisation["iss_hits"] == 0
    characterised = len(passes)
    session.evaluate(policies=["instruction"])   # the Fig. 8 suite
    stats = predecode.stats()
    assert stats["iss_hits"] == len(CHARACTERIZATION_KERNELS) == 5
    # every other suite program is stepped exactly once
    assert len(passes) - characterised == len(suite_names()) - 5
    assert len(set(passes)) == len(passes)


def test_budget_below_cached_steps_raises_as_fresh(passes):
    program = resolve_program("fib")
    cached = _outcome(program, 4_000_000)
    steps = cached[1]
    budgets = (steps - 1, steps, cached[0] - 1, cached[0], steps // 2, 1, 0)
    served = {budget: _outcome(program, budget) for budget in budgets}
    assert predecode.stats()["iss_hits"] == len(budgets)
    assert passes == ["fib"]      # the cached run raises without stepping
    for budget in budgets:
        if budget < steps:
            assert served[budget] == _oracle_error(program, budget), budget
        predecode.clear_images()
        assert served[budget] == _outcome(program, budget), budget
    assert isinstance(served[steps - 1], str)
    assert "exceeded" in served[steps - 1]
    assert served[cached[0]] == cached


def test_overrun_steps_the_dispatch_loop_once(passes):
    program = assemble("spin:\n l.j spin\n l.nop\n", name="spin")
    with pytest.raises(SimulationError) as error:
        vector.simulate(program, max_cycles=1000)
    assert passes == ["spin"]
    assert str(error.value) == _oracle_error(program, 1000)
    assert str(error.value) == (
        "exceeded 1000 cycles without halting (pc=0x00000000)"
    )
    # an overrun is not cached: the next budget steps again, once
    with pytest.raises(SimulationError, match="exceeded 999 cycles"):
        vector.simulate(program, max_cycles=999)
    assert passes == ["spin", "spin"]
    assert predecode.stats()["fast_runs"] == 0


def test_larger_budget_after_an_overrun_halts(passes):
    program = resolve_program("fib")
    steps = _outcome(program, 4_000_000)[1]
    predecode.clear_images()
    predecode.reset_stats()
    del passes[:]
    assert "exceeded" in _outcome(program, steps // 2)
    assert predecode.stats()["fast_runs"] == 0
    assert not isinstance(_outcome(program, 4_000_000), str)
    assert passes == ["fib", "fib"]
    assert predecode.stats()["fast_runs"] == 1
