"""One ISS pass per program per process.

``predecode.collect`` keeps a program's halted architectural run on its
decoded image and serves every later budget the run fits, so the kernels
that characterisation simulates (at ``gatesim.MAX_CYCLES``) are not
stepped again when a sweep evaluates them (at its own ``max_cycles``).
Budgets the step loop would trip still defer to the object ISS, whose
``SimulationError`` is the one a fresh process raises.
"""

import pytest

from repro.api import Session
from repro.dta.compiled import clear_compiled_cache
from repro.sim import predecode, vector
from repro.sim.iss import SimulationError
from repro.workloads import resolve_program
from repro.workloads.suite import CHARACTERIZATION_KERNELS


@pytest.fixture
def fresh_images():
    clear_compiled_cache()
    predecode.clear_images()
    predecode.reset_stats()
    yield
    predecode.clear_images()


def _outcome(program, max_cycles):
    """``(num_cycles, retired, registers)`` of a pipeline run, or the
    text of its ``SimulationError``."""
    try:
        run = vector.simulate(program, max_cycles=max_cycles)
    except SimulationError as error:
        return str(error)
    return run.num_cycles, run.num_retired, list(run.state.regs)


def test_characterisation_kernels_step_once(fresh_images):
    session = Session()
    assert session.lut is not None
    after_characterisation = predecode.stats()
    assert after_characterisation["iss_hits"] == 0
    session.evaluate(policies=["instruction"])   # the Fig. 8 suite
    stats = predecode.stats()
    assert stats["iss_hits"] == len(CHARACTERIZATION_KERNELS) == 5
    assert stats["deferred_runs"] == after_characterisation["deferred_runs"]


def test_budget_below_cached_steps_raises_as_fresh(fresh_images):
    program = resolve_program("fib")
    cached = _outcome(program, 4_000_000)
    steps = cached[1]
    budgets = (steps - 1, steps, cached[0] - 1, cached[0], steps // 2, 1)
    served = {budget: _outcome(program, budget) for budget in budgets}
    assert predecode.stats()["iss_hits"] == len(budgets)
    for budget in budgets:
        predecode.clear_images()
        assert served[budget] == _outcome(program, budget), budget
    assert isinstance(served[steps - 1], str)
    assert "exceeded" in served[steps - 1]
    assert served[cached[0]] == cached


def test_deferred_pass_is_not_reused_for_a_larger_budget(fresh_images):
    program = resolve_program("fib")
    steps = _outcome(program, 4_000_000)[1]
    predecode.clear_images()
    predecode.reset_stats()
    assert "exceeded" in _outcome(program, steps // 2)
    assert predecode.stats()["fast_runs"] == 0
    # a smaller budget than the deferred one is served without stepping
    assert "exceeded" in _outcome(program, steps // 4)
    assert predecode.stats()["iss_hits"] == 1
    # a larger one steps the loop again and halts
    assert not isinstance(_outcome(program, 4_000_000), str)
    stats = predecode.stats()
    assert stats["fast_runs"] == 1
    assert stats["iss_hits"] == 1
