"""The columns-only cold path: objects built on first read, per-model
delay tables, one content key and one cycle budget.

An unseen program runs decode -> ISS -> reconstruction -> compile ->
delays on NumPy columns alone; the Python objects of the run (the
retired stream, ``IssData.instrs``, ``VectorPipelineRun.slot_instr`` and
the record trace) are built only when a caller reads them.  These tests
hold the lazily built objects equal to the eager reference values and
to the test oracle, check that a compile leaves them unbuilt, and pin
the ``group_tables`` memo and the running cycle total of the compiled
LRU to what a fresh computation gives.
"""

import inspect

import numpy as np
import pytest

from repro.asm import assemble
from repro.dta import compiled as compiled_module
from repro.dta.compiled import (
    clear_compiled_cache,
    discard_compiled_trace,
    get_compiled_trace,
    is_trace_cached,
    trace_key,
)
from repro.flow import evaluate as evaluate_module
from repro.isa.encoding import EncodingError, decode
from repro.sim import predecode, vector
from repro.sim.spec import DEFAULT_MAX_CYCLES, PIPELINE_VARIANTS
from repro.sim.trace import Stage
from repro.timing.design import build_design
from repro.timing.excitation import ExcitationModel
from repro.timing.profiles import BUBBLE_CLASS
from repro.workloads.kernels import all_kernels
from repro.workloads.randomgen import program_stream

import oracle

KERNELS = [kernel.program() for kernel in all_kernels()]
RANDOM = list(program_stream(seed=11, length=120, repeats=2, count=12))


@pytest.fixture(autouse=True)
def fresh_caches():
    predecode.clear_images()
    clear_compiled_cache()
    yield
    predecode.clear_images()
    clear_compiled_cache()


def fetched_instruction(program, address):
    """What the fetch stage decodes at ``address`` from the initial
    image: program text first, then the word (``None`` if undecodable)."""
    instruction = program.instructions.get(address)
    if instruction is not None:
        return instruction
    try:
        return decode(program.words.get(address, 0))
    except EncodingError:
        return None


def assert_lazy_objects(program, spec=None):
    run = vector.simulate(program, spec=spec)
    data = run._iss
    assert run._slot_instr is None and data._instrs is None
    assert data._retired is None and run._trace is None

    expected = oracle.iss_data(program, DEFAULT_MAX_CYCLES)
    assert data.instrs == expected.instrs
    assert run.retired == expected.retired
    assert run.num_retired == len(expected.retired)

    slot_instr = run.slot_instr
    assert slot_instr.dtype == object and len(slot_instr) == run.num_slots
    for index, (pc, is_instr) in enumerate(
            zip(run.slot_pc.tolist(), run.slot_is_instr.tolist())):
        eager = fetched_instruction(program, pc) if is_instr else None
        assert slot_instr[index] == eager, (program.name, index, pc)
    # every retired slot holds the very object the ISS retired
    retired_slots = np.flatnonzero(run.slot_has_ops)
    assert [slot_instr[k] for k in retired_slots.tolist()] == data.instrs
    return run


@pytest.mark.parametrize("program", KERNELS, ids=lambda p: p.name)
def test_kernels_build_the_eager_objects(program):
    assert_lazy_objects(program)


@pytest.mark.parametrize("spec", sorted(PIPELINE_VARIANTS))
def test_every_preset_builds_the_eager_objects(spec):
    for program in KERNELS[:6] + RANDOM[:3]:
        assert_lazy_objects(program, spec=spec)


def test_random_programs_build_the_eager_objects():
    for program in RANDOM:
        assert_lazy_objects(program)


@pytest.mark.parametrize("spec", ["baseline6", "nofwd6", "slowmem6"])
def test_lazy_trace_equals_the_oracle(spec):
    for program in KERNELS[:3] + RANDOM[:2]:
        run = vector.simulate(program, spec=spec)
        reference = oracle.PipelineSimulator(program, spec=spec)
        reference.run()
        assert run.trace.retired == reference.trace.retired
        assert run.trace.records == reference.trace.records


def test_wrong_path_data_words_decode_outside_the_text():
    """A wrong-path word outside the program text (a data word, here an
    ``l.nop 0x1`` halt) is decoded from memory, next to a text victim
    read off the image's columns."""
    program = assemble(
        "    l.j   skip\n"
        "    l.nop\n"
        "    .word 0x15000001\n"     # l.nop 0x1 as data: a wrong-path halt
        "skip:\n"
        "    l.addi r3, r0, 7\n"
        "    l.nop 0x1\n"
    )
    run = assert_lazy_objects(program, spec="deep7")
    assert run.slot_squashed.any()


@pytest.mark.parametrize("spec", ["baseline6", "nofwd6"])
def test_compile_leaves_the_objects_unbuilt(spec):
    design = build_design(pipeline_spec=spec)
    for program in KERNELS[:4] + RANDOM[:4]:
        compiled = get_compiled_trace(program, design)
        compiled.delays
        compiled.cycle_max_delays()
        run = compiled.trace._run
        assert run._slot_instr is None
        assert run._iss._instrs is None
        assert run._iss._retired is None
        assert run._trace is None


# -- group_tables memo -------------------------------------------------------


def reference_tables(model, class_names):
    """The per-call computation the memo replaces."""
    scale = model._scale
    profile = model.profile
    stages = (Stage.FE, Stage.DC, Stage.CTRL, Stage.WB)
    columns = {stage: np.zeros(len(class_names)) for stage in stages}
    adr_redirect = np.empty(len(class_names))
    for index, cls in enumerate(class_names):
        if cls == BUBBLE_CLASS:
            adr_redirect[index] = scale(profile.adr_seq.max_ps)
            continue
        for stage in stages:
            columns[stage][index] = scale(
                profile.stage_spec(cls, stage).max_ps
            )
        adr_redirect[index] = scale(profile.adr_spec(cls, True).max_ps)
    return {
        "stage": columns,
        "adr_seq": scale(profile.adr_seq.max_ps),
        "adr_redirect": adr_redirect,
        "hold": scale(profile.hold_delay_ps),
        "bubble": {stage: scale(profile.bubble_delays[stage])
                   for stage in Stage},
    }


def assert_same_tables(found, expected):
    assert set(found) == set(expected)
    assert set(found["stage"]) == set(expected["stage"])
    for stage, column in expected["stage"].items():
        assert found["stage"][stage].dtype == column.dtype
        np.testing.assert_array_equal(found["stage"][stage], column)
    assert found["adr_redirect"].dtype == expected["adr_redirect"].dtype
    np.testing.assert_array_equal(found["adr_redirect"],
                                  expected["adr_redirect"])
    for name in ("adr_seq", "hold", "bubble"):
        assert found[name] == expected[name], name


@pytest.fixture(scope="module")
def class_names():
    design = build_design()
    names = set()
    for program in KERNELS[:6]:
        names.update(get_compiled_trace(program, design).class_names)
    return sorted(names)


def test_group_tables_in_any_class_order(class_names):
    design = build_design(voltage=0.9)
    model = ExcitationModel(design.excitation.profile,
                            design.excitation.library)
    orders = [class_names, class_names[::-1],
              class_names[1::2] + class_names[::2]]
    for names in orders:
        fresh = ExcitationModel(model.profile, model.library)
        assert_same_tables(model.group_tables(names),
                           reference_tables(fresh, names))
        assert_same_tables(fresh.group_tables(names),
                           reference_tables(fresh, names))


def test_group_tables_after_another_class_list(class_names):
    design = build_design()
    model = ExcitationModel(design.excitation.profile,
                            design.excitation.library)
    first = class_names[:3] + [BUBBLE_CLASS]
    model.group_tables(first)
    for names in (class_names, [], [BUBBLE_CLASS], first[::-1]):
        assert_same_tables(model.group_tables(names),
                           reference_tables(model, names))


def test_group_tables_returns_fresh_containers(class_names):
    model = build_design().excitation
    tables = model.group_tables(class_names)
    tables["stage"][Stage.FE][:] = -1.0
    tables["bubble"][Stage.EX] = -1.0
    assert_same_tables(model.group_tables(class_names),
                       reference_tables(model, class_names))


# -- one content key, a running cycle total ----------------------------------


def test_trace_key_is_the_cache_key():
    design = build_design()
    program = KERNELS[0]
    key = trace_key(program, design, DEFAULT_MAX_CYCLES)
    assert not is_trace_cached(program, design, key=key)
    compiled = get_compiled_trace(program, design, key=key)
    assert is_trace_cached(program, design)
    assert get_compiled_trace(program, design) is compiled
    assert discard_compiled_trace(program, design, key=key)
    assert not is_trace_cached(program, design)


def cached_total():
    return sum(entry.num_cycles
               for entry in compiled_module._cache.values())


def test_running_cycle_total_follows_every_eviction(monkeypatch):
    design = build_design()
    cycles = [get_compiled_trace(p, design).num_cycles for p in KERNELS[:5]]
    clear_compiled_cache()
    assert compiled_module._cached_cycles == 0
    # room for the first three traces, so the fourth evicts the oldest
    monkeypatch.setattr(compiled_module, "CACHE_CYCLE_BUDGET",
                        sum(cycles[:3]))
    for program in KERNELS[:5]:
        get_compiled_trace(program, design)
        assert compiled_module._cached_cycles == cached_total()
        assert compiled_module._cached_cycles <= sum(cycles[:3]) or \
            len(compiled_module._cache) == 1
    assert not is_trace_cached(KERNELS[0], design)
    assert is_trace_cached(KERNELS[4], design)
    discard_compiled_trace(KERNELS[4], design)
    assert compiled_module._cached_cycles == cached_total()
    # a store switch evicts rehydrated entries (``trace is None``)
    held = next(iter(compiled_module._cache.values()))
    monkeypatch.setattr(held, "trace", None)
    previous = compiled_module.set_trace_store(object())
    compiled_module.set_trace_store(previous)
    assert compiled_module._cached_cycles == cached_total()


# -- one default cycle budget -------------------------------------------------


def _default(function, name="max_cycles"):
    return inspect.signature(function).parameters[name].default


def test_one_default_cycle_budget():
    """Every simulation entry point defaults to the same budget, so a
    runaway library call fails at the budget ``repro run`` and the
    evaluation flow use (checked without running one)."""
    assert DEFAULT_MAX_CYCLES == 4_000_000
    assert vector.DEFAULT_MAX_CYCLES == DEFAULT_MAX_CYCLES
    assert evaluate_module.DEFAULT_MAX_CYCLES == DEFAULT_MAX_CYCLES
    for function in (vector.simulate, get_compiled_trace, is_trace_cached,
                     discard_compiled_trace, trace_key):
        assert _default(function) == DEFAULT_MAX_CYCLES, function.__name__


def test_repro_run_uses_the_default_budget(monkeypatch, capsys):
    from repro.cli import main

    budgets = []
    real = vector.simulate

    def simulate(program, *args, **kwargs):
        bound = inspect.signature(real).bind(program, *args, **kwargs)
        bound.apply_defaults()
        budgets.append(bound.arguments["max_cycles"])
        return real(program, *args, **kwargs)

    monkeypatch.setattr(vector, "simulate", simulate)
    assert main(["run", "fib"]) == 0
    assert budgets == [DEFAULT_MAX_CYCLES]
    assert "fib:" in capsys.readouterr().out


def test_runaway_budget_error_names_the_budget():
    program = assemble("loop:\n    l.j loop\n    l.nop\n")
    with pytest.raises(predecode.SimulationError, match="exceeded 5000"):
        vector.simulate(program, max_cycles=5000)

