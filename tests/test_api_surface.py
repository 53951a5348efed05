"""Public-API surface contract.

``repro.api`` is the supported programmatic surface; this snapshot fails
on accidental renames, removals or signature changes.  Additions are
fine — update the snapshot deliberately in the same PR that makes them.
"""

import inspect

import repro
import repro.api as api
import repro.sim

#: The top-level package's lazy re-exports.  ``FunctionalSimulator`` left
#: with the object ISS: ``simulate(program)`` returns the architectural
#: ``.state``, ``.memory`` and ``.retired``.
EXPECTED_REPRO_ALL = [
    "__version__",
    "assemble",
    "disassemble",
    "Program",
    "ProgramBuilder",
    "Instruction",
    "encode",
    "decode",
    "simulate",
]

EXPECTED_SIM_ALL = [
    "ArchState",
    "Memory",
    "simulate",
    "SimulationError",
    "PipelineTrace",
    "CycleRecord",
    "Stage",
    "PIPELINE_STAGES",
]

EXPECTED_ALL = [
    "Session",
    "ResultFrame",
    "Column",
    "EVALUATION_SCHEMA",
    "ADAPT_SCHEMA",
    "OVERSCALING_SCHEMA",
    "TRAINING_SCHEMA",
    "TELEMETRY_SCHEMA",
    "DEFAULT_OVERSCALE_FACTORS",
    "design_point_label",
    "evaluation_row",
    "result_from_row",
    "summarize_row",
]

#: Supported Session methods/properties and their exact signatures.
EXPECTED_SESSION_SIGNATURES = {
    "__init__": (
        "(self, variant='critical_range', voltage=0.7, *, design=None, "
        "lut=None, characterization=None, store=None, jobs=1, "
        "max_cycles=4000000, min_occurrences=30, "
        "store_budget_bytes=None, seed=None, telemetry=None, "
        "pipeline_spec=None)"
    ),
    "for_design": "(cls, design, **kwargs)",
    "characterize": (
        "(self, programs=None, *, min_occurrences=None, "
        "sim_period_ps=None, keep_runs=False, via_store=None)"
    ),
    "evaluate": (
        "(self, programs=None, configs=None, *, policies=None, "
        "generators=None, margins=None, check_safety=True)"
    ),
    "evaluate_results": "(self, programs, configs)",
    "sweep": (
        "(self, grid, *, resume=False, progress=None, runner=None, "
        "manifest_path=None, on_unit=None)"
    ),
    "telemetry_frame": "(self)",
    "sweep_frame": (
        "(self, grid, *, cache_name=None, resume=False, on_unit=None)"
    ),
    "training_table": (
        "(self, grid, *, resume=False, progress=None, on_unit=None)"
    ),
    "adapt": (
        "(self, programs, environment, *, schemes=None, "
        "update_interval=150, tracking_margin=0.025)"
    ),
    "adapt_results": (
        "(self, programs, environment, schemes=None, "
        "update_interval=150, tracking_margin=0.025)"
    ),
    "overscaling": "(self, programs, factors=None)",
    "overscaling_reports": "(self, program, factors=None, max_cycles=None)",
    "gc": "(self, max_bytes=None, dry_run=False)",
}

#: The evaluation row layout every consumer (runner JSON, CSV exports,
#: stored sweep documents) shares.  Changing it invalidates stored
#: artifacts — bump ``repro.lab.store.SCHEMA_VERSION`` in the same PR.
EXPECTED_EVALUATION_COLUMNS = [
    ("design_point", "str"),
    ("variant", "str"),
    ("voltage", "float"),
    ("config", "str"),
    ("policy", "str"),
    ("generator", "str"),
    ("margin_percent", "float"),
    ("program", "str"),
    ("num_cycles", "int"),
    ("num_retired", "int"),
    ("total_time_ps", "float"),
    ("static_period_ps", "float"),
    ("min_period_ps", "float"),
    ("max_period_ps", "float"),
    ("switch_rate", "float"),
    ("average_period_ps", "float"),
    ("effective_frequency_mhz", "float"),
    ("speedup_percent", "float"),
    ("num_violations", "int"),
    ("violations", "json"),
]


def test_all_contract():
    assert list(api.__all__) == EXPECTED_ALL


def test_everything_in_all_exists():
    for name in api.__all__:
        assert hasattr(api, name), name


def test_package_all_snapshots():
    assert list(repro.__all__) == EXPECTED_REPRO_ALL
    assert list(repro.sim.__all__) == EXPECTED_SIM_ALL
    for package in (repro, repro.sim):
        for name in package.__all__:
            assert hasattr(package, name), (package.__name__, name)
    assert repro.sim.SimulationError.__module__ == "repro.sim.predecode"


def test_session_signatures():
    measured = {}
    for name in EXPECTED_SESSION_SIGNATURES:
        attribute = inspect.getattr_static(api.Session, name)
        if isinstance(attribute, classmethod):
            attribute = attribute.__func__
        measured[name] = str(inspect.signature(attribute))
    assert measured == EXPECTED_SESSION_SIGNATURES


def test_no_unexpected_public_session_methods():
    """New public methods must be added to the signature snapshot."""
    public = {
        name
        for name, attribute in vars(api.Session).items()
        if not name.startswith("_")
        and (callable(attribute) or isinstance(attribute, classmethod))
    }
    assert public == set(EXPECTED_SESSION_SIGNATURES) - {"__init__"}


def test_evaluation_schema_snapshot():
    assert [
        (column.name, column.kind) for column in api.EVALUATION_SCHEMA
    ] == EXPECTED_EVALUATION_COLUMNS


def test_training_schema_extends_evaluation():
    names = [column.name for column in api.TRAINING_SCHEMA]
    assert names[:len(api.EVALUATION_SCHEMA)] == [
        column.name for column in api.EVALUATION_SCHEMA
    ]
    assert names[len(api.EVALUATION_SCHEMA):] == [
        "safe", "ipc", "normalized_period",
    ]


def test_frame_public_surface():
    expected = {
        "from_rows", "from_dict", "from_json", "concat",
        "iter_rows", "to_rows", "row", "column", "distinct",
        "select", "where", "group_by", "with_column",
        "to_dict", "to_json", "to_csv", "to_structured",
        "num_rows", "column_names", "kind_of",
    }
    public = {
        name for name in vars(api.ResultFrame)
        if not name.startswith("_")
        and name not in ("schema",)
    }
    assert public == expected


#: The clock-decision protocol: every policy the package ships decides a
#: whole compiled trace and every generator grants a whole period array.
#: The per-record / per-period steps live in ``tests/oracle.py`` only.
EXPECTED_POLICIES = {
    "static": "StaticClockPolicy",
    "instruction-lut": "InstructionLutPolicy",
    "ex-only-lut": "ExOnlyLutPolicy",
    "two-class": "TwoClassPolicy",
    "learned": "LearnedPolicy",
    "genie": "GeniePolicy",
}
EXPECTED_GENERATORS = {
    "ideal": "IdealClockGenerator",
    "ring-oscillator": "TunableRingOscillator",
    "multi-pll": "MultiPLLClockGenerator",
}


def _named_classes(module):
    return {
        value.name: value for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
        and isinstance(getattr(value, "name", None), str)
    }


def test_clock_decision_protocol():
    from repro.clocking import generator, policies

    shipped = _named_classes(policies)
    assert {name: cls.__name__ for name, cls in shipped.items()} \
        == EXPECTED_POLICIES
    for cls in shipped.values():
        assert callable(getattr(cls, "periods_for", None)), cls
        assert not hasattr(cls, "period_for"), cls
    shipped = _named_classes(generator)
    assert {name: cls.__name__ for name, cls in shipped.items()} \
        == EXPECTED_GENERATORS
    for cls in shipped.values():
        assert callable(getattr(cls, "quantize_up_array", None)), cls
        assert not hasattr(cls, "quantize_up"), cls
