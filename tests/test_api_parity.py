"""API-parity suite: every legacy entry point is a bit-identical shim
over ``repro.api.Session``.

Each test runs one legacy function and its Session equivalent and
compares results field-for-field with ``==`` (no tolerances): the shims
route through the very same engine the Session drives, so any
discrepancy is a real regression, not float noise.  Also covers the
``evaluate_batch`` deprecation contract and the first-party
warnings-clean guarantee.
"""

import json
import re
import warnings

import pytest

from repro.adapt.environment import EnvironmentModel
from repro.adapt.online import SCHEMES, compare_schemes, evaluate_with_drift
from repro.api import Session, result_from_row
from repro.approx.violations import evaluate_overscaling, overscaling_sweep
from repro.clocking.generator import IdealClockGenerator
from repro.clocking.policies import (
    ExOnlyLutPolicy,
    GeniePolicy,
    InstructionLutPolicy,
    StaticClockPolicy,
    TwoClassPolicy,
)
from repro.flow.characterize import characterize
from repro.flow.evaluate import (
    SweepConfig,
    evaluate_batch,
    evaluate_program,
    evaluate_suite,
)
from repro.lab import ArtifactStore, ScenarioGrid, SweepRunner
from repro.workloads import get_kernel
from repro.workloads.suite import benchmark_suite

POLICY_NAMES = ("instruction", "ex-only", "two-class", "genie", "static")


def make_policy(name, design, lut):
    return {
        "instruction": lambda: InstructionLutPolicy(lut),
        "ex-only": lambda: ExOnlyLutPolicy(lut),
        "two-class": lambda: TwoClassPolicy(lut),
        "genie": lambda: GeniePolicy(design.excitation),
        "static": lambda: StaticClockPolicy(design.static_period_ps),
    }[name]()


def assert_result_matches_row(result, row):
    """Bitwise comparison of an ``EvaluationResult`` and a frame row."""
    assert result.program_name == row["program"]
    assert result.num_cycles == row["num_cycles"]
    assert result.num_retired == row["num_retired"]
    assert result.total_time_ps == row["total_time_ps"]
    assert result.static_period_ps == row["static_period_ps"]
    assert result.min_period_ps == row["min_period_ps"]
    assert result.max_period_ps == row["max_period_ps"]
    assert result.switch_rate == row["switch_rate"]
    assert result.average_period_ps == row["average_period_ps"]
    assert result.effective_frequency_mhz == row["effective_frequency_mhz"]
    assert result.speedup_percent == row["speedup_percent"]
    assert len(result.violations) == row["num_violations"]
    assert [
        [v.cycle, v.stage.name, v.applied_period_ps, v.excited_delay_ps,
         v.driver_class]
        for v in result.violations
    ] == row["violations"]


@pytest.fixture(scope="module")
def session(design, lut):
    return Session.for_design(design, lut=lut)


class TestEvaluateParity:
    def test_full_suite_every_policy_bit_identical(self, design, lut,
                                                   session):
        """The headline parity check: full kernel suite × every policy,
        legacy ``evaluate_program`` vs. ``Session.evaluate``."""
        programs = benchmark_suite()
        frame = session.evaluate(
            programs, policies=list(POLICY_NAMES), check_safety=True,
        )
        assert len(frame) == len(programs) * len(POLICY_NAMES)
        for name in POLICY_NAMES:
            rows = frame.where(policy=name).to_rows()
            for program, row in zip(programs, rows):
                legacy = evaluate_program(
                    program, design, make_policy(name, design, lut),
                    generator=IdealClockGenerator(), check_safety=True,
                )
                assert_result_matches_row(legacy, row)

    def test_result_from_row_round_trip(self, design, lut, session):
        """Frame rows rehydrate into equal EvaluationResults."""
        program = get_kernel("crc32").program()
        frame = session.evaluate([program], margins=[0.0, 5.0])
        for row in frame.iter_rows():
            result = result_from_row(row)
            assert_result_matches_row(result, row)

    def test_evaluate_suite_parity(self, design, lut, session):
        programs = [get_kernel(n).program() for n in ("fib", "crc16")]
        legacy = evaluate_suite(
            programs, design, lambda: InstructionLutPolicy(lut),
        )
        rows = session.evaluate(
            programs, configs=[SweepConfig(
                policy=lambda: InstructionLutPolicy(lut),
                check_safety=True,
            )],
        ).to_rows()
        for result, row in zip(legacy, rows):
            assert_result_matches_row(result, row)

    def test_evaluate_batch_parity_and_warning(self, design, lut, session):
        """The return-shape footgun: the shim keeps [config][program]
        nesting, warns, and names the Session.evaluate replacement."""
        programs = [get_kernel(n).program() for n in ("fib", "memcpy")]
        configs = [
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        check_safety=True, label="lut"),
            SweepConfig(policy=lambda: TwoClassPolicy(lut),
                        margin_percent=5.0, check_safety=False,
                        label="two-class"),
        ]
        with pytest.warns(DeprecationWarning,
                          match=r"Session\.evaluate"):
            grid = evaluate_batch(programs, design, configs)
        assert len(grid) == len(configs)           # [config][program]
        assert len(grid[0]) == len(programs)
        frame = session.evaluate(programs, configs=configs)
        rows = frame.to_rows()
        flattened = [result for row in grid for result in row]
        for result, row in zip(flattened, rows):
            assert_result_matches_row(result, row)

    def test_scalar_engine_parity(self, design, lut):
        """engine="scalar" reproduces the vector session bit-identically
        (the reference loop behind the equivalence suite)."""
        vector = Session.for_design(design, lut=lut)
        scalar = Session.for_design(design, lut=lut, engine="scalar")
        program = get_kernel("fib").program()
        config = [SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                              check_safety=True)]
        fast = vector.evaluate_results([program], config)[0][0]
        slow = scalar.evaluate_results([program], config)[0][0]
        assert fast.total_time_ps == slow.total_time_ps
        assert fast.switch_rate == slow.switch_rate
        assert len(fast.violations) == len(slow.violations)


class TestCharacterizeParity:
    def test_legacy_shim_bit_identical(self, design, characterization):
        """Legacy ``characterize(design)`` (the conftest fixture) vs. a
        fresh ``Session.characterize`` — byte-equal LUT JSON."""
        fresh = Session.for_design(design).characterize()
        assert fresh.lut.to_json() == characterization.lut.to_json()
        assert fresh.total_cycles == characterization.total_cycles

    def test_charlut_store_traffic_matches(self, design, tmp_path):
        """The shim keeps per-program charlut caching: a second
        characterisation through either path recomputes nothing."""
        store = ArtifactStore(tmp_path / "store")
        Session.for_design(design, store=store).characterize(
            via_store=False
        )
        writes = store.stats.get("charlut", "writes")
        assert writes > 0
        store.stats.reset()
        characterize(design, keep_runs=False, store=store)
        assert store.stats.get("charlut", "hits") == writes
        assert store.stats.get("charlut", "writes") == 0


GRID = ScenarioGrid(
    name="api-parity",
    policies=("instruction", "genie"),
    workloads=("fib", "crc16"),
    check_safety=True,
)


class TestSweepParity:
    def test_runner_shim_vs_session_sweep(self, tmp_path, design, lut):
        seeded = []
        for name in ("legacy", "session"):
            store = ArtifactStore(tmp_path / name)
            store.save_lut(lut, design)
            seeded.append(store)
        legacy = SweepRunner(GRID, store=seeded[0]).run()
        via_session = Session(store=seeded[1]).sweep(GRID)
        assert legacy.frame == via_session.frame
        assert legacy.rows == via_session.rows
        assert legacy.to_dict()["results"] == (
            via_session.to_dict()["results"]
        )

    def test_runner_rows_match_direct_session_evaluate(self, tmp_path,
                                                       design, lut):
        """Orchestrated sweep rows are the same frame a plain Session
        evaluation produces for the grid's axes."""
        store = ArtifactStore(tmp_path / "store")
        store.save_lut(lut, design)
        orchestrated = Session(store=store).sweep(GRID)
        direct = Session.for_design(design, lut=lut).evaluate(
            GRID.programs(), configs=GRID.config_specs(),
        )
        assert orchestrated.frame == direct

    def test_training_table(self, tmp_path, design, lut):
        """The ML-DFS-style training generator: one flat frame over
        margins × policies with learning-target columns."""
        from repro.api import TRAINING_SCHEMA

        grid = ScenarioGrid(
            name="training",
            policies=("instruction", "genie"),
            margins=(0.0, 5.0),
            workloads=("fib", "crc16"),
            check_safety=True,
        )
        store = ArtifactStore(tmp_path / "store")
        store.save_lut(lut, design)
        table = Session(store=store).training_table(grid)
        assert table.schema == TRAINING_SCHEMA
        assert len(table) == 2 * 2 * 2          # policies x margins x kernels
        for row in table.iter_rows():
            assert row["safe"] == (1 if row["num_violations"] == 0 else 0)
            assert row["ipc"] == row["num_retired"] / row["num_cycles"]
            assert row["normalized_period"] == (
                row["average_period_ps"] / row["static_period_ps"]
            )
        # flat axes are directly usable as features
        assert set(table.distinct("margin_percent")) == {0.0, 5.0}
        assert set(table.distinct("policy")) == {"instruction", "genie"}

    def test_training_table_forces_safety_replay(self, tmp_path, lut,
                                                 conventional_design):
        """A grid with check_safety=False (the ScenarioGrid default)
        must not degenerate the ``safe`` label to all-ones: the
        generator re-runs it with the ground-truth replay enabled."""
        grid = ScenarioGrid(
            name="training-unsafe",
            policies=("instruction",),
            variants=("conventional",),
            workloads=("crc32",),
        )
        assert not grid.check_safety
        store = ArtifactStore(tmp_path / "store")
        # seed the conventional operating point with the critical-range
        # LUT: its optimistic predictions violate conventional ground
        # truth, so a real safety replay must label the row unsafe
        store.save_lut(lut, conventional_design)
        session = Session(store=store)
        table = session.training_table(grid)
        row = table.row(0)
        assert row["num_violations"] > 0     # replay actually ran
        assert row["safe"] == 0


class TestEvaluateAxes:
    def test_empty_axis_lists_yield_empty_frame(self, session):
        """An explicitly empty axis means 'no configs', not 'defaults'."""
        assert len(session.evaluate(["fib"], policies=[])) == 0
        assert len(session.evaluate(["fib"], generators=[])) == 0
        assert len(session.evaluate(["fib"], margins=[])) == 0

    def test_configs_exclusive_with_axes(self, session, lut):
        with pytest.raises(ValueError, match="not both"):
            session.evaluate(
                ["fib"],
                configs=[SweepConfig(policy=InstructionLutPolicy(lut))],
                policies=["instruction"],
            )

    def test_unlabelled_configs_get_distinct_labels(self, design, lut,
                                                    session):
        """Two unlabelled SweepConfigs differing only in margin must not
        share a ``config`` cell (group-by would merge them)."""
        configs = [
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        check_safety=False),
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        margin_percent=10.0, check_safety=False),
        ]
        frame = session.evaluate(["fib"], configs=configs)
        labels = frame.distinct("config")
        assert len(labels) == 2
        assert labels[1].endswith("margin=10%")

    def test_scalar_session_refuses_to_sweep(self, design, lut):
        """The orchestrated runner is array-engine-only: a scalar session
        must not return vector results labelled as the reference."""
        scalar = Session.for_design(design, lut=lut, engine="scalar")
        with pytest.raises(ValueError, match="vector engine only"):
            scalar.sweep(GRID)
        with pytest.raises(ValueError, match="vector engine only"):
            scalar.training_table(GRID)


class TestOverscalingParity:
    def test_single_factor(self, design, lut, session):
        program = get_kernel("matmult").program()
        legacy = evaluate_overscaling(program, design, lut, 0.88)
        row = session.overscaling([program], factors=[0.88]).row(0)
        assert legacy.program_name == row["program"]
        assert legacy.overscale_factor == row["overscale_factor"]
        assert legacy.num_cycles == row["num_cycles"]
        assert legacy.total_time_ps == row["total_time_ps"]
        assert legacy.violation_cycles == row["violation_cycles"]
        assert legacy.violation_rate == row["violation_rate"]
        assert len(legacy.approx_results) == row["num_approx_results"]
        assert legacy.mean_corrupted_bits == row["mean_corrupted_bits"]
        assert legacy.mean_relative_error == row["mean_relative_error"]
        assert legacy.violations_by_stage == row["violations_by_stage"]
        assert legacy.violations_by_class == row["violations_by_class"]

    def test_sweep_shim(self, design, lut, session):
        program = get_kernel("fib").program()
        factors = [1.0, 0.9]
        legacy = overscaling_sweep(program, design, lut, factors=factors)
        reports = session.overscaling_reports(program, factors)
        for a, b in zip(legacy, reports):
            assert a.overscale_factor == b.overscale_factor
            assert a.total_time_ps == b.total_time_ps
            assert a.violation_cycles == b.violation_cycles


class TestAdaptParity:
    def test_single_scheme(self, design, lut, session):
        program = get_kernel("crc32").program()
        environment = EnvironmentModel()
        legacy = evaluate_with_drift(
            program, design, lut, environment, scheme="online",
        )
        row = session.adapt(
            [program], environment, schemes=["online"],
        ).row(0)
        assert legacy.program_name == row["program"]
        assert legacy.scheme == row["scheme"]
        assert legacy.num_cycles == row["num_cycles"]
        assert legacy.total_time_ps == row["total_time_ps"]
        assert legacy.violations == row["violations"]
        assert legacy.lut_updates == row["lut_updates"]
        assert legacy.max_drift_seen == row["max_drift_seen"]
        assert legacy.average_period_ps == row["average_period_ps"]

    def test_compare_schemes_shim(self, design, lut, session):
        program = get_kernel("fib").program()
        environment = EnvironmentModel()
        legacy = compare_schemes(program, design, lut, environment)
        frame = session.adapt([program], environment)
        assert [row["scheme"] for row in frame.iter_rows()] == list(SCHEMES)
        for row in frame.iter_rows():
            result = legacy[row["scheme"]]
            assert result.total_time_ps == row["total_time_ps"]
            assert result.violations == row["violations"]

    def test_bad_scheme_and_engine_still_raise(self, design, lut):
        program = get_kernel("fib").program()
        with pytest.raises(ValueError, match="unknown scheme"):
            evaluate_with_drift(
                program, design, lut, EnvironmentModel(), scheme="magic",
            )
        with pytest.raises(ValueError, match="unknown adapter engine"):
            evaluate_with_drift(
                program, design, lut, EnvironmentModel(), engine="warp",
            )
        for engine in ("warp", "lockstep"):
            with pytest.raises(ValueError, match="unknown engine"):
                Session(engine=engine)


class TestWarningsClean:
    """First-party code never calls the deprecated shims."""

    def test_session_and_cli_paths_are_warning_free(self, tmp_path, design,
                                                    lut, session, capsys):
        from repro.cli import main

        lut_path = tmp_path / "lut.json"
        lut_path.write_text(lut.to_json())
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "name": "clean", "policies": ["instruction"],
            "workloads": ["fib"],
        }))
        store = ArtifactStore(tmp_path / "store")
        store.save_lut(lut, design)

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.evaluate(["fib"], policies=["instruction"])
            session.adapt(["fib"], EnvironmentModel(), schemes=["online"])
            session.overscaling(["fib"], factors=[0.95])
            assert main(["evaluate", "fib", "--lut", str(lut_path)]) == 0
            assert main([
                "sweep", "fib", "--lut", str(lut_path),
                "--policy", "instruction",
            ]) == 0
            assert main([
                "sweep", "--grid", str(grid_path), "--store",
                str(store.root),
            ]) == 0
        capsys.readouterr()

    def test_source_tree_never_calls_shims(self):
        """Static check: no module under ``src/repro`` calls a legacy
        shim (each may only appear in its defining module)."""
        import pathlib

        import repro

        shims = {
            "evaluate_batch": "flow/evaluate.py",
            "evaluate_program": "flow/evaluate.py",
            "evaluate_suite": "flow/evaluate.py",
            "characterize": "flow/characterize.py",
            "evaluate_overscaling": "approx/violations.py",
            "overscaling_sweep": "approx/violations.py",
            "evaluate_with_drift": "adapt/online.py",
            "compare_schemes": "adapt/online.py",
        }
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            relative = path.relative_to(root).as_posix()
            text = path.read_text()
            for name, home in shims.items():
                if relative == home:
                    continue
                # a bare call: not an attribute access, not a definition
                for match in re.finditer(
                    rf"(?<![.\w]){name}\(", text
                ):
                    if text[:match.start()].rsplit("\n", 1)[-1].lstrip() \
                            .startswith("def "):
                        continue
                    offenders.append(f"{relative}: {name}()")
        assert not offenders, offenders
