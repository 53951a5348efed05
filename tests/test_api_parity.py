"""API-parity suite: ``repro.api.Session`` against the per-record oracle
and against its own views.

Every comparison is field-for-field with ``==`` (no tolerances): the
Session's frames, its object views (``evaluate_results``,
``adapt_results``, ``overscaling_reports``) and the orchestrated sweep
runner all drive the same compiled-trace engine, and the oracle
(``tests/oracle.py``) is the per-record reference that engine must
reproduce, so any discrepancy is a real regression, not float noise.
Also covers the first-party warnings-clean guarantee.
"""

import json
import warnings

import pytest

from repro.adapt.environment import EnvironmentModel
from repro.api import Session, result_from_row
from repro.clocking.generator import IdealClockGenerator
from repro.clocking.policies import InstructionLutPolicy
from repro.flow.evaluate import SweepConfig
from repro.lab import ArtifactStore, ScenarioGrid, SweepRunner
from repro.workloads import get_kernel
from repro.workloads.suite import benchmark_suite

import oracle


@pytest.fixture(scope="module")
def session(design, lut):
    return Session.for_design(design, lut=lut)


class TestEvaluateParity:
    def test_full_suite_matches_oracle(self, design, lut, session):
        """The headline differential check: the full Fig. 8 suite under
        the instruction LUT with the safety replay, the per-record
        oracle vs. ``Session.evaluate`` rows.  Every-policy coverage is
        ``tests/test_batch_equivalence.py``'s (periods on every kernel,
        full results on a kernel subset)."""
        programs = benchmark_suite()
        frame = session.evaluate(
            programs, policies=["instruction"], check_safety=True,
        )
        assert len(frame) == len(programs)
        for program, row in zip(programs, frame.iter_rows()):
            reference = oracle.evaluate_program(
                program, design, InstructionLutPolicy(lut),
                generator=IdealClockGenerator(), check_safety=True,
            )
            oracle.assert_results_identical(reference, row)

    def test_result_from_row_round_trip(self, design, lut, session):
        """Frame rows rehydrate into equal EvaluationResults."""
        program = get_kernel("crc32").program()
        frame = session.evaluate([program], margins=[0.0, 5.0])
        for row in frame.iter_rows():
            result = result_from_row(row)
            oracle.assert_results_identical(result, row)

    def test_scalar_engine_parity(self, design, lut, session):
        """The scalar per-record oracle reproduces the Session's object
        view and its frame rows bit-identically."""
        program = get_kernel("fib").program()
        config = [SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                              check_safety=True)]
        fast = session.evaluate_results([program], config)[0][0]
        slow = oracle.evaluate_grid([program], design, config)[0][0]
        oracle.assert_results_identical(slow, fast)
        row = session.evaluate([program], configs=config).row(0)
        oracle.assert_results_identical(slow, row)


class TestCharacterizeParity:
    @pytest.mark.parametrize("variant", ["critical_range", "conventional"])
    def test_event_log_oracle_bit_identical(self, request, variant):
        """The event-log characterisation (gate-sim event log →
        per-event DTA → per-record extraction → merge) and the Session's
        array path (the conftest fixtures) give byte-equal LUT JSON and
        the same cycle count."""
        prefix = "" if variant == "critical_range" else "conventional_"
        design = request.getfixturevalue(prefix + "design")
        session = request.getfixturevalue(prefix + "characterization")
        reference = oracle.characterize(design)
        assert reference.lut.to_json() == session.lut.to_json()
        assert reference.total_cycles == session.total_cycles

    def test_charlut_store_traffic_matches(self, design, tmp_path):
        """Per-program charlut caching: a second characterisation
        through the same store recomputes nothing."""
        store = ArtifactStore(tmp_path / "store")
        Session.for_design(design, store=store).characterize(
            via_store=False
        )
        writes = store.stats.get("charlut", "writes")
        assert writes > 0
        store.stats.reset()
        Session.for_design(design, store=store).characterize(
            via_store=False
        )
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


class TestOverscalingParity:
    def test_single_factor(self, design, lut, session):
        """The object view and the frame row of one over-scaled run."""
        program = get_kernel("matmult").program()
        report = session.overscaling_reports(program, [0.88])[0]
        row = session.overscaling([program], factors=[0.88]).row(0)
        assert report.program_name == row["program"]
        assert report.overscale_factor == row["overscale_factor"]
        assert report.num_cycles == row["num_cycles"]
        assert report.total_time_ps == row["total_time_ps"]
        assert report.violation_cycles == row["violation_cycles"]
        assert report.violation_rate == row["violation_rate"]
        assert len(report.approx_results) == row["num_approx_results"]
        assert report.mean_corrupted_bits == row["mean_corrupted_bits"]
        assert report.mean_relative_error == row["mean_relative_error"]
        assert report.violations_by_stage == row["violations_by_stage"]
        assert report.violations_by_class == row["violations_by_class"]


class TestAdaptParity:
    def test_single_scheme(self, design, lut, session):
        """The object view and the frame row of one drift evaluation."""
        program = get_kernel("crc32").program()
        environment = EnvironmentModel()
        result = session.adapt_results([program], environment, ["online"])[0]
        row = session.adapt(
            [program], environment, schemes=["online"],
        ).row(0)
        assert result.program_name == row["program"]
        assert result.scheme == row["scheme"]
        assert result.num_cycles == row["num_cycles"]
        assert result.total_time_ps == row["total_time_ps"]
        assert result.violations == row["violations"]
        assert result.lut_updates == row["lut_updates"]
        assert result.max_drift_seen == row["max_drift_seen"]
        assert result.average_period_ps == row["average_period_ps"]

    def test_bad_scheme_and_engine_still_raise(self, session):
        """An unknown scheme is rejected; the ``engine=`` option is gone
        (one production path per workflow)."""
        with pytest.raises(ValueError, match="unknown scheme"):
            session.adapt(["fib"], EnvironmentModel(), schemes=["magic"])
        for engine in ("scalar", "vector"):
            with pytest.raises(TypeError, match="engine"):
                Session(engine=engine)


class TestWarningsClean:
    """First-party Session and CLI paths emit no DeprecationWarning."""

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
