"""Sweep runner: serial/parallel equivalence, store warming, resume."""

import json
import pathlib

import pytest

from repro.dta.compiled import (
    clear_compiled_cache,
    reset_simulation_count,
)
from repro.lab import ArtifactStore, ScenarioGrid, SweepRunner
from repro.lab import runner as runner_module

#: Small but non-trivial grid: 2 configs x 2 programs, safety checked.
GRID = ScenarioGrid(
    name="runner-test",
    policies=("instruction", "genie"),
    margins=(0.0,),
    workloads=("fib", "crc16"),
    check_safety=True,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Runner tests measure store behaviour; keep the in-memory cache and
    the simulation counter out of the picture."""
    clear_compiled_cache()
    reset_simulation_count()
    yield
    clear_compiled_cache()
    reset_simulation_count()


@pytest.fixture
def seeded_store(tmp_path, design, lut):
    """A store pre-seeded with the session LUT (characterising one per
    test would dominate the suite's runtime); traces start cold."""
    store = ArtifactStore(tmp_path / "store")
    store.save_lut(lut, design)
    store.stats.reset()
    return store


def _run(store, jobs=1, resume=False, grid=GRID):
    runner = SweepRunner(grid, store=store, jobs=jobs)
    return runner.run(resume=resume)


class _Interrupted(Exception):
    """Stands in for a run killed mid-sweep."""


def _record_replaces(monkeypatch):
    """Destinations of every atomic ``os.replace`` the runner makes."""
    real_replace = runner_module.os.replace
    destinations = []

    def replace(source, destination):
        destinations.append(pathlib.Path(destination))
        return real_replace(source, destination)

    monkeypatch.setattr(runner_module.os, "replace", replace)
    return destinations


class TestSerialRun:
    def test_row_grid_shape_and_order(self, seeded_store):
        result = _run(seeded_store)
        assert result.units_total == 2
        assert result.units_run == 2
        assert [
            (row["config"], row["program"]) for row in result.rows
        ] == [
            ("instruction/ideal", "fib"),
            ("instruction/ideal", "crc16"),
            ("genie/ideal", "fib"),
            ("genie/ideal", "crc16"),
        ]
        assert result.num_violations == 0

    def test_matches_in_process_evaluate_batch(self, seeded_store, design,
                                               lut):
        """Runner rows are bit-identical to the plain in-process
        ``Session.evaluate_results`` path (same grid, no store, no
        orchestration)."""
        from repro.api import Session
        from repro.core import DcaConfig, DynamicClockAdjustment
        from repro.flow.characterize import CharacterizationResult
        from repro.lab.runner import result_to_dict

        result = _run(seeded_store)

        dca = DynamicClockAdjustment(
            config=DcaConfig(variant=design.variant),
            characterization=CharacterizationResult(design=design, lut=lut),
        )
        specs = GRID.config_specs()
        configs = [spec.make(dca) for spec in specs]
        point = GRID.design_points()[0]
        reference = Session.for_design(design).evaluate_results(
            GRID.programs(), configs
        )
        expected = [
            result_to_dict(res, point, spec)
            for spec, row in zip(specs, reference)
            for res in row
        ]
        assert result.rows == expected

    def test_warm_store_skips_simulation(self, seeded_store):
        cold = _run(seeded_store)
        assert cold.simulations == 2
        assert cold.store_stats.get("trace", "writes") == 2

        clear_compiled_cache()
        seeded_store.stats.reset()
        warm = _run(seeded_store)
        assert warm.simulations == 0
        assert warm.store_stats.get("trace", "misses") == 0
        assert warm.store_stats.get("trace", "hits") == 2
        assert warm.store_stats.get("lut", "misses") == 0
        assert warm.rows == cold.rows

    def test_prior_simulations_not_attributed_to_run(self, seeded_store,
                                                     design):
        """Simulations run before the sweep (other tests, warm parents)
        must not inflate the run's simulation count."""
        from repro.dta.compiled import get_compiled_trace
        from repro.workloads import get_kernel

        get_compiled_trace(get_kernel("gcd").program(), design)
        result = _run(seeded_store)
        assert result.simulations == 2   # only the grid's own programs

    def test_sweep_result_cached_in_store(self, tmp_path, seeded_store):
        result = _run(seeded_store)
        store = ArtifactStore(tmp_path / "store")
        cached = store.load_result(f"sweep:{GRID.fingerprint()}")
        assert cached is not None
        assert cached["results"] == result.rows


class TestStoreCounters:
    """A run's store counters cover the parent's own store traffic —
    the unit checkpoints, resumed-unit loads and LUT warm-up — besides
    the per-batch deltas the units ship back."""

    def test_result_writes_equal_units_run(self, seeded_store):
        cold = _run(seeded_store)
        assert cold.store_stats.get("result", "writes") == cold.units_run
        clear_compiled_cache()
        warm = _run(seeded_store)
        assert warm.simulations == 0
        # the warm checkpoints hold the stored bytes: none is rewritten,
        # each counts as a hit
        assert warm.store_stats.get("result", "writes") == 0
        assert warm.store_stats.get("result", "hits") == warm.units_run
        assert warm.to_dict()["store"]["result"]["hits"] == 2

    def test_parallel_checkpoints_counted(self, seeded_store):
        runner = SweepRunner(GRID, store=seeded_store, jobs=2,
                             parallel_threshold=0)
        result = runner.run()
        assert result.jobs_effective == 2
        assert result.store_stats.get("result", "writes") == 2

    def test_resumed_units_counted_as_result_hits(self, seeded_store):
        _run(seeded_store)
        resumed = _run(seeded_store, resume=True)
        assert resumed.store_stats.get("result", "hits") == 2
        assert resumed.store_stats.get("result", "writes") == 0

    def test_stored_sweep_document_holds_no_per_run_fields(self, tmp_path,
                                                           seeded_store):
        """The ``sweep:<fingerprint>`` document is the run-invariant part
        of ``to_dict``: no timing, worker counts, units or counters."""
        result = _run(seeded_store)
        cached = ArtifactStore(tmp_path / "store").load_result(
            f"sweep:{GRID.fingerprint()}"
        )
        assert sorted(cached) == ["fingerprint", "grid", "results"]
        expected = json.loads(json.dumps(result.to_dict()))
        for name in result.PER_RUN_FIELDS:
            del expected[name]
        assert cached == expected
        # the counters the run reports never include the document
        assert result.store_stats.get("result", "writes") == result.units_run

    def test_warm_rerun_rewrites_nothing(self, seeded_store):
        """A warm rerun finds every checkpoint and the merged document
        already stored byte for byte: no store write at all."""
        _run(seeded_store)
        clear_compiled_cache()
        runner = SweepRunner(GRID, store=seeded_store)
        writes = []
        real_write = ArtifactStore._write_atomic

        def write_atomic(store, path, writer):
            writes.append(path.name)
            return real_write(store, path, writer)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ArtifactStore, "_write_atomic", write_atomic)
            warm = runner.run()
        assert warm.simulations == 0
        assert writes == []
        # the merged document's save, after the run's counters: one hit
        assert runner.store.stats.get("result", "writes") == 0
        assert runner.store.stats.get("result", "hits") == 1

    def test_serial_warm_run_loads_the_lut_once(self, seeded_store):
        """``warm_luts`` hands its LUT to the serial unit executor, so a
        warm run reads and verifies it once per design point."""
        _run(seeded_store)
        clear_compiled_cache()
        warm = _run(seeded_store)
        assert warm.store_stats.get("lut", "hits") == 1
        assert warm.store_stats.get("lut", "misses") == 0

    def test_parallel_workers_still_load_the_lut(self, seeded_store):
        """Pool workers are separate processes: each reads the LUT from
        the store itself."""
        runner = SweepRunner(GRID, store=seeded_store, jobs=2,
                             parallel_threshold=0)
        result = runner.run()
        assert result.jobs_effective == 2
        assert result.store_stats.get("lut", "hits") >= 2
        assert result.store_stats.get("lut", "misses") == 0


class TestParallelRun:
    def test_parallel_bit_identical_to_serial(self, seeded_store):
        serial = _run(seeded_store)
        clear_compiled_cache()
        parallel = _run(seeded_store, jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.jobs == 2

    def test_parallel_cold_traces(self, seeded_store):
        """Workers simulate and populate cold trace entries themselves."""
        result = _run(seeded_store, jobs=2)
        assert result.units_run == 2
        clear_compiled_cache()
        rerun = _run(seeded_store)   # serves from what the workers wrote
        assert rerun.rows == result.rows
        assert rerun.simulations == 0


class TestResume:
    def test_resume_skips_completed_units(self, seeded_store):
        first = _run(seeded_store)
        resumed = _run(seeded_store, resume=True)
        assert resumed.units_resumed == 2
        assert resumed.units_run == 0
        assert resumed.rows == first.rows

    def test_resume_after_partial_manifest(self, seeded_store):
        """Simulate an interrupt: drop one unit from the manifest and
        resume — only the missing unit is re-run."""
        first = _run(seeded_store)
        manifest_path = SweepRunner(GRID, store=seeded_store).manifest_path
        payload = json.loads(manifest_path.read_text())
        removed = "critical_range@0.7/crc16"
        assert removed in payload["completed"]
        del payload["completed"][removed]
        manifest_path.write_text(json.dumps(payload))

        clear_compiled_cache()
        resumed = _run(seeded_store, resume=True)
        assert resumed.units_resumed == 1
        assert resumed.units_run == 1
        assert resumed.rows == first.rows

    def test_corrupt_unit_checkpoint_reruns_unit(self, seeded_store):
        """A damaged per-unit checkpoint in the store means that unit is
        re-run on resume, not crashed on or trusted."""
        first = _run(seeded_store)
        runner = SweepRunner(GRID, store=seeded_store)
        unit_name = runner._unit_result_name("critical_range@0.7/fib")
        seeded_store.result_path(unit_name).write_text("garbage")

        clear_compiled_cache()
        resumed = _run(seeded_store, resume=True)
        assert resumed.units_resumed == 1
        assert resumed.units_run == 1
        assert resumed.rows == first.rows

    def test_nearly_equal_voltages_get_distinct_units(self):
        """Unit ids keep full voltage precision — display rounding must
        never merge two operating points."""
        grid = ScenarioGrid(voltages=(0.699, 0.701), workloads=("fib",))
        ids = [unit_id for unit_id, _, _ in SweepRunner(grid).units()]
        assert len(set(ids)) == 2

    def test_stale_manifest_ignored(self, seeded_store):
        _run(seeded_store)
        other_grid = ScenarioGrid(
            name="runner-test",
            policies=("instruction",),
            workloads=("fib", "crc16"),
            check_safety=True,
        )
        clear_compiled_cache()
        rerun = _run(seeded_store, resume=True, grid=other_grid)
        # different fingerprint: nothing resumed, everything re-run
        assert rerun.units_resumed == 0
        assert rerun.units_run == 2

    def test_manifest_written_once_per_batch(self, seeded_store,
                                             monkeypatch):
        """A serial run over one design point is one batch: every unit
        gets its own store result, the manifest one atomic write."""
        runner = SweepRunner(GRID, store=seeded_store)
        writes = _record_replaces(monkeypatch)
        result = runner.run()
        assert result.units_run == 2
        assert writes.count(runner.manifest_path) == 1
        for unit_id, _, _ in runner.units():
            assert seeded_store.load_result(
                runner._unit_result_name(unit_id)) is not None

    def test_interrupt_after_one_batch_then_resume(self, seeded_store,
                                                   monkeypatch):
        """Kill a run after its first batch: the manifest holds exactly
        that batch, and resuming skips it and reproduces the rows."""
        expected = _run(seeded_store).rows
        clear_compiled_cache()
        runner = SweepRunner(GRID, store=seeded_store)
        # one batch per unit, and the second batch dies
        monkeypatch.setattr(runner, "_grouped", lambda pending: [
            (point, [(unit_id, workload)])
            for unit_id, point, workload in pending
        ])
        real_run_units = runner_module._run_units
        batches = []

        def run_units(point, workloads):
            batches.append(workloads)
            if len(batches) == 2:
                raise _Interrupted
            return real_run_units(point, workloads)

        monkeypatch.setattr(runner_module, "_run_units", run_units)
        writes = _record_replaces(monkeypatch)
        with pytest.raises(_Interrupted):
            runner.run()
        assert writes.count(runner.manifest_path) == 1
        manifest = json.loads(runner.manifest_path.read_text())
        assert list(manifest["completed"]) == ["critical_range@0.7/fib"]

        monkeypatch.undo()
        clear_compiled_cache()
        resumed = _run(seeded_store, resume=True)
        assert resumed.units_resumed == 1
        assert resumed.units_run == 1
        assert resumed.rows == expected

    def test_no_store_no_manifest(self, tmp_path):
        runner = SweepRunner(GRID, store=None, jobs=1)
        assert runner.manifest_path is None
        result = runner.run()
        assert result.units_run == 2
        assert result.store_stats is None


class TestExports:
    def test_write_json_and_csv(self, tmp_path, seeded_store):
        result = _run(seeded_store)
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        result.write_json(json_path)
        result.write_csv(csv_path)

        document = json.loads(json_path.read_text())
        assert document["fingerprint"] == GRID.fingerprint()
        assert len(document["results"]) == 4
        assert document["units"]["total"] == 2

        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("design_point,config,program")
        assert len(lines) == 1 + 4


class TestShardedCharacterization:
    """Characterisation batches shard across workers and resume from the
    store's per-program ``charlut`` cache — merged LUT bit-identical to
    the serial in-process reference."""

    def _cold_store(self, tmp_path):
        return ArtifactStore(tmp_path / "char-store")

    def test_sharded_lut_bit_identical_to_serial(self, tmp_path, design,
                                                 lut):
        store = self._cold_store(tmp_path)
        sharded = store.get_lut(design, jobs=2)
        # the session `lut` fixture is the serial in-process reference
        assert sharded.to_json() == lut.to_json()
        # one batch per characterisation program, all cold
        assert store.stats.get("charlut", "misses") == 7
        assert store.stats.get("charlut", "writes") == 7
        assert store.stats.get("charlut", "hits") == 0

    def test_warm_runner_characterises_nothing(self, tmp_path, design,
                                               lut):
        store = self._cold_store(tmp_path)
        store.get_lut(design, jobs=2)
        store.stats.reset()
        again = store.get_lut(design)
        assert again.to_json() == lut.to_json()
        assert store.stats.get("lut", "hits") == 1
        assert store.stats.get("charlut", "misses") == 0

    def test_killed_shard_resumes_missing_batches_only(self, tmp_path,
                                                       design, lut):
        """Simulate a characterisation killed mid-flight: some program
        batches are in the store, the merged LUT is not.  Re-running must
        recompute exactly the missing batches (store counters as proof)
        and still merge bit-identically."""
        store = self._cold_store(tmp_path)
        store.get_lut(design, jobs=2)

        # kill: drop the merged LUT and two of the seven batches
        for path in (store.root / "luts").glob("*.json"):
            path.unlink()
        batches = sorted((store.root / "charluts").glob("*.json"))
        assert len(batches) == 7
        for path in batches[:2]:
            path.unlink()

        store.stats.reset()
        resumed = store.get_lut(design, jobs=2)
        assert resumed.to_json() == lut.to_json()
        assert store.stats.get("charlut", "hits") == 5
        assert store.stats.get("charlut", "misses") == 2
        assert store.stats.get("charlut", "writes") == 2

    def test_sharded_runner_end_to_end(self, tmp_path, design, lut):
        """A cold --jobs 2 sweep whose warm-up shards characterisation:
        rows must stay bit-identical to the serial no-store reference."""
        store = self._cold_store(tmp_path)
        parallel = SweepRunner(GRID, store=store, jobs=2).run()

        clear_compiled_cache()
        serial_store = ArtifactStore(tmp_path / "serial-store")
        serial = SweepRunner(GRID, store=serial_store, jobs=1).run()
        assert parallel.rows == serial.rows

    def test_keep_runs_incompatible_with_sharding(self, design):
        from repro.api import Session

        with pytest.raises(ValueError, match="keep_runs"):
            Session.for_design(design, jobs=2).characterize(keep_runs=True)


class TestStoreBudget:
    """The optional size budget makes long campaigns self-limit: the
    runner LRU-``gc``s its store after every merged run."""

    def _store_bytes(self, store):
        return sum(
            path.stat().st_size
            for path in store.root.rglob("*") if path.is_file()
        )

    def test_runner_auto_gc_after_merge(self, seeded_store):
        budget = 4096
        runner = SweepRunner(
            GRID, store=seeded_store, store_budget_bytes=budget
        )
        result = runner.run()
        assert result.units_run == 2            # the sweep itself ran
        assert self._store_bytes(seeded_store) <= budget

    def test_no_budget_means_no_eviction(self, seeded_store):
        _run(seeded_store)
        before = self._store_bytes(seeded_store)
        assert before > 4096                    # traces + checkpoints

    def test_session_threads_budget_into_sweep(self, tmp_path, design,
                                               lut):
        from repro.api import Session

        store = ArtifactStore(tmp_path / "store")
        store.save_lut(lut, design)
        session = Session(store=store, store_budget_bytes=2048)
        session.sweep(GRID)
        assert self._store_bytes(store) <= 2048

    def test_budgeted_rows_identical_to_unbudgeted(self, tmp_path, design,
                                                   lut):
        stores = []
        for name in ("plain", "budgeted"):
            store = ArtifactStore(tmp_path / name)
            store.save_lut(lut, design)
            stores.append(store)
        plain = SweepRunner(GRID, store=stores[0]).run()
        clear_compiled_cache()
        budgeted = SweepRunner(
            GRID, store=stores[1], store_budget_bytes=1024
        ).run()
        assert plain.rows == budgeted.rows


class TestEditedWorkloadFile:
    """An edited ``.s`` workload is a new experiment: neither the frame
    cache nor ``--resume`` serves rows evaluated on the old program."""

    SHORT = "l.addi r1, r0, 1\nl.nop 0x1\n"
    LONG = "l.addi r1, r0, 1\nl.addi r2, r0, 2\nl.nop 0x1\n"

    @pytest.fixture
    def source(self, tmp_path):
        path = tmp_path / "k.s"
        path.write_text(self.SHORT)
        return path

    @staticmethod
    def _grid(source):
        return ScenarioGrid(name="edited", policies=("static",),
                            workloads=(str(source),))

    @staticmethod
    def _storeless_cycles(source, lut):
        from repro.api import Session

        frame = Session(lut=lut).evaluate([str(source)],
                                          policies=["static"])
        return frame["num_cycles"].tolist()

    def test_frame_cache_misses_after_edit(self, source, seeded_store, lut):
        from repro.api import Session

        grid = self._grid(source)
        frame, cached = Session(store=seeded_store).sweep_frame(grid)
        assert not cached
        assert frame["num_cycles"].tolist() == self._storeless_cycles(
            source, lut)
        source.write_text(self.LONG)
        clear_compiled_cache()
        frame, cached = Session(store=seeded_store).sweep_frame(grid)
        assert not cached
        cycles = self._storeless_cycles(source, lut)
        assert frame["num_cycles"].tolist() == cycles
        _, cached = Session(store=seeded_store).sweep_frame(grid)
        assert cached                      # the new content is cached

    def test_resume_reruns_units_of_edited_file(self, source, seeded_store,
                                                lut):
        grid = self._grid(source)
        _run(seeded_store, grid=grid)
        source.write_text(self.LONG)
        clear_compiled_cache()
        resumed = _run(seeded_store, resume=True, grid=grid)
        assert resumed.units_resumed == 0
        assert resumed.frame["num_cycles"].tolist() == \
            self._storeless_cycles(source, lut)


class TestTamperedLut:
    def test_scaled_lut_recharacterises_identical_rows(self, seeded_store,
                                                       design):
        """Every stored LUT entry scaled by 0.7 (checksum untouched) is
        reported corrupt and recharacterised; the rows do not move."""
        first = _run(seeded_store)
        path = seeded_store.lut_path(design, 30)
        document = json.loads(path.read_text())
        for row in document["lut"]["entries"].values():
            for stage in row:
                row[stage] *= 0.7
        path.write_text(json.dumps(document))
        clear_compiled_cache()
        again = _run(seeded_store)
        assert again.store_stats.get("lut", "corrupt") == 1
        assert again.simulations == 0
        assert again.rows == first.rows
