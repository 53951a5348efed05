"""Artifact store: round trips, key invalidation, corruption fallback.

The store's contract is that *anything that could change an artifact
changes its key* — schema bumps, another design operating point, edited
program content — and that damaged cache files are detected, counted and
recomputed, never crashed on.
"""

import hashlib
import json
import pathlib
import struct

import numpy as np
import pytest

from repro.dta.compiled import (
    clear_compiled_cache,
    compile_trace,
    get_compiled_trace,
    reset_simulation_count,
    set_trace_store,
    simulation_count,
)
from repro.lab.store import ArtifactStore, SCHEMA_VERSION
from repro.workloads import get_kernel

from oracle import PipelineSimulator

MAX_CYCLES = 4_000_000


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def fib_compiled(design):
    program = get_kernel("fib").program()
    trace = PipelineSimulator(program).run()
    compiled = compile_trace(trace, design.excitation)
    compiled.delays   # materialise before freezing
    return program, compiled


class TestTraceRoundTrip:
    def test_bit_identical_arrays(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        loaded = store.load_compiled_trace(program, design, MAX_CYCLES)

        assert loaded is not None
        assert loaded.program_name == compiled.program_name
        assert loaded.num_cycles == compiled.num_cycles
        assert loaded.num_retired == compiled.num_retired
        assert loaded.class_names == compiled.class_names
        assert loaded.operating_point == compiled.operating_point
        np.testing.assert_array_equal(loaded.class_ids, compiled.class_ids)
        np.testing.assert_array_equal(loaded.bubble, compiled.bubble)
        np.testing.assert_array_equal(loaded.held, compiled.held)
        np.testing.assert_array_equal(loaded.stall, compiled.stall)
        np.testing.assert_array_equal(loaded.redirect, compiled.redirect)
        # delays must be bit-identical (== on floats, not approx)
        assert (loaded.delays == compiled.delays).all()
        # rehydrated traces are store artifacts: no records, no model
        assert loaded.trace is None
        assert loaded.excitation is None

    def test_counters(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        assert store.load_compiled_trace(program, design, MAX_CYCLES) is None
        assert store.stats.get("trace", "misses") == 1
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        assert store.stats.get("trace", "writes") == 1
        store.load_compiled_trace(program, design, MAX_CYCLES)
        assert store.stats.get("trace", "hits") == 1

    def test_rehydrated_evaluation_bit_identical(self, design, lut, store,
                                                 fib_compiled):
        """Every vectorized policy evaluates a rehydrated trace exactly
        as it evaluates the in-memory original."""
        from repro.clocking.policies import (
            ExOnlyLutPolicy,
            GeniePolicy,
            InstructionLutPolicy,
            StaticClockPolicy,
            TwoClassPolicy,
        )

        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        loaded = store.load_compiled_trace(program, design, MAX_CYCLES)
        policies = (
            StaticClockPolicy(design.static_period_ps),
            InstructionLutPolicy(lut),
            ExOnlyLutPolicy(lut),
            TwoClassPolicy(lut),
            GeniePolicy(design.excitation),
        )
        for policy in policies:
            original = policy.periods_for(compiled)
            rehydrated = policy.periods_for(loaded)
            assert (original == rehydrated).all(), policy.name

    def test_genie_rejects_rehydrated_trace_of_other_point(
            self, design, conventional_design, store, fib_compiled):
        """The genie's cross-operating-point fallback needs per-record
        state a rehydrated trace does not have — clear error, no
        AttributeError."""
        from repro.clocking.policies import GeniePolicy

        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        loaded = store.load_compiled_trace(program, design, MAX_CYCLES)
        policy = GeniePolicy(conventional_design.excitation)
        with pytest.raises(ValueError, match="store-rehydrated"):
            policy.periods_for(loaded)


class TestInvalidation:
    """Each key ingredient must force a miss when it changes."""

    def test_schema_version_bump_misses(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        bumped = ArtifactStore(store.root,
                               schema_version=SCHEMA_VERSION + 1)
        assert bumped.load_compiled_trace(
            program, design, MAX_CYCLES
        ) is None
        assert bumped.stats.get("trace", "misses") == 1
        # the old-schema entry is untouched and still serves old readers
        assert store.load_compiled_trace(
            program, design, MAX_CYCLES
        ) is not None

    def test_changed_operating_point_misses(self, design,
                                            conventional_design, store,
                                            fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        # another variant
        assert store.load_compiled_trace(
            program, conventional_design, MAX_CYCLES
        ) is None
        # another supply voltage
        assert store.load_compiled_trace(
            program, design.at_voltage(0.80), MAX_CYCLES
        ) is None

    def test_changed_program_content_misses(self, design, store,
                                            fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        other = get_kernel("crc16").program()
        assert store.load_compiled_trace(other, design, MAX_CYCLES) is None

    def test_changed_cycle_budget_misses(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        assert store.load_compiled_trace(program, design, 1_000) is None

    def test_lut_schema_and_point_invalidation(self, design,
                                               conventional_design, lut,
                                               store):
        store.save_lut(lut, design)
        assert store.load_lut(design) is not None
        assert store.load_lut(conventional_design) is None
        bumped = ArtifactStore(store.root,
                               schema_version=SCHEMA_VERSION + 1)
        assert bumped.load_lut(design) is None
        assert store.load_lut(design, min_occurrences=1) is None


class TestCorruption:
    """Damaged cache files fall back to recompute — never crash."""

    def test_corrupt_trace_recomputes(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        path = store.trace_path(program, design, MAX_CYCLES)
        path.write_bytes(b"this is not an npz archive")

        assert store.load_compiled_trace(program, design, MAX_CYCLES) is None
        assert store.stats.get("trace", "corrupt") == 1
        assert not path.exists()   # damaged entry is discarded

        # through the cache layer: the miss falls back to re-simulation
        previous = set_trace_store(store)
        clear_compiled_cache()
        reset_simulation_count()
        try:
            recomputed = get_compiled_trace(program, design)
            assert simulation_count() == 1
            assert recomputed.trace is not None
            assert (recomputed.delays == compiled.delays).all()
            # and the recompute re-populated the store
            clear_compiled_cache()
            warm = get_compiled_trace(program, design)
            assert simulation_count() == 1
            assert warm.trace is None
        finally:
            set_trace_store(previous)
            clear_compiled_cache()

    def test_truncated_trace_recomputes(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        path = store.trace_path(program, design, MAX_CYCLES)
        path.write_bytes(path.read_bytes()[:100])   # torn write
        assert store.load_compiled_trace(program, design, MAX_CYCLES) is None
        assert store.stats.get("trace", "corrupt") == 1

    def test_corrupt_lut_falls_back(self, design, lut, store):
        store.save_lut(lut, design)
        path = store.lut_path(design, 30)
        path.write_text("{ not json")
        assert store.load_lut(design) is None
        assert store.stats.get("lut", "corrupt") == 1
        assert not path.exists()
        # a fresh save works again and round-trips exactly
        store.save_lut(lut, design)
        reloaded = store.load_lut(design)
        for cls in lut.classes():
            assert reloaded.row(cls) == lut.row(cls)
        assert reloaded.characterized == lut.characterized
        assert reloaded.static_period_ps == lut.static_period_ps

    def test_wrong_payload_type_falls_back(self, design, lut, store):
        store.save_lut(lut, design)
        path = store.lut_path(design, 30)
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, "lut": 42}))
        assert store.load_lut(design) is None
        assert store.stats.get("lut", "corrupt") == 1

    def test_corrupt_result_falls_back(self, store):
        store.save_result("sweep:abc", {"rows": [1, 2, 3]})
        assert store.load_result("sweep:abc") == {"rows": [1, 2, 3]}
        store.result_path("sweep:abc").write_text("garbage")
        assert store.load_result("sweep:abc") is None
        assert store.stats.get("result", "corrupt") == 1


def _body_offset(path):
    """Where a v2 trace file's array body starts (after the magic, the
    header length and the header)."""
    data = path.read_bytes()
    magic, size = struct.unpack_from("<8sQ", data)
    assert magic == b"REPROTR2"
    return struct.calcsize("<8sQ") + size


def scale_stored_lut(path, factor):
    """Scale every entry of a stored LUT document, leaving its checksum
    as it was (a tampered or bit-rotted artifact)."""
    document = json.loads(path.read_text())
    for row in document["lut"]["entries"].values():
        for stage in row:
            row[stage] *= factor
    path.write_text(json.dumps(document))


class TestTamper:
    """Every trace and LUT carries a SHA-256 of its payload: an edited
    or bit-flipped artifact is counted corrupt, discarded, recomputed."""

    def test_layout_stores_ex_column_and_narrow_class_ids(
            self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        path = store.trace_path(program, design, MAX_CYCLES)
        data = path.read_bytes()
        _, size = struct.unpack_from("<8sQ", data)
        header = json.loads(data[16:16 + size])
        assert header["schema"] == SCHEMA_VERSION == 2
        arrays = {name: (dtype, shape)
                  for name, dtype, shape in header["arrays"]}
        cycles = compiled.num_cycles
        assert arrays["ex_delays"] == ("<f8", [cycles])
        assert arrays["class_ids"] == ("|i1", [cycles, 6])
        assert "delays" not in arrays
        assert header["sha256"] == hashlib.sha256(
            data[_body_offset(path):]).hexdigest()

    def test_flipped_body_byte_recomputes_identical_trace(
            self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        path = store.trace_path(program, design, MAX_CYCLES)
        data = bytearray(path.read_bytes())
        data[_body_offset(path) + 3] ^= 0x01
        path.write_bytes(bytes(data))

        previous = set_trace_store(store)
        clear_compiled_cache()
        reset_simulation_count()
        try:
            recomputed = get_compiled_trace(program, design)
            assert store.stats.get("trace", "corrupt") == 1
            assert simulation_count() == 1
            assert (recomputed.delays == compiled.delays).all()
            np.testing.assert_array_equal(recomputed.class_ids,
                                          compiled.class_ids)
            clear_compiled_cache()
            assert (get_compiled_trace(program, design).delays
                    == compiled.delays).all()
            assert simulation_count() == 1    # the rewrite serves again
        finally:
            set_trace_store(previous)
            clear_compiled_cache()

    def test_truncated_v2_file_misses(self, design, store, fib_compiled):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        path = store.trace_path(program, design, MAX_CYCLES)
        for keep in (_body_offset(path) + 8, 20, 4):
            store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
            path.write_bytes(path.read_bytes()[:keep])
            store.stats.reset()
            assert store.load_compiled_trace(
                program, design, MAX_CYCLES) is None
            assert store.stats.get("trace", "corrupt") == 1
            assert store.stats.get("trace", "misses") == 1
            assert not path.exists()

    def test_schema1_npz_misses(self, design, store, fib_compiled):
        """A schema-1 store holds ``.npz`` traces under schema-1 keys:
        a plain miss.  The same bytes under a schema-2 key are corrupt."""
        from repro.lab.store import (
            _digest,
            design_fingerprint,
            program_fingerprint,
        )

        program, compiled = fib_compiled
        old_key = _digest(["trace", 1, program_fingerprint(program),
                           design_fingerprint(design), MAX_CYCLES])
        old_path = store.root / "traces" / f"{old_key}.npz"
        old_path.parent.mkdir(parents=True)
        np.savez(old_path, schema=np.int64(1),
                 class_ids=compiled.class_ids, delays=compiled.delays)
        assert store.load_compiled_trace(program, design, MAX_CYCLES) is None
        assert store.stats.get("trace", "misses") == 1
        assert store.stats.get("trace", "corrupt") == 0

        path = store.trace_path(program, design, MAX_CYCLES)
        path.write_bytes(old_path.read_bytes())
        assert store.load_compiled_trace(program, design, MAX_CYCLES) is None
        assert store.stats.get("trace", "corrupt") == 1

    def test_scaled_lut_is_corrupt(self, design, lut, store):
        store.save_lut(lut, design)
        scale_stored_lut(store.lut_path(design, 30), 0.7)
        assert store.load_lut(design) is None
        assert store.stats.get("lut", "corrupt") == 1
        assert not store.lut_path(design, 30).exists()

    def test_scaled_char_lut_is_corrupt(self, design, lut, store):
        program = get_kernel("fib").program()
        store.save_char_lut(lut, 123, design, program)
        scale_stored_lut(store.char_lut_path(design, program), 0.7)
        assert store.load_char_lut(design, program) is None
        assert store.stats.get("charlut", "corrupt") == 1


class TestSkippedWrites:
    def test_identical_document_is_touched_not_rewritten(self, store):
        import os

        store.save_result("unit:a", {"rows": [1.5, 2]})
        path = store.result_path("unit:a")
        os.utime(path, (1_000, 1_000))
        inode = path.stat().st_ino
        store.save_result("unit:a", {"rows": [1.5, 2]})
        assert store.stats.get("result", "writes") == 1
        assert store.stats.get("result", "hits") == 1
        assert path.stat().st_ino == inode       # no atomic replace
        assert path.stat().st_mtime > 1_000      # the gc LRU clock moved
        store.save_result("unit:a", {"rows": [1.5, 3]})
        assert store.stats.get("result", "writes") == 2
        assert store.load_result("unit:a") == {"rows": [1.5, 3]}

    def test_documents_are_compact(self, store):
        store.save_result("unit:b", {"b": [1, 2], "a": "x"})
        assert store.result_path("unit:b").read_text() == \
            '{"a":"x","b":[1,2]}'


class TestGetLut:
    def test_get_lut_characterises_once(self, design, lut, store):
        """A pre-seeded store serves the LUT without characterising."""
        store.save_lut(lut, design)
        served = store.get_lut(design)
        assert store.stats.get("lut", "hits") == 1
        for cls in lut.classes():
            assert served.row(cls) == lut.row(cls)


class TestGc:
    """LRU garbage collection: newest artifacts survive a size budget."""

    def _populate(self, store, tmp_path):
        """Four artifacts with a controlled LRU order (oldest first)."""
        import os
        import time

        for index in range(4):
            store.save_result(f"gc-{index}", {"payload": "x" * 256})
        paths = sorted(
            (path for path in store.root.rglob("*") if path.is_file()),
            key=lambda path: path.name,
        )
        base = time.time() - 1_000
        ordered = []
        for index, name in enumerate(f"gc-{i}" for i in range(4)):
            path = store.result_path(name)
            os.utime(path, (base + index * 60, base + index * 60))
            ordered.append(path)
        assert len(paths) == 4
        return ordered

    def test_gc_removes_least_recently_used(self, store, tmp_path):
        ordered = self._populate(store, tmp_path)
        sizes = [path.stat().st_size for path in ordered]
        # budget for exactly the two newest artifacts
        budget = sizes[2] + sizes[3]
        result = store.gc(max_bytes=budget)
        assert result.removed_files == 2
        assert result.kept_files == 2
        assert not ordered[0].exists() and not ordered[1].exists()
        assert ordered[2].exists() and ordered[3].exists()

    def test_gc_load_refreshes_lru_clock(self, store, tmp_path):
        """A hit touches the artifact's mtime, protecting it from gc."""
        ordered = self._populate(store, tmp_path)
        assert store.load_result("gc-0") is not None   # oldest becomes MRU
        budget = sum(path.stat().st_size for path in ordered[:2])
        result = store.gc(max_bytes=budget)
        assert ordered[0].exists()            # refreshed by the load
        assert not ordered[1].exists()        # now the LRU victim
        assert result.removed_files == 2

    def test_gc_dry_run_deletes_nothing(self, store, tmp_path):
        ordered = self._populate(store, tmp_path)
        result = store.gc(max_bytes=0, dry_run=True)
        assert result.removed_files == 4
        assert all(path.exists() for path in ordered)

    def test_gc_zero_budget_empties_store(self, store, tmp_path):
        ordered = self._populate(store, tmp_path)
        result = store.gc(max_bytes=0)
        assert result.kept_files == 0
        assert not any(path.exists() for path in ordered)
        assert result.summary().startswith("kept 0 files")

    def test_gc_negative_budget_rejected(self, store):
        with pytest.raises(ValueError):
            store.gc(max_bytes=-1)

    def test_gc_empty_store(self, store):
        result = store.gc(max_bytes=1024)
        assert result.scanned_files == 0
        assert result.removed_files == 0

    def test_gc_covers_traces_and_charluts(self, store, fib_compiled,
                                           design):
        program, compiled = fib_compiled
        store.save_compiled_trace(compiled, program, design, MAX_CYCLES)
        lut = _tiny_lut(design)
        store.save_char_lut(lut, 123, design, program)
        result = store.gc(max_bytes=0)
        assert result.removed_files == 2
        assert store.load_compiled_trace(program, design, MAX_CYCLES) is None
        assert store.load_char_lut(design, program) is None


def _tiny_lut(design):
    from repro.dta.lut import DelayLUT

    return DelayLUT(static_period_ps=design.static_period_ps)


class TestCharLutRoundTrip:
    def test_round_trip(self, store, design, lut):
        from repro.workloads import get_kernel

        program = get_kernel("fib").program()
        store.save_char_lut(lut, 4321, design, program)
        loaded = store.load_char_lut(design, program)
        assert loaded is not None
        cached_lut, num_cycles = loaded
        assert num_cycles == 4321
        assert cached_lut.to_json() == lut.to_json()
        assert store.stats.get("charlut", "hits") == 1

    def test_torn_charlut_recomputed(self, store, design, lut):
        from repro.workloads import get_kernel

        program = get_kernel("fib").program()
        store.save_char_lut(lut, 99, design, program)
        path = store.char_lut_path(design, program)
        path.write_text(path.read_text()[:40])     # torn write
        assert store.load_char_lut(design, program) is None
        assert store.stats.get("charlut", "corrupt") == 1
        assert not path.exists()

    def test_key_varies_with_program_and_threshold(self, store, design):
        from repro.workloads import get_kernel

        fib = get_kernel("fib").program()
        crc = get_kernel("crc16").program()
        assert store.char_lut_path(design, fib) != \
            store.char_lut_path(design, crc)
        assert store.char_lut_path(design, fib, min_occurrences=5) != \
            store.char_lut_path(design, fib)
        assert store.char_lut_path(design, fib, sim_period_ps=2000.0) != \
            store.char_lut_path(design, fib)


class TestModelArtifacts:
    """Learned-policy models share the store contract of traces/LUTs:
    content-addressed, schema-versioned, corruption → counted miss."""

    @staticmethod
    def _model(seed=0):
        from repro.ml.features import feature_names
        from repro.ml.model import LearnedModel

        return LearnedModel(
            kind="tree",
            vocabulary=("<bubble>",),
            window=8,
            feature_names=feature_names(),
            tree_feature=np.array([-1], dtype=np.int32),
            tree_threshold=np.array([0.0]),
            tree_left=np.array([-1], dtype=np.int32),
            tree_right=np.array([-1], dtype=np.int32),
            tree_value=np.array([1.0]),
            metadata={"seed": seed},
        )

    def test_round_trip_and_counters(self, store):
        assert store.load_model("m") is None
        assert store.stats.get("model", "misses") == 1
        model = self._model()
        store.save_model("m", model)
        assert store.stats.get("model", "writes") == 1
        assert store.load_model("m") == model
        assert store.stats.get("model", "hits") == 1

    def test_names_are_content_addressed(self, store):
        assert store.model_path("a") != store.model_path("b")
        assert store.model_path("a").suffix == ".npz"
        assert store.model_path("a").parent.name == "models"

    def test_corruption_discards_and_misses(self, store):
        store.save_model("m", self._model())
        store.model_path("m").write_bytes(b"torn")
        assert store.load_model("m") is None
        assert store.stats.get("model", "corrupt") == 1
        assert not store.model_path("m").exists()

    def test_schema_bump_invalidates(self, store, tmp_path):
        store.save_model("m", self._model())
        bumped = ArtifactStore(store.root,
                               schema_version=SCHEMA_VERSION + 1)
        assert bumped.load_model("m") is None   # different key: a miss
        assert bumped.stats.get("model", "misses") == 1

    def test_models_are_gc_eligible(self, store):
        store.save_model("m", self._model())
        result = store.gc(max_bytes=0)
        assert result.removed_files == 1
        assert not store.model_path("m").exists()


class TestGcStrictLru:
    def test_older_small_file_cannot_outlive_newer_large_one(self, store):
        """The first artifact that overflows the budget marks the recency
        cut: everything older is evicted too, even if it would fit."""
        import os
        import time

        store.save_result("big-new", {"blob": "x" * 4000})
        store.save_result("small-old", {"blob": "y"})
        base = time.time() - 1_000
        os.utime(store.result_path("small-old"), (base, base))
        os.utime(store.result_path("big-new"), (base + 600, base + 600))

        big = store.result_path("big-new")
        small = store.result_path("small-old")
        # budget below the big file: nothing may survive — keeping the
        # stale small file while evicting the fresh big one would be
        # recency inversion
        result = store.gc(max_bytes=big.stat().st_size - 1)
        assert not big.exists() and not small.exists()
        assert result.kept_files == 0
        assert result.removed_files == 2


class TestGcConcurrencySemantics:
    """GC against concurrent writers and evictors: in-flight temp files
    are untouchable, vanished entries are tolerated and reported, and
    ``removed_*`` never counts an unlink that did not happen."""

    def test_gc_skips_inflight_temp_files(self, store):
        store.save_result("keep", {"v": 1})
        # what _write_atomic's mkstemp leaves while a writer is mid-flight
        results_dir = store.result_path("keep").parent
        tmp_npz = results_dir / "deadbeef012345ab.tmp.npz"
        tmp_npz.write_bytes(b"x" * 10_000)
        tmp_json = results_dir / "deadbeef012345cd.tmp.json"
        tmp_json.write_text("{} " * 1_000)
        manifest_tmp = results_dir / "manifest.tmp"
        manifest_tmp.write_text("{}")

        result = store.gc(max_bytes=0)
        assert tmp_npz.exists() and tmp_json.exists()
        assert manifest_tmp.exists()
        assert result.scanned_files == 1          # only the real artifact
        assert result.removed_files == 1

    def test_gc_tolerates_entry_vanishing_before_stat(self, store):
        """A path another process evicted between scan and ``stat`` is
        reported as vanished, not raised."""
        store.save_result("real", {"v": 1})
        ghost = store.result_path("real").parent / "gone.json"
        result = store.gc(
            max_bytes=0,
            paths=[store.result_path("real"), ghost],
        )
        assert result.vanished_files == 1
        assert result.removed_files == 1
        assert not store.result_path("real").exists()

    def test_gc_counts_vanished_unlink_not_removed(self, store,
                                                   monkeypatch):
        """Another process unlinking the victim first must not inflate
        ``removed_files``/``removed_bytes``."""
        store.save_result("victim", {"v": 1})
        original = ArtifactStore._discard

        def racing_discard(self, path):
            path.unlink(missing_ok=True)      # the "other process" wins
            return original(self, path)

        monkeypatch.setattr(ArtifactStore, "_discard", racing_discard)
        result = store.gc(max_bytes=0)
        assert result.removed_files == 0
        assert result.removed_bytes == 0
        assert result.vanished_files == 1

    def test_gc_counts_failed_unlink_not_removed(self, store,
                                                 monkeypatch):
        """An unlink that fails (file persists) is surfaced as failed,
        never counted as an eviction."""
        store.save_result("stuck", {"v": 1})

        def failing_discard(self, path):
            return ArtifactStore._FAILED

        monkeypatch.setattr(ArtifactStore, "_discard", failing_discard)
        result = store.gc(max_bytes=0)
        assert result.removed_files == 0
        assert result.failed_files == 1
        assert store.result_path("stuck").exists()
        assert "FAILED" in result.summary()

    def test_discard_outcomes(self, store, monkeypatch):
        store.save_result("x", {"v": 1})
        path = store.result_path("x")
        assert store._discard(path) == ArtifactStore._REMOVED
        assert store._discard(path) == ArtifactStore._VANISHED

        def raise_oserror(self):
            raise OSError("busy")

        monkeypatch.setattr(pathlib.Path, "unlink", raise_oserror)
        assert store._discard(path) == ArtifactStore._FAILED

    def test_gc_paths_restricts_eligibility(self, store):
        """``paths=`` (the per-tenant budget hook) only ever evicts the
        named files, LRU-ordered among themselves."""
        import os
        import time

        for index in range(3):
            store.save_result(f"tenant-a-{index}", {"v": index})
        store.save_result("tenant-b", {"v": 99})
        base = time.time() - 1_000
        tenant_a = [store.result_path(f"tenant-a-{i}") for i in range(3)]
        for index, path in enumerate(tenant_a):
            os.utime(path, (base + index, base + index))

        result = store.gc(
            max_bytes=tenant_a[2].stat().st_size, paths=tenant_a
        )
        assert store.result_path("tenant-b").exists()   # out of scope
        assert tenant_a[2].exists()                     # newest kept
        assert not tenant_a[0].exists() and not tenant_a[1].exists()
        assert result.removed_files == 2


class TestStoreStatsThreadSafety:
    def test_concurrent_record_loses_no_increments(self, store):
        """The sweep service hits one StoreStats from the event loop and
        watcher threads at once; ``+=`` on the shared dict must not drop
        updates."""
        import threading

        stats = store.stats
        increments = 5_000

        def hammer():
            for _ in range(increments):
                stats.record("frame", "hits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.counts["frame"]["hits"] == 8 * increments

    def test_merge_accepts_stats_and_dict(self, store, tmp_path):
        other = ArtifactStore(tmp_path / "other")
        other.stats.record("trace", "misses")
        store.stats.merge(other.stats)
        store.stats.merge({"trace": {"misses": 2}})
        assert store.stats.counts["trace"]["misses"] == 3
