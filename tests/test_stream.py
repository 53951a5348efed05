"""repro.stream: windowed traces, streaming equivalence, bounded state.

The acceptance property is strict bit-identity: a stream windowed at
*any* size must reproduce the offline engine's results exactly — frames
compare by their deterministic JSON export, so every float, every
violation record and every controller statistic must match.  The suite
drives every registry policy (plus a trained ``learned:`` model) and
every adapt scheme through window sizes {1, 7, 64, whole-program}, and
a Hypothesis property test over arbitrary window partitions.
"""

import json

import numpy as np
import pytest

from repro.adapt import EnvironmentModel
from repro.api import Session
from repro.dta.compiled import get_compiled_trace
from repro.ml.features import (
    WindowedFeatureExtractor,
    extract_features,
)
from repro.stream import (
    DEFAULT_MAX_WINDOWS,
    DEFAULT_WINDOW_CYCLES,
    StreamingSession,
    TraceWindow,
    iter_windows,
    kernel_source,
    ndjson_source,
    program_from_record,
    random_source,
    stream_fingerprint,
    stream_source_for,
    validate_stream_options,
    windows_from_sizes,
)
from repro.workloads import WorkloadError, program_stream, resolve_program

#: Two small kernels keep the full policy × window matrix fast.
PROGRAMS = ["fib", "crc16"]

#: Every registry policy (the ``learned:`` spec gets its own tests).
POLICIES = ["instruction", "static", "ex-only", "two-class", "genie"]

#: Window sizes that exercise the carry paths: single-cycle, a prime
#: that never divides the trace, a typical chunk, and whole-program.
WINDOW_SIZES = [1, 7, 64, None]

ENV = EnvironmentModel()


@pytest.fixture(scope="module")
def session():
    """One offline session (characterised once) shared by the module."""
    return Session()


@pytest.fixture(scope="module")
def offline_frame(session):
    return session.evaluate(
        PROGRAMS, policies=POLICIES, margins=[0.0, 2.0],
        check_safety=True,
    )


@pytest.fixture(scope="module")
def compiled(session):
    return get_compiled_trace(resolve_program("fib"), session.design)


class TestDriftArrayOffset:
    def test_offset_slices_match_full_array(self):
        full = ENV.drift_array(400)
        for start, stop in [(0, 400), (0, 1), (37, 154), (399, 400)]:
            np.testing.assert_array_equal(
                ENV.drift_array(stop - start, start=start),
                full[start:stop],
            )

    def test_window_partition_concatenates_exactly(self):
        full = ENV.drift_array(500)
        for size in (1, 7, 64, 500):
            parts = [
                ENV.drift_array(min(size, 500 - start), start=start)
                for start in range(0, 500, size)
            ]
            np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_nonzero_start_crosses_droop_and_aging(self):
        # far enough out that temperature, droop and aging all differ
        window = ENV.drift_array(100, start=9_950)
        np.testing.assert_array_equal(
            window, ENV.drift_array(10_050)[9_950:]
        )

    def test_point_queries_agree(self):
        values = ENV.drift_array(50, start=123)
        for offset in (0, 17, 49):
            assert values[offset] == ENV.drift(123 + offset)


class TestProgramStream:
    def test_deterministic_per_seed(self):
        a = [p.words for p in program_stream(seed=5, length=80, count=4)]
        b = [p.words for p in program_stream(seed=5, length=80, count=4)]
        assert a == b

    def test_distinct_indices_differ(self):
        a, b = list(program_stream(seed=5, length=80, count=2))
        assert a.words != b.words

    def test_seeds_differ(self):
        a = next(iter(program_stream(seed=1, length=80)))
        b = next(iter(program_stream(seed=2, length=80)))
        assert a.words != b.words

    def test_unique_loops(self):
        programs = list(
            program_stream(seed=3, length=80, unique=2, count=5)
        )
        assert programs[0].words == programs[2].words == programs[4].words
        assert programs[1].words == programs[3].words
        assert programs[0].words != programs[1].words

    def test_count_zero_and_validation(self):
        assert list(program_stream(count=0)) == []
        with pytest.raises(ValueError):
            next(iter(program_stream(unique=0)))
        with pytest.raises(ValueError):
            next(iter(program_stream(count=-1)))

    def test_unbounded_is_lazy(self):
        stream = program_stream(seed=9, length=80)
        first = [next(stream) for _ in range(3)]
        assert len({p.name for p in first}) == 3


class TestTraceWindows:
    def test_windows_tile_the_trace(self, compiled):
        for size in (1, 7, 64, None):
            windows = list(iter_windows(compiled, size))
            assert windows[0].start_cycle == 0
            assert windows[-1].stop_cycle == compiled.num_cycles
            for prev, this in zip(windows, windows[1:]):
                assert this.start_cycle == prev.stop_cycle
            assert [w.index for w in windows] == list(range(len(windows)))
            assert sum(w.num_cycles for w in windows) == compiled.num_cycles

    def test_windows_are_views(self, compiled):
        window = next(iter_windows(compiled, 64))
        assert np.shares_memory(window.class_ids, compiled.class_ids)
        assert np.shares_memory(window.delays, compiled.delays)

    def test_window_delegates_match_parent(self, compiled):
        window = list(iter_windows(compiled, 64))[1]
        start = window.start_cycle
        np.testing.assert_array_equal(
            window.cycle_max_delays(),
            compiled.cycle_max_delays()[start:window.stop_cycle],
        )
        assert window.class_name_at(0, 0) == compiled.class_name_at(start, 0)

    def test_bounds_are_validated(self, compiled):
        with pytest.raises(ValueError):
            TraceWindow(compiled, -1, 4, index=0)
        with pytest.raises(ValueError):
            TraceWindow(compiled, 4, compiled.num_cycles + 1, index=0)
        with pytest.raises(ValueError):
            TraceWindow(compiled, 8, 4, index=0)

    def test_windows_from_sizes_must_cover(self, compiled):
        with pytest.raises(ValueError):
            list(windows_from_sizes(compiled, [compiled.num_cycles - 1]))
        sizes = [10, compiled.num_cycles - 10]
        windows = list(windows_from_sizes(compiled, sizes))
        assert [w.num_cycles for w in windows] == sizes


class TestWindowedFeatureExtractor:
    def test_matches_offline_features_across_partitions(self, compiled):
        offline = extract_features(compiled).matrix
        for size in (1, 7, 64, compiled.num_cycles):
            extractor = WindowedFeatureExtractor()
            parts = [
                extractor.extract(window).matrix
                for window in iter_windows(compiled, size)
            ]
            np.testing.assert_array_equal(np.vstack(parts), offline)

    def test_reset_clears_carry(self, compiled):
        extractor = WindowedFeatureExtractor()
        windows = list(iter_windows(compiled, 64))
        extractor.extract(windows[0])
        extractor.reset()
        fresh = extractor.extract(windows[0]).matrix
        np.testing.assert_array_equal(
            fresh, extract_features(compiled).matrix[:64]
        )


class TestStreamingEquivalence:
    @pytest.mark.parametrize("window", WINDOW_SIZES)
    def test_every_policy_bit_identical(self, session, offline_frame,
                                        window):
        streaming = StreamingSession(session, window_cycles=window)
        frame = streaming.evaluate(
            kernel_source(PROGRAMS), policies=POLICIES,
            margins=[0.0, 2.0], check_safety=True,
        )
        assert frame.to_json() == offline_frame.to_json()

    def test_configs_and_generators_path(self, session):
        offline = session.evaluate(
            ["fib"], policies=["instruction"], generators=["pll"],
            margins=[1.0],
        )
        streaming = StreamingSession(session, window_cycles=13)
        frame = streaming.evaluate(
            ["fib"], policies=["instruction"], generators=["pll"],
            margins=[1.0],
        )
        assert frame.to_json() == offline.to_json()

    def test_rolling_frames_accumulate(self, session):
        updates = []
        streaming = StreamingSession(
            session, window_cycles=64, on_window=updates.append
        )
        streaming.evaluate(["fib"], policies=["instruction"])
        assert [u.index for u in updates] == list(range(len(updates)))
        assert updates[-1].stream_cycles == sum(
            u.num_cycles for u in updates
        )
        cycles = [u.frame.row(0)["num_cycles"] for u in updates]
        assert cycles == sorted(cycles)        # cumulative per program

    def test_memory_bound_holds(self, session):
        streaming = StreamingSession(session, window_cycles=16,
                                     max_windows=3)
        streaming.evaluate(["fib"], policies=["instruction"])
        assert len(streaming.recent_windows) == 3

    def test_stream_evicts_owned_caches(self, session):
        from repro.dta.compiled import is_trace_cached
        from repro.sim import predecode
        from repro.stream import random_source

        programs = list(random_source(seed=17, count=6, length=200,
                                      repeats=1))
        streaming = StreamingSession(session, window_cycles=128,
                                     retain_traces=2)
        streaming.evaluate(programs, policies=["instruction"])
        # only the newest retain_traces programs stay cached; earlier
        # stream programs have both trace and decoded image evicted
        for program in programs[:-2]:
            assert not is_trace_cached(program, session.design,
                                       session.max_cycles)
            assert predecode._image_key(program) not in predecode._images
        for program in programs[-2:]:
            assert is_trace_cached(program, session.design,
                                   session.max_cycles)
            assert predecode._image_key(program) in predecode._images

    def test_stream_keeps_images_cached_before(self, session, monkeypatch):
        """An image decoded before the stream stays cached, even when
        another program is decoded while the stream compiles it."""
        from repro.sim import predecode
        from repro.stream import random_source
        from repro.stream import session as stream_session

        programs = list(random_source(seed=23, count=4, length=120,
                                      repeats=1))
        bystander = list(random_source(seed=29, count=4, length=120,
                                       repeats=1))
        pre_decoded = [predecode.image_for(program) for program in programs]
        compile_trace = stream_session.get_compiled_trace

        def compile_alongside_a_decode(program, *args, **kwargs):
            predecode.image_for(bystander[programs.index(program)])
            return compile_trace(program, *args, **kwargs)

        monkeypatch.setattr(stream_session, "get_compiled_trace",
                            compile_alongside_a_decode)
        streaming = StreamingSession(session, window_cycles=128,
                                     retain_traces=1)
        streaming.evaluate(programs, policies=["instruction"])
        for image in pre_decoded:
            assert predecode._images.get(image.key) is image

    def test_stream_counters(self, session):
        from repro.obs import metrics as obs_metrics

        baseline = obs_metrics.gather()
        streaming = StreamingSession(session, window_cycles=64)
        streaming.evaluate(["fib"], policies=["instruction"])
        delta = obs_metrics.delta_since(baseline)
        assert delta["stream.programs"] == 1
        assert delta["stream.windows"] >= 1
        assert delta["stream.cycles"] == get_compiled_trace(
            resolve_program("fib"), session.design
        ).num_cycles

    def test_rejects_session_and_kwargs(self, session):
        with pytest.raises(ValueError):
            StreamingSession(session, voltage=0.8)
        with pytest.raises(ValueError):
            StreamingSession(session, window_cycles=0)


class TestUnseenProgramWindows:
    """Seeded random programs nobody characterised, through the window
    extremes: per-cycle, a prime, the benchmark's size, whole-program."""

    POLICIES = ["instruction", "ex-only", "genie"]

    @pytest.fixture(scope="class")
    def programs(self):
        return list(random_source(seed=11, count=2, length=120, repeats=1))

    @pytest.fixture(scope="class")
    def offline(self, session, programs):
        return session.evaluate(programs, policies=self.POLICIES,
                                check_safety=True)

    @pytest.mark.parametrize("window", [1, 7, 256, None])
    def test_frames_byte_identical_to_offline(self, session, programs,
                                              offline, window):
        frame = StreamingSession(session, window_cycles=window).evaluate(
            programs, policies=self.POLICIES, check_safety=True
        )
        assert frame.to_json() == offline.to_json()

    @staticmethod
    def _count_lut_work(monkeypatch):
        """Record every class table gathered from a LUT and every
        per-cell ``DelayLUT.entry`` lookup."""
        from repro.dta.compiled import CompiledTrace
        from repro.dta.lut import DelayLUT

        work = {"tables": 0, "lookups": 0}
        class_table = CompiledTrace.class_table
        entry = DelayLUT.entry

        def counting_class_table(self, lut):
            work["tables"] += 1
            return class_table(self, lut)

        def counting_entry(self, cls, stage):
            work["lookups"] += 1
            return entry(self, cls, stage)

        monkeypatch.setattr(CompiledTrace, "class_table",
                            counting_class_table)
        monkeypatch.setattr(DelayLUT, "entry", counting_entry)
        return work

    def test_lut_lookups_do_not_grow_with_windows(self, session, programs,
                                                  monkeypatch):
        """Class tables are gathered once per (trace, LUT) and sliced per
        window: single-cycle windows gather exactly the tables, and make
        exactly the LUT lookups, one whole-program window makes."""
        session.lut
        work = self._count_lut_work(monkeypatch)
        counts = {}
        for window in (None, 256, 7, 1):
            work.update(tables=0, lookups=0)
            StreamingSession(session, window_cycles=window).evaluate(
                programs, policies=["instruction", "ex-only"]
            )
            counts[window] = dict(work)
        assert counts[None]["tables"] > 0
        assert counts[1] == counts[7] == counts[256] == counts[None]

    def test_lut_lookups_stay_flat_across_many_configs(
            self, session, programs, monkeypatch):
        """Every LUT policy of every config shares one class table per
        trace, so a grid larger than the window memo still builds it
        once per window pass."""
        session.lut
        work = self._count_lut_work(monkeypatch)
        counts = {}
        for window in (None, 1):
            work.update(tables=0, lookups=0)
            StreamingSession(session, window_cycles=window).evaluate(
                programs, policies=["instruction", "ex-only"],
                generators=["ideal", "ring"], margins=[0, 2, 4, 6, 8],
            )
            counts[window] = dict(work)
        assert counts[None]["tables"] > 0
        assert counts[1] == counts[None]


class TestStreamingAdapt:
    @pytest.fixture(scope="class")
    def offline_adapt(self, session):
        return session.adapt(PROGRAMS, ENV)

    @pytest.mark.parametrize("window", WINDOW_SIZES)
    def test_all_schemes_bit_identical(self, session, offline_adapt,
                                       window):
        streaming = StreamingSession(session, window_cycles=window)
        frame = streaming.adapt(kernel_source(PROGRAMS), ENV)
        assert frame.to_json() == offline_adapt.to_json()

    def test_update_interval_and_margin_forwarded(self, session):
        offline = session.adapt(
            ["fib"], ENV, schemes=["online"], update_interval=37,
            tracking_margin=0.04,
        )
        streaming = StreamingSession(session, window_cycles=50)
        frame = streaming.adapt(
            ["fib"], ENV, schemes=["online"], update_interval=37,
            tracking_margin=0.04,
        )
        assert frame.to_json() == offline.to_json()

    def test_rolling_adapt_frames_carry_scheme(self, session):
        updates = []
        streaming = StreamingSession(session, window_cycles=200)
        streaming.adapt(["fib"], ENV, schemes=["online"],
                        on_window=updates.append)
        assert updates and all(u.scheme == "online" for u in updates)
        assert updates[-1].frame.row(0)["lut_updates"] > 0


class TestLearnedStreaming:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        from repro.lab.scenario import ScenarioGrid
        from repro.ml.train import TrainerConfig, train_policy

        grid = ScenarioGrid(
            name="stream-ml", policies=("instruction", "static"),
            margins=(0.0,), voltages=(0.7,),
            workloads=("fib", "crc16"), check_safety=True,
        )
        outcome = train_policy(
            grid, TrainerConfig(calibration_workloads=("fib", "crc16"))
        )
        path = tmp_path_factory.mktemp("model") / "model.npz"
        outcome.model.save(path)
        return str(path)

    @pytest.mark.parametrize("window", [1, 64, None])
    def test_learned_policy_bit_identical(self, session, model_path,
                                          window):
        spec = f"learned:{model_path}"
        offline = session.evaluate(PROGRAMS, policies=[spec])
        streaming = StreamingSession(session, window_cycles=window)
        frame = streaming.evaluate(kernel_source(PROGRAMS),
                                   policies=[spec])
        assert frame.to_json() == offline.to_json()


class TestWindowPartitionProperty:
    """Hypothesis: ANY partition of the trace into windows yields the
    controller's whole-trace period sequence and statistics."""

    def test_arbitrary_partitions_preserve_controller_stats(
            self, session, compiled):
        from hypothesis import given, settings, strategies as st

        from repro.clocking.controller import ClockAdjustmentController
        from repro.clocking.policies import InstructionLutPolicy

        num_cycles = compiled.num_cycles
        reference = ClockAdjustmentController(
            InstructionLutPolicy(session.lut)
        )
        expected = np.asarray(
            reference.periods_for(compiled), dtype=float
        )
        expected_stats = reference.stats

        @settings(max_examples=30, deadline=None)
        @given(st.lists(st.integers(1, num_cycles), min_size=1,
                        max_size=40))
        def check(sizes):
            # clip the partition to exactly cover the trace
            total, clipped = 0, []
            for size in sizes:
                size = min(size, num_cycles - total)
                if size <= 0:
                    break
                clipped.append(size)
                total += size
            if total < num_cycles:
                clipped.append(num_cycles - total)
            controller = ClockAdjustmentController(
                InstructionLutPolicy(session.lut)
            )
            chunks = [
                np.asarray(controller.periods_for(window), dtype=float)
                for window in windows_from_sizes(compiled, clipped)
            ]
            np.testing.assert_array_equal(
                np.concatenate(chunks), expected
            )
            stats = controller.stats
            assert stats.total_time_ps == expected_stats.total_time_ps
            assert stats.min_period_ps == expected_stats.min_period_ps
            assert stats.max_period_ps == expected_stats.max_period_ps
            assert stats.switch_rate == expected_stats.switch_rate

        check()

    def test_random_window_sizes_full_frames(self, session):
        from hypothesis import given, settings, strategies as st

        offline = session.evaluate(["fib"], policies=["instruction"])

        @settings(max_examples=8, deadline=None)
        @given(st.integers(1, 4000))
        def check(window):
            streaming = StreamingSession(session, window_cycles=window)
            frame = streaming.evaluate(["fib"], policies=["instruction"])
            assert frame.to_json() == offline.to_json()

        check()


class TestSources:
    def test_kernel_source_resolves_names(self):
        programs = list(kernel_source(["fib"]))
        assert programs[0].name == "fib"

    def test_random_source_matches_program_stream(self):
        a = [p.words for p in random_source(seed=4, length=80, count=2)]
        b = [p.words for p in program_stream(seed=4, length=80, count=2)]
        assert a == b

    def test_ndjson_records(self):
        kernel = program_from_record({"kernel": "fib"})
        assert kernel.name == "fib"
        random = program_from_record(
            {"randomgen": {"seed": 2, "length": 80, "repeats": 1}}
        )
        assert random.size_words > 0
        with pytest.raises(WorkloadError):
            program_from_record({"nope": 1})
        with pytest.raises(WorkloadError):
            program_from_record([1, 2])

    def test_ndjson_source_skips_blanks_and_decodes_bytes(self):
        lines = [
            b'{"kernel": "fib"}',
            "",
            '{"randomgen": {"seed": 1, "length": 80, "repeats": 1}}\n',
        ]
        programs = list(ndjson_source(lines))
        assert len(programs) == 2
        assert programs[0].name == "fib"

    def test_ndjson_stream_evaluates_identically(self, session):
        offline = session.evaluate(["fib"], policies=["instruction"])
        feed = ['{"kernel": "fib"}']
        streaming = StreamingSession(session, window_cycles=32)
        frame = streaming.evaluate(ndjson_source(feed),
                                   policies=["instruction"])
        assert frame.to_json() == offline.to_json()


class TestStreamOptions:
    def test_defaults_are_canonical(self):
        options = validate_stream_options(None)
        assert options["window_cycles"] == DEFAULT_WINDOW_CYCLES
        assert options["max_windows"] == DEFAULT_MAX_WINDOWS
        assert options["source"] == "workloads"
        # canonical: validating twice is a fixed point
        assert validate_stream_options(options) == options

    def test_rejections(self):
        with pytest.raises(ValueError):
            validate_stream_options({"bogus": 1})
        with pytest.raises(ValueError):
            validate_stream_options({"window_cycles": 0})
        with pytest.raises(ValueError):
            validate_stream_options({"source": "nope"})
        with pytest.raises(ValueError):
            validate_stream_options(
                {"source": "randomgen"}, require_finite=True
            )
        # finite randomgen passes
        options = validate_stream_options(
            {"source": "randomgen", "count": 3}, require_finite=True
        )
        assert options["count"] == 3

    def test_fingerprint_covers_options(self):
        from repro.lab.scenario import ScenarioGrid

        grid = ScenarioGrid(name="fp", workloads=("fib",))
        a = stream_fingerprint(grid, {"window_cycles": 64})
        b = stream_fingerprint(grid, {"window_cycles": 128})
        c = stream_fingerprint(grid, {"window_cycles": 64})
        assert a == c != b
        assert a != grid.fingerprint()

    def test_source_for_grid(self):
        from repro.lab.scenario import ScenarioGrid

        grid = ScenarioGrid(name="src", workloads=("fib", "crc16"))
        names = [p.name for p in stream_source_for(grid, {})]
        assert names == ["fib", "crc16"]
        limited = [p.name for p in
                   stream_source_for(grid, {"count": 1})]
        assert limited == ["fib"]
        random = list(stream_source_for(
            grid, {"source": "randomgen", "count": 2, "length": 80}
        ))
        assert len(random) == 2


class TestServeStreamRegistry:
    """Registry-level stream-job plumbing (full HTTP integration lives
    in test_serve.py)."""

    def test_options_ride_the_job_and_payload(self, tmp_path):
        from repro.lab.store import ArtifactStore
        from repro.serve import JobRegistry
        from repro.serve.pool import job_payload

        class Config:
            store_root = tmp_path / "store"
            sweep_jobs = 1
            engine = "vector"
            telemetry = False

        registry = JobRegistry(ArtifactStore(tmp_path / "store"))
        options = validate_stream_options({"window_cycles": 64})
        job, deduped, cached = registry.submit(
            "stream", "fp", {"name": "g"}, "alice", options
        )
        assert job.options == options
        payload = job_payload(job, Config)
        assert payload["options"] == options
        registry.window_event(job, {"program": "fib", "window": 0})
        assert {"event": "window", "program": "fib",
                "window": 0} in job.events

    def test_stream_is_a_job_kind(self):
        from repro.serve import JOB_KINDS

        assert "stream" in JOB_KINDS


class TestCliTimeout:
    GRID = {"name": "cli", "workloads": ["fib"]}

    def _grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(self.GRID))
        return str(path)

    def test_submit_timeout_reaches_client(self, monkeypatch, tmp_path):
        import repro.serve as serve_mod
        from repro.cli import main

        captured = {}

        class FakeClient:
            def __init__(self, url, timeout=60.0):
                captured["timeout"] = timeout

            def submit(self, grid, *, kind, tenant, stream=None):
                raise OSError("offline")

        monkeypatch.setattr(serve_mod, "ServeClient", FakeClient)
        rc = main(["submit", "--grid", self._grid_file(tmp_path),
                   "--timeout", "12"])
        assert rc == 2
        assert captured["timeout"] == 12.0

    def test_stream_timeout_reaches_client(self, monkeypatch, tmp_path):
        import repro.serve as serve_mod
        from repro.cli import main

        captured = {}

        class FakeClient:
            def __init__(self, url, timeout=60.0):
                captured["timeout"] = timeout

            def submit(self, grid, *, kind, tenant, stream=None):
                captured["kind"] = kind
                captured["stream"] = stream
                raise OSError("offline")

        monkeypatch.setattr(serve_mod, "ServeClient", FakeClient)
        rc = main(["stream", "--url", "http://127.0.0.1:1",
                   "--grid", self._grid_file(tmp_path),
                   "--timeout", "7", "--window-cycles", "64"])
        assert rc == 2
        assert captured["timeout"] == 7.0
        assert captured["kind"] == "stream"
        assert captured["stream"]["window_cycles"] == 64
