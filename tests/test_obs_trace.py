"""repro.obs unit tests: tracer, exporters, progress line, host facts."""

import io
import json

import pytest

from repro.api.frame import TELEMETRY_SCHEMA
from repro.obs import trace as obs_trace
from repro.obs.export import (
    chrome_trace,
    summary_csv,
    summary_rows,
    telemetry_frame,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.host import host_metadata
from repro.obs.progress import UnitProgress


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Tests own the process-wide tracer slot; leave it as found."""
    previous = obs_trace.set_tracer(None)
    yield
    obs_trace.set_tracer(previous)


def _record(name="a.b", pid=1, worker="session", depth=0, start=0.0,
            dur=1.0, cpu=0.5, attrs=None):
    return {
        "span": name, "category": name.split(".", 1)[0],
        "worker": worker, "pid": pid, "depth": depth,
        "start_us": start, "duration_us": dur, "cpu_us": cpu,
        "attrs": attrs or {},
    }


class TestTracer:
    def test_disabled_span_is_a_shared_noop(self):
        assert obs_trace.get_tracer() is None
        assert not obs_trace.is_enabled()
        first = obs_trace.span("x.y")
        second = obs_trace.span("z.w", key="value")
        assert first is second         # singleton: no allocation per site
        with first:
            pass

    def test_records_nested_spans(self):
        tracer = obs_trace.Tracer(label="t")
        obs_trace.set_tracer(tracer)
        assert obs_trace.is_enabled()
        with obs_trace.span("outer.op", grid="g"):
            with obs_trace.span("inner.op"):
                pass
        inner, outer = tracer.snapshot()   # completion order
        assert inner["span"] == "inner.op" and outer["span"] == "outer.op"
        assert outer["depth"] == 0 and inner["depth"] == 1
        assert outer["category"] == "outer"
        assert outer["worker"] == "t"
        assert outer["attrs"] == {"grid": "g"}
        assert inner["start_us"] >= outer["start_us"]
        assert outer["duration_us"] >= inner["duration_us"] >= 0.0
        assert outer["cpu_us"] >= 0.0
        assert tracer._stack == []

    def test_span_recorded_even_when_body_raises(self):
        tracer = obs_trace.Tracer()
        obs_trace.set_tracer(tracer)
        with pytest.raises(RuntimeError):
            with obs_trace.span("fails.here"):
                raise RuntimeError("boom")
        assert [s["span"] for s in tracer.snapshot()] == ["fails.here"]
        assert tracer._stack == []

    def test_set_tracer_returns_previous(self):
        first = obs_trace.Tracer()
        assert obs_trace.set_tracer(first) is None
        second = obs_trace.Tracer()
        assert obs_trace.set_tracer(second) is first
        assert obs_trace.get_tracer() is second

    def test_drain_clears_the_buffer(self):
        tracer = obs_trace.Tracer()
        obs_trace.set_tracer(tracer)
        with obs_trace.span("one.two"):
            pass
        drained = tracer.drain()
        assert [s["span"] for s in drained] == ["one.two"]
        assert tracer.snapshot() == []

    def test_merge_worker_spans_absorbs_onto_active_tracer(self):
        tracer = obs_trace.Tracer()
        obs_trace.set_tracer(tracer)
        shipped = [_record("w.op", pid=999, worker="worker-999")]
        obs_trace.merge_worker_spans(shipped)
        assert tracer.snapshot() == shipped

    def test_merge_worker_spans_noop_when_disabled(self):
        obs_trace.merge_worker_spans([_record()])   # must not raise


class TestSpanAttribution:
    def test_cold_store_save_excludes_delay_materialisation(self, tmp_path,
                                                            design):
        """A cold compile with a store attached bills the lazy delay
        matrix to one ``dta.delays`` span that ends before the
        ``store.trace.save`` span starts (not nested inside it)."""
        from repro.dta import compiled
        from repro.lab.store import ArtifactStore
        from repro.workloads.kernels import get_kernel

        program = get_kernel("fib").program()
        compiled.discard_compiled_trace(program, design)
        tracer = obs_trace.Tracer(label="t")
        obs_trace.set_tracer(tracer)
        previous = compiled.set_trace_store(ArtifactStore(tmp_path / "s"))
        try:
            trace = compiled.get_compiled_trace(program, design)
            trace.delays           # already materialised: no second span
        finally:
            compiled.set_trace_store(previous)
        spans = tracer.snapshot()
        delays = [s for s in spans if s["span"] == "dta.delays"]
        saves = [s for s in spans if s["span"] == "store.trace.save"]
        assert len(delays) == 1 and len(saves) == 1
        delay, save = delays[0], saves[0]
        assert delay["attrs"] == {"program": program.name}
        assert delay["depth"] == save["depth"]        # siblings, not nested
        assert delay["start_us"] < save["start_us"]
        # 1 us of slack for float rounding of the absolute timestamps
        assert delay["start_us"] + delay["duration_us"] <= (
            save["start_us"] + 1.0
        )


class TestChromeTrace:
    def test_structure_and_tracks(self):
        spans = [
            _record("sweep.unit", pid=10, worker="session", start=5.0),
            _record("iss.collect", pid=11, worker="worker-11", start=2.0),
            _record("sweep.merge", pid=10, worker="session", start=9.0),
        ]
        payload = chrome_trace(spans, counters={"sim.simulations": 3},
                               label="demo")
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["counters"] == {"sim.simulations": 3}
        metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metas
                 if e["name"] == "process_name"}
        assert names == {"demo:session", "demo:worker-11"}
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        # per-pid tracks, time-ordered within a track
        assert [(e["pid"], e["name"]) for e in events] == [
            (10, "sweep.unit"), (10, "sweep.merge"), (11, "iss.collect"),
        ]
        assert events[0]["args"]["cpu_us"] == 0.5

    def test_validate_accepts_own_output_and_reports_categories(self):
        spans = [_record("a.x"), _record("b.y", pid=2)]
        categories = validate_chrome_trace(chrome_trace(spans))
        assert categories == {"a", "b"}

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        bad_dur = chrome_trace([_record(dur=-1.0)])
        with pytest.raises(ValueError):
            validate_chrome_trace(bad_dur)
        bad_phase = chrome_trace([_record()])
        bad_phase["traceEvents"][-1]["ph"] = "B"
        with pytest.raises(ValueError):
            validate_chrome_trace(bad_phase)

    def test_write_chrome_trace_is_valid_json_on_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, [_record()], counters={"k": 1})
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        assert payload["otherData"]["counters"] == {"k": 1}


class TestSummaries:
    def test_summary_rows_aggregate_and_order(self):
        spans = [
            _record("fast.op", dur=100.0, cpu=50.0),
            _record("slow.op", dur=4000.0, cpu=1000.0),
            _record("fast.op", dur=300.0, cpu=150.0),
        ]
        rows = summary_rows(spans)
        assert [r["span"] for r in rows] == ["slow.op", "fast.op"]
        fast = rows[1]
        assert fast["count"] == 2
        assert fast["wall_ms"] == pytest.approx(0.4)
        assert fast["cpu_ms"] == pytest.approx(0.2)
        assert fast["mean_ms"] == pytest.approx(0.2)

    def test_summary_csv_shape(self):
        text = summary_csv([_record("a.x"), _record("a.x")])
        lines = text.strip().split("\n")
        assert lines[0] == "span,category,count,wall_ms,cpu_ms,mean_ms"
        assert lines[1].startswith("a.x,a,2,")

    def test_telemetry_frame_schema(self):
        frame = telemetry_frame([_record(attrs={"program": "fib"})])
        assert frame.schema == TELEMETRY_SCHEMA
        row = frame.row(0)
        assert row["span"] == "a.b"
        assert row["attrs"] == {"program": "fib"}


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestUnitProgress:
    def test_renders_count_percent_and_eta(self):
        clock = iter([0.0, 10.0, 20.0]).__next__
        stream = _TtyStream()
        progress = UnitProgress(4, stream=stream, clock=clock,
                                label="sweep g")
        progress.update(0)          # arms the rate baseline at t=0
        progress.update(1)          # t=10 -> 10 s/unit, 3 left
        progress.update(2)          # t=20 -> 10 s/unit, 2 left
        progress.finish()
        text = stream.getvalue()
        assert "\rsweep g 1/4 units (25%) eta 30.0s" in text
        assert "\rsweep g 2/4 units (50%) eta 20.0s" in text
        assert text.endswith("\n")

    def test_resumed_units_do_not_skew_the_rate(self):
        clock = iter([0.0, 5.0]).__next__
        stream = _TtyStream()
        progress = UnitProgress(10, stream=stream, clock=clock)
        progress.update(8)          # 8 resumed before any local work
        progress.update(9)          # 5 s for ONE local unit -> eta 5 s
        assert "eta 5.0s" in stream.getvalue()

    def test_total_updates_via_callback(self):
        stream = _TtyStream()
        progress = UnitProgress(0, stream=stream)
        progress.update(1, total=3)
        assert "1/3 units (33%)" in stream.getvalue()

    def test_disabled_on_non_tty(self):
        stream = io.StringIO()      # isatty() -> False
        progress = UnitProgress(4, stream=stream)
        assert not progress.enabled
        progress.update(1)
        progress.finish()
        assert stream.getvalue() == ""

    def test_finish_silent_when_nothing_rendered(self):
        stream = _TtyStream()
        UnitProgress(4, stream=stream).finish()
        assert stream.getvalue() == ""


class TestHostMetadata:
    def test_fields(self):
        meta = host_metadata()
        assert meta["cores_usable"] >= 1
        assert meta["cores_total"] >= meta["cores_usable"] >= 1
        assert meta["python_version"].count(".") == 2
        assert meta["numpy_version"]
        assert meta["platform"] and meta["machine"]
        assert "engine" not in meta
        assert json.loads(json.dumps(meta)) == meta

    def test_engine_tag(self):
        assert host_metadata(engine="vector")["engine"] == "vector"
