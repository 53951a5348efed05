"""ResultFrame: construction, access, aggregation, lossless round-trips."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.frame import (
    EVALUATION_SCHEMA,
    Column,
    ResultFrame,
    schema,
)
from repro.lab.store import ArtifactStore

SIMPLE = schema(
    ("name", "str"),
    ("count", "int"),
    ("value", "float"),
    ("detail", "json"),
)


def simple_frame():
    return ResultFrame.from_rows([
        {"name": "a", "count": 1, "value": 1.5, "detail": [1, 2]},
        {"name": "b", "count": 2, "value": -0.25, "detail": {"k": "v"}},
        {"name": "a", "count": 3, "value": 2.0, "detail": None},
    ], SIMPLE)


class TestConstruction:
    def test_from_rows_types(self):
        frame = simple_frame()
        assert len(frame) == 3
        assert frame["count"].dtype == np.int64
        assert frame["value"].dtype == np.float64
        assert frame["name"].dtype == object

    def test_returned_json_cells_are_copies(self):
        """Mutating a returned row must never corrupt the frame."""
        frame = simple_frame()
        frame.row(0)["detail"].clear()
        assert frame.row(0)["detail"] == [1, 2]
        rows = frame.to_rows()
        rows[0]["detail"].append("junk")
        assert frame.to_rows()[0]["detail"] == [1, 2]

    def test_iter_rows_plain_python(self):
        for row in simple_frame().iter_rows():
            assert type(row["count"]) is int
            assert type(row["value"]) is float
            assert type(row["name"]) is str
        # every row must survive json.dumps as-is
        json.dumps(simple_frame().to_rows())

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match schema"):
            ResultFrame({"name": ["a"]}, SIMPLE)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            ResultFrame({
                "name": np.array(["a"], dtype=object),
                "count": np.array([1, 2], dtype=np.int64),
                "value": np.array([0.5], dtype=np.float64),
                "detail": np.array([None], dtype=object),
            }, SIMPLE)

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ResultFrame.from_rows(
                [], schema(("x", "int"), ("x", "float"))
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown column kind"):
            Column("x", "decimal")

    def test_concat(self):
        frame = simple_frame()
        doubled = ResultFrame.concat([frame, frame])
        assert len(doubled) == 6
        assert doubled.to_rows() == frame.to_rows() + frame.to_rows()

    def test_concat_mismatched_schemas_rejected(self):
        other = ResultFrame.from_rows([], schema(("x", "int")))
        with pytest.raises(ValueError, match="mismatched"):
            ResultFrame.concat([simple_frame(), other])

    def test_empty_frame(self):
        frame = ResultFrame.from_rows([], SIMPLE)
        assert len(frame) == 0
        assert frame.to_rows() == []
        assert ResultFrame.from_json(frame.to_json()) == frame


class TestFiltering:
    def test_where(self):
        frame = simple_frame().where(name="a")
        assert len(frame) == 2
        assert frame.distinct("name") == ["a"]

    def test_where_multiple_keys(self):
        frame = simple_frame().where(name="a", count=3)
        assert frame.to_rows()[0]["value"] == 2.0

    def test_select_callable(self):
        frame = simple_frame().select(lambda row: row["value"] > 0)
        assert len(frame) == 2

    def test_select_mask(self):
        frame = simple_frame().select([True, False, True])
        assert [row["count"] for row in frame.iter_rows()] == [1, 3]

    def test_select_bad_mask_length(self):
        with pytest.raises(ValueError, match="mask length"):
            simple_frame().select([True])

    def test_distinct_first_seen_order(self):
        assert simple_frame().distinct("name") == ["a", "b"]


class TestGroupBy:
    def test_stats(self):
        out = simple_frame().group_by("name", {
            "total": ("count", "sum"),
            "mean_value": ("value", "mean"),
            "low": ("value", "min"),
            "high": ("value", "max"),
            "n": ("count", "count"),
            "first_value": ("value", "first"),
        })
        rows = {row["name"]: row for row in out.iter_rows()}
        assert rows["a"]["total"] == 4.0
        assert rows["a"]["mean_value"] == pytest.approx(1.75)
        assert rows["a"]["low"] == 1.5 and rows["a"]["high"] == 2.0
        assert rows["a"]["n"] == 2 and type(rows["a"]["n"]) is int
        assert rows["a"]["first_value"] == 1.5
        assert rows["b"]["n"] == 1

    def test_group_order_is_first_seen(self):
        out = simple_frame().group_by("name", {"n": ("count", "count")})
        assert [row["name"] for row in out.iter_rows()] == ["a", "b"]

    def test_multiple_keys(self):
        out = simple_frame().group_by(
            ["name", "count"], {"n": ("value", "count")}
        )
        assert len(out) == 3

    def test_unknown_stat_rejected(self):
        with pytest.raises(ValueError, match="unknown stat"):
            simple_frame().group_by("name", {"x": ("value", "median")})

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            simple_frame().group_by("name", {"x": ("nope", "mean")})

    def test_percentiles(self):
        """p50/p95/p99 match np.percentile (linear interpolation)."""
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        frame = ResultFrame.from_rows(
            [{"k": "g", "v": value} for value in values],
            schema(("k", "str"), ("v", "float")),
        )
        out = frame.group_by("k", {
            "p50": ("v", "p50"), "p95": ("v", "p95"), "p99": ("v", "p99"),
        })
        row = out.row(0)
        assert row["p50"] == np.percentile(values, 50)
        assert row["p95"] == np.percentile(values, 95)
        assert row["p99"] == np.percentile(values, 99)
        assert out.kind_of("p50") == "float"

    def test_percentile_single_row_group(self):
        out = simple_frame().group_by("name", {"p99": ("value", "p99")})
        rows = {row["name"]: row for row in out.iter_rows()}
        assert rows["b"]["p99"] == -0.25

    def test_percentiles_on_int_column(self):
        out = simple_frame().group_by("name", {"p50": ("count", "p50")})
        rows = {row["name"]: row for row in out.iter_rows()}
        assert rows["a"]["p50"] == 2.0      # median of (1, 3)

    @given(st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_percentiles_property(self, values):
        """Percentiles are ordered, bounded by min/max, and agree with
        np.percentile for any group content."""
        frame = ResultFrame.from_rows(
            [{"k": "g", "v": value} for value in values],
            schema(("k", "str"), ("v", "float")),
        )
        row = frame.group_by("k", {
            "low": ("v", "min"), "p50": ("v", "p50"),
            "p95": ("v", "p95"), "p99": ("v", "p99"),
            "high": ("v", "max"),
        }).row(0)
        assert row["low"] <= row["p50"] <= row["p95"] \
            <= row["p99"] <= row["high"]
        for stat, rank in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert row[stat] == np.percentile(values, rank)


class TestDerivation:
    def test_with_column(self):
        frame = simple_frame().with_column(
            "doubled", "float", simple_frame()["value"] * 2
        )
        assert frame.row(0)["doubled"] == 3.0
        assert frame.schema[-1] == Column("doubled", "float")

    def test_with_column_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already exists"):
            simple_frame().with_column("name", "str", ["x", "y", "z"])


class TestSerialisation:
    def test_json_round_trip_is_lossless(self):
        frame = simple_frame()
        assert ResultFrame.from_json(frame.to_json()) == frame

    def test_float_bits_survive(self):
        values = [0.1 + 0.2, 1e-323, math.pi, float("inf"), float("nan")]
        frame = ResultFrame.from_rows(
            [{"x": v} for v in values], schema(("x", "float"))
        )
        back = ResultFrame.from_json(frame.to_json())
        assert back == frame
        for ours, theirs in zip(frame["x"], back["x"]):
            assert repr(ours) == repr(theirs)

    def test_csv_matches_csv_writer(self):
        frame = simple_frame()
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["name", "count", "value"])
        for row in frame.iter_rows():
            writer.writerow([row["name"], row["count"], row["value"]])
        assert frame.to_csv() == buffer.getvalue()

    def test_csv_skips_json_columns_by_default(self):
        assert "detail" not in frame_header(simple_frame().to_csv())

    def test_csv_explicit_columns(self):
        text = simple_frame().to_csv(columns=["value", "name"])
        assert frame_header(text) == ["value", "name"]

    def test_csv_writes_file(self, tmp_path):
        path = tmp_path / "frame.csv"
        text = simple_frame().to_csv(path)
        assert path.read_bytes().decode() == text

    def test_to_structured(self):
        array = simple_frame().to_structured()
        assert array.dtype.names == ("name", "count", "value")
        assert array["count"].tolist() == [1, 2, 3]
        assert array["name"].tolist() == ["a", "b", "a"]

    def test_store_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        frame = simple_frame()
        store.save_frame("unit", frame)
        assert store.load_frame("unit") == frame
        assert store.stats.get("frame", "writes") == 1
        assert store.stats.get("frame", "hits") == 1

    def test_store_miss_and_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.load_frame("absent") is None
        assert store.stats.get("frame", "misses") == 1
        store.save_frame("torn", simple_frame())
        path = store.frame_path("torn")
        path.write_text(path.read_text()[:20])          # torn write
        assert store.load_frame("torn") is None
        assert store.stats.get("frame", "corrupt") == 1
        assert not path.exists()                        # discarded

    def test_evaluation_schema_is_runner_row_layout(self):
        # the canonical JSON row and the frame schema must never drift:
        # the runner row delegates to evaluation_row, which derives, as
        # the column builder does, from the one EVALUATION_FIELDS table,
        # whose fields are exactly the schema columns, in order
        import inspect

        from repro.api.session import (
            EVALUATION_FIELDS,
            evaluation_frame,
            evaluation_row,
        )
        from repro.flow.evaluate import EvaluationResult
        from repro.lab.runner import result_to_dict

        names = [column.name for column in EVALUATION_SCHEMA]
        assert "evaluation_row" in inspect.getsource(result_to_dict)
        assert [name for name, _, _ in EVALUATION_FIELDS] == names
        for function in (evaluation_row, evaluation_frame):
            assert "EVALUATION_FIELDS" in inspect.getsource(function)
        result = EvaluationResult(
            program_name="p", policy_name="instruction-lut", num_cycles=4,
            num_retired=3, total_time_ps=10.0, static_period_ps=3.0,
            min_period_ps=2.0, max_period_ps=3.0, switch_rate=0.5,
        )
        row = evaluation_row(
            result, variant="conventional", voltage=0.7, config_label="c",
            policy="instruction", generator="ideal", margin_percent=0.0,
        )
        assert list(row) == names


def frame_header(text):
    return text.splitlines()[0].split(",")


ROW_STRATEGY = st.fixed_dictionaries({
    "name": st.text(
        alphabet=st.characters(codec="ascii", exclude_characters="\r\n,\""),
        max_size=8,
    ),
    "count": st.integers(min_value=-2**53, max_value=2**53),
    "value": st.floats(allow_nan=True, allow_infinity=True),
    "detail": st.recursive(
        st.none() | st.integers(max_value=2**53, min_value=-2**53)
        | st.text(max_size=6),
        lambda children: st.lists(children, max_size=3),
        max_leaves=4,
    ),
})


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(ROW_STRATEGY, max_size=12))
    def test_json_round_trip(self, rows):
        frame = ResultFrame.from_rows(rows, SIMPLE)
        assert ResultFrame.from_json(frame.to_json()) == frame

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(ROW_STRATEGY, max_size=8))
    def test_rows_round_trip(self, rows):
        frame = ResultFrame.from_rows(rows, SIMPLE)
        again = ResultFrame.from_rows(frame.to_rows(), SIMPLE)
        assert again == frame

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(ROW_STRATEGY, min_size=1, max_size=8),
           data=st.data())
    def test_where_partitions(self, rows, data):
        frame = ResultFrame.from_rows(rows, SIMPLE)
        name = data.draw(st.sampled_from(frame.distinct("name")))
        matching = frame.where(name=name)
        rest = frame.select(lambda row: row["name"] != name)
        assert len(matching) + len(rest) == len(frame)
        assert all(row["name"] == name for row in matching.iter_rows())
