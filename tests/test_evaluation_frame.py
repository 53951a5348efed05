"""Evaluation frames built by column against the row-dict formulation.

``Session.evaluate`` and ``StreamingSession.evaluate`` build their
``ResultFrame`` one column at a time from the result grid
(``repro.api.session.evaluation_frame``).  The formulation it replaced —
one ``evaluation_row`` dict per (config, program), then
``ResultFrame.from_rows`` — is kept here as the reference; both frames
must be equal and export byte-identical JSON.
"""

import pytest

from repro.api import Session
from repro.api.frame import EVALUATION_SCHEMA, ResultFrame
from repro.api.session import RowContext, evaluation_frame, evaluation_row
from repro.clocking.policies import StaticClockPolicy
from repro.flow.evaluate import EvaluationResult, SweepConfig
from repro.lab.scenario import ConfigSpec
from repro.stream import StreamingSession

PROGRAMS = ["fib", "crc16", "gcd"]


def reference_frame(session, specs, programs):
    """The row-dict formulation over ``Session.evaluate_results``."""
    programs = session._resolve_programs(programs)
    concrete = session._materialize(specs)
    grid = session.evaluate_results(programs, concrete)
    rows = []
    for spec, config, row in zip(specs, concrete, grid):
        policy = getattr(spec, "policy", None)
        generator = session._generator_name(spec, config)
        for result in row:
            rows.append(evaluation_row(
                result,
                variant=session.variant,
                voltage=session.voltage,
                config_label=config.label or session._fallback_label(
                    result.policy_name, generator, config.margin_percent,
                ),
                policy=(policy if isinstance(policy, str)
                        else result.policy_name),
                generator=generator,
                margin_percent=config.margin_percent,
                pipeline_spec=session.pipeline_spec.name,
            ))
    return ResultFrame.from_rows(rows, EVALUATION_SCHEMA)


def assert_same_frame(actual, expected):
    assert actual == expected
    assert actual.to_json() == expected.to_json()


@pytest.fixture(scope="module")
def session(characterization):
    return Session.for_design(characterization.design,
                              characterization=characterization)


def mixed_specs(session):
    """Labelled registry configs plus unlabelled ``SweepConfig``s: a
    non-string policy, a generator object and a clock fast enough that
    every cycle violates."""
    dca = session.dca
    fast = session.design.static_period_ps * 0.3
    return [
        ConfigSpec(policy="instruction", generator="ideal"),
        ConfigSpec(policy="two-class", generator="ring",
                   margin_percent=5.0),
        ConfigSpec(policy="genie", check_safety=True),
        SweepConfig(policy=lambda: StaticClockPolicy(fast)),
        SweepConfig(policy=lambda: dca.make_policy("ex-only"),
                    generator=lambda: dca.make_generator("ring"),
                    margin_percent=2.0),
        SweepConfig(policy=StaticClockPolicy(fast), margin_percent=8.0,
                    label="too-fast"),
    ]


class TestSessionFrame:
    def test_axis_grid(self, session):
        frame = session.evaluate(
            PROGRAMS, policies=["instruction", "ex-only", "static"],
            generators=["ideal", "ring"], margins=[0.0, 5.0],
        )
        specs = session._config_specs(
            ["instruction", "ex-only", "static"], ["ideal", "ring"],
            [0.0, 5.0], True,
        )
        assert len(frame) == 3 * 2 * 2 * len(PROGRAMS)
        assert_same_frame(frame, reference_frame(session, specs, PROGRAMS))

    def test_unlabelled_configs_and_violations(self, session):
        specs = mixed_specs(session)
        frame = session.evaluate(PROGRAMS, configs=specs)
        assert_same_frame(frame, reference_frame(session, specs, PROGRAMS))
        # the cases the fixture is for are present
        assert frame.where(config="too-fast")["num_violations"].min() > 0
        labels = frame.distinct("config")
        assert "static/ideal" in labels            # fallback label
        assert "ex-only-lut/ring-oscillator/margin=2%" in labels
        assert "static" in frame.distinct("policy")   # non-string policy
        violated = frame.where(config="static/ideal").row(0)
        assert violated["num_violations"] == len(violated["violations"])
        assert violated["violations"][0][1] in ("ADR", "FE", "DC", "EX",
                                                "CTRL", "WB")

    def test_no_programs(self, session):
        specs = mixed_specs(session)
        frame = session.evaluate([], configs=specs)
        assert len(frame) == 0
        assert_same_frame(frame, reference_frame(session, specs, []))


class TestStreamFrame:
    @pytest.mark.parametrize("window_cycles", [7, None])
    def test_stream_equals_rows(self, session, window_cycles):
        specs = mixed_specs(session)
        stream = StreamingSession(session, window_cycles=window_cycles)
        frame = stream.evaluate(PROGRAMS, configs=specs)
        assert_same_frame(frame, reference_frame(session, specs, PROGRAMS))

    def test_empty_stream(self, session):
        specs = mixed_specs(session)
        frame = StreamingSession(session).evaluate([], configs=specs)
        assert_same_frame(frame, reference_frame(session, specs, []))

    def test_rolling_frames(self, session):
        specs = mixed_specs(session)
        updates = []
        StreamingSession(session, window_cycles=64).evaluate(
            ["fib"], configs=specs, on_window=updates.append,
        )
        last = updates[-1].frame
        assert last.schema == EVALUATION_SCHEMA
        assert len(last) == len(specs)
        # the last window's rolling rows cover the whole program; their
        # floats are running sums, so compare the exact columns only
        expected = reference_frame(session, specs, ["fib"])
        for column in EVALUATION_SCHEMA:
            if column.kind != "float" or column.name in (
                    "voltage", "margin_percent", "static_period_ps"):
                assert list(last[column.name]) == list(
                    expected[column.name]), column.name


class TestEvaluationFrame:
    def test_matches_rows_cell_for_cell(self):
        results = [
            EvaluationResult(
                program_name=name, policy_name="p", num_cycles=cycles,
                num_retired=cycles // 2, total_time_ps=cycles * 7.5,
                static_period_ps=9.0, min_period_ps=6.0,
                max_period_ps=9.0, switch_rate=0.25,
            )
            for name, cycles in (("a", 4), ("b", 0), ("c", 11))
        ]
        contexts = [
            RowContext("cr@0.70V", "critical-range", 0.7, label, "p",
                       "ideal", margin)
            for label, margin in (("x", 0.0), ("y", 2.5), ("x", 0.0))
        ]
        rows = [
            evaluation_row(
                result, variant=context.variant, voltage=context.voltage,
                config_label=context.config, policy=context.policy,
                generator=context.generator,
                margin_percent=context.margin_percent,
            )
            for result, context in zip(results, contexts)
        ]
        for row, context in zip(rows, contexts):
            row["design_point"] = context.design_point
        assert_same_frame(evaluation_frame(contexts, results),
                          ResultFrame.from_rows(rows, EVALUATION_SCHEMA))
