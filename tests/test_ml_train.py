"""The ML-DFS training pipeline (repro.ml.train) and LearnedPolicy.

Covers the acceptance properties of a trained policy: determinism
(same seed + grid → byte-identical artifact, independent of sweep
sharding), safety (violation-free on the full kernel suite under genie
replay) and frequency (beats the static baseline), plus the
content-addressed model store round trip with corruption → retrain.
"""

import numpy as np
import pytest

from repro.clocking.policies import LearnedPolicy
from repro.lab.scenario import ScenarioGrid
from repro.lab.store import ArtifactStore
from repro.ml.features import extract_features
from repro.ml.train import (
    TrainerConfig,
    get_or_train_model,
    train_policy,
)

#: Small but representative training grid: two kernels, one design point.
GRID = ScenarioGrid(
    name="ml-test",
    policies=("instruction", "static"),
    margins=(0.0,),
    voltages=(0.7,),
    workloads=("fib", "crc16"),
    check_safety=True,
)

#: Cheap configuration for tests that only need *a* model: calibration
#: restricted to the training kernels instead of the full suite.
CHEAP = TrainerConfig(calibration_workloads=("fib", "crc16"))


@pytest.fixture(scope="module")
def outcome():
    """One full training run (tree, full-suite calibration)."""
    return train_policy(GRID, TrainerConfig(seed=1))


class TestTraining:
    def test_report_contents(self, outcome):
        report = outcome.report
        assert report["grid"] == "ml-test"
        assert report["fingerprint"] == GRID.fingerprint()
        assert report["train_workloads"] == ["fib", "crc16"]
        # calibration covers training workloads plus the full suite
        assert set(report["train_workloads"]) \
            <= set(report["calibration_workloads"])
        assert report["train_rows"] > 0
        assert report["calibration_rows"] > report["train_rows"]
        assert report["num_leaves"] > 1
        assert report["safe_on_calibration"] is True
        # training_table consumption: grid policies become baselines
        assert set(report["baselines"]) == {"instruction", "static"}
        for row in report["baselines"].values():
            assert set(row) == {"mhz", "speedup_p50", "speedup_p95",
                                "violations", "mean_normalized_period"}

    def test_envelope_covers_calibration_targets(self, outcome):
        """Every calibration cycle's genie target is covered by its
        leaf — the by-construction safety property."""
        assert outcome.report["safe_on_calibration"] is True
        assert outcome.report["max_normalized_period"] <= 1.0 + 1e-9

    def test_mean_normalized_below_static(self, outcome):
        assert outcome.report["mean_normalized_period"] < 1.0

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError, match="unknown trainer model"):
            TrainerConfig(model="forest")

    @pytest.mark.parametrize("field,value,match", [
        ("window", 0, "window must be >= 1"),
        ("max_depth", 0, "max_depth must be >= 1"),
        ("min_samples_leaf", 0, "min_samples_leaf must be >= 1"),
        ("calibration_margin_percent", -1.0, "cannot be negative"),
    ])
    def test_bad_hyperparameters_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainerConfig(**{field: value})


class TestDeterminism:
    def test_same_seed_same_bytes(self, outcome):
        again = train_policy(GRID, TrainerConfig(seed=1))
        assert again.model.to_bytes() == outcome.model.to_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path, outcome):
        """jobs=1 vs jobs=2 training-table generation (sharded sweep +
        store) produces byte-identical artifacts."""
        store = ArtifactStore(tmp_path / "store")
        serial = train_policy(GRID, TrainerConfig(seed=1),
                              store=store, jobs=1)
        parallel = train_policy(GRID, TrainerConfig(seed=1),
                                store=store, jobs=2)
        assert serial.model.to_bytes() == parallel.model.to_bytes()
        assert serial.model.to_bytes() == outcome.model.to_bytes()


class TestDeployment:
    def test_safe_and_faster_than_static_on_full_suite(self, outcome,
                                                       design, lut,
                                                       tmp_path):
        """The headline acceptance: zero violations under genie safety
        replay across the full kernel suite, at a higher mean effective
        frequency than static clocking."""
        from repro.api import Session

        path = tmp_path / "model.npz"
        outcome.model.save(path)
        session = Session.for_design(design, lut=lut)
        frame = session.evaluate(
            None, policies=[f"learned:{path}", "static"],
            check_safety=True,
        )
        learned = frame.where(policy=f"learned:{path}")
        static = frame.where(policy="static")
        assert int(learned["num_violations"].sum()) == 0
        assert learned["effective_frequency_mhz"].mean() \
            > static["effective_frequency_mhz"].mean()

    def test_scalar_and_vector_paths_bit_identical(self, design, lut,
                                                   tmp_path):
        """The learned policy's per-record ``period_for`` (the oracle
        loop) and its vectorized ``periods_for`` (the Session) give
        bit-identical results, violations included."""
        import oracle
        from repro.api import Session
        from repro.flow.evaluate import SweepConfig
        from repro.workloads import get_kernel

        outcome = train_policy(GRID, CHEAP)
        path = tmp_path / "model.npz"
        outcome.model.save(path)
        spec = f"learned:{path}"
        session = Session.for_design(design, lut=lut)
        frame = session.evaluate(["fib", "crc16"], policies=[spec],
                                 check_safety=True)
        programs = [get_kernel(n).program() for n in ("fib", "crc16")]
        config = SweepConfig(policy=lambda: session.dca.make_policy(spec))
        reference = oracle.evaluate_grid(programs, design, [config])[0]
        for expected, row in zip(reference, frame.iter_rows()):
            oracle.assert_results_identical(expected, row)

    def test_policy_prediction_matches_model(self, design, outcome):
        from repro.dta.compiled import get_compiled_trace
        from repro.workloads import get_kernel

        policy = LearnedPolicy(outcome.model, design.static_period_ps)
        compiled = get_compiled_trace(get_kernel("fib").program(), design)
        periods = policy.periods_for(compiled)
        features = extract_features(
            compiled, vocabulary=outcome.model.vocabulary,
            window=outcome.model.window,
        )
        expected = outcome.model.predict_normalized(features.matrix) \
            * design.static_period_ps
        assert np.array_equal(periods, expected)

    def test_invalid_static_period(self, outcome):
        with pytest.raises(ValueError, match="invalid static period"):
            LearnedPolicy(outcome.model, 0.0)


class TestLogisticBaseline:
    def test_trains_safe_two_level_policy(self, design, lut, tmp_path):
        from repro.api import Session

        outcome = train_policy(GRID, TrainerConfig(model="logistic"))
        assert outcome.model.kind == "logistic"
        assert outcome.report["num_leaves"] == 2
        assert outcome.report["safe_on_calibration"] is True
        path = tmp_path / "logistic.npz"
        outcome.model.save(path)
        session = Session.for_design(design, lut=lut)
        frame = session.evaluate(
            None, policies=[f"learned:{path}"], check_safety=True
        )
        assert int(frame["num_violations"].sum()) == 0

    def test_deterministic(self):
        first = train_policy(GRID, replace_config(CHEAP, "logistic"))
        second = train_policy(GRID, replace_config(CHEAP, "logistic"))
        assert first.model.to_bytes() == second.model.to_bytes()


def replace_config(config, model):
    from dataclasses import replace

    return replace(config, model=model)


class TestCalibrationMargin:
    def test_margin_scales_predictions(self):
        plain = train_policy(GRID, CHEAP)
        padded = train_policy(
            GRID, TrainerConfig(calibration_workloads=("fib", "crc16"),
                                calibration_margin_percent=5.0),
        )
        ratio = padded.model.tree_value / plain.model.tree_value
        leaves = plain.model.tree_feature < 0
        assert np.allclose(ratio[leaves], 1.05)


class TestModelStore:
    def test_get_or_train_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = get_or_train_model(store, "m", GRID, CHEAP)
        assert store.stats.get("model", "writes") == 1
        second = get_or_train_model(store, "m", GRID, CHEAP)
        assert second == first
        assert store.stats.get("model", "hits") == 1

    def test_corruption_retrains(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = get_or_train_model(store, "m", GRID, CHEAP)
        path = store.model_path("m")
        path.write_bytes(b"torn artifact")
        # a torn artifact is counted, discarded and served as a miss ...
        assert store.load_model("m") is None
        assert store.stats.get("model", "corrupt") == 1
        assert not path.exists()
        # ... and the next lookup simply retrains, deterministically
        again = get_or_train_model(store, "m", GRID, CHEAP)
        assert again == first
        assert store.load_model("m") == first
