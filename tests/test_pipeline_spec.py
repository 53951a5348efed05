"""Parameterized microarchitectures: the PipelineSpec layer.

Four contracts are enforced here:

- **The default spec is the identity.**  Simulating, compiling and
  keying with :data:`~repro.sim.spec.DEFAULT_SPEC` is bit-identical to
  never mentioning specs at all — operating points, store keys and grid
  fingerprints do not change.
- **Every spec is cross-engine equivalent.**  The cycle-stepping
  ``PipelineSimulator`` in ``tests/oracle.py`` is the reference for
  *all* specs; the vector engine must reproduce it bit-for-bit on every
  registered preset and on synthetic specs that stretch the interlock
  window (no forwarding on the five- and seven-stage geometries, load-use
  penalties past the back stages, multi-cycle multiplies without
  forwarding).
- **Specs key artifacts.**  Two specs over the same program produce two
  distinct store artifacts; corrupting one never touches the other.
- **Over-scaling is spec-aware.**  Violations are labelled in the
  canonical stage vocabulary, EX is the spec's EX column, and a warm
  store reproduces the in-memory frame on every preset.
"""

import numpy as np
import pytest

from repro.asm import assemble
from repro.dta.compiled import compile_trace, compile_vector_run
from repro.sim import vector
from repro.sim.spec import (
    DEFAULT_SPEC,
    PIPELINE_VARIANTS,
    PipelineSpec,
    StageDef,
    get_pipeline_spec,
    register_pipeline_spec,
)
from repro.sim.trace import Stage
from repro.timing.design import build_design
from repro.workloads.kernels import all_kernels, get_kernel
from repro.workloads.randomgen import generate_characterization_program
from repro.workloads.suite import benchmark_suite

from oracle import PipelineSimulator

#: Interlocked presets: no forwarding, a two-cycle load-use penalty.
INTERLOCKED_PRESETS = ("nofwd6", "slowmem6")


_SHALLOW = PIPELINE_VARIANTS["shallow5"].stages
_DEEP = PIPELINE_VARIANTS["deep7"].stages

#: Unregistered specs the equivalence suite covers as well.
SYNTHETIC_SPECS = {
    spec.name: spec for spec in (
        PipelineSpec(name="nofwd5", stages=_SHALLOW, forwarding=False),
        PipelineSpec(name="nofwd7", stages=_DEEP, forwarding=False),
        # a penalty past the two back stages caps at write-back
        PipelineSpec(name="loaduse3", load_use_penalty=3),
        PipelineSpec(name="nofwd-mul4", forwarding=False, mul_latency=4),
        PipelineSpec(name="deep7-loaduse2", stages=_DEEP,
                     load_use_penalty=2),
    )
}

#: Every spec the vector engine is held to the oracle on.
EQUIVALENCE_SPECS = tuple(sorted(PIPELINE_VARIANTS)) + tuple(SYNTHETIC_SPECS)


# -- spec construction, registry, identity ------------------------------------


class TestSpecValidation:
    def test_default_reproduces_todays_machine(self):
        assert DEFAULT_SPEC.num_stages == len(Stage)
        assert DEFAULT_SPEC.ex_index == int(Stage.EX)
        assert DEFAULT_SPEC.squash_count == 1
        assert DEFAULT_SPEC.stage_names == tuple(s.name for s in Stage)
        assert DEFAULT_SPEC.is_default

    @pytest.mark.parametrize("name", sorted(PIPELINE_VARIANTS))
    def test_presets_round_trip_and_digest(self, name):
        spec = get_pipeline_spec(name)
        clone = PipelineSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest == spec.digest

    def test_digest_excludes_display_name(self):
        renamed = PipelineSpec(name="whatever")
        assert renamed.digest == DEFAULT_SPEC.digest
        assert renamed.is_default

    def test_digests_distinct_across_presets(self):
        digests = {spec.digest for spec in PIPELINE_VARIANTS.values()}
        assert len(digests) == len(PIPELINE_VARIANTS)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline spec"):
            get_pipeline_spec("warp9")

    def test_unresolvable_type_rejected(self):
        with pytest.raises(TypeError):
            get_pipeline_spec(7)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pipeline_spec(PipelineSpec(name="baseline6"))

    @pytest.mark.parametrize("stages, message", [
        # no EX stage at all
        ((("ADR", Stage.ADR), ("FE", Stage.FE), ("CTRL", Stage.CTRL),
          ("WB", Stage.WB)), "exactly one EX"),
        # EX too early: no delay-slot stage
        ((("ADR", Stage.ADR), ("EX", Stage.EX), ("CTRL", Stage.CTRL),
          ("WB", Stage.WB)), "two front stages"),
        # missing write-back behind the response stage
        ((("ADR", Stage.ADR), ("FE", Stage.FE), ("EX", Stage.EX),
          ("CTRL", Stage.CTRL)), "two back stages"),
        # first stage must be the address generator
        ((("FE", Stage.FE), ("ADR", Stage.ADR), ("EX", Stage.EX),
          ("CTRL", Stage.CTRL), ("WB", Stage.WB)), "must be ADR"),
        # the stage after EX must answer the data memory
        ((("ADR", Stage.ADR), ("FE", Stage.FE), ("EX", Stage.EX),
          ("WB", Stage.WB), ("CTRL", Stage.CTRL)), "CTRL path group"),
        # back stage on a front path group
        ((("ADR", Stage.ADR), ("FE", Stage.FE), ("EX", Stage.EX),
          ("CTRL", Stage.CTRL), ("XX", Stage.DC)), "CTRL/WB"),
    ])
    def test_structural_constraints(self, stages, message):
        with pytest.raises(ValueError, match=message):
            PipelineSpec(name="bad", stages=stages)

    @pytest.mark.parametrize("field, value", [
        ("load_use_penalty", 0), ("mul_latency", 0), ("div_latency", 0),
    ])
    def test_latency_floors(self, field, value):
        with pytest.raises(ValueError):
            PipelineSpec(name="bad", **{field: value})

    def test_unknown_policies_rejected(self):
        with pytest.raises(ValueError, match="hazard policy"):
            PipelineSpec(name="bad", hazard_policy="scoreboard")
        with pytest.raises(ValueError, match="branch policy"):
            PipelineSpec(name="bad", branch_policy="predict-taken")

    def test_stage_names_unique(self):
        with pytest.raises(ValueError, match="unique"):
            PipelineSpec(name="bad", stages=(
                StageDef("ADR", Stage.ADR), StageDef("X", Stage.FE),
                StageDef("X", Stage.DC), StageDef("EX", Stage.EX),
                StageDef("CTRL", Stage.CTRL), StageDef("WB", Stage.WB),
            ))

    def test_canonical_columns(self):
        deep = get_pipeline_spec("deep7")
        # two DC-group columns resolve to the one feeding EX
        assert deep.canonical_column(Stage.DC) == 3
        assert deep.canonical_column(Stage.EX) == 4
        shallow = get_pipeline_spec("shallow5")
        assert shallow.canonical_column(Stage.FE) is None
        assert shallow.canonical_column(Stage.WB) == 4
        assert DEFAULT_SPEC.canonical_column(Stage.DC) == int(Stage.DC)

    def test_stage_labels_stay_canonical(self):
        deep = get_pipeline_spec("deep7")
        assert [deep.stage_label(c) for c in range(deep.num_stages)] == [
            Stage.ADR, Stage.FE, Stage.DC, Stage.DC, Stage.EX,
            Stage.CTRL, Stage.WB,
        ]


# -- default-spec identity ----------------------------------------------------


class TestDefaultIdentity:
    """Passing the default spec explicitly changes nothing, anywhere."""

    def test_scalar_trace_bit_identical(self):
        program = get_kernel("fib").program()
        implicit = PipelineSimulator(program).run()
        explicit = PipelineSimulator(program, spec=DEFAULT_SPEC).run()
        assert explicit.num_cycles == implicit.num_cycles
        assert explicit.records == implicit.records

    def test_operating_point_unchanged(self):
        design = build_design(pipeline_spec=DEFAULT_SPEC)
        assert design.operating_point == (
            design.variant.value, design.library.voltage
        )

    def test_compiled_trace_unchanged(self, design):
        program = get_kernel("crc16").program()
        trace = PipelineSimulator(program).run()
        implicit = compile_trace(trace, design.excitation)
        explicit = compile_trace(trace, design.excitation,
                                 spec=DEFAULT_SPEC)
        assert implicit.spec is None
        assert explicit.spec is None     # normalised away: keys stay stable
        np.testing.assert_array_equal(explicit.class_ids,
                                      implicit.class_ids)
        assert (explicit.delays == implicit.delays).all()


# -- cross-engine equivalence per preset --------------------------------------


def assert_spec_equivalent(program, spec, design, check_delays=False):
    """The vector engine must reproduce the scalar reference exactly
    under ``spec`` (records, architectural state, compiled matrices)."""
    scalar = PipelineSimulator(program, spec=spec)
    scalar.run()
    run = vector.simulate(program, spec=spec)
    reference = scalar.trace
    assert run.trace.num_cycles == reference.num_cycles
    assert run.trace.retired == reference.retired
    for expected, actual in zip(reference.records, run.trace.records):
        assert actual == expected, (
            f"{program.name} on {spec.name}: cycle {expected.cycle}\n"
            f"  scalar: {expected}\n  vector: {actual}"
        )
    assert list(run.state.regs) == list(scalar.state.regs)
    assert run.state.flag == scalar.state.flag
    assert run.state.carry == scalar.state.carry
    assert run.state.instret == scalar.state.instret

    reference_compiled = compile_trace(reference, design.excitation,
                                       spec=spec)
    fast_compiled = compile_vector_run(run, design.excitation)
    assert fast_compiled.class_names == reference_compiled.class_names
    for field in ("class_ids", "bubble", "held", "stall", "redirect"):
        assert np.array_equal(
            getattr(fast_compiled, field),
            getattr(reference_compiled, field),
        ), f"{program.name} on {spec.name}: compiled {field} differs"
    if check_delays:
        assert np.array_equal(
            fast_compiled.delays, reference_compiled.delays
        ), f"{program.name} on {spec.name}: delay matrices differ"
    return run


def _directed_programs():
    """Hazard/branch corners every spec geometry must nail."""
    corner = "\n".join([
        "start:",
        "    l.movhi r20, hi(scratch)",
        "    l.ori   r20, r20, lo(scratch)",
        "    l.addi  r3, r0, 7",
        "    l.sw    0(r20), r3",
        "    l.lwz   r4, 0(r20)",
        "    l.addi  r5, r4, 1",      # load-use interlock
        "    l.mul   r6, r5, r3",     # multi-cycle EX under slowmul6
        "    l.sfeqi r3, 7",
        "    l.bf    target",
        "    l.addi  r7, r0, 2",      # delay slot
        "    l.addi  r8, r0, 3",      # squashed wrong-path word
        "    l.addi  r8, r0, 4",      # second victim under deep7
        "target:",
        "    l.div   r9, r6, r3",     # divider drains into the halt
        "    l.nop   0x1",
        "    l.nop",
        "    l.nop",
        ".data",
        "scratch:",
        "    .space 32",
    ])
    # back-to-back and one-apart RAW pairs, a load feeding a consumer
    # two and three slots later, and a younger ALU writer shadowing an
    # older load of the same register
    raw_chains = "\n".join([
        "start:",
        "    l.movhi r20, hi(scratch)",
        "    l.ori   r20, r20, lo(scratch)",
        "    l.addi  r3, r0, 1",
        "    l.addi  r4, r3, 1",
        "    l.addi  r5, r4, 1",
        "    l.addi  r6, r0, 2",
        "    l.add   r7, r5, r6",
        "    l.sw    4(r20), r7",
        "    l.lwz   r8, 4(r20)",
        "    l.addi  r9, r0, 3",
        "    l.add   r10, r8, r9",
        "    l.lwz   r11, 4(r20)",
        "    l.addi  r12, r0, 4",
        "    l.addi  r13, r0, 5",
        "    l.add   r14, r11, r13",
        "    l.lwz   r15, 4(r20)",
        "    l.addi  r15, r0, 6",
        "    l.add   r16, r15, r15",
        "    l.mul   r17, r16, r3",
        "    l.addi  r18, r17, 1",
        "    l.nop   0x1",
        "    l.nop",
        "    l.nop",
        ".data",
        "scratch:",
        "    .space 32",
    ])
    # dependent instructions fetched behind the halt still interlock
    drain = "\n".join([
        "start:",
        "    l.movhi r20, hi(scratch)",
        "    l.ori   r20, r20, lo(scratch)",
        "    l.addi  r3, r0, 1",
        "    l.nop   0x1",
        "    l.lwz   r4, 0(r20)",
        "    l.addi  r5, r4, 1",
        "    l.addi  r6, r5, 1",
        "    l.addi  r7, r6, 1",
        "    l.nop",
        "    l.nop",
        ".data",
        "scratch:",
        "    .space 16",
    ])
    return [
        assemble(corner, name="spec-corners"),
        assemble(raw_chains, name="raw-chains"),
        assemble(drain, name="drain-interlock"),
        get_kernel("fib").program(),
        get_kernel("gcd").program(),       # div-heavy
        get_kernel("crc16").program(),     # branch-heavy
    ]


@pytest.fixture(scope="module", params=EQUIVALENCE_SPECS)
def preset_context(request):
    spec = SYNTHETIC_SPECS.get(request.param) \
        or get_pipeline_spec(request.param)
    return spec, build_design(pipeline_spec=spec)


class TestFastPresetEquivalence:
    """Bit-identity to the oracle on every registered preset and every
    synthetic spec (records, retired stream, architectural state and the
    compiled matrices including delays)."""

    def test_directed_and_kernels(self, preset_context):
        spec, design = preset_context
        for program in _directed_programs():
            assert_spec_equivalent(program, spec, design,
                                   check_delays=True)

    def test_random_programs(self, preset_context):
        spec, design = preset_context
        for seed in range(40):
            program = generate_characterization_program(
                seed=seed, length=40, repeats=1
            )
            assert_spec_equivalent(program, spec, design,
                                   check_delays=True)

    def test_fig8_suite_simulates(self, preset_context):
        spec, _ = preset_context
        for program in benchmark_suite():
            run = vector.simulate(program, spec=spec)
            assert run.num_cycles > run.num_retired, program.name

    def test_geometry_visible_in_trace(self, preset_context):
        spec, design = preset_context
        program = get_kernel("fib").program()
        run = vector.simulate(program, spec=spec)
        compiled = compile_vector_run(run, design.excitation)
        assert compiled.class_ids.shape[1] == spec.num_stages
        assert compiled.ex_column == spec.ex_index
        assert compiled.pipeline_spec.digest == spec.digest


class TestScalarOnlyPresets:
    """The interlocked presets (no forwarding, a two-cycle load-use
    penalty) keep the architectural semantics and only add cycles.  The
    class name predates the vector engine covering them; it is kept so
    the test ids stay stable."""

    @pytest.mark.parametrize("name", INTERLOCKED_PRESETS)
    def test_architectural_state_spec_invariant(self, name):
        spec = get_pipeline_spec(name)
        program = get_kernel("crc16").program()
        baseline = PipelineSimulator(program)
        baseline.run()
        candidate = PipelineSimulator(program, spec=spec)
        candidate.run()
        assert list(candidate.state.regs) == list(baseline.state.regs)
        assert candidate.state.instret == baseline.state.instret
        # timing must differ: more interlocks can only add cycles
        assert candidate.trace.num_cycles > baseline.trace.num_cycles

    def test_nofwd_interlocks_raw_dependences(self):
        program = assemble("\n".join([
            "start:",
            "    l.addi r3, r0, 1",
            "    l.addi r4, r3, 1",   # RAW: stalls until r3 write-back
            "    l.addi r5, r4, 1",
            "    l.nop  0x1",
            "    l.nop",
        ]), name="raw-chain")
        fwd = PipelineSimulator(program).run()
        nofwd = PipelineSimulator(
            program, spec=get_pipeline_spec("nofwd6")
        ).run()
        assert nofwd.num_cycles > fwd.num_cycles

    def test_slowmem_doubles_load_use_bubbles(self):
        program = assemble("\n".join([
            "start:",
            "    l.movhi r20, hi(scratch)",
            "    l.ori   r20, r20, lo(scratch)",
            "    l.lwz   r4, 0(r20)",
            "    l.addi  r5, r4, 1",   # load-use: 1 vs 2 bubbles
            "    l.nop   0x1",
            "    l.nop",
            ".data",
            "scratch:",
            "    .space 16",
        ]), name="load-use")
        fast = PipelineSimulator(program).run()
        slow = PipelineSimulator(
            program, spec=get_pipeline_spec("slowmem6")
        ).run()
        assert slow.num_cycles == fast.num_cycles + 1


# -- spec-keyed artifacts (store invalidation) --------------------------------


MAX_CYCLES = 4_000_000


class TestSpecKeyedStore:
    """Same program, two specs → two artifacts; damage stays contained."""

    @pytest.fixture
    def store(self, tmp_path):
        from repro.lab.store import ArtifactStore

        return ArtifactStore(tmp_path / "store")

    def _compiled(self, program, spec):
        design = build_design(pipeline_spec=spec)
        run = vector.simulate(program, spec=spec)
        compiled = compile_vector_run(run, design.excitation)
        compiled.delays    # materialise before freezing
        return design, compiled

    def test_two_specs_two_artifacts(self, store):
        program = get_kernel("fib").program()
        default_design, default_compiled = self._compiled(program, None)
        deep_design, deep_compiled = self._compiled(
            program, get_pipeline_spec("deep7")
        )
        default_path = store.trace_path(program, default_design,
                                        MAX_CYCLES)
        deep_path = store.trace_path(program, deep_design, MAX_CYCLES)
        assert default_path != deep_path

        store.save_compiled_trace(default_compiled, program,
                                  default_design, MAX_CYCLES)
        store.save_compiled_trace(deep_compiled, program, deep_design,
                                  MAX_CYCLES)
        assert default_path.exists() and deep_path.exists()

        loaded_default = store.load_compiled_trace(
            program, default_design, MAX_CYCLES
        )
        loaded_deep = store.load_compiled_trace(
            program, deep_design, MAX_CYCLES
        )
        assert loaded_default.class_ids.shape[1] == len(Stage)
        assert loaded_deep.class_ids.shape[1] == 7
        assert loaded_deep.pipeline_spec.digest == \
            get_pipeline_spec("deep7").digest
        assert loaded_deep.operating_point == deep_design.operating_point

    def test_corrupting_one_spec_leaves_the_other(self, store):
        program = get_kernel("fib").program()
        default_design, default_compiled = self._compiled(program, None)
        deep_design, deep_compiled = self._compiled(
            program, get_pipeline_spec("deep7")
        )
        store.save_compiled_trace(default_compiled, program,
                                  default_design, MAX_CYCLES)
        store.save_compiled_trace(deep_compiled, program, deep_design,
                                  MAX_CYCLES)

        deep_path = store.trace_path(program, deep_design, MAX_CYCLES)
        deep_path.write_bytes(b"not a zip file")
        assert store.load_compiled_trace(
            program, deep_design, MAX_CYCLES
        ) is None
        assert store.stats.get("trace", "corrupt") == 1
        assert not deep_path.exists()    # discarded for recompute

        survivor = store.load_compiled_trace(
            program, default_design, MAX_CYCLES
        )
        assert survivor is not None
        assert (survivor.delays == default_compiled.delays).all()

    def test_fingerprints_distinct_per_spec(self):
        from repro.lab.store import design_fingerprint

        prints = {
            design_fingerprint(build_design(pipeline_spec=name))
            for name in PIPELINE_VARIANTS
        }
        assert len(prints) == len(PIPELINE_VARIANTS)

    def test_lut_keys_distinct_per_spec(self, store):
        default_design = build_design()
        deep_design = build_design(pipeline_spec="deep7")
        assert store.lut_path(default_design, 10) != \
            store.lut_path(deep_design, 10)


# -- grid, session and deploy surfaces ----------------------------------------


class TestScenarioGridSpecs:
    def _grid(self, **overrides):
        from repro.lab.scenario import ScenarioGrid

        payload = {
            "name": "spec-grid",
            "workloads": ["fib"],
            "variants": ["critical_range"],
            "voltages": [0.70],
            "policies": ["static"],
        }
        payload.update(overrides)
        return ScenarioGrid.from_dict(payload)

    def test_default_axis_keeps_fingerprint(self):
        implicit = self._grid()
        explicit = self._grid(pipeline_specs=[DEFAULT_SPEC.name])
        assert implicit.fingerprint() == explicit.fingerprint()
        assert "pipeline_specs" not in explicit.to_dict()

    def test_spec_axis_crosses_design_points(self):
        grid = self._grid(voltages=[0.70, 0.80],
                          pipeline_specs=["baseline6", "deep7"])
        points = grid.design_points()
        assert len(points) == 4
        assert sorted(
            (p.voltage, p.pipeline_spec) for p in points
        ) == [(0.70, "baseline6"), (0.70, "deep7"),
              (0.80, "baseline6"), (0.80, "deep7")]
        assert grid.to_dict()["pipeline_specs"] == ["baseline6", "deep7"]
        assert grid.fingerprint() != self._grid().fingerprint()

    def test_point_labels_mention_non_default_specs_only(self):
        grid = self._grid(pipeline_specs=["baseline6", "shallow5"])
        labels = [point.label for point in grid.design_points()]
        assert any(label.endswith("/shallow5") for label in labels)
        assert any("baseline6" not in label for label in labels)

    def test_unknown_spec_rejected(self):
        from repro.lab.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="pipeline"):
            self._grid(pipeline_specs=["warp9"]).validate()

    def test_point_builds_spec_design(self):
        grid = self._grid(pipeline_specs=["shallow5"])
        design = grid.design_points()[0].build()
        assert design.pipeline_spec.name == "shallow5"


class TestSessionSpecGate:
    def test_design_point_carries_spec(self):
        from repro.api import Session

        session = Session(pipeline_spec="shallow5")
        assert session.design_point.endswith("/shallow5")
        assert session.design.pipeline_spec.name == "shallow5"


class TestOverscalingSpecs:
    """The over-scaling scan labels columns by their canonical stage
    group, finds EX at the spec's EX column, and re-simulates a
    store-rehydrated trace under the design's own spec — so a warm store
    gives the same frame as an in-memory run on every preset."""

    @pytest.mark.parametrize("preset", sorted(PIPELINE_VARIANTS))
    def test_in_memory_and_warm_store_agree(self, preset, tmp_path):
        from repro.api import Session
        from repro.dta.compiled import clear_compiled_cache
        from repro.lab.store import ArtifactStore

        spec = get_pipeline_spec(preset)
        labels = {spec.stage_label(c).name for c in range(spec.num_stages)}
        in_memory = Session(pipeline_spec=preset)
        clear_compiled_cache()
        expected = in_memory.overscaling(["crc32"], factors=[0.88])

        store = ArtifactStore(tmp_path / "store")
        clear_compiled_cache()
        Session(pipeline_spec=preset, lut=in_memory.lut,
                store=store).overscaling(["crc32"], factors=[0.88])
        clear_compiled_cache()
        store.stats.reset()
        warm = Session(pipeline_spec=preset, lut=in_memory.lut,
                       store=store).overscaling(["crc32"], factors=[0.88])
        assert store.stats.get("trace", "hits") == 1   # rehydrated
        assert warm == expected

        row = expected.row(0)
        assert set(row["violations_by_stage"]) <= labels
        assert row["violations_by_stage"]["EX"] > 0
        assert row["num_approx_results"] > 0


class TestModelSpecValidation:
    def _model(self, metadata):
        from repro.ml.model import LearnedModel

        return LearnedModel(
            kind="logistic", vocabulary=("NOP",), window=8,
            feature_names=("bias",),
            weights=np.zeros(2), x_mean=np.zeros(1), x_scale=np.ones(1),
            levels=np.ones(2), metadata=metadata,
        )

    def test_pre_spec_model_deploys_on_default_only(self):
        from repro.ml.model import ModelError, validate_model_spec

        model = self._model({})
        validate_model_spec(model, build_design())
        with pytest.raises(ModelError, match="pre-spec"):
            validate_model_spec(
                model, build_design(pipeline_spec="deep7")
            )

    def test_spec_trained_model_deploys_on_its_specs(self):
        from repro.ml.model import ModelError, validate_model_spec

        deep = get_pipeline_spec("deep7")
        model = self._model({
            "pipeline_specs": ["deep7"],
            "pipeline_spec_digests": [deep.digest],
        })
        validate_model_spec(model, build_design(pipeline_spec=deep))
        with pytest.raises(ModelError, match="trained on"):
            validate_model_spec(model, build_design())
