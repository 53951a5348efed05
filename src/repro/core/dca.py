"""Top-level API: instruction-based dynamic clock adjustment.

Typical use::

    from repro.core import DynamicClockAdjustment

    dca = DynamicClockAdjustment()          # build + characterise @ 0.70 V
    frame = dca.session.evaluate(["crc32"], policies=[dca.config.policy])
    print(frame.row(0)["speedup_percent"])  # speedup over static clocking

The instance owns the design (timing model + netlist), the characterised
delay LUT and the policy/generator factories; evaluation runs through
its :attr:`~DynamicClockAdjustment.session`.
"""

from repro.clocking.generator import (
    IdealClockGenerator,
    MultiPLLClockGenerator,
    TunableRingOscillator,
)
from repro.clocking.policies import (
    ExOnlyLutPolicy,
    GeniePolicy,
    InstructionLutPolicy,
    LearnedPolicy,
    StaticClockPolicy,
    TwoClassPolicy,
)
from repro.core.config import DcaConfig
from repro.timing.design import build_design
from repro.utils.units import ps_to_mhz


class DynamicClockAdjustment:
    """Characterised core with instruction-based clock adjustment.

    Parameters
    ----------
    config:
        :class:`~repro.core.config.DcaConfig`; defaults reproduce the
        paper's setup (critical-range design, 0.70 V, per-instruction LUT,
        ideal clock generator).
    characterization:
        Optional pre-computed
        :class:`~repro.dta.lut.CharacterizationResult` to reuse
        (characterisation is the expensive step).
    """

    def __init__(self, config=None, characterization=None, programs=None):
        self.config = (config or DcaConfig()).validate()
        if characterization is not None and characterization.design is not None:
            # the characterised design IS the design under evaluation;
            # reusing it keeps one excitation model (and one compiled-trace
            # cache key) across characterisation and evaluation
            self.design = characterization.design
        else:
            self.design = build_design(
                self.config.variant, voltage=self.config.voltage,
                seed=self.config.seed,
            )
        if characterization is None:
            from repro.flow.characterize import _characterize_impl

            characterization = _characterize_impl(
                self.design, programs=programs,
                min_occurrences=self.config.min_occurrences,
            )
        self.characterization = characterization
        self.lut = characterization.lut
        self._session = None

    # -- component factories -----------------------------------------------

    def make_policy(self, name=None):
        name = name or self.config.policy
        if name == "instruction":
            return InstructionLutPolicy(self.lut)
        if name == "ex-only":
            return ExOnlyLutPolicy(self.lut)
        if name == "two-class":
            return TwoClassPolicy(self.lut)
        if name == "genie":
            return GeniePolicy(self.design.excitation)
        if name == "static":
            return StaticClockPolicy(self.design.static_period_ps)
        from repro.ml import is_learned_spec

        if is_learned_spec(name):
            # trained ML-DFS predictor: "learned:<model.npz>" deploys a
            # serialized model (see repro.ml); loading is cached, and a
            # missing/corrupt file raises ModelError (friendly CLI exit)
            from repro.ml.model import load_policy_model, validate_model_spec

            model = load_policy_model(name)
            validate_model_spec(model, self.design)
            return LearnedPolicy(model, self.design.static_period_ps)
        raise ValueError(f"unknown policy {name!r}")

    def make_generator(self, name=None):
        name = name or self.config.generator
        if name == "ideal":
            return IdealClockGenerator()
        if name == "ring":
            return TunableRingOscillator()
        if name == "pll":
            return MultiPLLClockGenerator()
        raise ValueError(f"unknown generator {name!r}")

    # -- evaluation ----------------------------------------------------------

    @property
    def session(self):
        """The :class:`repro.api.Session` this instance evaluates
        through (characterisation shared, ambient trace store)."""
        if self._session is None:
            from repro.api import Session

            self._session = Session.for_design(
                self.design, characterization=self.characterization,
                min_occurrences=self.config.min_occurrences,
            )
        return self._session

    @property
    def static_frequency_mhz(self):
        """Conventional (STA-limited) clock frequency."""
        return ps_to_mhz(self.design.static_period_ps)

    def lut_table(self, classes=None):
        """Table II-style rendering of the characterised LUT."""
        return self.lut.render(classes=classes)
