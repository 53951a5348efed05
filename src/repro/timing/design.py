"""Processor design bundle: profile + netlist + library + excitation.

A :class:`ProcessorDesign` is what the downstream flows consume: the
characterisation flow runs gate-level simulation against its excitation
model, the evaluation flow checks safety against the same model, and the
benches query its STA period and overheads.
"""

from dataclasses import dataclass, field
from functools import cached_property

from repro.sim.spec import DEFAULT_SPEC, PipelineSpec, get_pipeline_spec
from repro.timing.excitation import ExcitationModel
from repro.timing.library import CellLibrary, REFERENCE_VOLTAGE
from repro.timing.profiles import DelayProfile, DesignVariant, load_profile


@dataclass
class ProcessorDesign:
    """One implemented variant of the core at one operating point."""

    variant: DesignVariant
    profile: DelayProfile
    library: CellLibrary
    excitation: ExcitationModel
    #: Microarchitecture the design is implemented as.  Part of the
    #: operating point: artifacts (traces, LUTs, models) are keyed per
    #: spec, and the default spec keeps the historical two-tuple keys.
    pipeline_spec: PipelineSpec = field(default_factory=lambda: DEFAULT_SPEC)
    #: Root seed of the synthetic path population (:attr:`netlist`).
    seed: int = None

    @cached_property
    def netlist(self):
        """The synthetic netlist, built on first use from ``(profile,
        seed)``.  Only the gate-sim endpoints, ``repro sta`` and
        :attr:`sta_period_from_netlist_ps` read it; evaluation and
        :attr:`static_period_ps` work from the profile alone."""
        from repro.timing.netlist import SyntheticNetlist

        return SyntheticNetlist(self.profile, seed=self.seed)

    @property
    def name(self):
        base = f"or1k-{self.variant.value}@{self.library.voltage:.2f}V"
        if self.pipeline_spec.is_default:
            return base
        return f"{base}/{self.pipeline_spec.name}"

    @property
    def operating_point(self):
        """Hashable operating-point key: ``(variant, voltage)`` for the
        default microarchitecture, extended with the spec digest for any
        other — so pre-spec artifacts keep their keys byte for byte."""
        base = (self.variant.value, self.library.voltage)
        if self.pipeline_spec.is_default:
            return base
        return base + (self.pipeline_spec.digest,)

    @property
    def static_period_ps(self):
        """STA clock-period bound at this operating point (T_static)."""
        return self.library.scale_delay(self.profile.static_period_ps)

    @property
    def sta_period_from_netlist_ps(self):
        """The same bound, derived from the path population (must agree)."""
        from repro.timing.sta import minimum_period

        return self.library.scale_delay(minimum_period(self.netlist))

    def at_voltage(self, voltage):
        """The same design characterised at another supply voltage."""
        return build_design(self.variant, voltage=voltage,
                            pipeline_spec=self.pipeline_spec)


def build_design(variant=DesignVariant.CRITICAL_RANGE,
                 voltage=REFERENCE_VOLTAGE, seed=None, pipeline_spec=None):
    """Construct a :class:`ProcessorDesign`.

    Parameters
    ----------
    variant:
        ``DesignVariant.CRITICAL_RANGE`` (the paper's optimised core) or
        ``DesignVariant.CONVENTIONAL``.
    voltage:
        Supply voltage; delays scale by the alpha-power law.
    seed:
        Root seed for the synthetic path population.
    pipeline_spec:
        Microarchitecture: a :class:`~repro.sim.spec.PipelineSpec`, a
        preset name from :data:`~repro.sim.spec.PIPELINE_VARIANTS`, or
        ``None`` for the default machine.
    """
    if isinstance(variant, str):
        variant = DesignVariant(variant)
    spec = get_pipeline_spec(pipeline_spec)
    key = (variant, voltage, seed, spec.digest)
    design = _designs.get(key)
    if design is not None:
        return design
    profile = load_profile(variant)
    library = CellLibrary.at(voltage)
    design = ProcessorDesign(
        variant=variant,
        profile=profile,
        library=library,
        excitation=ExcitationModel(profile, library=library),
        pipeline_spec=spec,
        seed=seed,
    )
    if len(_designs) >= _DESIGN_CAPACITY:
        _designs.clear()
    _designs[key] = design
    return design


#: Built designs are deterministic in ``(variant, voltage, seed)`` and
#: immutable once constructed, so the synthetic path population (the
#: expensive part, built on first use) is shared per process.
_designs = {}
_DESIGN_CAPACITY = 64
