"""Declarative sweep scenarios.

A :class:`ScenarioGrid` names every axis of a sweep — policies,
generators, safety margins, supply voltages, design variants, pipeline
specs, workloads —
and expands the cross product into the structures the engine consumes:
:class:`DesignPoint` operating points (one evaluation context each) and
:class:`ConfigSpec` rows (one ``SweepConfig`` each, materialised against
a characterised design).

Grids are plain data: loadable from JSON or TOML (``from_file``),
round-trippable through ``to_dict``, and fingerprinted (SHA-256 of the
canonical form) so run manifests and cached sweep results can tell
whether they belong to the same experiment.

Example grid (JSON)::

    {
      "name": "margins-vs-voltage",
      "policies": ["instruction", "genie"],
      "margins": [0.0, 5.0],
      "voltages": [0.70, 0.80],
      "workloads": ["crc32", "matmult"]
    }
"""

import functools
import hashlib
import json
import pathlib
from dataclasses import dataclass

from repro.flow.evaluate import DEFAULT_MAX_CYCLES, SweepConfig
from repro.ml import LEARNED_PREFIX, is_learned_spec
from repro.sim.spec import DEFAULT_SPEC, get_pipeline_spec
from repro.timing.profiles import DesignVariant

#: Policy names understood by ``DynamicClockAdjustment.make_policy``.
POLICY_NAMES = ("instruction", "ex-only", "two-class", "genie", "static")

#: Spec prefix deploying a trained model file: ``learned:<model.npz>``
#: (one definition, in :mod:`repro.ml`).  Grid validation checks
#: the spec shape only; the model file itself is validated by
#: :func:`repro.ml.model.validate_policy_specs` before any simulation.
LEARNED_POLICY_PREFIX = LEARNED_PREFIX

#: Generator names understood by ``DynamicClockAdjustment.make_generator``.
GENERATOR_NAMES = ("ideal", "ring", "pll")


def _file_digest(path):
    """SHA-256 of a file's bytes, ``"missing"`` when it cannot be read."""
    try:
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    except OSError:
        return "missing"


class ScenarioError(ValueError):
    """A grid spec is malformed (unknown axis value, bad type, ...)."""


@dataclass(frozen=True)
class DesignPoint:
    """One operating point of the processor: variant × supply voltage
    (× pipeline spec, for non-default microarchitectures)."""

    variant: str
    voltage: float
    pipeline_spec: str = DEFAULT_SPEC.name

    @property
    def _is_default_spec(self):
        return self.pipeline_spec == DEFAULT_SPEC.name

    @property
    def label(self):
        """Display label; rounds the voltage for readability."""
        label = f"{self.variant}@{self.voltage:.2f}V"
        if not self._is_default_spec:
            label += f"/{self.pipeline_spec}"
        return label

    @property
    def key(self):
        """Exact identity for unit ids and manifests — ``repr`` keeps
        full float precision, so nearly-equal voltages never collide.
        The default pipeline spec is omitted, so pre-spec unit ids are
        unchanged."""
        key = f"{self.variant}@{self.voltage!r}"
        if not self._is_default_spec:
            key += f"/{self.pipeline_spec}"
        return key

    def build(self):
        from repro.timing.design import build_design

        return build_design(DesignVariant(self.variant),
                            voltage=self.voltage,
                            pipeline_spec=self.pipeline_spec)

    def as_dict(self):
        payload = {"variant": self.variant, "voltage": self.voltage}
        if not self._is_default_spec:
            payload["pipeline_spec"] = self.pipeline_spec
        return payload


@dataclass(frozen=True)
class ConfigSpec:
    """One configuration row: policy × generator × margin."""

    policy: str
    generator: str = "ideal"
    margin_percent: float = 0.0
    check_safety: bool = False

    @property
    def label(self):
        label = f"{self.policy}/{self.generator}"
        if self.margin_percent:
            label += f"/margin={self.margin_percent:g}%"
        return label

    def make(self, dca, policy=None):
        """Materialise the spec into a ``SweepConfig`` bound to one
        characterised design (``DynamicClockAdjustment``).  ``policy`` is
        the policy factory to bind, by default a new one of this spec's
        policy; :func:`materialize_configs` passes one shared factory per
        policy name."""
        if policy is None:
            policy = functools.partial(dca.make_policy, self.policy)
        return SweepConfig(
            policy=policy,
            generator=dca.make_generator(self.generator),
            margin_percent=self.margin_percent,
            check_safety=self.check_safety,
            label=self.label,
        )

    def as_dict(self):
        return {
            "policy": self.policy,
            "generator": self.generator,
            "margin_percent": self.margin_percent,
            "check_safety": self.check_safety,
        }


def materialize_configs(specs, dca):
    """Configuration rows → ``SweepConfig``s bound to ``dca``.

    :class:`ConfigSpec` rows are materialised so that every spec naming
    the same policy shares one factory: a batch evaluation then builds
    and gathers that policy once per program and applies each margin and
    generator to the shared period vector.  ``SweepConfig`` rows pass
    through unchanged (``dca`` may be ``None`` when there is no
    ``ConfigSpec``).
    """
    factories = {}
    configs = []
    for spec in specs:
        if isinstance(spec, SweepConfig):
            configs.append(spec)
        elif isinstance(spec, ConfigSpec):
            config = spec.make(dca, factories.get(spec.policy))
            factories.setdefault(spec.policy, config.policy)
            configs.append(config)
        else:
            raise TypeError(
                f"config must be SweepConfig or ConfigSpec, "
                f"got {type(spec).__name__}"
            )
    return configs


@dataclass
class ScenarioGrid:
    """The full cross product of a sweep experiment."""

    name: str = "sweep"
    policies: tuple = ("instruction",)
    generators: tuple = ("ideal",)
    margins: tuple = (0.0,)
    variants: tuple = (DesignVariant.CRITICAL_RANGE.value,)
    voltages: tuple = (0.70,)
    #: Kernel names or assembly-file paths; empty means the full
    #: Fig. 8 benchmark suite.
    workloads: tuple = ()
    check_safety: bool = False
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: Registered pipeline-spec preset names (``repro.sim.spec``); the
    #: default single-entry axis keeps grid fingerprints unchanged.
    pipeline_specs: tuple = (DEFAULT_SPEC.name,)

    def __post_init__(self):
        self.policies = tuple(self.policies)
        self.generators = tuple(self.generators)
        self.margins = tuple(float(m) for m in self.margins)
        self.variants = tuple(self.variants)
        self.voltages = tuple(float(v) for v in self.voltages)
        self.workloads = tuple(self.workloads)
        self.pipeline_specs = tuple(self.pipeline_specs)
        self.validate()

    # -- validation ----------------------------------------------------------

    def validate(self):
        for axis, values, known in (
            ("policies", self.policies, POLICY_NAMES),
            ("generators", self.generators, GENERATOR_NAMES),
            ("variants", self.variants,
             tuple(v.value for v in DesignVariant)),
        ):
            if not values:
                raise ScenarioError(f"grid axis {axis!r} is empty")
            for value in values:
                if axis == "policies" and is_learned_spec(value):
                    if not value[len(LEARNED_POLICY_PREFIX):]:
                        raise ScenarioError(
                            "learned policy spec needs a model path: "
                            "learned:<model.npz>"
                        )
                    continue
                if value not in known:
                    extra = (
                        " or learned:<model.npz>"
                        if axis == "policies" else ""
                    )
                    singular = {"policies": "policy"}.get(axis, axis[:-1])
                    raise ScenarioError(
                        f"unknown {singular} {value!r}; "
                        f"choose from {', '.join(known)}{extra}"
                    )
        if not self.margins:
            raise ScenarioError("grid axis 'margins' is empty")
        if any(m < 0 for m in self.margins):
            raise ScenarioError("margins cannot be negative")
        if not self.voltages:
            raise ScenarioError("grid axis 'voltages' is empty")
        if any(v <= 0 for v in self.voltages):
            raise ScenarioError("voltages must be positive")
        if self.max_cycles <= 0:
            raise ScenarioError("max_cycles must be positive")
        if not self.pipeline_specs:
            raise ScenarioError("grid axis 'pipeline_specs' is empty")
        for name in self.pipeline_specs:
            try:
                get_pipeline_spec(name)
            except (TypeError, ValueError) as error:
                raise ScenarioError(str(error)) from None
        return self

    # -- expansion -----------------------------------------------------------

    def design_points(self):
        """Operating points, variant-major then voltage then pipeline
        spec, in spec order."""
        return [
            DesignPoint(variant=variant, voltage=voltage,
                        pipeline_spec=spec)
            for variant in self.variants
            for voltage in self.voltages
            for spec in self.pipeline_specs
        ]

    def config_specs(self):
        """Configuration rows, policy-major, in spec order."""
        return [
            ConfigSpec(
                policy=policy, generator=generator, margin_percent=margin,
                check_safety=self.check_safety,
            )
            for policy in self.policies
            for generator in self.generators
            for margin in self.margins
        ]

    def workload_specs(self):
        """Program specs; empty ``workloads`` means the Fig. 8 suite."""
        if self.workloads:
            return list(self.workloads)
        from repro.workloads.suite import suite_names

        return suite_names()

    def programs(self):
        from repro.workloads import resolve_program

        return [resolve_program(spec) for spec in self.workload_specs()]

    @property
    def num_units(self):
        """Shardable work units: one per (design point, workload)."""
        return len(self.design_points()) * len(self.workload_specs())

    @property
    def num_evaluations(self):
        return self.num_units * len(self.config_specs())

    # -- serialisation -------------------------------------------------------

    def to_dict(self):
        payload = {
            "name": self.name,
            "policies": list(self.policies),
            "generators": list(self.generators),
            "margins": list(self.margins),
            "variants": list(self.variants),
            "voltages": list(self.voltages),
            "workloads": list(self.workloads),
            "check_safety": self.check_safety,
            "max_cycles": self.max_cycles,
        }
        # the default axis is omitted so pre-spec grid fingerprints
        # (and cached sweep manifests) stay stable
        if self.pipeline_specs != (DEFAULT_SPEC.name,):
            payload["pipeline_specs"] = list(self.pipeline_specs)
        return payload

    def fingerprint(self):
        """SHA-256 over the canonical dict — the identity of the
        experiment for manifests and cached sweep results.

        Workloads and ``learned:`` policy specs may name *files*, so the
        payload also digests the bytes of every assembly workload
        (resolved as :func:`repro.workloads.resolve_program` does) and of
        every named model: editing ``k.s`` or retraining a model at the
        same path changes the fingerprint, which keeps cached frames and
        ``--resume`` from serving rows evaluated on the old content.  A
        missing file digests as ``"missing"`` (the sweep will fail fast
        on it anyway).  Grids naming no files keep their fingerprints.
        """
        payload = self.to_dict()
        workload_files = {
            spec: _file_digest(spec) for spec in self.workloads
            if pathlib.Path(spec).suffix in (".s", ".asm")
            or pathlib.Path(spec).exists()
        }
        learned = {
            policy: _file_digest(policy[len(LEARNED_POLICY_PREFIX):])
            for policy in self.policies if is_learned_spec(policy)
        }
        if workload_files:
            payload["workload_files"] = workload_files
        if learned:
            payload["learned_models"] = learned
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise ScenarioError(
                f"grid spec must be a mapping, got {type(payload).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ScenarioError(
                f"unknown grid fields: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise ScenarioError(str(error)) from None

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ScenarioError(f"invalid JSON grid: {error}") from None
        return cls.from_dict(payload)

    @classmethod
    def from_toml(cls, text):
        try:
            import tomllib
        except ImportError:                          # pragma: no cover
            raise ScenarioError(
                "TOML grids need Python >= 3.11 (tomllib); "
                "use a JSON grid instead"
            ) from None
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ScenarioError(f"invalid TOML grid: {error}") from None
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path):
        """Load a grid from a ``.json`` or ``.toml`` file."""
        path = pathlib.Path(path)
        if not path.is_file():
            raise ScenarioError(f"grid file not found: {path}")
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            return cls.from_toml(text)
        return cls.from_json(text)
