"""repro.ml — learned clock policies (ML-DFS).

The paper's instruction-based clock adjustment predicts the safe period
from fixed characterised LUTs; this package *learns* the per-instruction
period predictor from data instead, following the ML-DFS line of work
(Ajirlou & Partin-Vaisband, arXiv:2006.07450; arXiv:2007.01820).  It
closes the loop from :meth:`repro.api.Session.training_table` to a
deployable policy:

- :mod:`repro.ml.features` — vectorized per-cycle feature extraction
  from a :class:`~repro.dta.compiled.CompiledTrace` (global class ids,
  opcode groups, occupancy flags, recent-window excitation);
- :mod:`repro.ml.train` — pure-NumPy trainers (seeded, deterministic;
  a decision-tree envelope regressor and a two-level logistic baseline)
  with a safety-margin calibration pass against genie ground truth;
- :mod:`repro.ml.model` — schema-versioned ``.npz`` model artifacts
  (byte-deterministic serialisation, content-addressed storage in
  :class:`~repro.lab.store.ArtifactStore`, corruption → recompute);
- the deployable :class:`~repro.clocking.policies.LearnedPolicy`, which
  lives in the policy registry next to the paper's five fixed policies
  and is addressed as ``learned:<model.npz>`` everywhere a policy name
  is accepted (``Session.evaluate``, scenario grids, the CLI).

Train one from the command line::

    python -m repro train --grid examples/grids/quick.json \\
        --store .repro-store --out model.npz --report BENCH_train.json
"""

from repro._lazy import lazy_exports

#: Policy-spec prefix deploying a model file.  It and
#: :func:`is_learned_spec` live in the package itself, so that checking
#: a policy list (scenario grids, the CLI) imports no model code.
LEARNED_PREFIX = "learned:"


def is_learned_spec(name):
    """True for ``learned:<path>`` policy specs."""
    return isinstance(name, str) and name.startswith(LEARNED_PREFIX)


__all__ = [
    "DEFAULT_WINDOW",
    "FEATURE_SPEC_VERSION",
    "FeatureMatrix",
    "class_vocabulary",
    "extract_features",
    "feature_names",
    "LEARNED_PREFIX",
    "MODEL_SCHEMA_VERSION",
    "LearnedModel",
    "ModelError",
    "is_learned_spec",
    "load_model",
    "load_policy_model",
    "validate_policy_specs",
    "TrainerConfig",
    "TrainingOutcome",
    "get_or_train_model",
    "train_policy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "features": (
        "DEFAULT_WINDOW", "FeatureMatrix", "class_vocabulary",
        "extract_features", "feature_names",
    ),
    "model": (
        "FEATURE_SPEC_VERSION", "MODEL_SCHEMA_VERSION", "LearnedModel",
        "ModelError", "load_model", "load_policy_model",
        "validate_policy_specs",
    ),
    "train": (
        "TrainerConfig", "TrainingOutcome", "get_or_train_model",
        "train_policy",
    ),
})
