"""Serialized learned-policy models.

A :class:`LearnedModel` is the deployable artifact of the ML-DFS
pipeline: the fitted predictor (decision tree or two-level logistic),
the feature specification it was extracted against (vocabulary, window,
feature-spec version) and its training metadata, frozen into one
``.npz`` file.

Serialisation is **byte-deterministic**: arrays are written through a
fixed-order, timestamp-free zip container (readable by ``np.load``), so
the same grid + seed always produces the same bytes — which is how the
trainer-determinism tests and content-addressed store keys can work at
all.  Loading is schema-versioned and validating; a missing or
undecodable file raises :class:`ModelError`, the friendly-CLI error
(exit 2, names the offending path, raised before any simulation runs).

Policy specs
============

Everywhere a policy name is accepted, ``learned:<path>`` deploys a
model file::

    session.evaluate(policies=["learned:model.npz", "static"])
    {"policies": ["learned:model.npz"], ...}          # scenario grid
    python -m repro evaluate crc32 --policy learned:model.npz

Models also live content-addressed in the artifact store
(:meth:`repro.lab.store.ArtifactStore.save_model` /
:meth:`~repro.lab.store.ArtifactStore.load_model`), with the same
corruption semantics as traces and LUTs: a torn artifact is counted,
discarded and recomputed (:func:`repro.ml.train.get_or_train_model`).
"""

import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.ml import LEARNED_PREFIX, is_learned_spec

#: Bump when the artifact layout or the predictor semantics change.
MODEL_SCHEMA_VERSION = 1

#: Bump when the feature layout of :mod:`repro.ml.features` changes —
#: serialized models carry it and refuse to deploy against a different
#: extraction.  It lives here, not there, so that validating a policy
#: list (every CLI sweep) never imports the feature extractor.
FEATURE_SPEC_VERSION = 1

#: Supported predictor kinds.
MODEL_KINDS = ("tree", "logistic")

#: Array fields of the ``.npz`` payload (fixed write order).
_ARRAY_FIELDS = (
    "tree_feature", "tree_threshold", "tree_left", "tree_right",
    "tree_value", "weights", "x_mean", "x_scale", "levels",
)


class ModelError(Exception):
    """A learned-policy model file is missing, corrupt or incompatible."""


def parse_learned_spec(name):
    """The model path of a ``learned:`` policy spec."""
    if not is_learned_spec(name):
        raise ModelError(f"not a learned-policy spec: {name!r}")
    path = name[len(LEARNED_PREFIX):]
    if not path:
        raise ModelError(
            "empty model path in learned-policy spec 'learned:' "
            "(expected learned:<model.npz>)"
        )
    return path


@dataclass
class LearnedModel:
    """One deployable period predictor.

    ``tree_*`` arrays encode the decision tree (``tree_feature`` is -1
    at leaves; ``tree_value`` is the calibrated normalized period of
    each leaf).  ``weights``/``x_mean``/``x_scale``/``levels`` encode
    the logistic baseline (two calibrated period levels).  Predictions
    are *normalized*: fractions of the design's static period, so one
    model deploys across operating points whose delays scale uniformly.
    """

    kind: str
    vocabulary: tuple
    window: int
    feature_names: tuple
    tree_feature: np.ndarray = None
    tree_threshold: np.ndarray = None
    tree_left: np.ndarray = None
    tree_right: np.ndarray = None
    tree_value: np.ndarray = None
    weights: np.ndarray = None
    x_mean: np.ndarray = None
    x_scale: np.ndarray = None
    levels: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(
                f"unknown model kind {self.kind!r}; "
                f"choose from {MODEL_KINDS}"
            )
        if self.window < 1:
            raise ModelError(
                f"invalid recent-excitation window {self.window} "
                "(must be >= 1 cycle)"
            )
        for name in _ARRAY_FIELDS:
            if getattr(self, name) is None:
                setattr(self, name, np.empty(0))

    @property
    def num_leaves(self):
        if self.kind != "tree":
            return int(self.levels.size)
        return int(np.count_nonzero(self.tree_feature < 0))

    # -- prediction ----------------------------------------------------------

    def apply_tree(self, matrix):
        """Leaf node index of every feature row (tree models)."""
        node = np.zeros(matrix.shape[0], dtype=np.int64)
        while True:
            feature = self.tree_feature[node]
            active = np.nonzero(feature >= 0)[0]
            if active.size == 0:
                return node
            current = node[active]
            go_left = (
                matrix[active, feature[active]]
                <= self.tree_threshold[current]
            )
            node[active] = np.where(
                go_left, self.tree_left[current], self.tree_right[current]
            )

    def decision(self, matrix):
        """Logistic decision values (positive → slow level)."""
        standardized = (matrix - self.x_mean) / self.x_scale
        return standardized @ self.weights[:-1] + self.weights[-1]

    def predict_normalized(self, matrix):
        """Predicted safe period of every row, as a fraction of the
        static period."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if self.kind == "tree":
            return self.tree_value[self.apply_tree(matrix)]
        slow = self.decision(matrix) > 0.0
        return self.levels[slow.astype(np.int64)]

    # -- serialisation -------------------------------------------------------

    def _header(self):
        return {
            "schema": MODEL_SCHEMA_VERSION,
            "feature_spec": FEATURE_SPEC_VERSION,
            "kind": self.kind,
            "vocabulary": list(self.vocabulary),
            "window": self.window,
            "feature_names": list(self.feature_names),
            "metadata": self.metadata,
        }

    def to_bytes(self):
        """The artifact as deterministic ``.npz`` bytes.

        Plain ``np.savez`` embeds nothing nondeterministic either, but
        writing the zip members ourselves (fixed order, fixed DOS epoch
        timestamps, no compression) makes byte-stability an explicit
        contract rather than a numpy implementation detail.
        """
        import zipfile

        header = json.dumps(
            self._header(), sort_keys=True, separators=(",", ":")
        )
        arrays = {"header": np.frombuffer(
            header.encode(), dtype=np.uint8
        )}
        for name in _ARRAY_FIELDS:
            arrays[name] = np.asarray(getattr(self, name))
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
            for name in ("header",) + _ARRAY_FIELDS:
                payload = io.BytesIO()
                np.lib.format.write_array(
                    payload, arrays[name], version=(1, 0)
                )
                info = zipfile.ZipInfo(
                    f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0)
                )
                archive.writestr(info, payload.getvalue())
        return buffer.getvalue()

    def save(self, path):
        """Write the artifact; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def from_bytes(cls, data, source="<bytes>"):
        """Decode an artifact; raises :class:`ModelError` on anything
        short of a valid, schema-compatible model."""
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                header = json.loads(bytes(archive["header"]).decode())
                arrays = {
                    name: archive[name] for name in _ARRAY_FIELDS
                }
        except ModelError:
            raise
        except Exception as error:   # zip damage, missing keys, bad JSON
            raise ModelError(
                f"corrupt learned-policy model {source}: {error}"
            ) from error
        if header.get("schema") != MODEL_SCHEMA_VERSION:
            raise ModelError(
                f"learned-policy model {source} has schema "
                f"{header.get('schema')!r}, expected {MODEL_SCHEMA_VERSION}"
                " — retrain it"
            )
        if header.get("feature_spec") != FEATURE_SPEC_VERSION:
            raise ModelError(
                f"learned-policy model {source} was extracted against "
                f"feature spec {header.get('feature_spec')!r}, expected "
                f"{FEATURE_SPEC_VERSION} — retrain it"
            )
        try:
            return cls(
                kind=header["kind"],
                vocabulary=tuple(header["vocabulary"]),
                window=int(header["window"]),
                feature_names=tuple(header["feature_names"]),
                metadata=header.get("metadata", {}),
                **{name: arrays[name] for name in _ARRAY_FIELDS},
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ModelError(
                f"corrupt learned-policy model {source}: {error}"
            ) from error

    @classmethod
    def from_file(cls, path):
        path = pathlib.Path(path)
        if not path.is_file():
            raise ModelError(
                f"learned-policy model file not found: {path} "
                f"(train one with 'repro train --out {path.name}')"
            )
        return cls.from_bytes(path.read_bytes(), source=str(path))

    def __eq__(self, other):
        if not isinstance(other, LearnedModel):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()


# -- cached loading -----------------------------------------------------------
#
# Policy factories build a fresh policy per program, which would re-read
# the model file per (program, config) in a sweep; a small cache keyed by
# path + stat signature makes repeated deployment free while still
# picking up a retrained file.

_model_cache = {}
_MODEL_CACHE_CAPACITY = 8


def load_model(path):
    """Load (with caching) a model artifact from ``path``."""
    path = pathlib.Path(path)
    try:
        stat = path.stat()
        signature = (str(path), stat.st_mtime_ns, stat.st_size)
    except OSError:
        signature = None
    if signature is not None and signature in _model_cache:
        return _model_cache[signature]
    model = LearnedModel.from_file(path)
    if signature is not None:
        _model_cache[signature] = model
        while len(_model_cache) > _MODEL_CACHE_CAPACITY:
            _model_cache.pop(next(iter(_model_cache)))
    return model


def clear_model_cache():
    _model_cache.clear()


def load_policy_model(spec):
    """Resolve a ``learned:<path>`` policy spec to its model."""
    return load_model(parse_learned_spec(spec))


def validate_model_spec(model, design):
    """Refuse deploying a model on a microarchitecture it was not
    trained for.

    Models record the pipeline-spec digests of their training grid
    (``metadata["pipeline_spec_digests"]``); the deploying design's
    spec digest must be among them.  Artifacts from before spec-aware
    training carry no digest list and deploy on the default spec only.
    """
    spec = design.pipeline_spec
    trained = model.metadata.get("pipeline_spec_digests")
    if trained is None:
        if spec.is_default:
            return
        raise ModelError(
            "learned-policy model carries no pipeline-spec metadata "
            f"(pre-spec artifact); it cannot deploy on spec "
            f"{spec.name!r} — retrain it on that spec"
        )
    if spec.digest not in trained:
        names = model.metadata.get("pipeline_specs", trained)
        raise ModelError(
            f"learned-policy model was trained on pipeline spec(s) "
            f"{', '.join(names)} and cannot deploy on spec "
            f"{spec.name!r} — retrain it on that spec"
        )


def validate_policy_specs(names):
    """Eagerly load every ``learned:`` spec in ``names``.

    Call before building designs or simulating anything: a missing or
    corrupt model file must fail fast (CLI exit 2) instead of after
    minutes of characterisation.  Paths resolve exactly as deployment
    does (:func:`load_policy_model`, relative to the working
    directory), so a spec that validates can never fail to deploy.
    Non-learned names pass through untouched — the policy registry
    validates those.
    """
    for name in names:
        if is_learned_spec(name):
            load_model(parse_learned_spec(name))
