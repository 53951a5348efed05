"""Content-addressed on-disk artifact store.

The store persists the two expensive intermediates of the evaluation
pipeline — compiled pipeline traces and characterised delay LUTs — plus
merged sweep results, so that cross-process runs (CLI invocations, CI
jobs, parallel sweep workers) skip pipeline simulation and gate-level
characterisation entirely.

Keys are content hashes: a compiled trace is addressed by the program's
full word image × the design operating point (variant, voltage) × the
cycle budget × the store schema version; a LUT by the operating point ×
the extraction threshold × the schema version.  Anything that could
change the artifact changes the key, so invalidation is automatic —
bumping :data:`SCHEMA_VERSION`, re-characterising at another voltage, or
editing a program each simply miss and recompute.

Every trace and LUT carries a SHA-256 of its payload, verified on load:
a torn write, a truncated file, a flipped bit or an edited entry is
detected, counted as ``corrupt``, discarded and recomputed.  Writes are
atomic (temp file + ``os.replace``), and a JSON document whose bytes are
already stored is not rewritten (its mtime is refreshed instead).

Trace files (schema 2) hold a length-prefixed canonical-JSON header and
the raw bytes of the per-cycle arrays.  Only the operand-dependent EX
column of the delay matrix is stored; the fixed-delay columns are
per-class constants and are re-gathered from the design's excitation
model on load.

Attach a store to the in-process compiled-trace cache with
:func:`repro.dta.compiled.set_trace_store`; every consumer of
the batch evaluation engine then reads and writes through it
transparently.
"""

import hashlib
import json
import os
import pathlib
import stat as statmod
import struct
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from repro.dta.compiled import NUM_STAGES, CompiledTrace
from repro.dta.lut import DEFAULT_MIN_OCCURRENCES, DelayLUT
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

#: Bump when anything that *computes* an artifact changes — on-disk
#: layout, the timing model (profiles/excitation/library scaling), the
#: pipeline simulator, or the characterisation suite.  Keys hash program
#: content and operating point, not the code, so a stale version here is
#: the only way a persistent store can serve wrong results.
SCHEMA_VERSION = 2

#: Artifact kinds tracked by :class:`StoreStats`.  ``lut`` is a design's
#: merged characterisation; ``charlut`` is one program's characterisation
#: batch (the unit of sharded/resumable characterisation); ``frame`` is a
#: persisted :class:`~repro.api.frame.ResultFrame`; ``model`` is a
#: trained learned-policy artifact (:class:`~repro.ml.model.LearnedModel`).
KINDS = ("trace", "lut", "charlut", "result", "frame", "model")

#: Events tracked per kind.
EVENTS = ("hits", "misses", "writes", "corrupt")

#: Leading bytes of a trace file: magic, then the header length.
_TRACE_MAGIC = b"REPROTR2"
_TRACE_PREFIX = struct.Struct("<8sQ")

#: Body arrays of a trace file, in write order: name, dtype kind and
#: whether it has one column per pipeline stage (else one per cycle).
#: Each array starts on an 8-byte boundary of the body.
_TRACE_ARRAYS = (
    ("ex_delays", "f", False), ("class_ids", "i", True),
    ("bubble", "b", True), ("held", "b", True),
    ("stall", "b", False), ("redirect", "b", False),
)


def _narrowest_int(count):
    """Smallest signed integer dtype holding ids ``0 .. count - 1``
    (compiled traces number their classes in int32)."""
    for dtype in (np.int8, np.int16):
        if count - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.int32


class StoreCorruption(Exception):
    """A cache file exists but cannot be decoded (internal signal)."""


@dataclass
class GcResult:
    """Outcome of one :meth:`ArtifactStore.gc` pass.

    ``removed_*`` counts only *successful* unlinks.  Files another
    process evicted mid-scan (gone between scan and unlink) land in
    ``vanished_files``; unlinks that failed for any other reason (the
    file still exists but could not be removed) land in
    ``failed_files`` — the budget may still be exceeded when that is
    nonzero.
    """

    scanned_files: int = 0
    kept_files: int = 0
    kept_bytes: int = 0
    removed_files: int = 0
    removed_bytes: int = 0
    vanished_files: int = 0
    failed_files: int = 0

    def summary(self):
        text = (
            f"kept {self.kept_files} files ({self.kept_bytes} B), "
            f"removed {self.removed_files} files ({self.removed_bytes} B)"
        )
        if self.vanished_files:
            text += f", {self.vanished_files} vanished"
        if self.failed_files:
            text += f", {self.failed_files} FAILED to remove"
        return text


#: One lock for every :class:`StoreStats` instance: a module-level lock
#: keeps the objects picklable (they cross the multiprocessing result
#: channel as part of ``SweepRunResult``) and the counters are far too
#: cold for contention to matter.
_STATS_LOCK = threading.Lock()


class StoreStats:
    """Hit/miss/write/corruption counters, per artifact kind.

    These counters are the observable proof of the store's contract: a
    warm full-suite sweep must show zero ``trace``/``lut`` misses (and
    :func:`repro.dta.compiled.simulation_count` must stay zero).

    Thread-safe: the sweep service shares one store (and therefore one
    stats object) between its event loop, job-watcher threads and the
    span-merge path, so the ``+=`` updates must not lose increments.
    """

    def __init__(self):
        self.counts = {kind: dict.fromkeys(EVENTS, 0) for kind in KINDS}

    def record(self, kind, event):
        with _STATS_LOCK:
            self.counts[kind][event] += 1
        # mirror into the process-wide registry: per-store objects come
        # and go (workers, sessions), the registry view survives them.
        # merge() deliberately does NOT mirror — merged worker counters
        # reach the parent registry through the obs delta channel.
        obs_metrics.inc(f"store.{kind}.{event}")

    def get(self, kind, event):
        return self.counts[kind][event]

    def reset(self):
        with _STATS_LOCK:
            for kind in KINDS:
                for event in EVENTS:
                    self.counts[kind][event] = 0

    def as_dict(self):
        with _STATS_LOCK:
            return {
                kind: dict(events) for kind, events in self.counts.items()
            }

    def merge(self, other):
        """Accumulate counters from another stats object or its dict."""
        counts = (
            other.as_dict() if isinstance(other, StoreStats) else other
        )
        with _STATS_LOCK:
            for kind, events in counts.items():
                for event, value in events.items():
                    self.counts[kind][event] += value

    def summary(self):
        return "; ".join(
            "{}: {}".format(
                kind,
                "/".join(f"{self.counts[kind][e]} {e}" for e in EVENTS),
            )
            for kind in KINDS
        )


def _digest(payload):
    """SHA-256 of a canonical-JSON payload of primitives."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def program_fingerprint(program):
    """Content hash of an assembled program (name, entry, word image)."""
    return _digest([
        program.name,
        program.entry,
        sorted(program.words.items()),
    ])


def design_fingerprint(design):
    """Operating-point hash (variant, supply voltage, pipeline spec).

    The default pipeline spec is omitted from the payload, so every
    artifact keyed before specs existed keeps its fingerprint byte for
    byte; any other microarchitecture appends its spec digest and gets
    distinct trace/LUT/model keys for free.
    """
    payload = [design.variant.value, design.library.voltage]
    spec = getattr(design, "pipeline_spec", None)
    if spec is not None and not spec.is_default:
        payload.append(spec.digest)
    return _digest(payload)


class ArtifactStore:
    """On-disk cache of compiled traces, delay LUTs and sweep results."""

    def __init__(self, root, schema_version=SCHEMA_VERSION):
        self.root = pathlib.Path(root)
        self.schema_version = schema_version
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------------

    def _path(self, kind, key, suffix):
        return self.root / kind / f"{key}{suffix}"

    def trace_path(self, program, design, max_cycles):
        key = _digest([
            "trace", self.schema_version,
            program_fingerprint(program), design_fingerprint(design),
            max_cycles,
        ])
        return self._path("traces", key, ".trace")

    def lut_path(self, design, min_occurrences):
        key = _digest([
            "lut", self.schema_version,
            design_fingerprint(design), min_occurrences,
        ])
        return self._path("luts", key, ".json")

    def result_path(self, name):
        key = _digest(["result", self.schema_version, name])
        return self._path("results", key, ".json")

    def _write_atomic(self, path, writer):
        """Write via a sibling temp file + ``os.replace`` so readers never
        see a torn artifact."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # keep the real suffix so np.savez does not append another ".npz"
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=f".tmp{path.suffix}"
        )
        os.close(handle)
        try:
            writer(tmp_name)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- compiled traces -----------------------------------------------------

    def save_compiled_trace(self, compiled, program, design, max_cycles):
        """Persist a compiled trace (delays are materialised first)."""
        path = self.trace_path(program, design, max_cycles)
        # materialise the lazy matrix outside the span, so the delay
        # replay is billed to its own dta.delays span, not to store I/O
        delays = compiled.delays
        with obs_span("store.trace.save", program=compiled.program_name):
            self._save_compiled_trace(path, compiled, delays)
        self.stats.record("trace", "writes")

    def _save_compiled_trace(self, path, compiled, delays):
        arrays = (
            np.ascontiguousarray(delays[:, compiled.ex_column]),
            compiled.class_ids.astype(_narrowest_int(compiled.num_classes)),
            compiled.bubble, compiled.held, compiled.stall,
            compiled.redirect,
        )
        chunks = []
        for array in arrays:
            raw = np.ascontiguousarray(array).tobytes()
            chunks.append(raw + bytes(-len(raw) % 8))
        body = b"".join(chunks)
        spec = compiled.spec
        header = json.dumps({
            "schema": self.schema_version,
            "program": compiled.program_name,
            "cycles": compiled.num_cycles,
            "retired": compiled.num_retired,
            "class_names": list(compiled.class_names),
            "operating_point": list(compiled.operating_point[:2]),
            "spec": spec.to_dict() if spec is not None else None,
            "arrays": [
                [name, array.dtype.str, list(array.shape)]
                for (name, _, _), array in zip(_TRACE_ARRAYS, arrays)
            ],
            "sha256": hashlib.sha256(body).hexdigest(),
        }, sort_keys=True, separators=(",", ":")).encode()
        # pad the header so the body starts 8-byte aligned in the file
        header += b" " * (-(_TRACE_PREFIX.size + len(header)) % 8)
        data = _TRACE_PREFIX.pack(_TRACE_MAGIC, len(header)) + header + body
        self._write_atomic(
            path, lambda tmp: pathlib.Path(tmp).write_bytes(data)
        )

    def load_compiled_trace(self, program, design, max_cycles):
        """Rehydrate a compiled trace, or ``None`` on miss/corruption.

        Rehydrated traces carry the materialised delay matrix (the stored
        EX column plus the fixed-delay columns gathered from
        ``design.excitation``) but no per-record trace and no excitation
        model — they serve the vectorized policy protocol (which every
        bundled policy implements) bit-identically.
        """
        path = self.trace_path(program, design, max_cycles)
        if not path.exists():
            self.stats.record("trace", "misses")
            return None
        try:
            with obs_span("store.trace.load", program=program.name):
                compiled = self._read_trace(path, design)
        except StoreCorruption:
            self.stats.record("trace", "corrupt")
            self.stats.record("trace", "misses")
            self._discard(path)
            return None
        self.stats.record("trace", "hits")
        self._touch(path)
        return compiled

    def _read_trace(self, path, design):
        try:
            with open(path, "rb") as handle:
                # a writable buffer: the array views below own no copy
                data = bytearray(os.fstat(handle.fileno()).st_size)
                handle.readinto(data)
            magic, size = _TRACE_PREFIX.unpack_from(data)
            if magic != _TRACE_MAGIC:
                raise StoreCorruption("not a trace file")
            start = _TRACE_PREFIX.size + size
            header = json.loads(data[_TRACE_PREFIX.size:start])
            body = memoryview(data)[start:]
            if hashlib.sha256(body).hexdigest() != header["sha256"]:
                raise StoreCorruption("checksum mismatch")
            if header["schema"] != self.schema_version:
                raise StoreCorruption("schema mismatch")
            spec = None
            point = tuple(header["operating_point"])
            if header["spec"] is not None:
                from repro.sim.spec import PipelineSpec

                spec = PipelineSpec.from_dict(header["spec"])
                point = point + (spec.digest,)
            if point != design.operating_point:
                raise StoreCorruption("operating point mismatch")
            num_cycles = header["cycles"]
            columns = (spec.num_stages if spec is not None
                       else NUM_STAGES)
            arrays = {}
            offset = 0
            for (name, kind, per_stage), (stored, dtype, shape) in zip(
                    _TRACE_ARRAYS, header["arrays"], strict=True):
                dtype = np.dtype(dtype)
                expected = ((num_cycles, columns) if per_stage
                            else (num_cycles,))
                if (stored != name or dtype.kind != kind
                        or tuple(shape) != expected):
                    raise StoreCorruption(f"bad array {stored}")
                count = int(np.prod(expected))
                arrays[name] = np.frombuffer(
                    body, dtype, count, offset
                ).reshape(expected)
                offset += -(-count * dtype.itemsize // 8) * 8
            if offset != len(body):
                raise StoreCorruption("body size mismatch")
            compiled = CompiledTrace(
                program_name=header["program"],
                num_cycles=num_cycles,
                num_retired=header["retired"],
                class_names=tuple(header["class_names"]),
                class_ids=arrays["class_ids"],
                bubble=arrays["bubble"],
                held=arrays["held"],
                stall=arrays["stall"],
                redirect=arrays["redirect"],
                trace=None,
                excitation=None,
                operating_point=point,
                spec=spec,
            )
            compiled._delays = compiled._compute_delays(
                design.excitation, ex_cells=arrays["ex_delays"]
            )
            return compiled
        except StoreCorruption:
            raise
        except Exception as error:   # truncation, bad header, bad dtypes
            raise StoreCorruption(str(error)) from error

    #: Discard outcomes (see :meth:`_discard`).
    _REMOVED, _VANISHED, _FAILED = "removed", "vanished", "failed"

    def _discard(self, path):
        """Best-effort unlink; reports what actually happened so callers
        (:meth:`gc`) never count a failed removal as an eviction.

        Returns ``_REMOVED`` when this call deleted the file,
        ``_VANISHED`` when another process got there first, and
        ``_FAILED`` when the file persists but could not be removed.
        """
        try:
            path.unlink()
        except FileNotFoundError:
            return self._VANISHED
        except OSError:
            return self._FAILED
        return self._REMOVED

    def _touch(self, path):
        """Refresh an artifact's mtime on hit, making mtime an LRU clock
        for :meth:`gc`."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- characterised LUTs --------------------------------------------------

    def save_lut(self, lut, design, min_occurrences=DEFAULT_MIN_OCCURRENCES):
        path = self.lut_path(design, min_occurrences)
        with obs_span("store.lut.save"):
            self._save_document("lut", path, self._lut_document(lut, {
                "variant": design.variant.value,
                "voltage": design.library.voltage,
            }))

    def load_lut(self, design, min_occurrences=DEFAULT_MIN_OCCURRENCES):
        path = self.lut_path(design, min_occurrences)
        if not path.exists():
            self.stats.record("lut", "misses")
            return None
        try:
            with obs_span("store.lut.load"):
                _, lut = self._read_lut_document(path)
        except (StoreCorruption, KeyError, TypeError, ValueError, OSError):
            self.stats.record("lut", "corrupt")
            self.stats.record("lut", "misses")
            self._discard(path)
            return None
        self.stats.record("lut", "hits")
        self._touch(path)
        return lut

    def _lut_document(self, lut, fields):
        """A LUT document: ``fields``, the LUT payload and its SHA-256."""
        payload = lut.to_dict()
        return {
            "schema": self.schema_version, **fields,
            "lut": payload, "sha256": _digest(payload),
        }

    def _read_lut_document(self, path):
        """``(document, DelayLUT)`` of a stored LUT document; raises
        :class:`StoreCorruption` on a schema or checksum mismatch."""
        document = json.loads(path.read_text())
        if document.get("schema") != self.schema_version:
            raise StoreCorruption("schema mismatch")
        payload = document["lut"]
        if _digest(payload) != document.get("sha256"):
            raise StoreCorruption("checksum mismatch")
        return document, DelayLUT.from_dict(payload)

    def get_lut(self, design, min_occurrences=DEFAULT_MIN_OCCURRENCES,
                jobs=1):
        """Characterised LUT of a design, characterising at most once per
        (operating point, threshold, schema) across every process sharing
        this store directory.

        Characterisation runs through the per-program ``charlut`` cache:
        each program's gate-sim batch is stored individually (sharded over
        ``jobs`` workers when asked), so an interrupted characterisation
        resumes by recomputing only the missing batches, and the merged
        LUT — assembled in canonical suite order — is bit-identical to an
        in-process, store-less characterisation.

        Only the default characterisation suite is cached — callers with
        custom program sets should call
        :meth:`repro.api.Session.characterize` with their programs.
        """
        lut = self.load_lut(design, min_occurrences)
        if lut is None:
            from repro.flow.characterize import _characterize_impl

            lut = _characterize_impl(
                design, min_occurrences=min_occurrences, keep_runs=False,
                store=self, jobs=jobs,
            ).lut
            self.save_lut(lut, design, min_occurrences)
        return lut

    # -- per-program characterisation batches --------------------------------

    def char_lut_path(self, design, program,
                      min_occurrences=DEFAULT_MIN_OCCURRENCES,
                      sim_period_ps=None):
        key = _digest([
            "charlut", self.schema_version,
            design_fingerprint(design), program_fingerprint(program),
            min_occurrences, sim_period_ps,
        ])
        return self._path("charluts", key, ".json")

    def save_char_lut(self, lut, num_cycles, design, program,
                      min_occurrences=DEFAULT_MIN_OCCURRENCES,
                      sim_period_ps=None):
        """Persist one program's characterisation batch."""
        path = self.char_lut_path(
            design, program, min_occurrences, sim_period_ps
        )
        with obs_span("store.charlut.save", program=program.name):
            self._save_document("charlut", path, self._lut_document(lut, {
                "program": program.name,
                "num_cycles": num_cycles,
            }))

    def load_char_lut(self, design, program,
                      min_occurrences=DEFAULT_MIN_OCCURRENCES,
                      sim_period_ps=None):
        """One cached characterisation batch: ``(lut, num_cycles)`` or
        ``None`` on miss/corruption."""
        path = self.char_lut_path(
            design, program, min_occurrences, sim_period_ps
        )
        if not path.exists():
            self.stats.record("charlut", "misses")
            return None
        try:
            with obs_span("store.charlut.load", program=program.name):
                document, lut = self._read_lut_document(path)
                num_cycles = int(document["num_cycles"])
        except (StoreCorruption, KeyError, TypeError, ValueError, OSError):
            self.stats.record("charlut", "corrupt")
            self.stats.record("charlut", "misses")
            self._discard(path)
            return None
        self.stats.record("charlut", "hits")
        self._touch(path)
        return lut, num_cycles

    # -- sweep results -------------------------------------------------------

    # -- garbage collection --------------------------------------------------

    @staticmethod
    def _is_temp(path):
        """True for :meth:`_write_atomic` scratch files (``mkstemp``
        names carry a ``.tmp`` component before the real suffix) and
        the runner's manifest ``.tmp`` files.  GC must never touch them:
        evicting one breaks the in-flight writer's ``os.replace``."""
        return any(
            suffix.startswith(".tmp") for suffix in path.suffixes
        )

    def gc(self, max_bytes, dry_run=False, paths=None):
        """Least-recently-used eviction down to a size budget.

        Artifact mtimes double as the LRU clock (loads refresh them via
        :meth:`_touch`), so sorting by mtime and keeping the newest files
        until the budget is filled evicts exactly the least recently used
        artifacts.  Everything under the store root is eligible —
        compiled traces, merged and per-program LUTs, results and run
        manifests are all recomputable by construction — *except*
        in-flight ``.tmp`` files from concurrent writers, which are
        skipped entirely.

        Safe against concurrent processes mutating the same store root:
        entries that vanish between scan and ``stat``/unlink are
        tolerated and reported (``vanished_files``), and only files this
        pass actually unlinked count as removed.

        ``paths`` restricts eligibility to an explicit iterable of files
        (still LRU-ordered by mtime) — the hook behind per-tenant frame
        budgets in :mod:`repro.serve`.

        Returns a :class:`GcResult`; ``dry_run`` reports without deleting.
        """
        if max_bytes < 0:
            raise ValueError("size budget cannot be negative")
        if paths is None:
            candidates = (
                self.root.rglob("*") if self.root.is_dir() else ()
            )
        else:
            candidates = (pathlib.Path(p) for p in paths)
        entries = []
        result = GcResult()
        for path in candidates:
            if self._is_temp(path):
                continue
            try:
                stat = path.stat()
            except OSError:
                # evicted by a concurrent process between scan and stat
                result.vanished_files += 1
                continue
            if statmod.S_ISREG(stat.st_mode):
                entries.append(
                    (stat.st_mtime, str(path), stat.st_size, path)
                )
        # newest first; path tiebreak keeps the order deterministic
        entries.sort(key=lambda entry: (-entry[0], entry[1]))
        result.scanned_files = len(entries)
        kept = 0
        evicting = False
        for _, _, size, path in entries:
            # strict LRU: the first artifact that overflows the budget
            # marks the recency cut — everything older goes too, so a
            # stale small file can never outlive a fresher large one
            if not evicting and kept + size <= max_bytes:
                kept += size
                result.kept_files += 1
                result.kept_bytes += size
            else:
                evicting = True
                if dry_run:
                    result.removed_files += 1
                    result.removed_bytes += size
                    continue
                outcome = self._discard(path)
                if outcome == self._REMOVED:
                    result.removed_files += 1
                    result.removed_bytes += size
                elif outcome == self._VANISHED:
                    result.vanished_files += 1
                else:
                    result.failed_files += 1
        return result

    def save_result(self, name, payload):
        """Persist a JSON-serialisable result document under ``name``."""
        self._save_document("result", self.result_path(name), payload)

    def _save_document(self, kind, path, document):
        """Write ``document`` as compact JSON (the C encoder).

        A file that already holds exactly these bytes is not rewritten:
        its mtime is refreshed (the gc LRU clock) and the save counts as
        a ``kind`` hit, so a warm rerun's unchanged checkpoints cost one
        read each and no write.
        """
        data = json.dumps(
            document, sort_keys=True, separators=(",", ":")
        ).encode()
        try:
            same = (path.stat().st_size == len(data)
                    and path.read_bytes() == data)
        except OSError:
            same = False
        if same:
            self._touch(path)
            self.stats.record(kind, "hits")
            return
        self._write_atomic(
            path, lambda tmp: pathlib.Path(tmp).write_bytes(data)
        )
        self.stats.record(kind, "writes")

    def load_result(self, name):
        path = self.result_path(name)
        if not path.exists():
            self.stats.record("result", "misses")
            return None
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            self.stats.record("result", "corrupt")
            self.stats.record("result", "misses")
            self._discard(path)
            return None
        self.stats.record("result", "hits")
        self._touch(path)
        return payload

    # -- result frames -------------------------------------------------------

    def frame_path(self, name):
        key = _digest(["frame", self.schema_version, name])
        return self._path("frames", key, ".json")

    def save_frame(self, name, frame):
        """Persist a :class:`~repro.api.frame.ResultFrame` under ``name``
        (lossless: float bits survive the JSON round-trip)."""
        self._save_document("frame", self.frame_path(name), {
            "schema": self.schema_version,
            "frame": frame.to_dict(),
        })

    def load_frame(self, name):
        """Rehydrate a stored frame, or ``None`` on miss/corruption."""
        from repro.api.frame import ResultFrame

        path = self.frame_path(name)
        if not path.exists():
            self.stats.record("frame", "misses")
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != self.schema_version:
                raise StoreCorruption("schema mismatch")
            frame = ResultFrame.from_dict(payload["frame"])
        except (StoreCorruption, KeyError, TypeError, ValueError, OSError):
            self.stats.record("frame", "corrupt")
            self.stats.record("frame", "misses")
            self._discard(path)
            return None
        self.stats.record("frame", "hits")
        self._touch(path)
        return frame

    # -- learned-policy models -----------------------------------------------

    def model_path(self, name):
        key = _digest(["model", self.schema_version, name])
        return self._path("models", key, ".npz")

    def save_model(self, name, model):
        """Persist a :class:`~repro.ml.model.LearnedModel` under ``name``
        (byte-deterministic ``.npz``, so equal trainings re-write equal
        artifacts)."""
        path = self.model_path(name)
        data = model.to_bytes()
        self._write_atomic(
            path, lambda tmp: pathlib.Path(tmp).write_bytes(data)
        )
        self.stats.record("model", "writes")

    def load_model(self, name):
        """Rehydrate a stored model, or ``None`` on miss/corruption.

        Corruption (torn write, schema/feature-spec mismatch) is
        counted, the artifact discarded, and the caller retrains — the
        same recompute contract as traces and LUTs (see
        :func:`repro.ml.train.get_or_train_model`).
        """
        from repro.ml.model import LearnedModel, ModelError

        path = self.model_path(name)
        if not path.exists():
            self.stats.record("model", "misses")
            return None
        try:
            model = LearnedModel.from_bytes(
                path.read_bytes(), source=str(path)
            )
        except (ModelError, OSError):
            self.stats.record("model", "corrupt")
            self.stats.record("model", "misses")
            self._discard(path)
            return None
        self.stats.record("model", "hits")
        self._touch(path)
        return model
