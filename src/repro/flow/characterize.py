"""Characterisation flow: programs → gate-level simulation → DTA → LUT.

Mirrors the paper's Fig. 2 right half: gate-level simulation of
characterisation programs, dynamic timing analysis, per-instruction
extraction and LUT merge.  Each program runs through
:func:`~repro.dta.gatesim.run_dta` (vector simulation, compiled delay
matrix, replayed event-log arithmetic) and
:func:`~repro.dta.extraction.extract_lut_arrays` (array maxima over the
compiled class attribution); the test oracle (``tests/oracle.py``)
holds the materialised event-log flow this one is byte-identical to.
:class:`repro.api.Session` (``Session.characterize``) is the entry point.

Characterisation shards: each program's gate-sim batch is independent, so
``jobs > 1`` fans the suite out over worker processes, and per-program
LUTs can be cached in an :class:`~repro.lab.store.ArtifactStore`
(``store=``) so an interrupted characterisation resumes by recomputing
only the missing batches.  The merge happens in canonical suite order
regardless of completion order — the merged LUT is bit-identical to the
serial in-process result.
"""

from dataclasses import dataclass

from repro.dta.lut import DEFAULT_MIN_OCCURRENCES, CharacterizationResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span as obs_span

# The gate-sim, the extraction, the suite generator and the process
# pool are imported where they run.  CharacterizationResult lives in
# repro.dta.lut, so a warm sweep never imports this module.


@dataclass
class CharacterizationRun:
    """One program's gate-sim + DTA artefacts (kept for the figure benches)."""

    program_name: str
    num_cycles: int
    dta: object           # DtaResult
    compiled: object      # CompiledTrace (per-cycle class attribution)
    lut: object           # per-run DelayLUT


def characterize_program(program, design,
                         min_occurrences=DEFAULT_MIN_OCCURRENCES,
                         sim_period_ps=None, keep_run=False):
    """One characterisation batch: gate-sim + DTA + extraction.

    Returns ``(lut, num_cycles, run)`` — ``run`` is a
    :class:`CharacterizationRun` when ``keep_run`` is set, else ``None``.
    """
    from repro.dta.extraction import extract_lut_arrays
    from repro.dta.gatesim import run_dta

    with obs_span("characterize.program", program=program.name):
        dta, compiled = run_dta(program, design, sim_period_ps=sim_period_ps)
        lut = extract_lut_arrays(
            dta, compiled, design.static_period_ps,
            min_occurrences=min_occurrences, source=program.name,
        )
        run = None
        if keep_run:
            run = CharacterizationRun(
                program_name=program.name,
                num_cycles=compiled.num_cycles,
                dta=dta,
                compiled=compiled,
                lut=lut,
            )
        return lut, compiled.num_cycles, run


def _cached_program_lut(program, design, min_occurrences, sim_period_ps,
                        store):
    """Per-program LUT through the store's charlut cache (if any)."""
    if store is not None:
        cached = store.load_char_lut(
            design, program, min_occurrences=min_occurrences,
            sim_period_ps=sim_period_ps,
        )
        if cached is not None:
            return cached
    lut, num_cycles, _ = characterize_program(
        program, design, min_occurrences=min_occurrences,
        sim_period_ps=sim_period_ps,
    )
    if store is not None:
        store.save_char_lut(
            lut, num_cycles, design, program,
            min_occurrences=min_occurrences, sim_period_ps=sim_period_ps,
        )
    return lut, num_cycles


def _shard_worker(payload):
    """Pool entry point: characterise one program in a worker process.

    Returns the worker-side store counters and an observability payload
    (counter deltas + spans when the parent traces), so the parent's
    stats and telemetry reflect sharded activity exactly like a serial
    run's."""
    (index, program, variant_value, voltage, spec_dict, min_occurrences,
     sim_period_ps, store_root, telemetry) = payload
    from repro.sim.spec import PipelineSpec
    from repro.timing.design import build_design
    from repro.timing.profiles import DesignVariant

    if telemetry:
        # always a fresh per-worker tracer: under fork the child inherits
        # the parent's, and recording onto it would mislabel worker spans
        import os

        obs_trace.set_tracer(obs_trace.Tracer(label=f"worker-{os.getpid()}"))
    baseline = obs_metrics.gather()

    design = build_design(
        DesignVariant(variant_value), voltage=voltage,
        pipeline_spec=(
            PipelineSpec.from_dict(spec_dict)
            if spec_dict is not None else None
        ),
    )
    store = None
    if store_root is not None:
        from repro.lab.store import ArtifactStore

        store = ArtifactStore(store_root)
    lut, num_cycles = _cached_program_lut(
        program, design, min_occurrences, sim_period_ps, store
    )
    stats = store.stats.as_dict() if store is not None else None
    tracer = obs_trace.get_tracer()
    obs = {
        "counters": obs_metrics.delta_since(baseline),
        "spans": tracer.drain() if tracer is not None else [],
    }
    return index, lut.to_json(), num_cycles, stats, obs


def _characterize_impl(design, programs=None,
                       min_occurrences=DEFAULT_MIN_OCCURRENCES,
                       sim_period_ps=None, keep_runs=True, jobs=1,
                       store=None):
    """The characterisation flow engine behind
    :meth:`repro.api.Session.characterize`.

    Parameters
    ----------
    design:
        :class:`~repro.timing.design.ProcessorDesign`.
    programs:
        Characterisation programs; defaults to the standard suite (directed
        semi-random generators + hand kernels, paper Sec. II-B.2).
    min_occurrences:
        Extraction threshold below which a class falls back to the static
        period.
    sim_period_ps:
        Gate-sim clock period (defaults to 10 % above STA).
    keep_runs:
        Keep per-run DTA artefacts (needed by the histogram benches).
        Incompatible with ``jobs > 1`` — per-run artefacts stay in their
        worker process.
    jobs:
        Worker processes to shard the per-program gate-sim batches over.
    store:
        Optional :class:`~repro.lab.store.ArtifactStore`; per-program LUTs
        are read from / written through its ``charlut`` cache, so a killed
        characterisation recomputes only the missing batches.
    """
    from repro.dta.extraction import merge_luts

    if programs is None:
        from repro.workloads.suite import characterization_suite

        programs = characterization_suite()
    programs = list(programs)
    jobs = max(1, int(jobs))
    if jobs > 1 and keep_runs:
        raise ValueError(
            "sharded characterisation (jobs > 1) cannot keep per-run "
            "artefacts; pass keep_runs=False"
        )

    runs = []
    luts = [None] * len(programs)
    cycle_counts = [0] * len(programs)

    if jobs > 1 and len(programs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.dta.lut import DelayLUT

        store_root = str(store.root) if store is not None else None
        telemetry = obs_trace.is_enabled()
        spec = design.pipeline_spec
        spec_dict = None if spec.is_default else spec.to_dict()
        payloads = [
            (index, program, design.variant.value, design.library.voltage,
             spec_dict, min_occurrences, sim_period_ps, store_root,
             telemetry)
            for index, program in enumerate(programs)
        ]
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(programs))
        ) as pool:
            for index, lut_json, num_cycles, stats, obs in pool.map(
                _shard_worker, payloads
            ):
                luts[index] = DelayLUT.from_json(lut_json)
                cycle_counts[index] = num_cycles
                if store is not None and stats is not None:
                    store.stats.merge(stats)
                obs_metrics.merge(obs["counters"])
                obs_trace.merge_worker_spans(obs["spans"])
    else:
        for index, program in enumerate(programs):
            if keep_runs:
                lut, num_cycles, run = characterize_program(
                    program, design, min_occurrences=min_occurrences,
                    sim_period_ps=sim_period_ps, keep_run=True,
                )
                runs.append(run)
            else:
                lut, num_cycles = _cached_program_lut(
                    program, design, min_occurrences, sim_period_ps,
                    store,
                )
            luts[index] = lut
            cycle_counts[index] = num_cycles

    total_cycles = sum(cycle_counts)
    # canonical suite-order merge: bit-identical however the batches ran
    with obs_span("characterize.merge", programs=len(programs)):
        merged = merge_luts(luts)
    merged.source = f"{len(programs)} programs / {total_cycles} cycles"
    return CharacterizationResult(
        design=design, lut=merged, runs=runs, total_cycles=total_cycles
    )

