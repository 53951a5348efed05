"""Per-job worker processes for the sweep service.

Each admitted job runs in its own *process* (spawn start method — safe
to launch from a threaded asyncio server, no forked locks), streaming
typed events back to the server over a ``multiprocessing.Pipe``::

    ("progress", done, total)
    ("done", frame_dict, meta)        # meta: simulations, spans, ...
    ("error", "ValueError: ...")

Inside the worker the job is exactly one :class:`repro.api.Session`
call — ``serve`` really is a thin layer over the Session facade:

- ``sweep``    → :meth:`Session.sweep_frame` (orchestrated runner, the
  store frame cache double-checked worker-side so two *servers* on one
  store root dedup too);
- ``evaluate`` → :meth:`Session.evaluate` per design point;
- ``train``    → :meth:`Session.training_table`;
- ``stream``   → :meth:`repro.stream.StreamingSession.evaluate` per
  design point, relaying per-window ``("window", info)`` events so the
  server can stream rolling results over ``/events``.

Every worker attaches the one shared :class:`ArtifactStore`, so
compiled traces and LUTs are computed at most once across the whole
fleet — the concurrency-hardened store (atomic writes, gc that skips
in-flight temp files and tolerates vanishing entries) is what makes
this safe.

The pool itself (:class:`JobWorkerPool`) bounds concurrent worker
processes with a semaphore; one daemon watcher thread per job relays
pipe events to the server via its callback.
"""

import multiprocessing
import threading

__all__ = ["JobWorkerPool", "execute_job", "job_payload"]

#: Spawned workers re-import the stack instead of forking the threaded
#: server process (fork + threads risks inheriting held locks).
_MP = multiprocessing.get_context("spawn")


def job_payload(job, config):
    """The picklable work order shipped to a worker process."""
    return {
        "kind": job.kind,
        "grid": job.grid,
        "result_name": job.result_name,
        "store_root": str(config.store_root),
        "jobs": config.sweep_jobs,
        "telemetry": bool(config.telemetry),
        "options": job.options,
    }


def execute_job(payload, on_progress, on_window=None):
    """Run one job (inside the worker process).

    Returns ``(frame, meta)`` where ``meta`` carries the dedup proof
    (``simulations``), whether the worker itself hit the frame cache,
    and — when the server traces — the worker's spans and counter
    deltas for the parent timeline.
    """
    from repro.api import Session
    from repro.dta.compiled import simulation_count
    from repro.lab.scenario import ScenarioGrid
    from repro.obs import metrics as obs_metrics

    grid = ScenarioGrid.from_dict(payload["grid"])
    session = Session(store=payload["store_root"], jobs=payload["jobs"])
    kind = payload["kind"]
    baseline = simulation_count()
    obs_baseline = obs_metrics.gather()
    cached = False
    if kind == "sweep":
        frame, cached = session.sweep_frame(
            grid, cache_name=payload["result_name"], on_unit=on_progress,
        )
    elif kind == "train":
        frame = session.training_table(grid, on_unit=on_progress)
    elif kind == "evaluate":
        frame = _evaluate_grid(grid, payload, on_progress)
    elif kind == "stream":
        frame = _stream_grid(grid, payload, on_progress, on_window)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    meta = {
        "simulations": simulation_count() - baseline,
        "cached": cached,
        "counters": obs_metrics.delta_since(obs_baseline),
    }
    return frame, meta


def _evaluate_grid(grid, payload, on_progress):
    """``evaluate`` kind: the in-process evaluation path, one Session
    per design point, concatenated into one EVALUATION frame."""
    from repro.api import Session
    from repro.api.frame import EVALUATION_SCHEMA, ResultFrame

    points = grid.design_points()
    specs = grid.config_specs()
    rows = []
    on_progress(0, len(points))
    for index, point in enumerate(points):
        session = Session(
            variant=point.variant, voltage=point.voltage,
            store=payload["store_root"], jobs=payload["jobs"],
            max_cycles=grid.max_cycles,
        )
        frame = session.evaluate(
            list(grid.workload_specs()), configs=specs,
        )
        rows.extend(frame.to_rows())
        on_progress(index + 1, len(points))
    return ResultFrame.from_rows(rows, EVALUATION_SCHEMA)


def _window_event(update, point):
    """Compact JSON-ready summary of one rolling window (full rows stay
    in the final cached frame; events must stay small)."""
    return {
        "design_point": point.label,
        "program": update.program,
        "window": update.index,
        "global_window": update.global_index,
        "start_cycle": update.start_cycle,
        "cycles": update.num_cycles,
        "stream_cycles": update.stream_cycles,
        "rows": [
            {
                "config": row["config"],
                "effective_frequency_mhz": row["effective_frequency_mhz"],
                "num_violations": row["num_violations"],
            }
            for row in update.frame.to_rows()
        ],
    }


def _stream_grid(grid, payload, on_progress, on_window):
    """``stream`` kind: windowed streaming evaluation per design point,
    relaying each rolling window to the server as it lands."""
    from repro.api import Session
    from repro.api.frame import EVALUATION_SCHEMA, ResultFrame
    from repro.stream import (
        StreamingSession,
        stream_source_for,
        validate_stream_options,
    )

    options = validate_stream_options(payload.get("options"))
    points = grid.design_points()
    specs = grid.config_specs()
    rows = []
    on_progress(0, len(points))
    for index, point in enumerate(points):
        session = Session(
            variant=point.variant, voltage=point.voltage,
            store=payload["store_root"], jobs=payload["jobs"],
            max_cycles=grid.max_cycles,
        )
        streaming = StreamingSession(
            session, window_cycles=options["window_cycles"],
            max_windows=options["max_windows"],
        )
        emit = None
        if on_window is not None:
            emit = (lambda update, _point=point:
                    on_window(_window_event(update, _point)))
        frame = streaming.evaluate(
            stream_source_for(grid, options), configs=specs,
            on_window=emit,
        )
        rows.extend(frame.to_rows())
        on_progress(index + 1, len(points))
    return ResultFrame.from_rows(rows, EVALUATION_SCHEMA)


def _job_main(conn, payload):
    """Worker-process entry point: execute, stream events, never leak
    an exception past the pipe."""
    from repro.obs import trace as obs_trace

    if payload.get("telemetry"):
        import os

        obs_trace.set_tracer(
            obs_trace.Tracer(label=f"serve-worker-{os.getpid()}")
        )
    try:
        frame, meta = execute_job(
            payload,
            on_progress=lambda done, total: conn.send(
                ("progress", done, total)
            ),
            on_window=lambda info: conn.send(("window", info)),
        )
        tracer = obs_trace.get_tracer()
        if tracer is not None:
            meta["spans"] = tracer.drain()
        conn.send(("done", frame.to_dict(), meta))
    except BaseException as error:  # noqa: BLE001 — ships to the server
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
    finally:
        conn.close()


class JobWorkerPool:
    """Run jobs in bounded worker processes, relaying their events.

    Parameters
    ----------
    workers:
        Maximum concurrently running job processes; further jobs wait
        on the semaphore in submission order.
    on_event:
        ``on_event(job, message)`` called from the job's watcher thread
        for every pipe message, then once with ``("exit", exitcode)``
        after the process ends.
    """

    def __init__(self, workers, on_event):
        self.workers = max(1, int(workers))
        self.on_event = on_event
        self._slots = threading.Semaphore(self.workers)
        self._lock = threading.Lock()
        self._running = {}                    # job id -> Process
        self._closed = False

    def submit(self, job, payload):
        """Queue ``job`` for execution; returns immediately.  Events
        arrive on the ``on_event`` callback from a watcher thread."""
        thread = threading.Thread(
            target=self._drive, args=(job, payload),
            name=f"serve-{job.id}", daemon=True,
        )
        thread.start()

    def _drive(self, job, payload):
        with self._slots:
            if self._closed:
                self.on_event(job, ("error", "server shutting down"))
                self.on_event(job, ("exit", -1))
                return
            parent_conn, child_conn = _MP.Pipe(duplex=False)
            process = _MP.Process(
                target=_job_main, args=(child_conn, payload),
                name=f"serve-{job.id}",
            )
            process.start()
            child_conn.close()
            with self._lock:
                self._running[job.id] = process
            try:
                while True:
                    try:
                        message = parent_conn.recv()
                    except EOFError:
                        break
                    self.on_event(job, message)
            finally:
                parent_conn.close()
                process.join()
                with self._lock:
                    self._running.pop(job.id, None)
                self.on_event(job, ("exit", process.exitcode))

    def shutdown(self, timeout=5.0):
        """Stop accepting work and terminate any running job process."""
        self._closed = True
        with self._lock:
            running = list(self._running.values())
        for process in running:
            process.terminate()
        for process in running:
            process.join(timeout=timeout)
