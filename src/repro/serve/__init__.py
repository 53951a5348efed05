"""repro.serve — the multi-tenant sweep service.

A thin asyncio HTTP/JSON layer (stdlib-only) over
:meth:`repro.api.Session.sweep`: clients submit sweep / evaluate /
train jobs as scenario-grid JSON, the server dedups them by
:meth:`~repro.lab.scenario.ScenarioGrid.fingerprint` (two tenants
submitting the same grid share one computation), runs each job in a
worker *process* from a bounded pool sharing one
:class:`~repro.lab.store.ArtifactStore`, streams per-unit progress, and
serves cached :class:`~repro.api.frame.ResultFrame`\\ s instantly on
fingerprint hit.

- :mod:`repro.serve.jobs` — job records, the registry, frame-cache
  naming and per-tenant budget accounting;
- :mod:`repro.serve.pool` — the per-job worker processes (event
  streaming over a pipe; spawn-based, safe in a threaded server);
- :mod:`repro.serve.server` — the asyncio HTTP server
  (``repro serve``);
- :mod:`repro.serve.client` — the stdlib client (``repro submit``).

Entry points::

    python -m repro serve --store .repro-store --port 8787
    python -m repro submit --grid grid.json --wait

or programmatically::

    from repro.serve import ServeClient
    client = ServeClient("http://127.0.0.1:8787")
    job = client.submit("grid.json", tenant="alice")
    frame = client.wait_result(job["id"])
"""

from repro._lazy import lazy_exports

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobRegistry",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SweepServer",
    "frame_cache_name",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("ServeClient", "ServeError"),
    "jobs": ("JOB_KINDS", "Job", "JobRegistry", "frame_cache_name"),
    "server": ("ServeConfig", "SweepServer"),
})
