"""repro.stream — windowed compiled traces and online evaluation.

The streaming counterpart of :mod:`repro.api`: evaluate unbounded
program streams window by window, with bounded memory and rolling
:class:`~repro.api.frame.ResultFrame` telemetry, bit-identical to the
offline engine on any finite prefix.  See
:class:`~repro.stream.session.StreamingSession` for the contract and
ARCHITECTURE.md ("Streaming mode") for the design.
"""

from repro._lazy import lazy_exports

__all__ = [
    "StreamingSession",
    "WindowUpdate",
    "TraceWindow",
    "iter_windows",
    "windows_from_sizes",
    "kernel_source",
    "random_source",
    "ndjson_source",
    "program_from_record",
    "validate_stream_options",
    "stream_fingerprint",
    "stream_source_for",
    "STREAM_SOURCES",
    "DEFAULT_WINDOW_CYCLES",
    "DEFAULT_MAX_WINDOWS",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "session": (
        "DEFAULT_MAX_WINDOWS", "DEFAULT_WINDOW_CYCLES", "StreamingSession",
        "WindowUpdate",
    ),
    "sources": (
        "kernel_source", "ndjson_source", "program_from_record",
        "random_source",
    ),
    "options": (
        "STREAM_SOURCES", "stream_fingerprint", "stream_source_for",
        "validate_stream_options",
    ),
    "windows": ("TraceWindow", "iter_windows", "windows_from_sizes"),
})
