"""Shared utilities: bit manipulation, deterministic RNG streams, statistics,
ASCII tables and physical-unit conversions.

These helpers are deliberately dependency-light; everything above them in the
stack (ISA, pipeline, timing model, DTA) builds on this module.
"""

from repro._lazy import lazy_exports

__all__ = [
    "bit",
    "bits",
    "mask",
    "popcount",
    "sign_extend",
    "to_signed32",
    "to_unsigned32",
    "RngStream",
    "derive_seed",
    "Histogram",
    "Summary",
    "summarize",
    "format_table",
    "mhz_to_ps",
    "ps_to_mhz",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "bitops": (
        "bit", "bits", "mask", "popcount", "sign_extend", "to_signed32",
        "to_unsigned32",
    ),
    "rng": ("RngStream", "derive_seed"),
    "stats": ("Histogram", "Summary", "summarize"),
    "tables": ("format_table",),
    "units": ("mhz_to_ps", "ps_to_mhz"),
})
