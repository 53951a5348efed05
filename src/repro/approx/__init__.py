"""Extension E1: approximate computing by over-scaling (paper Sec. IV-A).

The paper observes that the data-dependent delay spread of ``l.mul`` could
be exploited by *approximate computing*: clocking faster than the safe
per-instruction bound occasionally violates the multiplier's longest
excited paths and produces approximate results.  This package models that
regime: given an over-scaling factor below 1.0 on the LUT periods, it
counts which cycles violate timing and models the resulting bit errors on
the affected results.
"""

from repro._lazy import lazy_exports

__all__ = [
    "OverscalingReport",
    "approximate_value",
    "error_magnitude_bits",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "violations": ("OverscalingReport",),
    "errors": ("approximate_value", "error_magnitude_bits"),
})
