"""The paper's primary contribution, packaged as one top-level API.

:class:`~repro.core.dca.DynamicClockAdjustment` ties the whole stack
together: build/characterise a design, then evaluate programs under
instruction-based dynamic clock adjustment (or any of the baseline
policies) and derive speed and energy numbers.
"""

from repro._lazy import lazy_exports

__all__ = ["DynamicClockAdjustment", "DcaConfig"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "dca": ("DynamicClockAdjustment",),
    "config": ("DcaConfig",),
})
