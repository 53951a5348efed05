"""Cycle-accurate model of the customised mor1kx-style OpenRISC core.

The paper's case study is the mor1kx *cappuccino* 6-stage in-order pipeline
(Fig. 4): Address, Fetch, Decode, Execute, Mem/Control, Writeback, with
tightly-coupled single-cycle SRAMs for instructions and data, full operand
forwarding, a one-cycle load-use interlock, a single-cycle 32x32 multiplier
and branch delay slots.

One execution model is provided: :func:`~repro.sim.vector.simulate`, the
cycle-accurate pipeline of any :class:`~repro.sim.spec.PipelineSpec`.  It
runs the dispatch-table ISS (:func:`repro.sim.predecode.collect`) once
and reconstructs the pipeline from that pass; its per-cycle stage
occupancy (which instruction is in flight in each stage, ``I_s[t]`` in
the paper) feeds the dynamic timing analysis and the clock-adjustment
controller, ``.trace`` materialises the per-cycle records, and
``.state``, ``.memory`` and ``.retired`` are the architectural result.
Every execution fault raises :class:`SimulationError`.  The reference
semantics the ISS is held to live in the test oracle (``tests/oracle.py``).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ArchState",
    "Memory",
    "simulate",
    "SimulationError",
    "PipelineTrace",
    "CycleRecord",
    "Stage",
    "PIPELINE_STAGES",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "memory": ("Memory",),
    "predecode": ("SimulationError",),
    "state": ("ArchState",),
    "trace": ("CycleRecord", "PIPELINE_STAGES", "PipelineTrace", "Stage"),
    "vector": ("simulate",),
})
