"""Dynamic timing analysis (paper Sec. II-B.2).

The paper characterises its core in four steps: gate-level simulation,
an endpoint event log, its DTA tool over that log, and per-instruction
worst-case extraction into the LUT.  This package runs those steps on
arrays, one path per step:

1. :mod:`repro.dta.gatesim` — "gate-level simulation" and the DTA:
   :func:`~repro.dta.gatesim.run_dta` runs a program on the vector
   pipeline engine, compiles its excited-delay matrix and replays the
   event-log timestamp arithmetic on it (per-endpoint rounding, clock
   skew and setup), giving the per-cycle per-stage delays, the
   genie-aided bound and the limiting-stage statistics (Figs. 5 and 6)
   in a :class:`~repro.dta.gatesim.DtaResult`;
2. :mod:`repro.dta.extraction` — per-instruction worst-case extraction:
   attributes stage delays to the driving instruction's timing class
   through the compiled trace and produces the delay-prediction LUT
   (Table II), with the static-timing fallback for under-characterised
   instructions;
3. :mod:`repro.dta.histograms` — Fig. 5 / Fig. 7 histogram builders;
4. :mod:`repro.dta.compiled` — compiled pipeline traces (class-id and
   excited-delay matrices, cached per program × design) powering the
   characterisation above and the batch evaluation engine in
   :mod:`repro.flow.evaluate`.

The materialised event log and the per-record extraction are the
bit-identity reference for this path; they live in the test oracle
(``tests/oracle.py``), not here.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DtaResult",
    "run_dta",
    "DelayLUT",
    "CompiledTrace",
    "compile_trace",
    "get_compiled_trace",
    "worst_per_cycle",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "compiled": (
        "CompiledTrace", "compile_trace", "get_compiled_trace",
        "worst_per_cycle",
    ),
    "gatesim": ("DtaResult", "run_dta"),
    "lut": ("DelayLUT",),
})
