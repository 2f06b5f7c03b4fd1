"""Post-run analysis: aggregation, histograms, event timelines, reports.

These utilities turn a finished experiment (a
:class:`~repro.measurement.precision.PrecisionSeries` plus the
:class:`~repro.sim.trace.TraceLog`) into exactly the data products the
paper's figures show:

* :mod:`repro.analysis.aggregate` — 120 s avg/min/max buckets (Fig. 4a's
  black line and gray band, Fig. 3's series);
* :mod:`repro.analysis.histogram` — the value distribution with
  avg/std/min/max annotations (Fig. 4b);
* :mod:`repro.analysis.timeline` — fault/takeover/transient event series
  for a window (Fig. 5's arrows, stars and crosses);
* :mod:`repro.analysis.report` — plain-text renderings of all of the above
  so benches can print paper-comparable rows;
* :mod:`repro.analysis.bounds_theory` — the closed-form §III-A3 bound
  predictor (worst-case sync-error envelopes from topology shape, drift,
  fault hypothesis and active impairments).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "aggregate": ("aggregate_series", "AggregateBucket"),
    "histogram": ("histogram", "HistogramResult"),
    "timeline": ("extract_timeline", "EventTimeline"),
    "report": (
        "render_series",
        "render_histogram",
        "render_envelope",
        "render_timeline",
    ),
    "bounds_theory": (
        "TheoreticalBounds",
        "attack_allowance",
        "predict_bounds",
        "predict_testbed_bounds",
        "predict_topology_bounds",
    ),
})
