"""Run-wide metrics & observability.

Disabled by default: every instrumented component takes ``metrics=None``
and guards each emission, so the cost without a registry is one ``None``
check (the :class:`~repro.sim.trace.TraceLog` pattern). Attach a
:class:`MetricsRegistry` to a testbed or experiment entry point to collect
counters, gauges, and nanosecond histograms, then export them (plus a
:class:`RunManifest`) with :func:`write_metrics_json` /
:func:`write_metrics_csv`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "registry": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "PPB_BUCKETS",
        "default_ns_buckets",
    ),
    "manifest": ("RunManifest", "METRICS_SCHEMA_VERSION", "run_manifest"),
    "export": (
        "metrics_document",
        "write_metrics_json",
        "write_metrics_csv",
        "load_metrics_json",
    ),
})
