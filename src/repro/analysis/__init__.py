"""Measurement and reporting helpers for the evaluation benches:
speedup curves and geometric means (Figure 4), bandwidth accounting
(Figure 5), and text rendering of tables and series."""

from repro.analysis.campaign import (
    render_campaign_diff,
    render_campaign_summary,
    render_density_surface,
    render_recovery_distribution,
    render_speedup_surfaces,
)
from repro.analysis.bandwidth import (
    BandwidthPoint,
    bandwidth_requirement,
    bandwidth_series,
)
from repro.analysis.report import render_series, render_stacked_bars, render_table
from repro.analysis.resilience import (
    memory_fingerprint,
    render_resilience_report,
    run_digest,
    run_fingerprint,
)
from repro.analysis.timeline import (
    attribution,
    render_attribution,
    render_timeline,
)
from repro.analysis.speedup import (
    ScalabilityPoint,
    geomean,
    measure_speedup,
    scalability_curve,
)

__all__ = [
    "ScalabilityPoint",
    "measure_speedup",
    "scalability_curve",
    "geomean",
    "BandwidthPoint",
    "bandwidth_requirement",
    "bandwidth_series",
    "render_table",
    "render_series",
    "render_stacked_bars",
    "render_campaign_summary",
    "render_campaign_diff",
    "render_density_surface",
    "render_recovery_distribution",
    "render_speedup_surfaces",
    "attribution",
    "render_attribution",
    "render_timeline",
    "memory_fingerprint",
    "run_fingerprint",
    "run_digest",
    "render_resilience_report",
]
