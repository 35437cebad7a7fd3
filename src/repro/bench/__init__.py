"""Benchmark harness shared by benchmarks/ (one module per figure)."""

from .report import (
    fig_header,
    per_method_table,
    phase_latency_table,
    ratio_line,
    series_table,
    serving_table,
    tenant_table,
)
from .runner import (
    ExperimentConfig,
    TracedRun,
    average_results,
    run_averaged,
    run_chaos,
    run_experiment,
    run_serving,
    run_traced,
)

__all__ = [
    "ExperimentConfig",
    "TracedRun",
    "average_results",
    "fig_header",
    "per_method_table",
    "phase_latency_table",
    "ratio_line",
    "run_averaged",
    "run_chaos",
    "run_experiment",
    "run_serving",
    "run_traced",
    "series_table",
    "serving_table",
    "tenant_table",
]
