"""Analytic training-compute accounting for image classifiers.

The package answers one question end to end: how many floating point
operations does it take to train a given architecture to a fixed
accuracy, and how fast is that number falling over time? It does so
with closed-form arithmetic only. No model is ever trained or run.

Layout:

* archflops: dataflow graphs, shape inference, per-image operation
  counts, and sixteen bundled classifier graphs.
* curves: accuracy-versus-epoch series, threshold crossing, cumulative
  compute curves, and dominance comparison between curves.
* trends: training-compute records, efficiency factors and their
  epoch/per-image decomposition, minimal-compute frontiers, doubling
  time fits, and effective-compute projections.
* datasets: bundled record sets and learning curves.
* reports: the summary tables and plot-point series, as csv, json or
  markdown.
* cli: the ``algoeff`` command line.
"""
from . import archflops, curves, datasets, reports, trends
from .archflops import (
    ArchitectureSpec,
    CountingConvention,
    FlopCount,
    GraphError,
    ShapeError,
    TensorShape,
    arch_from_json,
    arch_to_json,
    builtin_arch,
    builtin_names,
    count_flops,
    infer_shapes,
)
from .curves import (
    ComputeCurve,
    CurveError,
    DominanceResult,
    LearningCurve,
    Threshold,
    ThresholdNotReached,
    compute_to_threshold,
    dominance,
    epochs_to_threshold,
    parse_curve,
    to_compute_curve,
    training_compute,
)
from .trends import (
    Decomposition,
    EffectiveComputeModel,
    EfficiencyFactor,
    EfficiencyRecord,
    Frontier,
    TrendFit,
    decompose,
    doubling_time,
    effective_compute,
    efficiency_factor,
    fit_trend,
    frontier,
    moore_factor,
    partial_run_factor,
    records_from_json,
    records_to_json,
    to_report_units,
)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec",
    "ComputeCurve",
    "CountingConvention",
    "CurveError",
    "Decomposition",
    "DominanceResult",
    "EffectiveComputeModel",
    "EfficiencyFactor",
    "EfficiencyRecord",
    "FlopCount",
    "Frontier",
    "GraphError",
    "LearningCurve",
    "ShapeError",
    "TensorShape",
    "Threshold",
    "ThresholdNotReached",
    "TrendFit",
    "arch_from_json",
    "arch_to_json",
    "archflops",
    "builtin_arch",
    "builtin_names",
    "compute_to_threshold",
    "count_flops",
    "curves",
    "datasets",
    "decompose",
    "dominance",
    "doubling_time",
    "effective_compute",
    "efficiency_factor",
    "epochs_to_threshold",
    "fit_trend",
    "frontier",
    "infer_shapes",
    "moore_factor",
    "parse_curve",
    "partial_run_factor",
    "records_from_json",
    "records_to_json",
    "reports",
    "to_report_units",
    "training_compute",
    "trends",
]
