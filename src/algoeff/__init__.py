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

Each name is imported from the module that defines it (graph names from
``algoeff.archflops``); importing the package itself loads no submodule.
The package holds what the command line shares with the modules: the
constants IMAGES_PER_EPOCH, BACKWARD_MULTIPLIER and UNIT_DIVISORS, which
curves and trends import back, and the error bases InputError and ResultError.
"""

__version__ = "0.1.0"

# One pass over the training set, in images. Matches the rounded size
# of the classification set the bundled records assume.
IMAGES_PER_EPOCH = 1.28e6

# Training cost per image relative to a forward pass: one forward plus
# a backward pass at twice the forward cost.
BACKWARD_MULTIPLIER = 3.0

# Raw flops per display unit.
UNIT_DIVISORS = {
    "raw": 1.0,
    "stated": 8.64e16,  # one teraflop/s for 86400 seconds
    "table": 1e15,
}


class InputError(ValueError):
    """Base of GraphError, CurveError, TrendError and DatasetError; the CLI exits 2."""


class ResultError(Exception):
    """Base of ThresholdNotReached, a valid input with no answer; the CLI exits 3."""
