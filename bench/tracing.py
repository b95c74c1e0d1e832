"""Per-module tracing from outside the program.

The tracer replaces public functions of algoeff with timing wrappers in
every algoeff module namespace that holds them, which is where their
callers look them up. Nested calls therefore get the right parent: for
example validate_arch re-imports infer_shapes from the shapes module at
each call, and count_flops reads it from the counting module, and both
see the wrapper. EfficiencyRecord.total is replaced by a counting
property. Nothing under src/ is edited.

Spans are [name, start, end, parent index] lists kept in memory; a
span's self time is its duration minus the durations of its children,
which never overlap because the program is single-threaded.
"""
from __future__ import annotations

import contextlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "cli.main"

#: (span name, module that defines the function, function name, counter hook).
#: Several functions can share a span name; the name's first part is the layer.
TARGETS = (
    ("graph.arch_from_json", "algoeff.archflops.graph", "arch_from_json", "nodes_loaded"),
    ("graph.validate_arch", "algoeff.archflops.graph", "validate_arch", None),
    ("shapes.infer_shapes", "algoeff.archflops.shapes", "infer_shapes", "nodes_inferred"),
    ("counting.count_flops", "algoeff.archflops.counting", "count_flops", None),
    ("zoo.builtin_arch", "algoeff.archflops.zoo", "builtin_arch", "nodes_loaded"),
    ("datasets.load", "algoeff.datasets", "load_imagenet_records", None),
    ("datasets.load", "algoeff.datasets", "load_cross_domain", None),
    ("datasets.load", "algoeff.datasets", "load_curve", None),
    ("curves.parse_curve", "algoeff.curves", "parse_curve", "rows_parsed"),
    ("curves.threshold", "algoeff.curves", "epochs_to_threshold", None),
    ("curves.threshold", "algoeff.curves", "compute_to_threshold", None),
    ("curves.to_compute_curve", "algoeff.curves", "to_compute_curve", None),
    ("trends.records_from_json", "algoeff.trends", "records_from_json", "records_loaded"),
    ("trends.records_to_json", "algoeff.trends", "records_to_json", None),
    ("trends.frontier", "algoeff.trends", "frontier", None),
    ("trends.fit_trend", "algoeff.trends", "fit_trend", None),
    ("reports.tables", "algoeff.reports", "efficiency_table", None),
    ("reports.tables", "algoeff.reports", "doubling_table", None),
    ("reports.tables", "algoeff.reports", "compute_table", None),
    ("reports.tables", "algoeff.reports", "frontier_points", None),
    ("reports.tables", "algoeff.reports", "curve_points", None),
    ("reports.tables", "algoeff.reports", "effective_compute_points", None),
    ("reports.render", "algoeff.reports", "render", "bytes_out"),
)

#: Layers whose boundary exceptions are counted as <layer>.errors.
LAYERS = ("cli", "zoo", "datasets", "graph", "shapes", "counting", "curves", "trends",
          "reports")


def _hook_value(hook: str, args, result) -> int:
    if hook == "nodes_inferred":
        return len(args[0].nodes)
    if hook == "nodes_loaded":
        return len(result.nodes)
    if hook == "rows_parsed":
        return len(result.epochs)
    if hook == "records_loaded":
        return len(result)
    return len(result.encode("utf-8"))  # bytes_out


class Tracer:
    """Spans and counters for one traced command at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook: str | None):
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if hook:
                self.counts[hook] += _hook_value(hook, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "algoeff" or n.startswith("algoeff."))]
        undo = []
        for name, modname, attr, hook in TARGETS:
            fn = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        record_cls = sys.modules["algoeff.trends"].EfficiencyRecord
        total = record_cls.__dict__["total"]
        counts = self.counts

        def counted_total(record):
            counts["total_reads"] += 1
            return total.fget(record)

        record_cls.total = property(counted_total, doc=total.__doc__)
        try:
            yield
        finally:
            record_cls.total = total
            for mod, key, fn in reversed(undo):
                setattr(mod, key, fn)

    def run(self, fn, *args):
        """Call fn under the root span with the wrappers installed.

        Spans and counts of the call stay in self.spans and self.counts,
        also when fn raises.
        """
        self.spans, self.counts, self._stack = [], Counter(), []
        wrapped = self.wrap(ROOT_SPAN, fn, None)
        with self.installed():
            return wrapped(*args)


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self seconds, call count)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _), inner in zip(spans, child):
        out[name][0] += end - start - inner
        out[name][1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


# ---------------------------------------------------------------------------
# -X importtime
# ---------------------------------------------------------------------------

IMPORT_GROUPS = ("cli", "archflops", "curves", "trends", "datasets", "reports")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Milliseconds per algoeff module group from one -X importtime log.

    A module's time is its cumulative import time minus that of the
    nearest algoeff modules it imported, so standard-library modules are
    charged to the algoeff module that first imported them. total is the
    cumulative time of the outermost algoeff import.
    """
    entries = []  # (depth, name, cumulative us), in the order printed (children first)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum)))
    groups = dict.fromkeys(IMPORT_GROUPS, 0.0)
    total = 0.0
    # children are printed before their parent, one level deeper
    pending: dict[int, float] = defaultdict(float)  # depth -> algoeff cumulative below it
    for depth, name, cum in entries:
        below = pending.pop(depth + 1, 0.0)
        for deeper in [d for d in pending if d > depth]:
            below += pending.pop(deeper)
        if name == "algoeff" or name.startswith("algoeff."):
            part = name.split(".")[1] if "." in name else None
            if part in groups:
                groups[part] += (cum - below) / 1000.0
            pending[depth] += cum
            if depth == 0:
                total += cum / 1000.0
        else:
            pending[depth] += below
    return {"total": total, **groups}

