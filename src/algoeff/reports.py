"""Every table the package prints, and its renderers: csv, json or markdown.

This module owns every table and every number format; the command line
only parses arguments, loads inputs and calls a builder. Builders return
Table values whose cells are already formatted strings, so every
renderer emits byte-identical output for the same inputs. Ratios and
factors display at two significant figures with round half to even;
warnings collect observations (a quoted number that does not match what
the data implies) without failing the build.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from . import UNIT_DIVISORS, curves, trends
from .archflops import ArchitectureSpec, FlopCount, TensorShape
from .archflops.graph import walked_shapes

if TYPE_CHECKING:
    from .curves import ComputeCurve, LearningCurve, Threshold
    from .datasets import CrossDomainComparison
    from .trends import EfficiencyRecord, Frontier, TrendFit


@dataclass(frozen=True)
class Table:
    """One rendered-ready table: a grid of strings plus warnings."""

    key: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.key}: row width {len(row)} != {len(self.columns)} columns"
                )


def fmt_factor(x: float) -> str:
    """A ratio at two significant figures, round half to even.

    Rounding happens on the shortest decimal form of the value, so a
    float that prints as 0.385 displays as 0.38, not what its binary
    expansion would give. Values below ten keep one decimal (2 ->
    "2.0"), and so does a value that rounds up to ten (9.96 -> "10.0");
    values from ten to a hundred print as integers ("44"), larger
    values group thousands ("1,500").
    """
    import decimal  # here, not at the top: only commands with ratio cells pay for it

    d = decimal.Decimal(repr(float(x)))
    q = d.quantize(decimal.Decimal(1).scaleb(d.adjusted() - 1),
                   rounding=decimal.ROUND_HALF_EVEN)
    return f"{q:,.0f}" if abs(q) >= 100 else format(q, "f")


def fmt_compute(raw: float, unit: str) -> str:
    """A raw-flops total in a display unit; fixed point for table units."""
    return _compute_formatter(unit)(raw)


def _compute_formatter(unit: str):
    """fmt_compute at one unit, whose divisor is looked up once for a table's rows."""
    divisor = trends.unit_divisor(unit)
    spec = ".1f" if unit == "table" else ".4g"
    return lambda raw: format(raw / divisor, spec)


def _fmt_period(value: float, unit: str) -> str:
    return f"{fmt_factor(value)} {unit}"


def _fmt_big(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return f"{v:,.0f}"
    return f"{v:.6g}"


def _quote_note(subject: str, what: str, shown: str, miss: str, q_shown: str) -> str:
    """The warning for a computed figure that misses its quote, e.g. "does not round to"."""
    return f"{subject}: {what} {shown} {miss} the quoted {q_shown}"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _one_row(key: str, title: str, cells: dict[str, str]) -> Table:
    """A single-row table; cells maps each column name to its cell."""
    return Table(key=key, title=title, columns=tuple(cells), rows=(tuple(cells.values()),))


def flops_tables(
    arch: ArchitectureSpec, count: FlopCount, per_image: float, per_layer: bool
) -> list[Table]:
    """The per-image total (per_image: that total as a float) and, with per_layer, each node."""
    unit = count.convention.unit
    unit_name = "multiply-accumulates" if unit == "mac" else "flops (2 per mac)"
    tables = [_one_row("flops_total", f"Per-image {unit_name} for {arch.name}", {
        "architecture": arch.name,
        "input": str(count.input),
        "counted_kinds": ",".join(sorted(count.convention.counted_kinds)),
        "unit": unit,
        "total_per_image": f"{count.total_per_image:,d}",
        "giga_per_image": f"{per_image / 1e9:.4f}",
    })]
    if per_layer:
        # count_flops walked this input, so the walk's memo holds every shape
        texts = _node_shape_texts(arch, walked_shapes(arch, count.input))
        tables.append(Table(
            key="flops_per_layer",
            title=f"Per-layer counts for {arch.name}",
            columns=("node", "kind", "output_shape", unit),
            rows=tuple((n.id, n.kind, text, cell)
                       for n, text, cell in zip(arch.nodes, texts, _count_cells(arch, count))),
        ))
    return tables


def _count_cells(arch: ArchitectureSpec, count: FlopCount) -> list[str]:
    """Each node's count as text, formatted once per distinct count.

    The nodes of one layer signature share one count (count_flops), and
    most counts of a deep graph repeat: zeros, and equal blocks.
    """
    cells: dict[int, str] = {}
    out = []
    per_layer = count.per_layer
    for n in arch.nodes:
        macs = per_layer[n.id]
        cell = cells.get(macs)
        if cell is None:
            cell = cells[macs] = f"{macs:,d}"
        out.append(cell)
    return out


def _node_shape_texts(arch: ArchitectureSpec, shapes: dict[str, TensorShape]) -> list[str]:
    """Each node's output shape as text, one str per distinct shape object.

    A node that keeps its input's shape (batchnorm, activation, an add)
    holds that very object, so most rows of a deep graph share a string.
    """
    texts: dict[int, str] = {}
    out = []
    for n in arch.nodes:
        shape = shapes[n.id]
        text = texts.get(id(shape))
        if text is None:
            text = texts[id(shape)] = str(shape)
        out.append(text)
    return out


def shapes_table(arch: ArchitectureSpec, input_shape: TensorShape | None) -> Table:
    """The network input and every node's inferred output shape."""
    shapes = walked_shapes(arch, input_shape)
    texts = _node_shape_texts(arch, shapes)
    return Table(
        key="shapes",
        title=f"Inferred shapes for {arch.name}",
        columns=("node", "kind", "shape"),
        rows=(("input", "input", str(shapes["input"])),)
        + tuple((n.id, n.kind, text) for n, text in zip(arch.nodes, texts)),
    )


def analysis_table(
    arch: ArchitectureSpec, curve: LearningCurve, threshold: Threshold, epoch: int,
    per_image: float, total: float, unit: str,
) -> Table:
    """Where a curve crosses a threshold, and the training compute spent by then."""
    return _one_row("analysis", f"{arch.name} on curve {curve.name}", {
        "architecture": arch.name,
        "curve": curve.name,
        "metric": threshold.metric,
        "threshold": f"{threshold.value:g}",
        "crossing_epoch": str(epoch),
        "gigaflops_per_image": f"{per_image / 1e9:.4f}",
        f"total_compute_{unit}": fmt_compute(total, unit),
    })


def factor_table(baseline: EfficiencyRecord, improved: EfficiencyRecord, unit: str) -> Table:
    """The efficiency factor between two records, the time between them and both totals."""
    ef = trends.efficiency_factor(baseline, improved)
    return _one_row("factor", f"Efficiency factor, {ef.baseline} to {ef.improved}", {
        "baseline": ef.baseline,
        "improved": ef.improved,
        "factor": fmt_factor(ef.factor),
        "elapsed_days": str(ef.elapsed_days),
        "elapsed_months": f"{ef.elapsed_months:.2f}",
        f"baseline_total_{unit}": fmt_compute(baseline.total, unit),
        f"improved_total_{unit}": fmt_compute(improved.total, unit),
    })


def decomposition_table(baseline: EfficiencyRecord, improved: EfficiencyRecord) -> Table:
    """The efficiency factor between two records split into epoch and per-image terms."""
    d = trends.decompose(baseline, improved)
    return _one_row("decomposition", f"Factor decomposition, {d.baseline} to {d.improved}", {
        "baseline": d.baseline,
        "improved": d.improved,
        "epoch_reduction": fmt_factor(d.epochs_ratio),
        "per_image_reduction": fmt_factor(d.flops_per_image_ratio),
        "efficiency_factor": fmt_factor(d.factor),
    })


def pair_doubling_table(baseline: EfficiencyRecord, improved: EfficiencyRecord) -> Table:
    """The efficiency doubling time implied by two records."""
    ef = trends.efficiency_factor(baseline, improved)
    d = trends.doubling_time(ef.factor, ef.elapsed_months)
    return _one_row("doubling", f"Efficiency doubling time, {ef.baseline} to {ef.improved}", {
        "baseline": ef.baseline,
        "improved": ef.improved,
        "factor": fmt_factor(ef.factor),
        "period": f"{ef.elapsed_months:.2f} months",
        "doubling": f"{d:.2f} months",
    })


def factor_doubling_table(factor: float, period: float, period_unit: str) -> Table:
    """The efficiency doubling time of a factor gained over a period."""
    d = trends.doubling_time(factor, period)
    return _one_row("doubling", "Efficiency doubling time", {
        "factor": fmt_factor(factor),
        "period": f"{period:g} {period_unit}",
        "doubling": f"{d:.2f} {period_unit}",
    })


def frontier_table(front: Frontier, unit: str) -> Table:
    """The records on the minimal-compute frontier, oldest first."""
    return Table(
        key="frontier",
        title=f"Minimal-compute frontier ({unit} units)",
        columns=("model", "date", "total"),
        rows=tuple((r.name, r.date.isoformat(), fmt_compute(r.total, unit)) for r in front),
    )


def trend_table(fit: TrendFit) -> Table:
    """A fitted efficiency trend and its doubling time."""
    return _one_row("trend", "Efficiency trend fit", {
        "method": fit.method,
        "points": str(fit.points),
        "slope_log2_per_month": f"{fit.slope:.6f}",
        "doubling_months": f"{fit.doubling_months:.2f}",
        "r_squared": f"{fit.r_squared:.4f}",
    })


def effective_table(factors: Sequence[float]) -> Table:
    """Stacked gain factors and their product; with none, the default model's."""
    if factors:
        title = "Combined effective-compute multiplier"
        cells = [(f"input {i}", f) for i, f in enumerate(factors, start=1)]
        cells.append(("effective", trends.effective_compute(factors)))  # checks them for _fmt_big
    else:
        model = trends.EffectiveComputeModel()
        title = f"Default effective-compute model over {model.period_months:g} months"
        cells = model.factors_at(model.period_months).items()
    return Table(
        key="effective",
        title=title,
        columns=("component", "factor"),
        rows=tuple((label, _fmt_big(v)) for label, v in cells),
    )


def efficiency_table(front: Frontier) -> Table:
    """The frontier's runs against its earliest one: factor and its two terms.

    epoch_reduction is baseline epochs over improved epochs;
    per_image_reduction is baseline per-image cost over improved. Their
    product is the efficiency factor. Records without per-image detail
    show only the factor.
    """
    base = front.records[0]
    rows = []
    for r in front:
        ef = trends.efficiency_factor(base, r)
        try:
            d = trends.decompose(base, r)
            epochs_cell = fmt_factor(d.epochs_ratio)
            image_cell = fmt_factor(d.flops_per_image_ratio)
        except trends.TrendError:
            epochs_cell = ""
            image_cell = ""
        rows.append((
            r.name,
            r.date.isoformat(),
            epochs_cell,
            image_cell,
            fmt_factor(ef.factor),
        ))
    return Table(
        key="efficiency_factors",
        title=f"Training efficiency factors relative to {base.name}",
        columns=("model", "date", "epoch_reduction", "per_image_reduction",
                 "efficiency_factor"),
        rows=tuple(rows),
    )


def doubling_table(comparisons: Sequence[CrossDomainComparison]) -> Table:
    """Efficiency doubling times across domains, computed and as quoted.

    The computed columns derive from each comparison's own compute
    totals and dates where present, falling back to quoted numbers.
    A quoted figure (reported headline numbers are integers) that the
    computed one, in the quote's unit, does not round to, half to even,
    becomes a warning, not an error.
    """
    rows = []
    warnings = []
    for c in comparisons:
        row = [c.task, c.kind, c.baseline, c.improved]
        for what, (value, unit), q, q_unit in (
            ("computed factor", (c.factor(), None), c.reported_factor, None),
            ("elapsed period", c.period(), c.reported_period_value, c.reported_period_unit),
            ("computed doubling", c.doubling(),
             c.reported_doubling_value, c.reported_doubling_unit),
        ):
            shown = fmt_factor(value) if unit is None else _fmt_period(value, unit)
            q_shown = "" if q is None else f"{q:g}" if q_unit is None else _fmt_period(q, q_unit)
            row += (shown, q_shown)
            if unit != q_unit:  # days against months or the reverse: compare in the quote's unit
                month_days = trends.MONTH_DAYS
                value = value / month_days if q_unit == "months" else value * month_days
            if q is not None and (value == math.inf or round(value) != round(q)):  # days overflow
                warnings.append(_quote_note(c.label, what, shown, "does not round to", q_shown))
        row.append("yes" if c.estimated else "")
        rows.append(tuple(row))
    return Table(
        key="doubling_times",
        title="Efficiency doubling times across domains",
        columns=("task", "kind", "baseline", "improved", "factor", "quoted_factor",
                 "period", "quoted_period", "doubling", "quoted_doubling", "estimated"),
        rows=tuple(rows),
        warnings=tuple(warnings),
    )


def compute_table(
    records: Sequence[EfficiencyRecord],
    front: Frontier,
    unit: str = "table",
    reported: dict[str, float] | None = None,
) -> Table:
    """Every record's training total, largest first, with quoted values.

    front is frontier(records), whose records are among these objects: a
    row is on the frontier when its record is, not when its name is.
    reported maps record names to quoted totals in table units (raw flops /
    1e15), positive and finite in raw flops or TrendError names the record;
    deviations beyond two percent become warnings.
    """
    on_front = set(map(id, front.records))
    ordered = sorted(records, key=attrgetter("name"))
    # stable: equal totals stay in name order
    ordered.sort(key=attrgetter("total_compute"), reverse=True)
    fmt_total = _compute_formatter(unit)
    date_cells: dict = {}  # each distinct date's cell, formatted once
    rows = []
    warnings = []
    for r in ordered:
        total = r.total_compute
        quoted_cell = ""
        deviation_cell = ""
        if reported and r.name in reported:
            q = reported[r.name]
            if not (curves.positive_finite(q)
                    and curves.positive_finite(quoted_raw := q * UNIT_DIVISORS["table"])):
                raise trends.TrendError(f"{r.name}: quoted total must be positive and finite "
                                 f"in raw flops, got {q!r}")
            quoted_cell = fmt_total(quoted_raw)
            dev = (total - quoted_raw) / quoted_raw
            deviation_cell = f"{dev * 100:+.2f}%"
            if abs(dev) > 0.02:
                warnings.append(_quote_note(r.name, "computed total", fmt_total(total),
                                            f"deviates {deviation_cell} from", quoted_cell))
        date = r.date
        date_cell = date_cells.get(date)
        if date_cell is None:
            date_cell = date_cells[date] = date.isoformat()
        rows.append((
            r.name,
            date_cell,
            f"{r.epochs:g}" if r.epochs is not None else "",
            f"{r.flops_per_image / 1e9:.2f}" if r.flops_per_image is not None else "",
            fmt_total(total),
            quoted_cell,
            deviation_cell,
            "yes" if id(r) in on_front else "",
        ))
    return Table(
        key="training_compute",
        title=f"Training compute to threshold ({unit} units)",
        columns=("model", "date", "epochs", "gigaflops_per_image", "total",
                 "quoted_total", "deviation", "on_frontier"),
        rows=tuple(rows),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# plot-point series
# ---------------------------------------------------------------------------

def frontier_points(records: Sequence[EfficiencyRecord], front: Frontier,
                    unit: str = "raw") -> Table:
    """Scatter points for compute-to-threshold over time.

    front is frontier(records), whose records are among these objects: a
    row is on the frontier when its record is. months counts from the
    earliest record. log2_total is of the raw value regardless of unit,
    since slopes live there.
    """
    on_front = set(map(id, front.records))
    ordered = sorted(records, key=attrgetter("name"))
    ordered.sort(key=attrgetter("date"))  # stable: equal dates stay in name order
    origin = trends.date_to_months(ordered[0].date)
    divisor = trends.unit_divisor(unit)
    date_cells: dict = {}  # each distinct date's date and months cells, formatted once
    rows = []
    for r in ordered:
        date = r.date
        cells = date_cells.get(date)
        if cells is None:
            cells = date_cells[date] = (date.isoformat(),
                                        f"{trends.date_to_months(date) - origin:.3f}")
        total = r.total_compute
        rows.append((
            r.name,
            *cells,
            f"{total / divisor:.6e}",
            f"{math.log2(total):.4f}",
            "yes" if id(r) in on_front else "",
        ))
    return Table(
        key="frontier_points",
        title=f"Compute to threshold over time ({unit} units)",
        columns=("model", "date", "months", "total", "log2_total_raw", "on_frontier"),
        rows=tuple(rows),
    )


def curve_points(curves: Sequence[ComputeCurve], unit: str = "raw") -> Table:
    """Long-format accuracy-versus-compute points for plotting curves."""
    rows = []
    for c in curves:
        for compute, acc in zip(c.compute, c.accuracies):
            rows.append((
                c.name,
                c.metric,
                f"{trends.to_report_units(compute, unit):.6e}",
                f"{acc:.5f}",
            ))
    return Table(
        key="curve_points",
        title=f"Accuracy versus cumulative training compute ({unit} units)",
        columns=("curve", "metric", "compute", "accuracy"),
        rows=tuple(rows),
    )


def effective_compute_points() -> Table:
    """The default effective-compute model's growth factors over month zero, every six months."""
    model = trends.EffectiveComputeModel()
    rows = tuple(
        (f"{t:g}", *(f"{v:.4g}" for v in model.factors_at(t).values()))
        for t in range(0, int(model.period_months) + 1, 6)  # 0, 6, ..., 72
    )
    return Table(
        key="effective_compute_points",
        title="Effective compute growth factors",
        columns=("month", "hardware", "spending", "efficiency", "effective"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def render_markdown(tables: Sequence[Table]) -> str:
    lines = []
    for t in tables:
        if lines:
            lines.append("")  # a blank line between tables
        lines += (f"## {t.title}", "",
                  "| " + " | ".join(t.columns) + " |",
                  "|" + "|".join(" --- " for _ in t.columns) + "|")
        lines += ["| " + " | ".join(row) + " |" for row in t.rows]
        for w in t.warnings:
            lines += ("", f"> note: {w}")
    if not lines:
        return "\n"
    lines.append("")  # the text ends in a newline
    return "\n".join(lines)


def render_csv(tables: Sequence[Table]) -> str:
    """Tables as csv blocks separated by blank lines, titles as comments.

    Warnings are not embedded; collect them with table_warnings and
    send them wherever diagnostics belong.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, t in enumerate(tables):
        if i:
            buf.write("\n")
        buf.write(f"# {t.title}\n")
        writer.writerow(t.columns)
        writer.writerows(t.rows)
    return buf.getvalue()


def render_json(tables: Sequence[Table]) -> str:
    payload = {
        "tables": [
            {
                "key": t.key,
                "title": t.title,
                "columns": t.columns,
                "rows": t.rows,
                "warnings": t.warnings,
            }
            for t in tables
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json, "markdown": render_markdown}
FORMATS = tuple(_RENDERERS)


def render(tables: Sequence[Table], format: str) -> str:
    if format not in FORMATS:  # a tuple test, so an unhashable format gets this error too
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    return _RENDERERS[format](tables)


def table_warnings(tables: Sequence[Table]) -> tuple[str, ...]:
    return tuple(w for t in tables for w in t.warnings)
