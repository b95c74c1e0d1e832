"""Summary tables and plot-point series, rendered as csv, json or markdown.

Builders return Table values whose cells are already formatted strings,
so every renderer emits byte-identical output for the same inputs.
Ratios and factors display at two significant figures with round half
to even; warnings collect observations (a quoted number that does not
match what the data implies) without failing the build.
"""
from __future__ import annotations

import csv
import decimal
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .curves import ComputeCurve
from .datasets import CrossDomainComparison
from .trends import (
    EffectiveComputeModel,
    EfficiencyRecord,
    Frontier,
    TrendError,
    date_to_months,
    decompose,
    efficiency_factor,
    fit_trend,
    frontier,
    to_report_units,
)

FORMATS = ("csv", "json", "markdown")


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
    "2.0"), values from ten to a hundred print as integers ("44"),
    larger values group thousands ("1,500").
    """
    d = decimal.Decimal(repr(float(x)))
    q = d.quantize(decimal.Decimal(1).scaleb(d.adjusted() - 1),
                   rounding=decimal.ROUND_HALF_EVEN)
    v = float(q)
    if abs(v) >= 100:
        return f"{q:,.0f}"
    s = format(q, "f")
    if abs(v) < 10 and "." not in s:
        return f"{s}.0"
    return s


def fmt_compute(raw: float, unit: str) -> str:
    """A raw-flops total in a display unit; fixed point for table units."""
    v = to_report_units(raw, unit)
    if unit == "table":
        return f"{v:.1f}"
    return f"{v:.4g}"


def _fmt_period(value: float, unit: str) -> str:
    return f"{fmt_factor(value)} {unit}"


def _rounds_to(computed: float, reported: float) -> bool:
    """Does the computed value print as the reported one at its precision?

    Reported headline numbers are integers here, so the check is a
    round-half-even to the nearest whole.
    """
    return round(computed) == round(reported)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def efficiency_table(
    records: Sequence[EfficiencyRecord], front: Frontier | None = None
) -> Table:
    """Frontier runs against the earliest one: factor and its two terms.

    epoch_reduction is baseline epochs over improved epochs;
    per_image_reduction is baseline per-image cost over improved. Their
    product is the efficiency factor. Records without per-image detail
    show only the factor. front, when given, must be frontier(records):
    a caller that builds several tables (compute_table and
    frontier_points take it too) computes the frontier once.
    """
    front = front or frontier(records)
    base = front.records[0]
    rows = []
    for r in front:
        ef = efficiency_factor(base, r)
        try:
            d = decompose(base, r)
            epochs_cell = fmt_factor(d.epochs_ratio)
            image_cell = fmt_factor(d.flops_per_image_ratio)
        except TrendError:
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
    Quoted headline figures that disagree with what the data implies
    become warnings, not errors.
    """
    rows = []
    warnings = []
    for c in comparisons:
        f = c.factor()
        period_value, period_unit = c.period()
        doubling_value, doubling_unit = c.doubling()
        rows.append((
            c.task,
            c.kind,
            c.baseline,
            c.improved,
            fmt_factor(f),
            str(c.reported_factor) if c.reported_factor is not None else "",
            _fmt_period(period_value, period_unit),
            _fmt_period(c.reported_period_value, c.reported_period_unit)
            if c.reported_period_value is not None else "",
            _fmt_period(doubling_value, doubling_unit),
            _fmt_period(c.reported_doubling_value, c.reported_doubling_unit)
            if c.reported_doubling_value is not None else "",
            "yes" if c.estimated else "",
        ))
        if c.factor_is_computed and c.reported_factor is not None:
            if not _rounds_to(f, c.reported_factor):
                warnings.append(
                    f"{c.label}: computed factor {fmt_factor(f)} does not round to "
                    f"the quoted {c.reported_factor:g}"
                )
        if c.reported_period_value is not None and period_unit == c.reported_period_unit:
            if not _rounds_to(period_value, c.reported_period_value):
                warnings.append(
                    f"{c.label}: elapsed period {_fmt_period(period_value, period_unit)} "
                    f"does not round to the quoted "
                    f"{_fmt_period(c.reported_period_value, c.reported_period_unit)}"
                )
        if c.reported_doubling_value is not None and doubling_unit == c.reported_doubling_unit:
            if not _rounds_to(doubling_value, c.reported_doubling_value):
                warnings.append(
                    f"{c.label}: computed doubling "
                    f"{_fmt_period(doubling_value, doubling_unit)} does not round to "
                    f"the quoted "
                    f"{_fmt_period(c.reported_doubling_value, c.reported_doubling_unit)}"
                )
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
    unit: str = "table",
    reported: dict[str, float] | None = None,
    front: Frontier | None = None,
) -> Table:
    """Every record's training total, largest first, with quoted values.

    reported maps record names to quoted totals in table units (raw
    flops / 1e15); deviations beyond two percent become warnings.
    """
    front_names = set((front or frontier(records)).names) if records else set()
    ordered = sorted(records, key=lambda r: (-r.total, r.name))
    rows = []
    warnings = []
    for r in ordered:
        quoted_cell = ""
        deviation_cell = ""
        if reported and r.name in reported:
            quoted_raw = reported[r.name] * 1e15
            quoted_cell = fmt_compute(quoted_raw, unit)
            dev = (r.total - quoted_raw) / quoted_raw
            deviation_cell = f"{dev * 100:+.2f}%"
            if abs(dev) > 0.02:
                warnings.append(
                    f"{r.name}: computed total {fmt_compute(r.total, unit)} deviates "
                    f"{dev * 100:+.2f}% from the quoted {quoted_cell}"
                )
        rows.append((
            r.name,
            r.date.isoformat(),
            f"{r.epochs:g}" if r.epochs is not None else "",
            f"{r.flops_per_image / 1e9:.2f}" if r.flops_per_image is not None else "",
            fmt_compute(r.total, unit),
            quoted_cell,
            deviation_cell,
            "yes" if r.name in front_names else "",
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

def frontier_points(
    records: Sequence[EfficiencyRecord], unit: str = "raw", front: Frontier | None = None
) -> Table:
    """Scatter points for compute-to-threshold over time.

    months counts from the earliest record. log2_total is of the raw
    value regardless of unit, since slopes live there.
    """
    if not records:
        raise TrendError("no records to plot")
    front_names = set((front or frontier(records)).names)
    ordered = sorted(records, key=lambda r: (r.date, r.name))
    origin = date_to_months(ordered[0].date)
    rows = []
    for r in ordered:
        rows.append((
            r.name,
            r.date.isoformat(),
            f"{date_to_months(r.date) - origin:.3f}",
            f"{to_report_units(r.total, unit):.6e}",
            f"{math.log2(r.total):.4f}",
            "yes" if r.name in front_names else "",
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
                f"{to_report_units(compute, unit):.6e}",
                f"{acc:.5f}",
            ))
    return Table(
        key="curve_points",
        title=f"Accuracy versus cumulative training compute ({unit} units)",
        columns=("curve", "metric", "compute", "accuracy"),
        rows=tuple(rows),
    )


def effective_compute_points(
    model: EffectiveComputeModel | None = None, step_months: float = 6.0
) -> Table:
    """The stacked growth factors of an effective-compute model over time.

    Spending and efficiency grow exponentially to hit their period-end
    factors; hardware doubles on its own clock. The product is the
    effective multiple relative to month zero.
    """
    model = model or EffectiveComputeModel()
    if not step_months > 0:
        raise TrendError("step_months must be positive")
    rows = []
    t = 0.0
    while True:
        share = t / model.period_months
        hardware = 2.0 ** (t / model.hardware_doubling_months)
        spending = model.spending_factor ** share
        efficiency = model.efficiency_factor ** share
        rows.append((
            f"{t:g}",
            f"{hardware:.4g}",
            f"{spending:.4g}",
            f"{efficiency:.4g}",
            f"{hardware * spending * efficiency:.4g}",
        ))
        if t >= model.period_months:
            break
        t = min(t + step_months, model.period_months)
    return Table(
        key="effective_compute_points",
        title="Effective compute growth factors",
        columns=("month", "hardware", "spending", "efficiency", "effective"),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def render_markdown(tables: Sequence[Table]) -> str:
    parts = []
    for t in tables:
        lines = [f"## {t.title}", ""]
        lines.append("| " + " | ".join(t.columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in t.columns) + "|")
        for row in t.rows:
            lines.append("| " + " | ".join(row) + " |")
        for w in t.warnings:
            lines.append("")
            lines.append(f"> note: {w}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


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
                "columns": list(t.columns),
                "rows": [list(r) for r in t.rows],
                "warnings": list(t.warnings),
            }
            for t in tables
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def render(tables: Sequence[Table], format: str) -> str:
    if format == "csv":
        return render_csv(tables)
    if format == "json":
        return render_json(tables)
    if format == "markdown":
        return render_markdown(tables)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


def table_warnings(tables: Sequence[Table]) -> tuple[str, ...]:
    out = []
    for t in tables:
        out.extend(t.warnings)
    return tuple(out)
