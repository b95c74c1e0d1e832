"""Reading algoeff output in any of its three formats, and the checks on it.

Each check takes the parsed tables and returns None when the output is
right, or a one-line reason when it is not. Numbers the program prints
at two significant figures are compared within the five percent that
such rounding allows; everything the program prints exactly is
compared exactly.
"""
from __future__ import annotations

import csv
import datetime
import json
import math

from gen import (BACKWARD_MULTIPLIER, IMAGES_PER_EPOCH, MONTH_DAYS, doubling_months,
                 record_total)


class Table:
    def __init__(self, title: str, columns: list[str], rows: list[list[str]],
                 warnings: list[str] | None = None):
        self.title, self.columns, self.rows = title, columns, rows
        #: None for csv, which sends warnings to stderr instead
        self.warnings = warnings

    def col(self, name: str) -> list[str]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def cell(self, name: str, row: int = 0) -> str:
        return self.rows[row][self.columns.index(name)]


def parse(text: str, fmt: str) -> list[Table]:
    if fmt == "json":
        return [Table(t["title"], t["columns"], t["rows"], t["warnings"])
                for t in json.loads(text)["tables"]]
    tables: list[Table] = []
    if fmt == "csv":
        for block in text.rstrip("\n").split("\n\n"):
            lines = block.split("\n")
            rows = list(csv.reader(lines[1:]))
            tables.append(Table(lines[0].removeprefix("# "), rows[0], rows[1:]))
        return tables
    for line in text.split("\n"):
        if line.startswith("## "):
            tables.append(Table(line[3:], [], [], []))
        elif line.startswith("> note: "):
            tables[-1].warnings.append(line[8:])
        elif line.startswith("| "):
            cells = line[2:-2].split(" | ")
            if not tables[-1].columns:
                tables[-1].columns = cells
            elif not line.startswith("| --- "):
                tables[-1].rows.append(cells)
    return tables


def num(cell: str) -> float:
    return float(cell.replace(",", "").split()[0])


def close(printed: str, expected: float, rel: float = 0.05) -> bool:
    return math.isclose(num(printed), expected, rel_tol=rel)


def expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


def table_count(tables: list[Table], n: int) -> str | None:
    return expect(len(tables) == n, f"expected {n} tables, got {len(tables)}")


# The bundled cross-domain comparisons: eight rows, and four quoted
# figures that the data does not reproduce, each reported as a warning.
DOUBLING_ROWS, DOUBLING_WARNINGS = 8, 4


def check_doubling_table(table: Table) -> str | None:
    if len(table.rows) != DOUBLING_ROWS:
        return f"doubling table of {len(table.rows)} rows"
    if table.warnings is not None and len(table.warnings) != DOUBLING_WARNINGS:
        return f"doubling table with {len(table.warnings)} warnings"
    return None


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def check_flops(tables, total: int, kinds=None, nodes: int | None = None,
                shapes: dict[str, str] | None = None) -> str | None:
    """flops summary total, and with --per-layer the per-node rows."""
    s = tables[0]
    printed = int(s.cell("total_per_image").replace(",", ""))
    if printed != total:
        return f"total {printed} != expected {total}"
    if kinds is not None and s.cell("counted_kinds") != ",".join(sorted(kinds)):
        return f"counted_kinds {s.cell('counted_kinds')!r}"
    if nodes is None:
        return table_count(tables, 1)
    if len(tables) != 2:
        return table_count(tables, 2)
    layer = tables[1]
    if len(layer.rows) != nodes:
        return f"{len(layer.rows)} per-layer rows for {nodes} nodes"
    if sum(int(r[3].replace(",", "")) for r in layer.rows) != total:
        return "per-layer counts do not sum to the total"
    if shapes is not None:
        for node, _, shape, _ in layer.rows:
            if shapes.get(node) != shape:
                return f"node {node}: shape {shape} != {shapes.get(node)}"
    return None


def check_shapes(tables, shapes: dict[str, str] | None = None, nodes: int | None = None,
                 output: str | None = None) -> str | None:
    err = table_count(tables, 1)
    if err:
        return err
    rows = tables[0].rows
    if nodes is not None and len(rows) != nodes + 1:
        return f"{len(rows)} shape rows for {nodes} nodes"
    if shapes is not None:
        for node, _, shape in rows:
            if shapes.get(node) != shape:
                return f"node {node}: shape {shape} != {shapes.get(node)}"
    if output is not None and rows[-1][2] != output:
        return f"output shape {rows[-1][2]} != {output}"
    return None


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def crossing(curve_csv: str, threshold: float = 0.791) -> int:
    """First epoch of a curve csv at or above the threshold."""
    header = None
    for line in curve_csv.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if header is None:
            header = line
            continue
        epoch, acc = line.split(",")[:2]
        if float(acc) >= threshold:
            return int(epoch)
    raise ValueError("curve never reaches the threshold")


def analysis_total(epoch: int, macs: int) -> float:
    return BACKWARD_MULTIPLIER * epoch * float(macs) * IMAGES_PER_EPOCH


def check_analyze(tables, epoch: int, total: float, unit: str) -> str | None:
    err = table_count(tables, 1)
    if err:
        return err
    t = tables[0]
    if t.cell("crossing_epoch") != str(epoch):
        return f"crossing epoch {t.cell('crossing_epoch')} != {epoch}"
    printed = t.cell(f"total_compute_{unit}")
    return expect(printed == fmt_compute(total, unit), f"total {printed} != {total!r}")


def fmt_compute(raw: float, unit: str) -> str:
    v = raw / {"raw": 1.0, "stated": 8.64e16, "table": 1e15}[unit]
    return f"{v:.1f}" if unit == "table" else f"{v:.4g}"


def check_appended(path: str, before: int, name: str, total: float) -> str | None:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if len(data) != before + 1:
        return f"records file holds {len(data)} records, expected {before + 1}"
    last = data[-1]
    if last["name"] != name or last["total_compute"] != total:
        return f"appended record {last['name']} {last['total_compute']!r} != {name} {total!r}"
    return None


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def check_frontier(tables, front: list[dict]) -> str | None:
    err = table_count(tables, 1)
    if err:
        return err
    names = [r["name"] for r in front]
    return expect(tables[0].col("model") == names,
                  f"frontier of {len(tables[0].rows)} rows, expected {len(names)}")


def check_trend(tables, points: list[dict], method: str) -> str | None:
    """A trend fit over points, which are the frontier or, with --all-records, every record."""
    err = table_count(tables, 1)
    if err:
        return err
    if method == "endpoints":
        ordered = sorted(points, key=lambda r: r["date"])
        points = [ordered[0], ordered[-1]]
    t = tables[0]
    if t.cell("points") != str(len(points)):
        return f"trend over {t.cell('points')} points, expected {len(points)}"
    expected = doubling_months(points)
    return expect(abs(num(t.cell("doubling_months")) - expected) < 0.011,
                  f"doubling {t.cell('doubling_months')} != {expected:.4f}")


def check_factor(tables, a: dict, b: dict) -> str | None:
    err = table_count(tables, 1)
    if err:
        return err
    t = tables[0]
    days = (_ordinal(b) - _ordinal(a))
    if t.cell("elapsed_days") != str(days):
        return f"elapsed days {t.cell('elapsed_days')} != {days}"
    return expect(close(t.cell("factor"), record_total(a) / record_total(b)),
                  f"factor {t.cell('factor')}")


def check_decompose(tables, a: dict, b: dict) -> str | None:
    err = table_count(tables, 1)
    if err:
        return err
    t = tables[0]
    e, f = a["epochs"] / b["epochs"], a["flops_per_image"] / b["flops_per_image"]
    ok = (close(t.cell("epoch_reduction"), e) and close(t.cell("per_image_reduction"), f)
          and close(t.cell("efficiency_factor"), e * f))
    return expect(ok, f"decomposition {t.rows[0]}")


def check_doubling_pair(tables, a: dict, b: dict) -> str | None:
    err = table_count(tables, 1)
    if err:
        return err
    months = (_ordinal(b) - _ordinal(a)) / MONTH_DAYS
    expected = months / math.log2(record_total(a) / record_total(b))
    printed = num(tables[0].cell("doubling"))
    return expect(abs(printed - expected) < 0.011, f"doubling {printed} != {expected:.4f}")


def check_report(tables, n_records: int, front: list[dict], figures: bool,
                 curve_rows: int) -> str | None:
    err = table_count(tables, 6 if figures else 3)
    if err:
        return err
    names = [r["name"] for r in front]
    eff, doubling, compute = tables[:3]
    if eff.col("model") != names:
        return f"efficiency table of {len(eff.rows)} rows, frontier has {len(names)}"
    err = check_doubling_table(doubling)
    if err:
        return err
    if len(compute.rows) != n_records:
        return f"compute table of {len(compute.rows)} rows for {n_records} records"
    if compute.col("on_frontier").count("yes") != len(names):
        return "compute table marks the wrong frontier"
    if not figures:
        return None
    points, curves, effective = tables[3:]
    if len(points.rows) != n_records or points.col("on_frontier").count("yes") != len(names):
        return "frontier points disagree with the records"
    if len(curves.rows) != curve_rows:
        return f"{len(curves.rows)} curve points, expected {curve_rows}"
    return expect(len(effective.rows) == 13, f"{len(effective.rows)} effective points")


def _ordinal(record: dict) -> int:
    return datetime.date.fromisoformat(record["date"]).toordinal()
