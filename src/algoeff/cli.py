"""The algoeff command line.

Subcommands cover the whole pipeline: per-image operation counts
(flops, shapes), learning-curve analysis (analyze), record comparison
(factor, decompose, doubling), and trend summaries (frontier, trend,
effective, report). Output is a table in csv, json or markdown, chosen
with --format; compute totals display in raw flops or one of two
scaled units via --unit.

Exit codes: 0 on success, 1 for usage errors, 2 for unreadable or
invalid inputs, 3 when a curve never reaches the requested threshold.
"""
from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from pathlib import Path

from .archflops import (
    ArchitectureSpec,
    CountingConvention,
    GraphError,
    LAYER_KINDS,
    TensorShape,
    arch_from_json,
    builtin_arch,
    builtin_names,
    count_flops,
    infer_shapes,
)
from .archflops.zoo import _normalize
from .curves import (
    BACKWARD_MULTIPLIER,
    IMAGES_PER_EPOCH,
    CurveError,
    Threshold,
    ThresholdNotReached,
    compute_to_threshold,
    epochs_to_threshold,
    parse_curve,
    to_compute_curve,
)
from .datasets import (
    DatasetError,
    REPORTED_TERAFLOP_S_DAYS,
    curve_names,
    load_cross_domain,
    load_curve,
    load_imagenet_records,
)
from .reports import (
    FORMATS,
    Table,
    compute_table,
    curve_points,
    doubling_table,
    efficiency_table,
    effective_compute_points,
    fmt_compute,
    fmt_factor,
    frontier_points,
    render,
    table_warnings,
)
from .trends import (
    EffectiveComputeModel,
    EfficiencyRecord,
    TrendError,
    UNIT_DIVISORS,
    decompose,
    doubling_time,
    effective_compute,
    efficiency_factor,
    find_record,
    fit_trend,
    frontier,
    records_from_json,
    records_to_json,
)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems must be 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # parse_args keeps no state between calls, so one parser serves them all
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="algoeff",
        description="Analytic training-compute accounting for image classifiers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, unit=False):
        p.add_argument("--format", choices=FORMATS, default="markdown",
                       help="output format (default markdown)")
        if unit:
            p.add_argument("--unit", choices=sorted(UNIT_DIVISORS), default="table",
                           help="display unit for compute totals: raw flops, stated "
                                "(raw / 8.64e16) or table (raw / 1e15); default table")

    p = sub.add_parser("flops", help="per-image operation count of an architecture")
    p.add_argument("arch", help="bundled architecture name, or a path to a graph "
                                "json file (anything containing / or ending in .json)")
    p.add_argument("--input", default=None, metavar="CxHxW",
                   help="override the graph's default input shape")
    p.add_argument("--count-unit", choices=("mac", "flop2"), default="mac",
                   help="mac counts multiply-accumulates; flop2 doubles them")
    p.add_argument("--include-bias", action="store_true",
                   help="charge one extra operation per output element of biased layers")
    p.add_argument("--counted-kinds", default=None, metavar="KIND[,KIND...]",
                   help="layer kinds to count (default conv2d,linear)")
    p.add_argument("--per-layer", action="store_true", help="also list every node")
    common(p)

    p = sub.add_parser("shapes", help="inferred output shape of every node")
    p.add_argument("arch")
    p.add_argument("--input", default=None, metavar="CxHxW")
    common(p)

    p = sub.add_parser("analyze", help="epochs and compute for a curve to reach a threshold")
    p.add_argument("arch", help="architecture (for per-image cost)")
    p.add_argument("curve", help="curve csv path, or the name of a bundled curve")
    p.add_argument("--threshold", default="0.791", metavar="V|METRIC:V",
                   help="accuracy target, top5 unless written metric:value (default 0.791)")
    p.add_argument("--input", default=None, metavar="CxHxW")
    p.add_argument("--percent", action="store_true",
                   help="curve accuracies are percentages, not fractions")
    p.add_argument("--images-per-epoch", type=float, default=IMAGES_PER_EPOCH)
    p.add_argument("--backward-multiplier", type=float, default=BACKWARD_MULTIPLIER)
    p.add_argument("--name", default=None, help="record name (default: architecture name)")
    p.add_argument("--date", default=None, metavar="YYYY-MM-DD",
                   help="run date, required with --append-records")
    p.add_argument("--append-records", default=None, metavar="FILE",
                   help="append the result to a records json file (created if missing)")
    common(p, unit=True)

    p = sub.add_parser("factor", help="efficiency factor between two records")
    p.add_argument("baseline")
    p.add_argument("improved")
    p.add_argument("--records", default=None, metavar="FILE",
                   help="records json (default: bundled image classification records)")
    common(p, unit=True)

    p = sub.add_parser("decompose", help="split a factor into epoch and per-image terms")
    p.add_argument("baseline")
    p.add_argument("improved")
    p.add_argument("--records", default=None, metavar="FILE")
    common(p)

    p = sub.add_parser(
        "doubling",
        help="efficiency doubling time from two records, an explicit factor, "
             "or the bundled cross-domain comparisons",
    )
    p.add_argument("baseline", nargs="?")
    p.add_argument("improved", nargs="?")
    p.add_argument("--records", default=None, metavar="FILE")
    p.add_argument("--factor", type=float, default=None,
                   help="efficiency factor gained over --period")
    p.add_argument("--period", type=float, default=None, help="elapsed time")
    p.add_argument("--period-unit", choices=("months", "days"), default="months")
    common(p)

    p = sub.add_parser("frontier", help="records on the minimal-compute frontier")
    p.add_argument("--records", default=None, metavar="FILE")
    common(p, unit=True)

    p = sub.add_parser("trend", help="fit the efficiency trend and its doubling time")
    p.add_argument("--records", default=None, metavar="FILE")
    p.add_argument("--method", choices=("regression", "endpoints"), default="regression")
    p.add_argument("--all-records", action="store_true",
                   help="fit through all records instead of the frontier")
    common(p)

    p = sub.add_parser("effective", help="combined multiplier of stacked gain factors")
    p.add_argument("factors", nargs="*", type=float,
                   help="gain factors to multiply; none shows the default "
                        "hardware/spending/efficiency model")
    common(p)

    p = sub.add_parser("report", help="all summary tables at once")
    p.add_argument("--records", default=None, metavar="FILE")
    p.add_argument("--figures", action="store_true",
                   help="also emit plot-point series (bundled curves and records)")
    common(p, unit=True)

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_arch(value: str) -> ArchitectureSpec:
    if "/" in value or value.endswith(".json"):
        return arch_from_json(Path(value).read_text(encoding="utf-8"))
    return builtin_arch(value)


def _load_curve_arg(value: str, percent: bool):
    path = Path(value)
    if "/" in value or value.endswith(".csv") or path.exists():
        return parse_curve(path.read_text(encoding="utf-8"), name=path.stem,
                           percent=percent)
    if value in curve_names():
        if percent:
            raise CurveError("bundled curves are stored as fractions; drop --percent")
        return load_curve(value)
    raise CurveError(
        f"{value!r} is neither a readable csv path nor a bundled curve "
        f"(available: {', '.join(curve_names())})"
    )


def _parse_threshold(text: str) -> Threshold:
    metric, sep, value = text.partition(":")
    if not sep:
        metric, value = "top5", text
    try:
        v = float(value)
    except ValueError:
        raise CurveError(
            f"threshold {text!r} is not a number or metric:value pair"
        ) from None
    return Threshold(metric, v)


def _parse_input(value: str | None) -> TensorShape | None:
    return TensorShape.parse(value) if value else None


def _load_records(path: str | None) -> tuple[EfficiencyRecord, ...]:
    if path is None:
        return load_imagenet_records()
    return records_from_json(Path(path).read_text(encoding="utf-8"))


def _replace_file(path: Path, text: str):
    """Write text to path atomically: a temporary file beside it, then os.replace.

    A reader sees the old file or the new one, never a partial write, and
    a failure leaves the old file as it was and no temporary file behind.
    A symlink is followed, so the file it points at is the one replaced.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    f = open(tmp, "x", encoding="utf-8")  # "x": never clobber another file
    try:
        with f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _counting_convention(args) -> CountingConvention:
    kwargs = {"unit": args.count_unit, "include_bias": args.include_bias}
    if args.counted_kinds is not None:
        kinds = frozenset(k.strip() for k in args.counted_kinds.split(",") if k.strip())
        if not kinds:
            raise GraphError("--counted-kinds needs at least one kind")
        unknown = kinds - LAYER_KINDS
        if unknown:
            raise GraphError(f"unknown layer kinds in --counted-kinds: {sorted(unknown)}")
        kwargs["counted_kinds"] = kinds
    return CountingConvention(**kwargs)


def _fmt_big(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return f"{v:,.0f}"
    return f"{v:.6g}"


# ---------------------------------------------------------------------------
# subcommand handlers, each returning a list of tables
# ---------------------------------------------------------------------------

def _cmd_flops(args) -> list[Table]:
    arch = _load_arch(args.arch)
    convention = _counting_convention(args)
    result = count_flops(arch, input_shape=_parse_input(args.input), convention=convention)
    unit_name = "multiply-accumulates" if convention.unit == "mac" else "flops (2 per mac)"
    summary = Table(
        key="flops_total",
        title=f"Per-image {unit_name} for {arch.name}",
        columns=("architecture", "input", "counted_kinds", "unit", "total_per_image",
                 "giga_per_image"),
        rows=((
            arch.name,
            str(result.input),
            ",".join(sorted(result.convention.counted_kinds)),
            result.convention.unit,
            f"{result.total_per_image:,d}",
            f"{result.gigaops:.4f}",
        ),),
    )
    tables = [summary]
    if args.per_layer:
        shapes = infer_shapes(arch, _parse_input(args.input))
        rows = []
        for node in arch.nodes:
            rows.append((
                node.id,
                node.kind,
                str(shapes[node.id]),
                f"{result.per_layer[node.id]:,d}",
            ))
        tables.append(Table(
            key="flops_per_layer",
            title=f"Per-layer counts for {arch.name}",
            columns=("node", "kind", "output_shape", result.convention.unit),
            rows=tuple(rows),
        ))
    return tables


def _cmd_shapes(args) -> list[Table]:
    arch = _load_arch(args.arch)
    shapes = infer_shapes(arch, _parse_input(args.input))
    rows = [("input", "input", str(shapes["input"]))]
    for node in arch.nodes:
        rows.append((node.id, node.kind, str(shapes[node.id])))
    return [Table(
        key="shapes",
        title=f"Inferred shapes for {arch.name}",
        columns=("node", "kind", "shape"),
        rows=tuple(rows),
    )]


def _cmd_analyze(args) -> list[Table]:
    import datetime

    arch = _load_arch(args.arch)
    curve = _load_curve_arg(args.curve, args.percent)
    threshold = _parse_threshold(args.threshold)
    counted = count_flops(arch, input_shape=_parse_input(args.input))
    epoch = epochs_to_threshold(curve, threshold)
    total = compute_to_threshold(
        curve, threshold, flops_per_image=float(counted.total_per_image),
        images_per_epoch=args.images_per_epoch,
        backward_multiplier=args.backward_multiplier,
    )
    table = Table(
        key="analysis",
        title=f"{arch.name} on curve {curve.name}",
        columns=("architecture", "curve", "metric", "threshold", "crossing_epoch",
                 "gigaflops_per_image", f"total_compute_{args.unit}"),
        rows=((
            arch.name,
            curve.name,
            threshold.metric,
            f"{threshold.value:g}",
            str(epoch),
            f"{counted.gigaops:.4f}",
            fmt_compute(total, args.unit),
        ),),
    )

    if args.append_records:
        if args.date is None:
            raise UsageError("algoeff analyze: --append-records requires --date")
        try:
            run_date = datetime.date.fromisoformat(args.date)
        except ValueError:
            raise TrendError(f"--date {args.date!r} is not YYYY-MM-DD") from None
        name = args.name or arch.name
        path = Path(args.append_records)
        existing = records_from_json(path.read_text(encoding="utf-8")) if path.exists() else ()
        if any(r.name == name for r in existing):
            raise TrendError(f"record {name!r} already exists in {path}")
        if curve.cumulative_flops is not None:
            new = EfficiencyRecord(
                name=name, date=run_date, threshold=threshold, total_compute=total,
                backward_multiplier=args.backward_multiplier,
            )
        else:
            new = EfficiencyRecord(
                name=name, date=run_date, threshold=threshold,
                flops_per_image=float(counted.total_per_image), epochs=float(epoch),
                images_per_epoch=args.images_per_epoch,
                backward_multiplier=args.backward_multiplier,
            )
        _replace_file(path, records_to_json(list(existing) + [new]))
    return [table]


def _cmd_factor(args) -> list[Table]:
    records = _load_records(args.records)
    baseline = find_record(records, args.baseline)
    improved = find_record(records, args.improved)
    ef = efficiency_factor(baseline, improved)
    return [Table(
        key="factor",
        title=f"Efficiency factor, {ef.baseline} to {ef.improved}",
        columns=("baseline", "improved", "factor", "elapsed_days", "elapsed_months",
                 f"baseline_total_{args.unit}", f"improved_total_{args.unit}"),
        rows=((
            ef.baseline,
            ef.improved,
            fmt_factor(ef.factor),
            str(ef.elapsed_days),
            f"{ef.elapsed_months:.2f}",
            fmt_compute(baseline.total, args.unit),
            fmt_compute(improved.total, args.unit),
        ),),
    )]


def _cmd_decompose(args) -> list[Table]:
    records = _load_records(args.records)
    d = decompose(find_record(records, args.baseline), find_record(records, args.improved))
    return [Table(
        key="decomposition",
        title=f"Factor decomposition, {d.baseline} to {d.improved}",
        columns=("baseline", "improved", "epoch_reduction", "per_image_reduction",
                 "efficiency_factor"),
        rows=((
            d.baseline,
            d.improved,
            fmt_factor(d.epochs_ratio),
            fmt_factor(d.flops_per_image_ratio),
            fmt_factor(d.factor),
        ),),
    )]


def _cmd_doubling(args) -> list[Table]:
    explicit = args.factor is not None or args.period is not None
    named = args.baseline is not None or args.improved is not None
    if explicit and named:
        raise UsageError("algoeff doubling: give record names or --factor/--period, not both")
    if explicit:
        if args.factor is None or args.period is None:
            raise UsageError("algoeff doubling: --factor and --period go together")
        d = doubling_time(args.factor, args.period)
        return [Table(
            key="doubling",
            title="Efficiency doubling time",
            columns=("factor", "period", "doubling"),
            rows=((
                fmt_factor(args.factor),
                f"{args.period:g} {args.period_unit}",
                f"{d:.2f} {args.period_unit}",
            ),),
        )]
    if named:
        if args.improved is None:
            raise UsageError("algoeff doubling: need both BASELINE and IMPROVED")
        records = _load_records(args.records)
        ef = efficiency_factor(
            find_record(records, args.baseline), find_record(records, args.improved)
        )
        d = doubling_time(ef.factor, ef.elapsed_months)
        return [Table(
            key="doubling",
            title=f"Efficiency doubling time, {ef.baseline} to {ef.improved}",
            columns=("baseline", "improved", "factor", "period", "doubling"),
            rows=((
                ef.baseline,
                ef.improved,
                fmt_factor(ef.factor),
                f"{ef.elapsed_months:.2f} months",
                f"{d:.2f} months",
            ),),
        )]
    return [doubling_table(load_cross_domain())]


def _cmd_frontier(args) -> list[Table]:
    records = _load_records(args.records)
    front = frontier(records)
    rows = tuple(
        (r.name, r.date.isoformat(), fmt_compute(r.total, args.unit)) for r in front
    )
    return [Table(
        key="frontier",
        title=f"Minimal-compute frontier ({args.unit} units)",
        columns=("model", "date", "total"),
        rows=rows,
    )]


def _cmd_trend(args) -> list[Table]:
    records = _load_records(args.records)
    source = records if args.all_records else frontier(records)
    fit = fit_trend(source, method=args.method)
    return [Table(
        key="trend",
        title="Efficiency trend fit",
        columns=("method", "points", "slope_log2_per_month", "doubling_months",
                 "r_squared"),
        rows=((
            fit.method,
            str(fit.points),
            f"{fit.slope:.6f}",
            f"{fit.doubling_months:.2f}",
            f"{fit.r_squared:.4f}",
        ),),
    )]


def _cmd_effective(args) -> list[Table]:
    if args.factors:
        total = effective_compute(args.factors)  # rejects what _fmt_big cannot print
        rows = [(f"input {i}", _fmt_big(f)) for i, f in enumerate(args.factors, start=1)]
        rows.append(("effective", _fmt_big(total)))
        return [Table(
            key="effective",
            title="Combined effective-compute multiplier",
            columns=("component", "factor"),
            rows=tuple(rows),
        )]
    model = EffectiveComputeModel()
    rows = tuple(
        (label, _fmt_big(value)) for label, value in model.breakdown().items()
    )
    return [Table(
        key="effective",
        title=f"Default effective-compute model over {model.period_months:g} months",
        columns=("component", "factor"),
        rows=rows,
    )]


def _cmd_report(args) -> list[Table]:
    records = _load_records(args.records)
    comparisons = load_cross_domain()
    reported = REPORTED_TERAFLOP_S_DAYS if args.records is None else None
    front = frontier(records)
    tables = [
        efficiency_table(records, front),
        doubling_table(comparisons),
        compute_table(records, unit=args.unit, reported=reported, front=front),
    ]
    if args.figures:
        tables.append(frontier_points(records, unit=args.unit, front=front))
        bundled = load_imagenet_records()
        curves = []
        for cname in curve_names():
            match = [r for r in bundled if _normalize(r.name) == _normalize(cname)]
            if match and match[0].flops_per_image is not None:
                curves.append(to_compute_curve(
                    load_curve(cname), flops_per_image=match[0].flops_per_image,
                ))
        tables.append(curve_points(curves, unit=args.unit))
        tables.append(effective_compute_points())
    return tables


_HANDLERS = {
    "flops": _cmd_flops,
    "shapes": _cmd_shapes,
    "analyze": _cmd_analyze,
    "factor": _cmd_factor,
    "decompose": _cmd_decompose,
    "doubling": _cmd_doubling,
    "frontier": _cmd_frontier,
    "trend": _cmd_trend,
    "effective": _cmd_effective,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("algoeff: a subcommand is required (see --help)")
        tables = _HANDLERS[args.command](args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except ThresholdNotReached as e:
        print(f"algoeff: {e}", file=sys.stderr)
        return 3
    except (GraphError, CurveError, TrendError, DatasetError, OSError) as e:
        print(f"algoeff: {e}", file=sys.stderr)
        return 2

    sys.stdout.write(render(tables, args.format))
    if args.format == "csv":
        for w in table_warnings(tables):
            print(f"note: {w}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
